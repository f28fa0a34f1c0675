import io
import os
import types
import urllib.request
from pathlib import Path

import pytest

import engage
from engage import ingestion


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """Let `python -m engage.cli` child processes import this same engage.

    Several tests run the CLI as its own process from a temporary working
    directory, where a relative PYTHONPATH entry (such as `src` in a plain
    checkout) no longer resolves. Prepend the absolute directory the running
    package was imported from, keeping any entries already there.
    """
    root = str(Path(engage.__file__).resolve().parent.parent)
    existing = os.environ.get("PYTHONPATH")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join([root, existing]) if existing else root)
        yield


class FakeHttpResponse(io.BytesIO):
    status = 200


@pytest.fixture
def urlopen_calls(monkeypatch):
    """Replace urllib's urlopen: each call records (url, timeout), then
    raises ``outcome`` if it is an exception or returns it as the body."""
    calls = []

    def install(outcome):
        def fake_urlopen(url, timeout=None):
            calls.append((url, timeout))
            if isinstance(outcome, BaseException):
                raise outcome
            return FakeHttpResponse(outcome)

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        return calls

    return install


@pytest.fixture
def sleeps(monkeypatch):
    """Give engage.ingestion a clock that only its own sleeps move on; the
    list of the seconds it was asked to sleep, in order."""
    now = 1000.0
    asked = []

    def sleep(seconds):
        nonlocal now
        asked.append(seconds)
        now += seconds

    clock = types.SimpleNamespace(monotonic=lambda: now, sleep=sleep)
    monkeypatch.setattr(ingestion, "time", clock)
    return asked
