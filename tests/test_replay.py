"""An offline replay, a store load or the report's sums split between this
process and a forked worker give what one process gives: the same stored bytes,
rows, bundle, stdout, stderr and exit code, with no worker and no spool file
left behind on any path."""

import _pickle
import contextlib
import io
import json
import marshal
import os
import shutil
import signal
import tempfile
import threading
import types
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import engage
from engage import _fork, ingestion, stats
from engage.cli import main
from engage.ingestion import (MAX_PAGES, FixtureTransport, StorageError, StoreAppender,
                              fixture_sweeps)

BUNDLED_FIXTURES = Path(engage.__file__).parent / "fixtures" / "replication"


def _item(video_id: str, likes: str = "7") -> dict:
    return {"id": video_id, "snippet": {"categoryId": "10"},
            "statistics": {"viewCount": "100", "likeCount": likes, "commentCount": "3"}}


def _write_sweeps(directory: Path, pages_per_sweep: list[int], items: int = 2) -> Path:
    """Sweep k of ``pages_per_sweep[k - 1]`` chained pages of ``items`` items each."""
    directory.mkdir()
    for sweep, n_pages in enumerate(pages_per_sweep, start=1):
        for j in range(1, n_pages + 1):
            page = {"recordedAt": f"2013-12-{10 + sweep}T09:00:00Z",
                    "items": [_item(f"s{sweep}p{j}{chr(97 + i)}") for i in range(items)],
                    "nextPageToken": f"sweep{sweep}_page{j + 1}" if j < n_pages else None}
            (directory / f"sweep{sweep}_page{j}.json").write_text(json.dumps(page),
                                                                  encoding="utf-8")
    return directory


def _edit(directory: Path, sweep: int, j: int, change) -> None:
    path = directory / f"sweep{sweep}_page{j}.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    change(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def _no_worker_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _allow_split(mp: pytest.MonkeyPatch, allowed: bool = True) -> None:
    """Let a replay of two sweeps or more, and a load of any store, fork its
    worker, or neither; and the report's sums, at their own split size, or not."""
    mp.setattr(ingestion, "_fork_allowed", lambda: allowed)
    mp.setattr(stats, "_fork_allowed", lambda: allowed)
    mp.setattr(ingestion, "_SPLIT_MIN_SWEEPS", 2)
    mp.setattr(ingestion, "_SPLIT_MIN_BYTES", 0)


def _run(argv: list[str], store: Path, capsys, split: bool, workers: int = 1) -> tuple:
    """``main(argv)`` with workers allowed or not: its exit code, stdout, stderr
    and the bytes it wrote to ``store``. Checks that ``workers`` were forked when
    allowed and none when not, and that none and no spool file is left; removes
    the file."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    spool_dir = store.parent / "spool"
    spool_dir.mkdir(exist_ok=True)
    open_fds = len(os.listdir("/proc/self/fd"))
    with pytest.MonkeyPatch.context() as mp:
        _allow_split(mp, split)
        mp.setattr(os, "fork", fork)
        mp.setattr(tempfile, "tempdir", str(spool_dir))
        code = main(argv)
    out, err = capsys.readouterr()
    assert len(forks) == split * workers
    _no_worker_left()
    assert not any(spool_dir.iterdir())
    assert len(os.listdir("/proc/self/fd")) == open_fds  # the spool is closed
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])
    stored = store.read_bytes() if store.exists() else None
    store.unlink(missing_ok=True)
    return code, out, err, stored


def _split_equals_serial(argv: list[str], store: Path, capsys) -> tuple:
    split = _run(argv, store, capsys, split=True)
    assert split == _run(argv, store, capsys, split=False)
    return split


def _fetch(fixture: Path, tmp_path: Path, *extra: str) -> tuple[list[str], Path]:
    store = tmp_path / "s.jsonl"
    return ["fetch", "--offline", str(fixture), "--store", str(store), *extra], store


@pytest.mark.parametrize("fixture, extra, counts", [
    (None, (), "fetched 6 pages, 180 snapshots, 106 unique ids"),
    (None, ("--occasions", "2"), "fetched 4 pages, 120 snapshots, 90 unique ids"),
    ([3, 1, 2, 4, 2], (), "fetched 12 pages, 24 snapshots, 24 unique ids"),
], ids=["bundled", "bundled-two-sweeps", "five-sweeps"])
def test_split_fetch_equals_serial(tmp_path, capsys, fixture, extra, counts):
    directory = BUNDLED_FIXTURES if fixture is None else _write_sweeps(tmp_path / "f", fixture)
    argv, store = _fetch(directory, tmp_path, *extra)
    code, out, err, stored = _split_equals_serial(argv, store, capsys)
    assert (code, err) == (0, "")
    assert counts in out


def test_split_replicate_equals_serial(tmp_path, capsys):
    out_dir = tmp_path / "art"
    runs = []
    for split in (True, False):
        # the replay's worker, then the load's
        code, out, err, _ = _run(["replicate", "--out", str(out_dir)], tmp_path / "s", capsys,
                                 split, workers=2)
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        runs.append((code, out, err, files))
        shutil.rmtree(out_dir)
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and "replication checks passed" in runs[0][1]


def _malformed(directory, sweep, j):
    (directory / f"sweep{sweep}_page{j}.json").write_text("{", encoding="utf-8")


def _missing(directory, sweep, j):
    (directory / f"sweep{sweep}_page{j}.json").unlink()


def _repeated(directory, sweep, j):  # page j names page j - 1, already followed
    _edit(directory, sweep, j, lambda data: data.update(nextPageToken=f"sweep{sweep}_page{j - 1}"))


@pytest.mark.parametrize("fault", [_malformed, _missing, _repeated])
@pytest.mark.parametrize("sweep", [1, 2, 3, 4], ids=lambda s: f"sweep{s}")
def test_a_fault_in_either_half_exits_3_as_serial(tmp_path, capsys, fault, sweep):
    # four sweeps: this process replays sweeps 1 and 2, the worker 3 and 4
    directory = _write_sweeps(tmp_path / "f", [3, 3, 3, 3])
    fault(directory, sweep, 3)
    argv, store = _fetch(directory, tmp_path)
    code, out, err, stored = _split_equals_serial(argv, store, capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert stored.count(b"\n") == 2 * ((sweep - 1) * 3 + 2)  # every page before the fault


def test_warnings_in_both_halves_come_in_serial_order(tmp_path, capsys):
    directory = _write_sweeps(tmp_path / "f", [1, 2, 12, 2])
    for sweep, j in [(1, 1), (4, 2), (3, 2)]:
        _edit(directory, sweep, j, lambda data: data["items"].append(
            _item(f"neg{sweep}{j}", likes="-5")))
    argv, store = _fetch(directory, tmp_path)
    code, out, err, _ = _split_equals_serial(argv, store, capsys)
    assert code == 0
    assert err.splitlines() == [
        "warning: video neg11: negative likes count -5",
        "warning: video neg32: negative likes count -5",
        f"warning: sweep 3: stopped after MAX_PAGES = {MAX_PAGES} pages with a nextPageToken"
        " left; the later pages are not fetched",  # the worker's sweep keeps its number
        "warning: video neg42: negative likes count -5",
    ]


@pytest.mark.parametrize("death", [(3, None), (4, "sweep4_page2")],
                         ids=["at-its-first-page", "mid-replay"])
def test_a_worker_that_dies_still_gives_the_serial_result(tmp_path, capsys, monkeypatch, death):
    parent = os.getpid()
    real_get_page = FixtureTransport.get_page

    def get_page(self, params):
        if os.getpid() != parent and (self._sweep, params.get("pageToken")) == death:
            os._exit(7)
        return real_get_page(self, params)

    monkeypatch.setattr(FixtureTransport, "get_page", get_page)
    # pages past the spool's write buffer, so that the worker's records reach the file
    # as it goes and a death leaves the pages before it there
    directory = _write_sweeps(tmp_path / "f", [2, 2, 3, 3], items=60)
    _edit(directory, 4, 3, lambda data: data["items"].append(_item("neg", likes="-1")))
    argv, store = _fetch(directory, tmp_path)
    code, out, err, _ = _split_equals_serial(argv, store, capsys)
    assert code == 0 and "fetched 10 pages, 601 snapshots" in out
    assert err == "warning: video neg: negative likes count -1\n"


@pytest.mark.parametrize("readable", [0, 1, 4])
def test_a_spool_that_cannot_be_read_is_replayed_here(tmp_path, capsys, monkeypatch, readable):
    # the worker's records: the two pages of sweep 3, then the two of sweep 4
    loads = []

    def load(file):
        loads.append(file)
        if len(loads) > readable:
            raise OSError("read failed")
        return marshal.load(file)

    monkeypatch.setattr(ingestion, "marshal", types.SimpleNamespace(dump=marshal.dump, load=load))
    directory = _write_sweeps(tmp_path / "f", [2, 2, 2, 2])
    # this process's half: a worker half that warned would be replayed here unread
    _edit(directory, 1, 1, lambda data: data["items"].append(_item("neg", likes="-2")))
    argv, store = _fetch(directory, tmp_path)
    code, out, err, _ = _split_equals_serial(argv, store, capsys)
    assert loads and code == 0 and "fetched 8 pages, 17 snapshots" in out
    assert err == "warning: video neg: negative likes count -2\n"  # given once


@pytest.mark.parametrize("failing", ["tempfile.TemporaryFile", "os.fork"])
def test_no_temporary_file_or_process_replays_here_alone(tmp_path, capsys, monkeypatch, failing):
    def fail(*args):
        raise OSError("none to be had")

    argv, store = _fetch(_write_sweeps(tmp_path / "f", [2, 1, 2]), tmp_path)
    serial = _run(argv, store, capsys, split=False)
    open_fds = len(os.listdir("/proc/self/fd"))
    with monkeypatch.context() as mp:
        _allow_split(mp)
        mp.setattr(failing, fail)
        assert main(argv) == 0
    assert (0, *capsys.readouterr(), store.read_bytes()) == serial
    _no_worker_left()
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])


def test_a_worker_that_meets_another_warning_leaves_its_half_to_the_parent(
        tmp_path, capsys, monkeypatch):
    real_get_page = FixtureTransport.get_page

    def get_page(self, params):
        if params.get("pageToken") == "sweep3_page2":
            warnings.warn("odd page", RuntimeWarning)  # not an EngageWarning
        return real_get_page(self, params)

    monkeypatch.setattr(FixtureTransport, "get_page", get_page)
    argv, store = _fetch(_write_sweeps(tmp_path / "f", [2, 2, 2]), tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("always", RuntimeWarning)
        code, _, err, _ = _split_equals_serial(argv, store, capsys)
    assert (code, err) == (0, "warning: odd page\n")


def test_an_interrupt_or_an_early_stop_leaves_no_worker(tmp_path, monkeypatch):
    directory = _write_sweeps(tmp_path / "f", [3, 3, 3, 3])
    _allow_split(monkeypatch)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    pages = ingestion._replay_sweeps(fixture_sweeps(directory))
    assert next(pages).ids == ["s1p1a", "s1p1b"]
    pages.close()  # a consumer that stops early
    _no_worker_left()

    real_get_page = FixtureTransport.get_page

    def get_page(self, params):
        if params.get("pageToken") == "sweep2_page2":
            raise KeyboardInterrupt
        return real_get_page(self, params)

    argv, store = _fetch(directory, tmp_path)
    with monkeypatch.context() as mp:  # in this process's half
        mp.setattr(FixtureTransport, "get_page", get_page)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    _no_worker_left()
    assert store.read_bytes().count(b"\n") == 8  # the four pages before it

    real_append = StoreAppender.append

    def append(self, page):
        if page.ids[0] == "s2p1a":
            raise KeyboardInterrupt
        return real_append(self, page)

    with monkeypatch.context() as mp:  # in the consumer, between two pages
        mp.setattr(StoreAppender, "append", append)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    _no_worker_left()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f", "s.jsonl"]  # no spool


@pytest.mark.parametrize("n_sweeps", [1, 7, 8])
def test_only_a_replay_of_eight_sweeps_or_more_forks(tmp_path, capsys, monkeypatch, n_sweeps):
    monkeypatch.setattr(ingestion, "_fork_allowed", lambda: True)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    argv, store = _fetch(_write_sweeps(tmp_path / "f", [1] * n_sweeps), tmp_path)
    assert main(argv) == 0
    assert f"fetched {n_sweeps} pages" in capsys.readouterr().out
    assert len(forks) == (n_sweeps >= 8)
    _no_worker_left()


def test_fork_allowed_needs_fork_two_cpus_and_one_thread(monkeypatch):
    assert _fork._fork_allowed() == (len(os.sched_getaffinity(0)) >= 2)
    with monkeypatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not _fork._fork_allowed()
    with monkeypatch.context() as mp:
        mp.delattr(os, "fork")
        assert not _fork._fork_allowed()
    with monkeypatch.context() as mp:
        mp.delattr(os, "sched_getaffinity")
        assert not _fork._fork_allowed()
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert not _fork._fork_allowed()
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


def test_fork_allowed_needs_sigchld_not_ignored():
    # a process that ignores SIGCHLD has its children reaped as they exit, so that
    # waiting for a worker fails with ChildProcessError
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert not _fork._fork_allowed()
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert _fork._fork_allowed() == (len(os.sched_getaffinity(0)) >= 2)


# --- page graphs ----------------------------------------------------------------

PATH_LIKE = ["../x", "a/b", "a\\b", ".", "..", "x\0y"]
# what page j names as its next: ("end",) nothing; ("step", d) page j + d of its sweep,
# the same one or an earlier one for d <= 0 and a later one for d > 0, or, past either
# end, none at all; ("page", sweep, k) page k of any sweep; ("token", value) a
# path-like or malformed token; ("broken",) page j's own file is not JSON
TOKEN_KINDS = st.one_of(
    st.just(("end",)),
    st.tuples(st.just("step"), st.integers(-3, 0)),
    st.tuples(st.just("step"), st.integers(1, 3)),
    st.tuples(st.just("page"), st.integers(1, 4), st.integers(1, 3)),
    st.tuples(st.just("token"), st.sampled_from([*PATH_LIKE, "", 5])),
    st.just(("broken",)),
)


@st.composite
def page_graphs(draw):
    """Sweeps of page files: sweep k a chain of 1 to 13 pages, each naming the next,
    except, in about half the sweeps, one or two that name something else."""
    graph = {}
    n_sweeps = draw(st.integers(2, 4))
    for sweep in range(1, n_sweeps + 1):
        n_pages = draw(st.integers(1, 13))
        changed = draw(st.one_of(st.just({}), st.dictionaries(
            st.integers(1, n_pages), TOKEN_KINDS, min_size=1, max_size=2)))
        for j in range(1, n_pages + 1):
            kind = changed.get(j, ("step", 1) if j < n_pages else ("end",))
            name = f"sweep{sweep}_page{j}"
            if kind[0] == "step":
                graph[name] = f"sweep{sweep}_page{j + kind[1]}"
            elif kind[0] == "page":
                graph[name] = f"sweep{kind[1]}_page{kind[2]}"
            elif kind[0] == "token":
                graph[name] = kind[1]
            else:
                graph[name] = kind[0]  # "end" or "broken"
    return n_sweeps, graph


def _expected(n_sweeps: int, graph: dict) -> tuple[int, list[str], list[str], str | None]:
    """The exit code, the pages stored in order, the warnings and a part of the error
    of a fetch of the graph, by README's rules: each sweep starts at its page 1 and
    follows tokens, refusing a token it has already followed, for at most MAX_PAGES
    pages."""
    stored, warned = [], []
    for sweep in range(1, n_sweeps + 1):
        followed, token = set(), None
        for _ in range(MAX_PAGES):
            name = token or f"sweep{sweep}_page1"
            if name in (".", "..") or any(c in name for c in "/\\\0"):
                return 3, stored, warned, "bad nextPageToken for a fixture page: "
            if name not in graph:
                return 3, stored, warned, "fixture page not found: "
            if graph[name] == "broken":
                return 3, stored, warned, " is not valid JSON: "
            token = None if graph[name] == "end" else graph[name]
            if token is not None and not (isinstance(token, str) and token):
                return 3, stored, warned, f"bad nextPageToken: {token!r} "
            if token in followed:
                return 3, stored, warned, f"repeated nextPageToken: {token!r} "
            stored.append(name)
            if token is None:
                break
            followed.add(token)
        if token is not None:
            warned.append(f"sweep {sweep}: stopped after MAX_PAGES = {MAX_PAGES} pages with"
                          " a nextPageToken left; the later pages are not fetched")
    return 0, stored, warned, None


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(page_graphs())
def test_fetch_of_any_page_graph_stores_its_acyclic_prefix(drawn):
    n_sweeps, graph = drawn
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        _allow_split(mp)  # so that a fault can fall in either half
        directory = Path(tmp, "f")
        directory.mkdir()
        for name, token in graph.items():
            page = {"recordedAt": "2013-12-10T09:00:00Z", "items": [_item(name)]}
            if token != "end":
                page["nextPageToken"] = token
            text = "not json" if token == "broken" else json.dumps(page)
            (directory / f"{name}.json").write_text(text, encoding="utf-8")
        store = Path(tmp, "s.jsonl")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["fetch", "--offline", str(directory), "--store", str(store)])
        _no_worker_left()
        expected_code, pages, warned, fault = _expected(n_sweeps, graph)
        lines = store.read_text(encoding="utf-8").splitlines() if store.exists() else []
        assert (code, [json.loads(line)["video_id"] for line in lines]) == (expected_code, pages)
        err_lines = err.getvalue().splitlines()
        assert err_lines[:len(warned)] == [f"warning: {w}" for w in warned]
        assert len(err_lines) == len(warned) + (fault is not None)
        if fault is not None:
            assert err_lines[-1].startswith("error: ") and fault in err_lines[-1]


# --- split load -----------------------------------------------------------------

def _line(video_id: str, stamp: str = "2013-12-11T09:00:00Z", views: int = 100,
          compact: bool = False, **fields) -> str:
    """A store line: as the store writes it, or, ``compact``, one that only the
    JSON path reads."""
    record = {"video_id": video_id, "fetched_at": stamp, "views": views, "likes": 7,
              "dislikes": 1, "comments": 3, "comments_enabled": True, "category": "Music",
              **fields}
    return json.dumps(record, separators=(",", ":") if compact else None) + "\n"


def _store(tmp_path: Path, lines: list[str]) -> Path:
    store = tmp_path / "s.jsonl"
    store.write_text("".join(lines), encoding="utf-8")
    return store


def _splits(store: Path) -> bool:
    """Whether a line of the store ends past its middle, before its last byte."""
    data = store.read_bytes()
    return 0 < data.find(b"\n", len(data) // 2) + 1 < len(data)


def _load(store: Path, split: bool, lenient: bool = False) -> tuple:
    """``_load_rows(store, lenient)`` with the worker allowed or not: its rows and
    note, or its error, and its warnings. Checks that a worker was forked exactly
    when allowed and the store splits, and that none and no spool file is left."""
    forks = []
    real_fork = os.fork
    spool_dir = store.parent / "spool"
    spool_dir.mkdir(exist_ok=True)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _allow_split(mp, split)
        mp.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        mp.setattr(tempfile, "tempdir", str(spool_dir))
        try:
            result = ingestion._load_rows(store, lenient)
        except StorageError as exc:
            result = f"error: {exc}"
    assert len(forks) == (split and _splits(store))
    _no_worker_left()
    assert not any(spool_dir.iterdir())
    return result, [(w.category, str(w.message)) for w in caught]


def _load_split_equals_serial(store: Path, lenient: bool = False) -> tuple:
    split = _load(store, True, lenient)
    assert split == _load(store, False, lenient)
    return split


STAMPS = ["2013-12-11T09:00:00Z", "2013-12-11T09:00:00+00:00", "2013-12-12T09:00:00Z"]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.sampled_from("abcdef"), st.sampled_from(STAMPS),
                          st.integers(0, 10**6), st.sampled_from(["plain", "compact", "blank"])),
                min_size=2, max_size=40))
def test_split_load_equals_one_process_load(drawn):
    # few ids and stamps, so that ids recur across the split, also at an equal stamp
    lines = ["  \n" if kind == "blank" else _line(video_id, stamp, views, kind == "compact")
             for video_id, stamp, views, kind in drawn]
    with tempfile.TemporaryDirectory() as tmp:
        (rows, note), caught = _load_split_equals_serial(_store(Path(tmp), lines))
    stored = [video_id for video_id, *_, kind in drawn if kind != "blank"]
    assert caught == [] and [row[0] for row in rows] == list(dict.fromkeys(stored))
    assert note.startswith(f"loaded {len(stored)} records")


def _analyze(store: Path, tmp_path: Path) -> tuple[list[str], Path]:
    out = tmp_path / "b.json"
    return ["analyze", "--store", str(store), "--n", "5", "--out", str(out)], out


@pytest.mark.parametrize("lineno", [5, 35], ids=["this-half", "workers-half"])
def test_a_malformed_line_in_either_half_exits_4_as_one_process(tmp_path, capsys, lineno):
    lines = [_line(f"v{i:02d}") for i in range(40)]
    lines[lineno - 1] = '{"video_id": "v"\n'
    argv, out = _analyze(_store(tmp_path, lines), tmp_path)
    code, stdout, err, bundle = _split_equals_serial(argv, out, capsys)
    assert (code, stdout, bundle) == (4, "", None)
    assert err.startswith(f"error: s.jsonl line {lineno}: ") and err.count("\n") == 1


def test_warnings_in_the_workers_half_come_once_in_order(tmp_path, capsys):
    lines = [_line(f"v{i:02d}", views=1000 + i) for i in range(40)]
    lines[3] = _line("neg", likes=-3)  # this process's half
    lines[25] = _line("neg", likes=-25)  # the worker's, from here on
    lines[28] = _line("json", compact=True)  # no warning, but not in the store's own layout
    lines[31] = _line("off", comments_enabled=False, comments=4)
    argv, out = _analyze(_store(tmp_path, [*lines, '{"video_id": "torn"']), tmp_path)
    code, stdout, err, _ = _split_equals_serial(argv, out, capsys)
    assert code == 0
    assert "loaded 40 records from s.jsonl, 39 unique ids, 1 torn final line skipped" in stdout
    assert err.splitlines()[:4] == [
        "warning: video neg: negative likes count -3",
        "warning: video neg: negative likes count -25",
        "warning: video off: comment count 4 with commenting disabled; dropping count",
        "warning: s.jsonl line 41: torn final line skipped: Expecting ',' delimiter:"
        " line 1 column 20 (char 19)",
    ]


def test_an_analyze_that_splits_its_load_and_its_sums_writes_the_one_process_bundle(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(stats, "_SPLIT_MIN_VALUES", 0)
    monkeypatch.setattr(stats, "_BLOCK", 3)  # so that each half of the sums has blocks
    lines = [_line(f"v{i:02d}", views=1000 + 37 * i, likes=i % 9, dislikes=i % 4,
                   comments=i * i % 50) for i in range(40)]
    lines[6] = _line("nolikes", views=1500, likes=None)
    lines[29] = _line("nodislikes", views=2500, dislikes=None)
    store = _store(tmp_path, lines)
    out = tmp_path / "b.json"
    argv = ["analyze", "--store", str(store), "--n", "40", "--out", str(out)]
    split = _run(argv, out, capsys, split=True, workers=2)  # the load's and the sums'
    assert split == _run(argv, out, capsys, split=False)
    code, stdout, _, bundle = split
    assert code == 0 and stdout.startswith("analyzed 40 videos") and bundle


def test_a_lenient_skip_in_the_workers_half_is_given_once(tmp_path):
    lines = [_line(f"v{i:02d}") for i in range(40)]
    lines[30] = "not json\n"
    (rows, note), caught = _load_split_equals_serial(_store(tmp_path, lines), lenient=True)
    assert len(rows) == 39 and note.endswith(", 1 malformed line(s) skipped")
    assert caught == [(ingestion.EngageWarning, "s.jsonl line 31 skipped:"
                       " Expecting value: line 1 column 1 (char 0)")]


def _die_in_the_worker(mp):
    parent, real = os.getpid(), ingestion._latest_by_id
    mp.setattr(ingestion, "_latest_by_id",
               lambda *args: os._exit(7) if os.getpid() != parent else real(*args))


def _fail_the_read(mp):
    mp.setattr(_pickle, "load", lambda file: (_ for _ in ()).throw(OSError("read failed")))


def _truncate_the_record(mp):
    mp.setattr(_pickle, "dump", lambda record, file: file.write(_pickle.dumps(record)[:-9]))


@pytest.mark.parametrize("fault", [_die_in_the_worker, _fail_the_read, _truncate_the_record])
def test_a_worker_that_gives_no_readable_record_leaves_its_half_here(tmp_path, fault):
    lines = [_line(f"v{i:02d}", views=i) for i in range(40)]
    lines[3] = _line("neg", likes=-1)
    lines[30] = _line("v02", views=99, compact=True)  # a later record of an id of this half
    store = _store(tmp_path, lines)
    serial = _load(store, False)
    with pytest.MonkeyPatch.context() as mp:
        fault(mp)
        assert _load(store, True) == serial
    (rows, note), caught = serial
    assert len(rows) == 39 and rows[2][2] == 99 and len(caught) == 1


def test_an_interrupt_in_this_half_leaves_no_worker(tmp_path, monkeypatch):
    store = _store(tmp_path, [_line(f"v{i:02d}") for i in range(40)])
    _allow_split(monkeypatch)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    parent, real, calls = os.getpid(), ingestion._matched_values, []

    def matched_values(groups):
        calls.append(1)
        if os.getpid() == parent and len(calls) == 3:
            raise KeyboardInterrupt
        return real(groups)

    monkeypatch.setattr(ingestion, "_matched_values", matched_values)
    with pytest.raises(KeyboardInterrupt):
        ingestion._load_rows(store)
    _no_worker_left()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.jsonl"]  # no spool
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])


@pytest.mark.parametrize("lines, min_bytes, allowed, forks", [
    (40, lambda size: size, True, 1),
    (40, lambda size: size + 1, True, 0),
    (40, lambda size: 0, False, 0),
    (1, lambda size: 0, True, 0),  # no line ends past the middle but the last
], ids=["at-the-size", "below-the-size", "not-allowed", "one-line"])
def test_only_a_store_of_the_split_size_forks(tmp_path, monkeypatch, lines, min_bytes, allowed,
                                              forks):
    store = _store(tmp_path, [_line(f"v{i:02d}") for i in range(lines)])
    monkeypatch.setattr(ingestion, "_fork_allowed", lambda: allowed)
    monkeypatch.setattr(ingestion, "_SPLIT_MIN_BYTES", min_bytes(store.stat().st_size))
    made = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(1) or real_fork())
    rows, note = ingestion._load_rows(store)
    assert len(made) == forks
    assert (len(rows), note) == (lines, f"loaded {lines} records from s.jsonl, {lines} unique ids")
    _no_worker_left()


def test_lines_to_gives_whole_lines_across_blocks():
    # lines across the 16 KiB blocks, one of them longer than a block, and a last
    # line with no line end
    lines = [b"x" * (i % 700) + b"\n" for i in range(400)]
    lines[150] = b"y" * 100_000 + b"\n"
    data = b"".join(lines) + b"tail"
    for end in (0, len(lines[0]), len(b"".join(lines[:151])), len(data) - 4, len(data)):
        with io.BytesIO(data) as f:
            assert list(ingestion._lines_to(f, end)) == data[:end].splitlines(keepends=True)


def test_forked_gives_the_spool_only_of_a_worker_that_finished():
    def fail(spool):
        spool.write(b"part of a record")
        spool.flush()
        raise RuntimeError("stops the worker, which exits with status 1")

    with _fork._forked(fail) as wait:
        assert wait() is None
    with _fork._forked(lambda spool: spool.write(b"a record")) as wait:
        assert wait().read() == b"a record"

    def warn(spool):
        warnings.warn("x", ingestion.EngageWarning)
        spool.write(b"a record")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the worker's rule holds whatever the caller's
        with _fork._forked(warn) as wait:
            assert wait() is None
    _no_worker_left()
