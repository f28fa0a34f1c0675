"""Shared parts of the engage benchmark: paths, workloads, child processes
and the per-command output checks."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
COMMAND_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    shape: gen.Shape
    # report-wide analyzes the generator's latest-per-id store; the other
    # workloads analyze the store their own fetch wrote
    analyze_generated_store: bool


WORKLOADS = {
    "replicate-cold": Workload(gen.Shape(sweeps=3, chart=60, keep=30, n=100), False),
    "store-scan": Workload(gen.Shape(sweeps=200, chart=500, keep=300, n=100), False),
    "report-wide": Workload(gen.Shape(sweeps=80, chart=500, keep=0, n=None), True),
}


@dataclass
class Command:
    name: str
    seconds: float
    code: int
    stdout: str
    stderr: str


class Children:
    """Runs engage commands as fresh child processes and times them from outside."""

    def __init__(self, directory: Path):
        self.directory = directory
        # Bytecode caching stays on, as for a user, so the warm-up's .pyc
        # files spare every timed child the compile.
        self.env = {key: value for key, value in os.environ.items()
                    if key != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(SRC)
        self.peak_rss_mb = 0.0

    def python(self, name: str, args: list[str]) -> Command:
        out, err = self.directory / "child.out", self.directory / "child.err"
        with open(out, "wb") as so, open(err, "wb") as se:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=so, stderr=se,
                                    env=self.env, cwd=self.directory)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        return Command(name, seconds, proc.returncode,
                       out.read_text(encoding="utf-8", errors="replace"),
                       err.read_text(encoding="utf-8", errors="replace"))

    def engage(self, name: str, args: list[str]) -> Command:
        return self.python(name, ["-m", "engage.cli", name, *args])

    def calibrate(self) -> Command:
        peak = self.peak_rss_mb
        cmd = self.python("calibrate", [str(HERE / "calibrate.py")])
        self.peak_rss_mb = peak  # peak_rss_mb is engage's alone
        return cmd


def workload_commands(workload: Workload, data: Path, manifest: dict,
                      directory: Path) -> list[tuple[str, list[str]]]:
    """The paper's protocol as three commands: fetch, analyze, report."""
    fetched = directory / "store.jsonl"
    analyzed = data / "store.jsonl" if workload.analyze_generated_store else fetched
    return [
        ("fetch", ["--offline", str(data), "--store", str(fetched)]),
        ("analyze", ["--store", str(analyzed), "--n", str(manifest["n"]),
                     "--out", str(directory / "bundle.json")]),
        ("report", ["--bundle", str(directory / "bundle.json"), "--format", "md,csv,json",
                    "--out", str(directory / "report")]),
    ]


def check_command(name: str, code: int, stdout: str, directory: Path, manifest: dict,
                  reference: Path | None) -> list[str]:
    """Problems with one command's exit code and outputs."""
    if code != 0:
        return [f"{name} exited {code}"]
    if name == "fetch":
        return check.check_fetch(stdout, manifest)
    if name == "analyze":
        try:
            return check.check_bundle(check.load_json(directory / "bundle.json"), manifest)
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            return [f"bundle unreadable or malformed: {exc!r}"]
    if name == "report":
        if reference is None:
            return check.check_report_files(directory / "report")
        return check.check_same_files(directory / "report", reference / "report")
    if name == "replicate":
        problems = check.check_replicate(stdout)
        if reference is not None:
            problems += check.check_same_files(directory / "replicate", reference / "replicate")
        return problems
    raise ValueError(name)


def environment(engage_file: str) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"engage_file": engage_file, "commit": commit, "nproc": os.cpu_count(),
            "python": platform.python_version()}


def hygiene(engage_file: str) -> list[str]:
    if not Path(engage_file).resolve().is_relative_to(SRC.resolve()):
        return [f"engage resolves to {engage_file}, not the checkout's src"]
    return []
