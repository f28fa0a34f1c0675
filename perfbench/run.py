"""The engage benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload store-scan --seed 1 --seconds 20 --trace 0

With ``--trace 0`` every engage command runs as a fresh child process, one
at a time (a closed loop with one client), timed from outside; the last
line of output is a JSON object with the end-to-end metrics, in seconds
at the reference machine speed (see ``REFERENCE_CALIBRATE_S``). With
``--trace 1`` the same commands run in this process with spans around
calls into each engage module, and the JSON holds the per-layer metrics.
``--workload all`` runs every workload in turn. Every command's output is
checked; the exit code is 1 if any check failed. See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import calibrate
import check
import gen
from harness import (SRC, WORK, WORKLOADS, Children, Command, check_command, environment,
                     hygiene, workload_commands)

END_TO_END = {  # name -> unit
    "setup_s": "s", "replicate_s": "s", "fetch_s": "s", "analyze_s": "s", "report_s": "s",
    "peak_rss_mb": "MB",
}
MIN_ITERATIONS = 2  # the first iteration's renders are the byte-identity reference
# The median seconds of calibrate.py on the reference machine: a shared
# 2-vCPU VM (Intel Xeon, 2.1 GHz, Python 3.11.7). The machine's speed
# drifts by a third within seconds, so calibrate.py runs before the first
# command and after every command, and each command's wall time is scaled
# by this over the mean of the two calibrations around it. The metrics
# read as seconds at the reference speed; the wall times are printed
# beside them and kept in the result file.
REFERENCE_CALIBRATE_S = 0.38


def percentile_tail(samples: list[float]) -> tuple[str, float] | None:
    """The highest percentile that has at least ten samples above it."""
    ordered = sorted(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = -(-len(ordered) * p // 100)  # nearest-rank percentile
        if rank >= 1 and len(ordered) - rank >= 10:
            return f"p{p:g}", ordered[int(rank) - 1]
    return None


def run_untraced(name: str, seed: int, seconds: float, run_dir: Path) -> dict:
    workload = WORKLOADS[name]
    data, manifest = gen.prepare(WORK / "data", name, seed, workload.shape)
    children = Children(run_dir)
    problems: list[str] = []
    attempted = failed = 0

    def record(cmd: Command, directory: Path, reference: Path | None) -> None:
        nonlocal attempted, failed
        found = check_command(cmd.name, cmd.code, cmd.stdout, directory, manifest, reference)
        attempted += 1
        if found:
            failed += 1
            problems.extend(f"{cmd.name}: {p}" for p in found)
            if cmd.code != 0:
                problems.append(f"{cmd.name} stderr: {cmd.stderr.strip()[-300:]}")

    # Discarded warm-ups: one import (which also resolves engage) and one
    # replicate, whose artifacts are the reference for later replicates.
    probe = children.python("import", ["-c", "import engage, engage.cli; print(engage.__file__)"])
    engage_file = probe.stdout.strip()
    problems += hygiene(engage_file) if probe.code == 0 else [f"import failed: {probe.stderr}"]
    warm = run_dir / "warm-up"
    warm.mkdir()
    record(children.engage("replicate", ["--out", str(warm / "replicate")]), warm, None)

    # Each iteration is one fresh import (setup_s) then every command, so
    # samples of all metrics spread over the whole run. An iteration starts
    # only if the previous one's length still fits in the run.
    samples: dict[str, list[float]] = defaultdict(list)  # wall seconds
    scaled: dict[str, list[float]] = defaultdict(list)  # seconds at the reference speed

    def calibrate_machine() -> float:
        cal = children.calibrate()
        samples["calibrate_s"].append(cal.seconds)
        if cal.code != 0 or cal.stdout.strip() != calibrate.CHECKSUM:
            problems.append(f"calibrate.py exited {cal.code} and printed {cal.stdout.strip()!r},"
                            f" not {calibrate.CHECKSUM}: {cal.stderr.strip()[-300:]}")
        return cal.seconds

    before = calibrate_machine()

    def sample(metric: str, cmd: Command) -> None:
        nonlocal before
        after = calibrate_machine()
        samples[metric].append(cmd.seconds)
        scaled[metric].append(cmd.seconds * 2 * REFERENCE_CALIBRATE_S / (before + after))
        before = after

    reference: Path | None = None
    iterations = 0
    started = time.perf_counter()
    last = 0.0
    while iterations < MIN_ITERATIONS or time.perf_counter() - started + last <= seconds:
        begun = time.perf_counter()
        sample("setup_s", children.python("import", ["-c", "import engage.cli"]))
        directory = run_dir / f"iteration{iterations}"
        directory.mkdir()
        commands = workload_commands(workload, data, manifest, directory)
        commands.append(("replicate", ["--out", str(directory / "replicate")]))
        for cmd_name, args in commands:
            cmd = children.engage(cmd_name, args)
            sample(f"{cmd_name}_s", cmd)
            record(cmd, directory, warm if cmd_name == "replicate" else reference)
        if reference is None:
            reference = directory
        else:
            shutil.rmtree(directory)
        iterations += 1
        last = time.perf_counter() - begun
    if (reference / "bundle.json").is_file():
        problems += check.self_test(check.load_json(reference / "bundle.json"), manifest)

    metrics = {m: {"value": statistics.median(scaled[m]), "unit": unit}
               for m, unit in END_TO_END.items() if m != "peak_rss_mb"}
    metrics["peak_rss_mb"] = {"value": children.peak_rss_mb, "unit": "MB"}
    details = {m: {"wall_median": statistics.median(v), "n": len(v), "samples": v,
                   "scaled": scaled.get(m), "tail": percentile_tail(scaled.get(m, v))}
               for m, v in samples.items()}
    return {"workload": name, "seed": seed, "env": environment(engage_file),
            "iterations": iterations, "problems": problems, "attempted": attempted,
            "failed": failed, "metrics": metrics, "details": details}


def print_untraced(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} iterations={result['iterations']}"
          f" env={json.dumps(result['env'])}")
    for name, unit in END_TO_END.items():
        line = f"{result['workload']:>15} {name:<12} {result['metrics'][name]['value']:10.4f} {unit}"
        detail = result["details"].get(name)
        if detail:
            tail = detail["tail"]
            line += f"  median of n={detail['n']}, wall {detail['wall_median']:.4f} {unit}" + (
                f", {tail[0]} {tail[1]:.4f} {unit}" if tail
                else ", no percentile has ten samples above it")
        else:
            line += "  largest ru_maxrss of any child"
        print(line)
    rate = result["failed"] / result["attempted"]
    print(f"{result['workload']:>15} {'error_rate':<12} {rate:10.4f} share"
          f"  ({result['failed']} of {result['attempted']} commands failed)")
    for problem in result["problems"]:
        print(f"CHECK FAILED {result['workload']}: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "engage" / "cli.py").is_file():
        print(f"error: no engage sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        run_dir = WORK / "runs" / f"{name}-seed{args.seed}-pid{os.getpid()}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        try:
            if args.trace:
                import trace_run
                result = trace_run.run_traced(name, args.seed, args.seconds, run_dir)
                trace_run.print_traced(result)
            else:
                result = run_untraced(name, args.seed, args.seconds, run_dir)
                print_untraced(result)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        results.append(result)
        out = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    correct = not any(r["problems"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{m}": v for r in results for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
