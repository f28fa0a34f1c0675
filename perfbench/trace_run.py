"""Traced run: per-layer metrics from spans around calls into engage.

The workload's fetch, analyze and report commands run in this process via
``engage.cli.main``. The benchmark wraps public functions of each engage
module (the program itself is not changed) so every call records a span
``(name, start, end, parent, run_id)``; spans are kept in memory and
written to a JSON-lines file when the run ends. Passes alternate untraced
and traced, so the difference of their medians is the tracing overhead.
Import costs come from ``-X importtime`` in fresh child processes.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import gen
import harness

LAYERS = ("cli", "ingestion", "metrics", "stats", "report")
IMPORT_SAMPLES = 3
# (module, public function, span name); render's span is named per format
TARGETS = (
    ("engage.ingestion", "fetch_trending_page", "ingestion.fetch_page"),
    ("engage.ingestion", "store_snapshots", "ingestion.store_append"),
    ("engage.ingestion", "load_snapshots", "ingestion.load"),
    ("engage.ingestion", "select_study_sample", "ingestion.select"),
    ("engage.metrics", "compute_metrics", "metrics.compute"),
    ("engage.stats", "quartile_filter", "stats.quartile_filter"),
    ("engage.stats", "summarize", "stats.summarize"),
    ("engage.stats", "correlation_matrix", "stats.correlation_matrix"),
    ("engage.stats", "pearson", "stats.pearson"),
    ("engage.stats", "histogram", "stats.histogram"),
    ("engage.report", "build_report", "report.build_report"),
    ("engage.report", "render", "report.render"),
    ("engage.report", "render_histogram_plot", "report.plots"),
)
# metric name -> unit, in the order printed
PER_LAYER = {
    "import.engage_cli_s": "s", "import.scipy_special_s": "s", "import.requests_s": "s",
    "ingestion.fetch_page.s": "s", "ingestion.fetch_page.count": "count",
    "ingestion.fetch_page.us_per_item": "us",
    "ingestion.store_append.s": "s", "ingestion.store_append.bytes": "bytes",
    "ingestion.load.s": "s", "ingestion.load.records": "count",
    "ingestion.load.us_per_record": "us", "ingestion.load.json_decode_s": "s",
    "ingestion.load.validate_s": "s", "ingestion.dedup_s": "s",
    "ingestion.dedup.useful_ratio": "ratio", "ingestion.select.s": "s",
    "ingestion.select.eligible": "count", "ingestion.select.chosen": "count",
    "metrics.compute.s": "s", "metrics.compute.calls": "count",
    "stats.quartile_filter.s": "s", "stats.summarize.s": "s", "stats.summarize.calls": "count",
    "stats.correlation_matrix.s": "s", "stats.pearson.calls": "count", "stats.histogram.s": "s",
    "report.build_report.s": "s", "report.render_json.s": "s", "report.render_md.s": "s",
    "report.render_csv.s": "s", "report.plots.s": "s", "report.bundle_load.s": "s",
    "report.bytes_written": "bytes",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans in memory, plus counts taken at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.run_id = ""

    def call(self, name: str, fn, *args, **kwargs):
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[span_id] = (name, start, time.perf_counter(), parent, self.run_id)
            self.stack.pop()

    def wrap(self, fn, name: str):
        if name == "report.render":
            def traced_render(bundle, format="md"):
                return self.call(f"report.render_{format}", fn, bundle, format)
            return traced_render
        counted = COUNTERS.get(name)

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counted is not None:
                counted(self.counts, result, *args, **kwargs)
            return result
        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, run_id in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "run_id": run_id}) + "\n")


def _count_page(counts, result, *args, **kwargs):
    counts["fetch_page.items"] += len(result[0])


def _count_load(counts, result, *args, **kwargs):
    counts["load.unique"] += len(result.snapshots)


def _count_select(counts, result, candidates, *args, **kwargs):
    counts["select.eligible"] += sum(1 for s in candidates.snapshots if s.comments_enabled)
    counts["select.chosen"] += len(result.snapshots)


COUNTERS = {
    "ingestion.fetch_page": _count_page,
    "ingestion.load": _count_load,
    "ingestion.select": _count_select,
}


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Replace each target function, in every engage module that holds it,
    by its traced wrapper; restore the originals on exit."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "engage" or name.startswith("engage.")]
    replaced = []
    for module_name, attr, span_name in TARGETS:
        original = getattr(sys.modules[module_name], attr, None)
        if original is None:
            continue  # a renamed or removed function leaves its metrics at 0
        wrapper = tracer.wrap(original, span_name)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    replaced.append((module, key, original))
    try:
        yield
    finally:
        for module, key, original in replaced:
            setattr(module, key, original)


def import_times(children: harness.Children) -> dict[str, float]:
    """Median -X importtime costs of a fresh ``import engage.cli``."""
    code = ("import time; t = time.perf_counter(); import engage.cli; "
            "print(time.perf_counter() - t)")
    children.python("import", ["-c", "import engage.cli"])  # discarded warm-up
    samples = defaultdict(list)
    for _ in range(IMPORT_SAMPLES):
        cmd = children.python("import", ["-X", "importtime", "-c", code])
        samples["import.engage_cli_s"].append(float(cmd.stdout.strip()))
        cumulative = {"scipy.special": 0, "requests": 0}
        for line in cmd.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in cumulative:
                name = parts[2].strip()
                cumulative[name] = max(cumulative[name], int(parts[1]))
        samples["import.scipy_special_s"].append(cumulative["scipy.special"] / 1e6)
        samples["import.requests_s"].append(cumulative["requests"] / 1e6)
    return {name: statistics.median(values) for name, values in samples.items()}


def _pass(cli_main, tracer: Tracer | None, workload: harness.Workload, data: Path,
          manifest: dict, directory: Path, reference: Path | None
          ) -> tuple[float, list[str], int, int]:
    """One pass of fetch, analyze and report.

    Returns the pass's seconds, its problems, and the numbers of commands
    attempted and failed.
    """
    directory.mkdir()
    problems = []
    failed = 0
    commands = harness.workload_commands(workload, data, manifest, directory)
    start = time.perf_counter()
    for name, args in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if tracer is None:
                code = cli_main([name, *args])
            else:
                code = tracer.call(f"cli.{name}", cli_main, [name, *args])
        found = harness.check_command(name, code, out.getvalue(), directory, manifest, reference)
        problems += [f"{name}: {p}" for p in found]
        failed += bool(found)
    return time.perf_counter() - start, problems, len(commands), failed


def layer_self_times(spans: list[tuple], run_id: str) -> dict[str, float]:
    """Per layer, the summed span durations minus the time of their child spans."""
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, parent, rid in spans:
        if rid == run_id and parent is not None:
            child_time[parent] += end - start
    self_time = dict.fromkeys(LAYERS, 0.0)
    for span_id, (name, start, end, parent, rid) in enumerate(spans):
        if rid == run_id:
            self_time[name.split(".")[0]] += end - start - child_time[span_id]
    return self_time


def _bytes(paths) -> int:
    return sum(p.stat().st_size for p in paths if p.is_file())


def metrics_of_pass(tracer: Tracer, directory: Path, records: int) -> dict[str, float]:
    """The per-layer metrics of the traced pass ``tracer.run_id``."""
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for name, start, end, _, rid in tracer.spans:
        if rid == tracer.run_id:
            total[name] += end - start
            calls[name] += 1
    counts = tracer.counts
    items = counts["fetch_page.items"]
    m = {
        "ingestion.fetch_page.s": total["ingestion.fetch_page"],
        "ingestion.fetch_page.count": calls["ingestion.fetch_page"],
        "ingestion.fetch_page.us_per_item": total["ingestion.fetch_page"] / items * 1e6
        if items else 0.0,
        "ingestion.store_append.s": total["ingestion.store_append"],
        "ingestion.store_append.bytes": _bytes([directory / "store.jsonl"]),
        "ingestion.load.s": total["ingestion.load"],
        "ingestion.load.records": records,
        "ingestion.load.us_per_record": total["ingestion.load"] / records * 1e6,
        "ingestion.dedup.useful_ratio": counts["load.unique"] / records,
        "ingestion.select.s": total["ingestion.select"],
        "ingestion.select.eligible": counts["select.eligible"],
        "ingestion.select.chosen": counts["select.chosen"],
        "metrics.compute.s": total["metrics.compute"],
        "metrics.compute.calls": calls["metrics.compute"],
        "stats.quartile_filter.s": total["stats.quartile_filter"],
        "stats.summarize.s": total["stats.summarize"],
        "stats.summarize.calls": calls["stats.summarize"],
        "stats.correlation_matrix.s": total["stats.correlation_matrix"],
        "stats.pearson.calls": calls["stats.pearson"],
        "stats.histogram.s": total["stats.histogram"],
        "report.build_report.s": total["report.build_report"],
        "report.render_json.s": total["report.render_json"],
        "report.render_md.s": total["report.render_md"],
        "report.render_csv.s": total["report.render_csv"],
        "report.plots.s": total["report.plots"],
        "report.bytes_written": _bytes([directory / "bundle.json",
                                        *(directory / "report").glob("*")]),
        "cli.analyze.s": total["cli.analyze"],
    }
    for layer, seconds in layer_self_times(tracer.spans, tracer.run_id).items():
        m[f"layer.{layer}.self_s"] = seconds
    return m


def replay(tracer: Tracer, store: Path, bundle: Path) -> tuple[dict[str, float], int]:
    """Time the stages of a store load one by one, and a bundle load."""
    from engage import ingestion, report
    tracer.run_id = "replay"
    lines = [line for line in store.read_text(encoding="utf-8").splitlines() if line.strip()]
    stages = {}
    records = tracer.call("ingestion.load.json_decode", lambda: [json.loads(x) for x in lines])
    snapshots = tracer.call("ingestion.load.validate",
                            lambda: [ingestion.snapshot_from_record(r) for r in records])
    tracer.call("ingestion.dedup", ingestion.dedup_latest, snapshots)
    tracer.call("report.bundle_load",
                lambda: report.bundle_from_json(json.loads(bundle.read_text(encoding="utf-8"))))
    for name, start, end, _, rid in tracer.spans:
        if rid == "replay":
            stages[name] = end - start
    return {
        "ingestion.load.json_decode_s": stages["ingestion.load.json_decode"],
        "ingestion.load.validate_s": stages["ingestion.load.validate"],
        "ingestion.dedup_s": stages["ingestion.dedup"],
        "report.bundle_load.s": stages["report.bundle_load"],
    }, len(lines)


def run_traced(name: str, seed: int, seconds: float, run_dir: Path) -> dict:
    workload = harness.WORKLOADS[name]
    data, manifest = gen.prepare(harness.WORK / "data", name, seed, workload.shape)
    children = harness.Children(run_dir)
    imports = import_times(children)

    sys.path.insert(0, str(harness.SRC))
    import engage
    import engage.cli
    problems = harness.hygiene(engage.__file__)
    # engage.cli.main configures logging only when no handler exists yet;
    # this keeps its warnings out of the benchmark's output
    logging.getLogger().addHandler(logging.NullHandler())

    tracer = Tracer()
    attempted = failed = 0

    def do_pass(traced_by: Tracer | None, directory: Path, reference: Path | None) -> float:
        nonlocal attempted, failed, problems
        seconds_taken, found, attempted_here, failed_here = _pass(
            engage.cli.main, traced_by, workload, data, manifest, directory, reference)
        problems += found
        attempted += attempted_here
        failed += failed_here
        return seconds_taken

    warm = run_dir / "warm-up"  # discarded; its outputs are the byte-identity reference
    do_pass(None, warm, None)
    store = data / "store.jsonl" if workload.analyze_generated_store else warm / "store.jsonl"
    replayed, records = replay(tracer, store, warm / "bundle.json")

    # Pairs of an untraced and a traced pass; a pair starts only if the
    # previous pair's length still fits in the run.
    untraced, traced, per_pass = [], [], []
    started = time.perf_counter()
    last = 0.0
    while not traced or time.perf_counter() - started + last <= seconds:
        begun = time.perf_counter()
        k = len(traced)
        untraced.append(do_pass(None, run_dir / f"untraced{k}", warm))
        shutil.rmtree(run_dir / f"untraced{k}")
        tracer.run_id, tracer.counts = f"pass{k}", Counter()
        directory = run_dir / f"traced{k}"
        with instrumented(tracer):
            traced.append(do_pass(tracer, directory, warm))
        per_pass.append(metrics_of_pass(tracer, directory, records))
        shutil.rmtree(directory)
        last = time.perf_counter() - begun

    trace_dir = harness.WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_dir / f"{name}.jsonl")  # the latest traced run of each workload

    values = {**imports, **replayed}
    for key in per_pass[0]:
        values[key] = statistics.median(p[key] for p in per_pass)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER.items()}
    dominance = {
        "import.engage_cli_s": imports["import.engage_cli_s"],
        "ingestion.load.s": values["ingestion.load.s"],
        "report.build_report.s": values["report.build_report.s"],
        "analyze in-process": values["cli.analyze.s"],
    }
    return {"workload": name, "seed": seed,
            "env": harness.environment(engage.__file__), "passes": len(traced),
            "problems": problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "dominance": dominance}


def print_traced(result: dict) -> None:
    print(f"# {result['workload']} traced seed={result['seed']} passes={result['passes']}"
          f" env={json.dumps(result['env'])}")
    for key, entry in result["metrics"].items():
        print(f"{result['workload']:>15} {key:<34} {entry['value']:14.6f} {entry['unit']}")
    d = result["dominance"]
    cold_analyze = d["import.engage_cli_s"] + d["analyze in-process"]
    shares = ", ".join(f"{key} {d[key] / cold_analyze:.0%}" for key in
                       ("import.engage_cli_s", "ingestion.load.s", "report.build_report.s"))
    print(f"{result['workload']:>15} share of a cold analyze ({cold_analyze:.3f} s): {shares}")
    for problem in result["problems"]:
        print(f"CHECK FAILED {result['workload']}: {problem}")
