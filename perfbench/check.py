"""Output checks for the engage benchmark.

Every check returns a list of problems; an empty list means the output is
correct. Expected values come from the generator's manifest, never from
engage itself.
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

RATE_NAMES = ("CpkI", "VpkI", "DisP")
REL_TOL = 1e-12
REPLICATE_CHECKS = ("unique ids", "sample size", "quartile subsample", "category table",
                    "DisP bounds")
FETCH_LINE = re.compile(r"(\d+) pages, (\d+) snapshots, (\d+) unique ids")


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= REL_TOL * abs(want)


def check_fetch(stdout: str, manifest: dict) -> list[str]:
    match = FETCH_LINE.search(stdout)
    if match is None:
        return [f"fetch printed no page/snapshot/unique counts: {stdout.strip()[:200]!r}"]
    got = tuple(int(x) for x in match.groups())
    want = (manifest["pages"], manifest["snapshots"], manifest["unique_ids"])
    return [] if got == want else [f"fetch counts {got} != manifest {want}"]


def check_bundle(bundle: dict, manifest: dict) -> list[str]:
    """The analyze bundle against the manifest's sample, rates and oracle means."""
    problems = []
    prov = bundle.get("provenance", {})
    n = manifest["n"]
    if prov.get("sample_n") != n:
        problems.append(f"sample_n {prov.get('sample_n')} != {n}")
    if prov.get("upper_quartile_n") != n - n // 4:
        problems.append(f"upper_quartile_n {prov.get('upper_quartile_n')} != {n - n // 4}")
    if bundle.get("categories") != manifest["categories"]:
        problems.append("category table differs from the manifest")
    rates = bundle.get("rates", {})
    for name in RATE_NAMES:
        series, want = rates.get(name), manifest["top_rates"][name]
        if series is None or len(series) != len(want):
            problems.append(f"{name} series missing or of the wrong length")
            continue
        bad = sum(1 for got, exp in zip(series, want) if not _close(got, exp))
        if bad:
            problems.append(f"{name} series differs from the manifest's top-n rates at {bad} ids")
        summary = bundle.get("summary_metrics", {}).get(name, {})
        if summary.get("n") != manifest["rate_n"][name]:
            problems.append(f"{name} summary n {summary.get('n')} != {manifest['rate_n'][name]}")
        if not _close(summary.get("mean"), manifest["rate_means"][name]):
            problems.append(
                f"{name} mean {summary.get('mean')} != oracle {manifest['rate_means'][name]}")
    disp = [v for v in rates.get("DisP") or [] if v is not None]
    if any(not 0 <= v <= 1 for v in disp):
        problems.append("a defined DisP lies outside [0, 1]")
    return problems


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def check_same_files(got: Path, reference: Path) -> list[str]:
    """The files of ``got`` are byte-identical to those of ``reference``."""
    if not got.is_dir():
        return [f"{got.name} was not written"]
    if not reference.is_dir():
        return [f"no reference {reference.name} to compare with"]
    a, b = _files(got), _files(reference)
    if a.keys() != b.keys():
        return [f"{got.name} holds {sorted(a)}, expected {sorted(b)}"]
    differ = [name for name in a if a[name] != b[name]]
    return [f"{got.name}: {', '.join(differ)} not byte-identical"] if differ else []


def check_report_files(directory: Path) -> list[str]:
    names = {"report.md", "report.csv", "report.json"} | {
        f"hist_{r.lower()}.{ext}" for r in RATE_NAMES for ext in ("txt", "svg")}
    missing = sorted(names - {p.name for p in directory.iterdir()}) if directory.is_dir() \
        else sorted(names)
    return [f"report files missing: {', '.join(missing)}"] if missing else []


def check_replicate(stdout: str) -> list[str]:
    missing = [name for name in REPLICATE_CHECKS if f"PASS {name}:" not in stdout]
    return [f"replicate did not PASS: {', '.join(missing)}"] if missing else []


def self_test(bundle: dict, manifest: dict) -> list[str]:
    """Problems with the checker itself: it must reject each of a set of
    corrupted copies of ``bundle``. A bundle that already fails its check
    is reported by that check, and gives no base to corrupt."""
    if check_bundle(bundle, manifest):
        return []

    def corrupt(edit):
        broken = copy.deepcopy(bundle)
        edit(broken)
        return broken

    def set_first_defined(series, value):
        i = next(i for i, v in enumerate(series) if v is not None)
        series[i] = series[i] + 1.0 if value is None else value

    corruptions = {
        "rate value": lambda b: set_first_defined(b["rates"]["CpkI"], None),
        "DisP above 1": lambda b: set_first_defined(b["rates"]["DisP"], 1.5),
        "quartile size": lambda b: b["provenance"].update(
            upper_quartile_n=b["provenance"]["upper_quartile_n"] + 1),
        "category count": lambda b: b["categories"][0].__setitem__(
            1, b["categories"][0][1] + 1),
        "mean": lambda b: b["summary_metrics"]["VpkI"].update(
            mean=b["summary_metrics"]["VpkI"]["mean"] * (1 + 1e-9)),
        "sample order": lambda b: b["rates"]["VpkI"].reverse(),
    }
    return [f"checker accepts a bundle with a corrupted {what}"
            for what, edit in corruptions.items() if not check_bundle(corrupt(edit), manifest)]


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))
