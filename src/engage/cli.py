"""Command line front end: fetch, analyze, report, replicate.

Exit codes: 0 success, 2 configuration error, 3 transport or quota
failure, 4 storage or I/O failure, 5 empty eligible sample, 6 replication
check failure. Expected failures print a one-line error to standard
error, never a stack trace, and warnings print there as ``warning: `` lines.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import warnings
from pathlib import Path
from typing import Generator, Iterable, Sequence

from .ingestion import (
    API_KEY_ENV,
    ConfigError,
    EmptySampleError,
    EngageWarning,
    LiveTransport,
    ParseError,
    StorageError,
    StoreAppender,
    StorePage,
    TransportError,
    _check_region,
    _check_sample_size,
    _load_rows,
    _replay_sweeps,
    _rows_page,
    _top_rows,
    collect_sweeps,
    fetch_by_ids,
    fixture_sweeps,
    read_json_object,
)
from .report import (
    RENDER_FORMATS,
    _bundle_json,
    _report,
    bundle_from_json,
    load_binspec_file,
    rebin_bundle,
    render,
    render_histogram_plot,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRANSPORT = 3
EXIT_STORAGE = 4
EXIT_EMPTY = 5
EXIT_REPLICATION = 6

CONFIG_SECTIONS = ("fetch", "analyze", "report")  # the commands that take --config

DRIFT_NOTICE = (
    "The bundled replication target is structural (sample sizes, table"
    " shapes, value bounds, the category table), not numeric: the per-video"
    " dataset behind the original 2013 case study was never published and"
    " live statistics have drifted since, so its table values are not"
    " reproducible from today's API."
)

def _bundled_path(relative: str) -> Path:
    """A file shipped inside the installed package, which is on disk."""
    return Path(__file__).parent / relative


def _write_text(path: Path, chunks: Iterable[str]) -> None:
    """Write the text made of ``chunks`` as UTF-8, one chunk at a time, to a
    temporary file beside ``path``, then move it over ``path`` in one step, so
    a failed write leaves the old file as it was and no temporary file behind.
    Text that cannot be encoded (a lone surrogate from a hand-edited bundle)
    is such a failure, wherever it comes in the text."""
    tmp = path.parent / f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # created with the mode a plain write gives; each chunk is encoded as it goes
            with open(tmp, "x", encoding="utf-8", newline="") as f:
                f.writelines(chunks)
            with contextlib.suppress(FileNotFoundError):  # an old file keeps its mode
                os.chmod(tmp, os.stat(path).st_mode & 0o7777)
            os.replace(tmp, path)
        except BaseException:  # an error making a chunk, too, leaves no temporary file
            with contextlib.suppress(OSError):  # nothing to remove when it was never made
                tmp.unlink()
            raise
    except (OSError, UnicodeEncodeError) as exc:
        raise StorageError(f"cannot write {path}: {exc}") from exc


def _load_config_file(args: argparse.Namespace, command: str) -> dict:
    """Per-command section of the optional JSON config file; flags win, and
    each key must name one of the command's flags."""
    path = args.config
    if not path:
        return {}
    data = read_json_object(path, ConfigError, "config file")
    unknown = sorted(set(data) - set(CONFIG_SECTIONS))
    if unknown:
        raise ConfigError(f"config file {path} has unknown section(s) {unknown};"
                          f" expected some of {list(CONFIG_SECTIONS)}")
    section = data.get(command, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {command!r} must be an object")
    flags = set(vars(args)) - {"command", "config", "func"}  # not settings
    unknown = sorted(set(section) - flags)
    if unknown:
        raise ConfigError(f"config section {command!r} has unknown key(s) {unknown};"
                          f" expected some of {sorted(flags)}")
    return section


def _resolve(args: argparse.Namespace, cfg: dict, key: str, default=None):
    """The flag's value, else the config file's, else ``default``. A config
    value stands for the text of its flag, so it must be a string or an integer."""
    value = getattr(args, key, None)
    if value is None and key in cfg:
        value = cfg[key]
        if isinstance(value, bool) or not isinstance(value, (str, int)):
            raise ConfigError(f"config key {key!r} must be a string or an integer,"
                              f" got {value!r}")
        value = str(value)
    return default if value is None else value


def _as_int(value, key: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def _read_id_list(path: Path) -> list[str]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read id list {path}: {exc}") from exc
    ids = [line.strip() for line in lines]
    ids = [v for v in ids if v and not v.startswith("#")]
    if not ids:
        raise ConfigError(f"id list {path} is empty")
    return ids


def _store_pages(store: Path, pages: Generator[StorePage, None, None]) -> tuple[int, int, int]:
    """Append each page to the store as it arrives, through one open store;
    returns the numbers of pages, snapshots and unique ids. A failed fetch
    keeps the pages already stored, and its error says how many there are.
    ``pages`` is closed on every path, so a replay's worker never outlives it."""
    n_pages = n_snapshots = 0
    ids: set[str] = set()
    try:
        with contextlib.closing(pages), StoreAppender(store) as appender:
            for page in pages:
                n_snapshots += appender.append(page)
                n_pages += 1
                ids.update(page.ids)
    except (TransportError, ParseError) as exc:
        # the same type, so the exit code stays the same
        raise type(exc)(f"{exc} ({n_snapshots} snapshots from {n_pages} pages"
                        f" were stored in {store})") from exc
    return n_pages, n_snapshots, len(ids)


# --- subcommands -------------------------------------------------------------

def run_fetch(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args, "fetch")
    offline = _resolve(args, cfg, "offline") if args.region is None else None
    region = _resolve(args, cfg, "region", "US")
    store_path = Path(_resolve(args, cfg, "store", "snapshots.jsonl"))
    occasions = _resolve(args, cfg, "occasions")
    ids = _resolve(args, cfg, "ids")

    if offline is None:
        _check_region(region)  # first, before the API key, and with --ids too
    if occasions is not None:
        occasions = _as_int(occasions, "occasions")

    if offline is not None:
        fixture = Path(offline)
        if not fixture.is_dir():
            raise ConfigError(f"offline fixture directory not found: {fixture}")
        transports = fixture_sweeps(fixture, occasions)
        if ids is not None:
            raise ConfigError("--ids re-queries the live API; drop --offline")
        pages = _replay_sweeps(transports)
    elif ids is not None:
        ids_path = Path(ids) if ids else _bundled_path(
            "fixtures/sampled_video_ids.txt"
        )
        video_ids = _read_id_list(ids_path)
        transport = LiveTransport(os.environ.get(API_KEY_ENV, ""))
        pages = (_rows_page(rows) for rows in fetch_by_ids(video_ids, transport=transport))
    else:
        # one transport for every sweep, so its wait between requests holds across them
        transport = LiveTransport(os.environ.get(API_KEY_ENV, ""))
        pages = collect_sweeps([transport] * (1 if occasions is None else occasions), region)

    n_pages, n_snapshots, n_unique = _store_pages(store_path, pages)
    print(f"fetched {n_pages} pages, {n_snapshots} snapshots, {n_unique} unique ids")
    print(f"store: {store_path}")
    return EXIT_OK


def _require(value, command: str, flag: str) -> str:
    if value is None:
        raise ConfigError(f"{command} needs {flag} (flag or config file section)")
    return value


def _analyze(store: Path, n: int, out: Path):
    """Load, select the top n, build the report and write it as bundle JSON;
    returns the number of unique ids in the store, the chosen rows of
    snapshot fields and the bundle. No snapshot is built on the way."""
    rows, note = _load_rows(store)
    chosen, note = _top_rows(rows, n, note)
    if not chosen:
        raise EmptySampleError(f"no comment-enabled videos among {len(rows)} in {store}")
    bundle = _report(chosen, note)
    _write_text(out, _bundle_json(bundle))
    return len(rows), chosen, bundle


def run_analyze(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args, "analyze")
    store_path = Path(_require(_resolve(args, cfg, "store"), "analyze", "--store"))
    n = _as_int(_resolve(args, cfg, "n", 100), "n")
    _check_sample_size(n)  # before the store is read
    out = Path(_resolve(args, cfg, "out", "bundle.json"))

    _, chosen, bundle = _analyze(store_path, n, out)
    for note in bundle.provenance["coverage_notes"]:
        warnings.warn(note, EngageWarning)
    print(f"analyzed {len(chosen)} videos ({bundle.provenance['selection_note']})")
    print(f"bundle: {out}")
    return EXIT_OK


def _parse_formats(raw: str) -> list[str]:
    formats = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in RENDER_FORMATS:
            raise ConfigError(
                f"unknown format {token!r}; expected a comma list of {', '.join(RENDER_FORMATS)}"
            )
        if token not in formats:
            formats.append(token)
    if not formats:
        raise ConfigError("no output format selected")
    return formats


def _load_bundle(path: Path):
    data = read_json_object(path, StorageError, "bundle")
    try:
        return bundle_from_json(data)
    except ValueError as exc:
        raise StorageError(f"bundle {path} is malformed: {exc}") from exc


def _write_report_files(bundle, out_dir: Path, formats: Sequence[str]) -> list[Path]:
    written = []
    for fmt in formats:
        path = out_dir / f"report.{fmt}"
        _write_text(path, _bundle_json(bundle) if fmt == "json" else [render(bundle, fmt)])
        written.append(path)
    # plot files accompany the human-readable render only
    if "md" in formats:
        for name in sorted(bundle.histograms):
            for style, suffix in (("text", "txt"), ("svg", "svg")):
                path = out_dir / f"hist_{name.lower()}.{suffix}"
                _write_text(path, [render_histogram_plot(
                    bundle.histograms[name], style=style, title=name
                )])
                written.append(path)
    return written


def run_report(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args, "report")
    bundle_path = Path(_require(_resolve(args, cfg, "bundle"), "report", "--bundle"))
    formats = _parse_formats(_resolve(args, cfg, "format", "md,csv,json"))
    out_dir = Path(_resolve(args, cfg, "out", "report"))
    bins_path = _resolve(args, cfg, "bins")

    bundle = _load_bundle(bundle_path)
    if bins_path:
        try:
            bins = load_binspec_file(Path(bins_path))
        except ValueError as exc:
            raise ConfigError(f"bad bins file {bins_path}: {exc}") from exc
        bundle = rebin_bundle(bundle, bins)  # a loaded bundle has every rate series

    written = _write_report_files(bundle, out_dir, formats)
    print(f"wrote {len(written)} files to {out_dir}")
    return EXIT_OK


def run_replicate(args: argparse.Namespace) -> int:
    fixture = Path(args.fixture_dir) if args.fixture_dir else _bundled_path(
        "fixtures/replication"
    )
    if not fixture.is_dir():
        raise ConfigError(f"replication fixture directory not found: {fixture}")
    expected_path = fixture / "expected.json"
    expected = read_json_object(expected_path, ConfigError, "replication manifest")
    try:
        expected_unique = int(expected["unique_ids"])
        expected_n = int(expected["sample_n"])
        expected_upper = int(expected["upper_quartile_n"])
        expected_categories = [[str(c), int(k)] for c, k in expected["categories"]]
    except (ValueError, OverflowError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad replication manifest {expected_path}: {exc}") from exc

    out_dir = Path(args.out) if args.out else Path("replication")
    store = out_dir / "snapshots.jsonl"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        store.unlink(missing_ok=True)
    except OSError as exc:
        raise StorageError(f"cannot prepare {out_dir}: {exc}") from exc

    transports = fixture_sweeps(fixture)
    n_pages, n_snapshots, _ = _store_pages(store, _replay_sweeps(transports))
    print(f"fetched {n_pages} pages, {n_snapshots} snapshots ({len(transports)} sweeps)")

    unique, chosen, bundle = _analyze(store, expected_n, out_dir / "bundle.json")
    _write_report_files(bundle, out_dir, RENDER_FORMATS)
    print(f"artifacts: {out_dir}")

    out_of_range = bundle.provenance["annotations"].get("range")
    categories = [[name, count] for name, count in bundle.categories]
    checks = [
        (
            "unique ids",
            unique == expected_unique,
            f"{unique} in store (expected {expected_unique})",
        ),
        (
            "sample size",
            len(chosen) == expected_n and all(row[6] for row in chosen),
            f"{len(chosen)} comment-enabled videos (expected {expected_n})",
        ),
        (
            "quartile subsample",
            bundle.provenance["upper_quartile_n"] == expected_upper,
            f"{bundle.provenance['upper_quartile_n']} in top three quartiles "
            f"(expected {expected_upper})",
        ),
        (
            "category table",
            categories == expected_categories,
            "matches the manifest" if categories == expected_categories
            else f"got {categories}, expected {expected_categories}",
        ),
        (
            # the bundle's range annotation counts every value out of range
            "DisP bounds",
            out_of_range is None,
            "all defined DisP within [0, 1]" if out_of_range is None
            else out_of_range,
        ),
    ]
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    failed = [name for name, ok, _ in checks if not ok]
    if failed:
        print(f"replication check failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_REPLICATION
    print("replication checks passed")
    return EXIT_OK


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="engage",
        description=(
            "Relative engagement rates (CpkI, VpkI, DisP) over video"
            " statistics snapshots: fetch trending samples, analyze a"
            " frozen store, render report tables and histograms.\n\n"
            + DRIFT_NOTICE
        ),
        epilog=(
            "exit codes: 0 success, 2 configuration, 3 transport/quota,"
            " 4 storage/I/O, 5 empty eligible sample, 6 replication check"
            f" failure. Live fetching reads the API key from ${API_KEY_ENV}."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", metavar="FILE",
        help="JSON config file with one section per command; flags win",
    )

    fetch = sub.add_parser(
        "fetch", parents=[common],
        help="sample the trending chart (live or offline fixtures) into the store",
        description=(
            "Sample the trending chart and append the snapshots to the"
            " store. Offline mode replays recorded sweep fixtures instead"
            " of the live API. --ids re-queries an explicit id list; ids"
            " from past studies return today's drifted counters."
        ),
    )
    mode = fetch.add_mutually_exclusive_group()
    mode.add_argument("--offline", metavar="DIR",
                      help="replay recorded sweeps from this fixture directory")
    mode.add_argument("--region", metavar="CC",
                      help="two-letter region code for the live chart (default US)")
    fetch.add_argument(
        "--occasions", type=int, metavar="K",
        help="number of sweeps (default: all recorded sweeps, live 1); K live sweeps go out"
             " 200 ms apart and so store the same chart: take separate occasions with"
             " separate fetch runs",
    )
    fetch.add_argument("--store", metavar="PATH",
                       help="snapshot store to append to (default snapshots.jsonl)")
    fetch.add_argument(
        "--ids", nargs="?", const="", metavar="FILE",
        help="fetch these video ids live instead of the chart"
             " (default: the bundled historical id list; non-reproducing)",
    )
    fetch.set_defaults(func=run_fetch)

    analyze = sub.add_parser(
        "analyze", parents=[common],
        help="select the study sample from a store and compute the report bundle",
        description=(
            "Load the store, keep the n highest-view comment-enabled"
            " videos, compute summaries, correlation matrices, histograms"
            " and the category table, and write them as one bundle JSON."
        ),
    )
    analyze.add_argument("--store", metavar="PATH",
                         help="snapshot store to read (required here or in the config)")
    analyze.add_argument("--n", type=int, metavar="N",
                         help="sample size (default 100)")
    analyze.add_argument("--out", metavar="FILE",
                         help="bundle output path (default bundle.json)")
    analyze.set_defaults(func=run_analyze)

    report = sub.add_parser(
        "report", parents=[common],
        help="render a bundle to Markdown/CSV/JSON tables and histogram plots",
        description=(
            "Render a saved bundle. Markdown gets significance stars and"
            " bold moderate correlations plus text/SVG histograms; CSV and"
            " JSON carry the raw numbers."
        ),
    )
    report.add_argument("--bundle", metavar="FILE",
                        help="bundle JSON written by analyze (required here or in the config)")
    report.add_argument("--format", metavar="LIST",
                        help="comma list of md,csv,json (default all)")
    report.add_argument("--bins", metavar="FILE",
                        help="JSON per-metric bin overrides, applied before rendering")
    report.add_argument("--out", metavar="DIR",
                        help="output directory (default report)")
    report.set_defaults(func=run_report)

    replicate = sub.add_parser(
        "replicate",
        help="run the bundled offline pipeline and verify its structural claims",
        description=(
            "Run fetch (offline fixtures), analyze and report end to end,"
            " then verify the structural claims of the original protocol:"
            " unique id count, sample size with commenting enabled, the"
            " top-three-quartile subsample size, the category table and"
            " DisP bounds. Prints a pass/fail checklist.\n\n" + DRIFT_NOTICE
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    replicate.add_argument("--out", metavar="DIR",
                           help="artifact directory (default replication)")
    replicate.add_argument("--fixture-dir", metavar="DIR",
                           help="alternate fixture directory (default: bundled)")
    replicate.set_defaults(func=run_replicate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # each warning, every time it is given, as one line on the stderr of that
    # moment; the caller's filters and showwarning come back on return
    with warnings.catch_warnings():
        warnings.simplefilter("always", EngageWarning)
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except ConfigError as exc:
            return _fail(exc, EXIT_CONFIG)
        except (TransportError, ParseError) as exc:
            return _fail(exc, EXIT_TRANSPORT)
        except StorageError as exc:
            return _fail(exc, EXIT_STORAGE)
        except EmptySampleError as exc:
            return _fail(exc, EXIT_EMPTY)


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
