"""Render an analyzed sample into tables and plots.

The bundle holds descriptive statistics for the basic counters and the
derived rates, two correlation matrices (full sample and the top three
quartiles by views), per-rate histograms and the category table. Renders
are pure functions of the bundle: the same bundle always produces the
same bytes, in Markdown (display rounding, significance stars, bold for
moderate correlations), CSV (separate r/p/n columns, no markup) and JSON
(full precision, stable key order).
"""

from __future__ import annotations

import json
import math
import sys
from functools import partial
from json.encoder import encode_basestring
from operator import gt, is_not
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .ingestion import MAX_COUNT, format_rfc3339, read_json_object
from .stats import (
    BinSpec,
    CorrelationCell,
    CorrelationMatrix,
    Histogram,
    SampleSummary,
    StudySample,
    _category_table,
    _correlations,
    _upper_quartile,
    histogram,
)

BUNDLE_FORMAT = "engage-bundle/1"

METRIC_NAMES = ("CpkI", "VpkI", "DisP")
BASIC_NAMES = ("Views", "Comments", "Votes")
CORR_NAMES = ("CpkI", "VpkI", "DisP", "Views", "Votes+", "Votes-", "Comments", "Votes (sum)")
COUNT_NAMES = ("Views", "Votes+", "Votes-", "Comments")  # the correlation columns that are counts
# each rate's valid range; the range annotation names the videos outside it
RATE_RANGES = {"CpkI": (0, math.inf), "VpkI": (0, math.inf), "DisP": (0, 1)}
# summary name -> the correlation column it summarizes
SUMMARIZED_COLUMNS = {"Views": "Views", "Comments": "Comments", "Votes": "Votes (sum)",
                      **{name: name for name in METRIC_NAMES}}

# Approximate historical bin layouts; exact edges are a display choice and
# fully configurable per report.
DEFAULT_BINS: dict[str, BinSpec] = {
    "CpkI": BinSpec(
        edges=(0.0, 0.2, 0.6, 1.0, 2.0, 4.0, 8.0, 16.0),
        labels=("0-.2", ".2-.6", ".6-1.0", "1.0-2.0", "2.0-4.0", "4.0-8.0", "8.0-16.0"),
    ),
    "VpkI": BinSpec(
        edges=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
        labels=("0-1.0", "1.0-2.0", "2.0-4.0", "4.0-8.0", "8.0-16.0", "16.0-32.0", "32.0-64.0"),
    ),
    "DisP": BinSpec(
        edges=(0.0, 0.04, 0.08, 0.16, 0.32, 0.64, 1.0),
        labels=("≤ 4%", "4-8%", "8-16%", "16-32%", "32-64%", "64-100%"),
    ),
}

SIGNIFICANCE_STRONG = 0.001
SIGNIFICANCE_WEAK = 0.05
MODERATE_R = 0.4


class ReportBundle(NamedTuple):
    """Everything one report needs, computed once from a sample.

    ``rates`` keeps the per-video metric series (full precision, in sample
    order) so a saved bundle can be re-binned at render time without the
    original store.
    """

    provenance: dict
    summary_basic: dict[str, SampleSummary]
    summary_metrics: dict[str, SampleSummary]
    corr_full: CorrelationMatrix
    corr_upper_quartiles: CorrelationMatrix
    histograms: dict[str, Histogram]
    categories: list[tuple[str, int]]
    rates: dict[str, list[float | None]]


def build_report(sample: StudySample) -> ReportBundle:
    """Compute per-video rates and every table of the report, binned with
    ``DEFAULT_BINS`` (``rebin_bundle`` applies other bins).

    Statistics that cannot be computed (too little data, constant or
    absent columns) become per-table annotations rather than failures.
    """
    return _report(sample.snapshots, sample.selection_note)


def _report(rows: Iterable[tuple], note: str) -> ReportBundle:
    """``build_report`` of the sample whose snapshots have these fields, each
    row in ``VideoStatsSnapshot``'s order, and whose selection note is ``note``."""
    by_field = list(zip(*rows))  # one column per field
    if not by_field:
        raise ValueError("cannot build a report from an empty sample")
    video_ids, fetched_at, views, likes, dislikes, comments, enabled, categories = by_field

    columns = _metric_columns(views, likes, dislikes, comments, enabled)
    upper = _upper_quartile(views, video_ids)

    # one pass of exact sums, in blocks that keep the upper quartiles apart from
    # the lowest, gives the full matrix, the summaries and the upper-quartile matrix
    corr_full, summaries, corr_upper = _correlations(
        {name: columns[name] for name in CORR_NAMES}, SUMMARIZED_COLUMNS.values(), upper
    )
    summary_basic = {name: summaries[SUMMARIZED_COLUMNS[name]] for name in BASIC_NAMES}
    summary_metrics = {name: summaries[name] for name in METRIC_NAMES}

    annotations = _annotations(summary_metrics, corr_full, corr_upper)
    if out_of_range := _range_note(video_ids, columns, summary_metrics):
        annotations["range"] = out_of_range
    provenance = {
        "sample_n": len(video_ids),
        "selection_note": note,
        "fetched_from": format_rfc3339(min(fetched_at)),
        "fetched_to": format_rfc3339(max(fetched_at)),
        "upper_quartile_n": len(upper),
        "coverage_notes": _coverage_notes(len(video_ids), columns),
        "annotations": annotations,
    }
    bundle = ReportBundle(
        provenance=provenance,
        summary_basic=summary_basic,
        summary_metrics=summary_metrics,
        corr_full=corr_full,
        corr_upper_quartiles=corr_upper,
        histograms={},
        categories=_category_table(categories),
        rates={name: list(columns[name]) for name in METRIC_NAMES},
    )
    return rebin_bundle(bundle, DEFAULT_BINS)


def load_binspec_file(path) -> dict[str, BinSpec]:
    """Read per-metric bin overrides from a JSON file.

    Shape: ``{"cpki": {"edges": [...], "labels": [...]}}`` with labels
    optional; keys match metric names case-insensitively. Raises
    ValueError on anything malformed.
    """
    data = read_json_object(path, ValueError, "bins file")
    by_lower = {name.lower(): name for name in METRIC_NAMES}
    result: dict[str, BinSpec] = {}
    for key, spec in data.items():
        name = by_lower.get(str(key).lower())
        if name is None:
            raise ValueError(f"unknown metric {key!r} in bins file; expected {METRIC_NAMES}")
        if not isinstance(spec, dict) or not isinstance(spec.get("edges"), list) \
                or not isinstance(spec.get("labels"), (list, type(None))):
            raise ValueError(f"bins for {key!r} must be an object with an 'edges' list"
                             " and an optional 'labels' list")
        if not all(map(_is_number, spec["edges"])):
            raise ValueError(f"bins for {key!r} has an edge that is not a finite number")
        edges = tuple(map(float, spec["edges"]))
        labels = spec.get("labels")
        if labels is not None:
            labels = tuple(map(str, labels))
            try:
                "".join(labels).encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate, which no report can hold
                raise ValueError(f"bins for {key!r} has a label that is not valid UTF-8") from None
        result[name] = BinSpec(edges=edges, labels=labels)
    return result


def rebin_bundle(bundle: ReportBundle, bins: Mapping[str, BinSpec]) -> ReportBundle:
    """New bundle with histograms and bin modes computed from the stored
    per-video rates (the only place rates are binned); metrics not named in
    ``bins`` are left untouched. Raises ValueError, naming the series, when
    the bundle lacks a rate series."""
    histograms = dict(bundle.histograms)
    summaries = dict(bundle.summary_metrics)
    for name, spec in bins.items():
        if name not in bundle.rates:
            raise ValueError(f"bundle has no rate series for {name!r}")
        histograms[name] = histogram(bundle.rates[name], spec)
        if name in summaries:
            summaries[name] = summaries[name]._replace(bin_mode=histograms[name].mode)
    return bundle._replace(histograms=histograms, summary_metrics=summaries)


def _metric_columns(views: Sequence[int], likes: Sequence[int | None],
                    dislikes: Sequence[int | None], comments: Sequence[int | None],
                    comments_enabled: Sequence[bool]) -> dict[str, list]:
    """Aligned per-video series for every summary and correlation column,
    from the sample's count and ``comments_enabled`` columns.

    The rates follow ``metrics.compute_*`` exactly: CPython's int / int
    division is correctly rounded, so each rate is the float nearest its
    exact ``Fraction``, bit for bit, without building the ``Fraction``.
    """
    comments = [c if enabled else None for c, enabled in zip(comments, comments_enabled)]
    votes = [
        up + down if up is not None and down is not None else None
        for up, down in zip(likes, dislikes)
    ]
    return {
        "CpkI": [c * 1000 / v if c is not None and v > 0 else None
                 for c, v in zip(comments, views)],
        "VpkI": [t * 1000 / v if t is not None and v > 0 else None
                 for t, v in zip(votes, views)],
        # divide by a positive total, as float(Fraction) does, so that 0
        # dislikes over a negative total give 0.0 and not -0.0
        "DisP": [(d / t if t > 0 else -d / -t) if t else None
                 for d, t in zip(dislikes, votes)],
        "Views": views,
        "Votes+": likes,
        "Votes-": dislikes,
        "Comments": comments,
        "Votes (sum)": votes,
    }


def _coverage_notes(n: int, columns: dict[str, list]) -> list[str]:
    notes = []
    for name, consequence in (
        ("Votes-", "VpkI and DisP are undefined there"),
        ("Votes+", "VpkI and DisP are undefined there"),
        ("Comments", "CpkI is undefined there"),
    ):
        missing = columns[name].count(None)
        if missing:
            label = {"Votes-": "dislike", "Votes+": "like", "Comments": "comment"}[name]
            notes.append(f"{label} counts absent for {missing} of {n} snapshots; {consequence}")
    return notes


def _range_note(video_ids: Sequence[str], columns: dict[str, list],
                summary_metrics: dict[str, SampleSummary]) -> str | None:
    """The ``range`` annotation: how many counts are negative, and which
    videos have a rate outside ``RATE_RANGES``; None when every value is in
    range. A summary's exact min and max tell which rates need the search."""
    parts = []
    negative = sum(sum(map(partial(gt, 0), filter(partial(is_not, None), columns[name])))
                   for name in COUNT_NAMES)
    if negative:
        parts.append(f"negative counts: {negative}")
    for name, (low, high) in RATE_RANGES.items():
        summary = summary_metrics[name]
        if summary.n and (summary.min < low or summary.max > high):
            bad = [video_ids[i] for i, rate in enumerate(columns[name])
                   if rate is not None and not low <= rate <= high]
            shown = ", ".join(bad[:5]) + (", ..." if len(bad) > 5 else "")
            parts.append(f"{name} outside [{low:g}, {high:g}]: {len(bad)} videos ({shown})")
    return "; ".join(parts) or None


def _annotations(
    summary_metrics: dict[str, SampleSummary],
    corr_full: CorrelationMatrix,
    corr_upper: CorrelationMatrix,
) -> dict[str, str]:
    annotations: dict[str, str] = {}
    for name, summary in summary_metrics.items():
        if summary.n == 0:
            annotations[f"summary_{name}"] = f"{name} undefined for every snapshot"
    for key, matrix in (("corr_full", corr_full), ("corr_upper_quartiles", corr_upper)):
        off_diag = [
            matrix.cells[i][j]
            for i in range(len(matrix.names))
            for j in range(len(matrix.names))
            if i != j
        ]
        errors = [c for c in off_diag if c.error is not None]
        if off_diag and len(errors) == len(off_diag):
            annotations[key] = "insufficient n: no correlation is defined"
        elif errors:
            annotations[key] = f"{len(errors)} of {len(off_diag)} cells undefined"
    return annotations


# --- formatting helpers ----------------------------------------------------

def significance_stars(p_value: float | None) -> str:
    """Star annotation from the p-value alone: ** below .001, * below .05."""
    if p_value is None:
        return ""
    if p_value < SIGNIFICANCE_STRONG:
        return "**"
    if p_value < SIGNIFICANCE_WEAK:
        return "*"
    return ""


def is_moderate(r: float | None) -> bool:
    """Bold threshold: at least moderate correlation strength."""
    return r is not None and abs(r) > MODERATE_R


def format_r(r: float) -> str:
    if r == 1.0:
        return "1"
    if r == -1.0:
        return "-1"
    text = f"{r:.3f}"
    if text.startswith("0."):
        return text[1:]
    if text.startswith("-0."):
        return "-" + text[2:]
    return text


def _md_corr_cell(cell: CorrelationCell) -> str:
    if cell.r is None:
        return "n/a"
    stars = significance_stars(cell.p_value).replace("*", "\\*")
    text = format_r(cell.r) + stars
    if is_moderate(cell.r):
        text = f"**{text}**"
    return text


def _fmt_int(x: float | None) -> str:
    return "" if x is None else f"{round(x):,}"


def _fmt_mean(x: float | None) -> str:
    return "" if x is None else f"{x:,.1f}"


def _fmt_metric(x: float | None) -> str:
    return "" if x is None else f"{x:.3f}"


def _fmt_pct(x: float | None) -> str:
    return "" if x is None else f"{100 * x:.2f}%"


# --- markdown --------------------------------------------------------------

def _md_table(header: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def _md_summary_basic(summaries: dict[str, SampleSummary]) -> list[str]:
    rows = [
        ["N"] + [str(summaries[v].n) for v in BASIC_NAMES],
        ["Mean"] + [_fmt_mean(summaries[v].mean) for v in BASIC_NAMES],
        ["Std. dev."] + [_fmt_mean(summaries[v].std_dev) for v in BASIC_NAMES],
        ["Minimum"] + [_fmt_int(summaries[v].min) for v in BASIC_NAMES],
        ["Maximum"] + [_fmt_int(summaries[v].max) for v in BASIC_NAMES],
    ]
    return _md_table(["", *BASIC_NAMES], rows)


def _md_summary_metrics(summaries: dict[str, SampleSummary]) -> list[str]:
    def fmt(name: str, value: float | None) -> str:
        return _fmt_pct(value) if name == "DisP" else _fmt_metric(value)

    rows = [
        ["N"] + [str(summaries[v].n) for v in METRIC_NAMES],
        ["Mean"] + [fmt(v, summaries[v].mean) for v in METRIC_NAMES],
        ["Std. dev."] + [fmt(v, summaries[v].std_dev) for v in METRIC_NAMES],
        ["Bin mode"] + [summaries[v].bin_mode or "" for v in METRIC_NAMES],
        ["Skewness"] + [_fmt_metric(summaries[v].skewness) for v in METRIC_NAMES],
        ["Kurtosis"] + [_fmt_metric(summaries[v].kurtosis) for v in METRIC_NAMES],
        ["Minimum"] + [fmt(v, summaries[v].min) for v in METRIC_NAMES],
        ["Maximum"] + [fmt(v, summaries[v].max) for v in METRIC_NAMES],
    ]
    return _md_table(["", *METRIC_NAMES], rows)


def _md_corr_table(matrix: CorrelationMatrix) -> list[str]:
    names = list(matrix.names)
    cols = names[:-1]
    def cell_text(i: int, j: int) -> str:
        if j > i:
            return ""
        cell = matrix.cells[i][j]
        # self-correlations stay a bare 1, star/bold markup is for the pairs
        if j == i and cell.error is None:
            return "1"
        return _md_corr_cell(cell)

    lines = _md_table(
        [""] + cols,
        [
            [names[i]] + [cell_text(i, j) for j in range(len(cols))]
            for i in range(1, len(names))
        ],
    )
    ns = sorted({c.n for row in matrix.cells for c in row})
    lines.append("")
    lines.append(
        f"Pairwise deletion; n per cell in {ns[0]}..{ns[-1]}. "
        "Stars mark significance (`*` p < .05, `**` p < .001); "
        "bold marks at least moderate strength (|r| > .4). "
        "Exact r, p and n per cell are in the CSV and JSON renders."
    )
    return lines


def _md_histogram(hist: Histogram) -> list[str]:
    rows = [[label, str(count)] for label, count in hist.rows]
    if hist.underflow:
        rows.append(["< min", str(hist.underflow)])
    if hist.overflow:
        rows.append(["> max", str(hist.overflow)])
    return _md_table(["Bin", "Count"], rows)


def _markdown_report(bundle: ReportBundle) -> str:
    p = bundle.provenance
    lines: list[str] = ["# Engagement report", ""]
    lines += [
        f"- Sample: {p['sample_n']} videos, fetched {p['fetched_from']} .. {p['fetched_to']}",
        f"- Selection: {p['selection_note']}",
    ]
    for note in p["coverage_notes"]:
        lines.append(f"- Coverage: {note}")
    for key in sorted(p["annotations"]):
        lines.append(f"- Note ({key}): {p['annotations'][key]}")
    lines.append("")

    lines += ["## Basic statistics", ""]
    lines += _md_summary_basic(bundle.summary_basic)
    lines += ["", "## Engagement rates", ""]
    lines += _md_summary_metrics(bundle.summary_metrics)
    lines += ["", f"## Correlations, full sample (N={p['sample_n']})", ""]
    lines += _md_corr_table(bundle.corr_full)
    lines += [
        "",
        f"## Correlations, top three quartiles by views (N={p['upper_quartile_n']})",
        "",
    ]
    lines += _md_corr_table(bundle.corr_upper_quartiles)

    lines += ["", "## Rate distributions", ""]
    for name in METRIC_NAMES:
        lines += [f"### {name}", ""]
        lines += _md_histogram(bundle.histograms[name])
        lines.append("")

    lines += ["## Categories", ""]
    lines += _md_table(
        ["Category", "Frequency"],
        [[cat, str(count)] for cat, count in bundle.categories],
    )
    lines.append("")
    return "\n".join(lines)


# --- csv -------------------------------------------------------------------

def _csv_quote(value) -> str:
    text = "" if value is None else str(value)
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_rows(rows: list[list]) -> list[str]:
    return [",".join(_csv_quote(v) for v in row) for row in rows]


def _csv_summaries(title: str, summaries: dict[str, SampleSummary],
                   names: tuple[str, ...]) -> list[str]:
    rows: list[list] = [["variable", *_SUMMARY.fields]]
    rows += [[name, *_dump(_SUMMARY, summaries[name]).values()] for name in names]
    return [f"# {title}"] + _csv_rows(rows)


def _csv_corr(title: str, matrix: CorrelationMatrix) -> list[str]:
    rows: list[list] = [["row", "col", *_CELL.fields]]
    for i in range(1, len(matrix.names)):
        for j in range(i + 1):
            rows.append([matrix.names[i], matrix.names[j],
                         *_dump(_CELL, matrix.cells[i][j]).values()])
    return [f"# {title}"] + _csv_rows(rows)


def _csv_report(bundle: ReportBundle) -> str:
    p = bundle.provenance
    lines = ["# provenance"]
    lines += _csv_rows([["key", "value"]])
    for key in ("sample_n", "selection_note", "fetched_from", "fetched_to",
                "upper_quartile_n"):
        lines += _csv_rows([[key, p[key]]])
    for note in p["coverage_notes"]:
        lines += _csv_rows([["coverage_note", note]])
    for key in sorted(p["annotations"]):
        lines += _csv_rows([[f"annotation:{key}", p["annotations"][key]]])

    lines += _csv_summaries("summary_basic", bundle.summary_basic, BASIC_NAMES)
    lines += _csv_summaries("summary_metrics", bundle.summary_metrics, METRIC_NAMES)
    lines += _csv_corr("correlations_full", bundle.corr_full)
    lines += _csv_corr("correlations_upper_quartiles", bundle.corr_upper_quartiles)
    for name in METRIC_NAMES:
        hist = bundle.histograms[name]
        lines.append(f"# histogram_{name.lower()}")
        rows: list[list] = [["bin", "count"]]
        rows += [[label, count] for label, count in hist.rows]
        rows.append(["underflow", hist.underflow])
        rows.append(["overflow", hist.overflow])
        lines += _csv_rows(rows)
    lines.append("# categories")
    lines += _csv_rows([["category", "count"]] + [list(kv) for kv in bundle.categories])
    return "\n".join(lines) + "\n"


# --- the bundle's schema ---------------------------------------------------

def _same(value):
    return value


def _is_number(value) -> bool:
    """Whether ``value`` is exactly an int or a float, finite and within the
    float range."""
    return (type(value) is float and math.isfinite(value)
            or type(value) is int and abs(value) <= sys.float_info.max)


def _is_count(value) -> bool:
    return type(value) is int and 0 <= value <= MAX_COUNT


def _is_optional_number(value) -> bool:
    return value is None or _is_number(value)


def _is_optional_text(value) -> bool:
    return value is None or type(value) is str


def _is_text(value) -> bool:
    return type(value) is str


def _are_count_rows(rows) -> bool:
    """Whether ``rows`` is a list of ``[label, count]`` pairs."""
    return type(rows) is list and all(
        type(row) is list and len(row) == 2 and _is_text(row[0]) and _is_count(row[1])
        for row in rows)


def _are_rates(rates) -> bool:
    """Whether ``rates`` is a list whose every rate is None or exactly an int
    or a float, finite and within the float range."""
    if type(rates) is not list:
        return False
    isfinite, largest = math.isfinite, sys.float_info.max  # looked up once, not per rate
    for rate in rates:  # _is_optional_number, inline: a call per rate doubles the cost
        if not (type(rate) is float and isfinite(rate) or rate is None
                or type(rate) is int and abs(rate) <= largest):
            return False
    return True


def _lists(rows) -> list:
    return [list(row) for row in rows]


class _Rule(NamedTuple):
    """A leaf of the schema: a JSON value that ``valid`` accepts, which an
    error describes as ``text``; ``load`` converts it from JSON, ``dump`` back."""

    valid: Callable[[object], bool]
    text: str
    load: Callable = _same
    dump: Callable = _same


class _Record(NamedTuple):
    """A JSON object with exactly these fields, each by its own schema, loaded
    as ``kind(**fields)``: a plain dict for the provenance and the tables."""

    kind: type
    fields: dict


class _Grid(NamedTuple):
    """A correlation matrix's cells: a row of cells per name in ``CORR_NAMES``,
    each row with a cell per name."""

    cell: _Record


def _table(names: tuple[str, ...], schema) -> _Record:
    """A table of exactly ``names``, each by ``schema``."""
    return _Record(dict, dict.fromkeys(names, schema))


_COUNT = _Rule(_is_count, f"an int in [0, {MAX_COUNT}]")
_OPTIONAL_TEXT = _Rule(_is_optional_text, "null or a string")

_SUMMARY = _Record(SampleSummary, {
    "n": _COUNT,
    **dict.fromkeys(("mean", "std_dev", "min", "max", "skewness", "kurtosis"),
                    _Rule(_is_optional_number, "null or a finite number")),
    "bin_mode": _OPTIONAL_TEXT,
})
_CELL = _Record(CorrelationCell, {
    "r": _Rule(lambda r: r is None or _is_number(r) and -1 <= r <= 1,
               "null or a number in [-1, 1]"),
    "p_value": _Rule(lambda p: p is None or _is_number(p) and 0 <= p <= 1,
                     "null or a number in [0, 1]"),
    "n": _COUNT,
    "error": _OPTIONAL_TEXT,
})
_MATRIX = _Record(CorrelationMatrix, {
    "names": _Rule(lambda names: names == [*CORR_NAMES], f"the list {[*CORR_NAMES]}", tuple, list),
    "cells": _Grid(_CELL),
})
_HISTOGRAM = _Record(Histogram, {
    "rows": _Rule(_are_count_rows, "a list of [label, count] pairs",
                  lambda rows: tuple(map(tuple, rows)), _lists),
    "underflow": _COUNT,
    "overflow": _COUNT,
})

# the one definition of a bundle: bundle_to_json and bundle_from_json walk it,
# and each table holds exactly the names that the renders read
_SCHEMA = _Record(ReportBundle, {
    "provenance": _Record(dict, {
        "sample_n": _COUNT,
        **dict.fromkeys(("selection_note", "fetched_from", "fetched_to"),
                        _Rule(_is_text, "a string")),
        "upper_quartile_n": _COUNT,
        "coverage_notes": _Rule(lambda notes: type(notes) is list and all(map(_is_text, notes)),
                                "a list of strings"),
        "annotations": _Rule(
            lambda notes: type(notes) is dict and all(map(_is_text, notes.values())),
            "an object of strings"),
    }),
    "summary_basic": _table(BASIC_NAMES, _SUMMARY),
    "summary_metrics": _table(METRIC_NAMES, _SUMMARY),
    "corr_full": _MATRIX,
    "corr_upper_quartiles": _MATRIX,
    "histograms": _table(METRIC_NAMES, _HISTOGRAM),
    "categories": _Rule(_are_count_rows, "a list of [category, count] pairs",
                        lambda rows: [tuple(row) for row in rows], _lists),
    "rates": _table(METRIC_NAMES, _Rule(_are_rates, "a list of nulls and finite numbers",
                                        list, list)),
})


def _dump(schema, value):
    """``value`` as the JSON value that ``schema`` describes."""
    if type(schema) is _Rule:
        return schema.dump(value)
    if type(schema) is _Grid:
        return [[_dump(schema.cell, cell) for cell in row] for row in value]
    field = value.__getitem__ if schema.kind is dict else value.__getattribute__
    return {name: _dump(part, field(name)) for name, part in schema.fields.items()}


def _load(schema, data, where: str):
    """The value that ``schema`` describes, from the JSON value ``data``. A
    value that breaks its rule, a record that is not an object or that lacks a
    field or has one more, and cells that are not square over ``CORR_NAMES``,
    raise ValueError naming the field by its path from ``where``."""
    if type(schema) is _Rule:
        if not schema.valid(data):
            raise ValueError(f"{where} must be {schema.text}, not {data!r:.40}")
        return schema.load(data)
    if type(schema) is _Grid:
        size = len(CORR_NAMES)
        if type(data) is not list or len(data) != size \
                or any(type(row) is not list or len(row) != size for row in data):
            raise ValueError(f"{where} must be {size} rows of {size} cells, one per name")
        return tuple(tuple(_load(schema.cell, cell, f"{where}[{i}][{j}]")
                           for j, cell in enumerate(row)) for i, row in enumerate(data))
    if type(data) is not dict:
        raise ValueError(f"{where} must be an object, not {data!r:.40}")
    if data.keys() != schema.fields.keys():
        for name in schema.fields:
            if name not in data:
                raise ValueError(f"{where}.{name} is missing")
        extra = next(name for name in data if name not in schema.fields)
        raise ValueError(f"{where} has the unknown field {extra!r:.40}; "
                         f"its fields are {', '.join(schema.fields)}")
    return schema.kind(**{name: _load(part, data[name], f"{where}.{name}")
                          for name, part in schema.fields.items()})


def bundle_to_json(bundle: ReportBundle) -> dict:
    """The bundle as the JSON values that ``bundle_from_json`` reads back."""
    return {"format": BUNDLE_FORMAT, **_dump(_SCHEMA, bundle)}


def bundle_from_json(data: dict) -> ReportBundle:
    """The bundle that ``bundle_to_json`` wrote as ``data``. A field that is
    missing, is not in the schema or breaks its rule raises ValueError naming
    the field."""
    if data.get("format") != BUNDLE_FORMAT:
        raise ValueError(f"not a report bundle (format={data.get('format')!r})")
    return _load(_SCHEMA, {key: value for key, value in data.items() if key != "format"},
                 "bundle")


# --- json ------------------------------------------------------------------

# the value types of a list or dict that the C encoder may write whole
_FLAT_TYPES = frozenset((str, int, float, bool, type(None)))
_c_json = json.JSONEncoder(ensure_ascii=False, allow_nan=False).encode


def _json_chunks(obj, newline: str) -> Iterator[str]:
    """``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False,
    allow_nan=False)`` in pieces, as ``json.encoder``'s ``_make_iterencode``
    yields them, at the indent that ``newline`` ends with: a NaN or an
    infinity raises ValueError, as no JSON text may hold one.

    ``json.dumps`` writes through its pure-Python encoder whenever ``indent``
    is set. Here each list or dict whose values are all plain strings,
    numbers, bools or nulls (a bundle's rate series, a correlation cell, a
    summary) goes through the C encoder in one call, with the indented item
    separator as its own; the containers around them take the Python
    encoder's recursion, so the text is the same.
    """
    if isinstance(obj, dict):
        values, opening, closing = obj.values(), "{", "}"
    elif isinstance(obj, (list, tuple)):
        values, opening, closing = obj, "[", "]"
    else:  # a string or a scalar; the C encoder rejects any other type as json.dumps does
        yield _c_json(obj)
        return
    if not obj:
        yield opening + closing
        return
    inner = newline + "  "
    if _FLAT_TYPES.issuperset(map(type, values)):
        text = json.JSONEncoder(ensure_ascii=False, sort_keys=True, allow_nan=False,
                                separators=("," + inner, ": ")).encode(obj)
        yield opening + inner
        yield text[1:-1]
        yield newline + closing
        return
    separator = opening + inner
    if isinstance(obj, dict):
        for key, value in sorted(obj.items()):
            if key is None or isinstance(key, (int, float)):  # a bool is an int
                key = _c_json(key)
            elif not isinstance(key, str):
                raise TypeError("keys must be str, int, float, bool or None, "
                                f"not {key.__class__.__name__}")
            yield separator + encode_basestring(key) + ": "
            yield from _json_chunks(value, inner)
            separator = "," + inner
    else:
        for value in obj:
            yield separator
            yield from _json_chunks(value, inner)
            separator = "," + inner
    yield newline + closing


def _bundle_json(bundle: ReportBundle) -> Iterator[str]:
    """``render(bundle, "json")`` in pieces, so that a writer need not hold it whole."""
    yield from _json_chunks(bundle_to_json(bundle), "\n")
    yield "\n"


RENDER_FORMATS = ("md", "csv", "json")


def render(bundle: ReportBundle, format: str = "md") -> str:
    """Render the bundle in one format; identical bundles give identical text."""
    if format == "md":
        return _markdown_report(bundle)
    if format == "csv":
        return _csv_report(bundle)
    if format == "json":
        return "".join(_bundle_json(bundle))
    raise ValueError(f"unknown format {format!r}; expected one of {RENDER_FORMATS}")


# --- histogram plots -------------------------------------------------------

MAX_BAR_COLUMNS = 40


def render_histogram_plot(hist: Histogram, style: str = "text", title: str = "") -> str:
    """A bar chart of the histogram as fixed-width text or standalone SVG."""
    if style == "text":
        return _text_histogram(hist, title)
    if style == "svg":
        return _svg_histogram(hist, title)
    raise ValueError(f"unknown plot style {style!r}; expected 'text' or 'svg'")


def _plot_rows(hist: Histogram) -> list[tuple[str, int]]:
    rows = [("< min", hist.underflow)] if hist.underflow else []
    rows += list(hist.rows)
    if hist.overflow:
        rows.append(("> max", hist.overflow))
    return rows


def _text_histogram(hist: Histogram, title: str) -> str:
    rows = _plot_rows(hist)
    max_count = max((count for _, count in rows), default=0)
    scale = 1.0 if max_count <= MAX_BAR_COLUMNS else MAX_BAR_COLUMNS / max_count
    label_width = max((len(label) for label, _ in rows), default=0)
    count_width = max((len(str(count)) for _, count in rows), default=1)
    lines = [title] if title else []
    for label, count in rows:
        bar = "#" * round(count * scale)
        lines.append(f"{label:>{label_width}} | {count:>{count_width}} | {bar}")
    return "\n".join(lines) + "\n"


SVG_BAR_SPAN = 400
SVG_ROW_HEIGHT = 24
SVG_LEFT = 170
SVG_WIDTH = 640


def _svg_histogram(hist: Histogram, title: str) -> str:
    rows = _plot_rows(hist)
    max_count = max((count for _, count in rows), default=0)
    top = 34 if title else 10
    height = top + SVG_ROW_HEIGHT * len(rows) + 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{height}" '
        f'font-family="monospace" font-size="13">',
    ]
    if title:
        parts.append(f'<text x="10" y="20" font-size="15">{_svg_escape(title)}</text>')
    for i, (label, count) in enumerate(rows):
        y = top + i * SVG_ROW_HEIGHT
        width = 0.0 if max_count == 0 else round(SVG_BAR_SPAN * count / max_count, 1)
        parts.append(
            f'<text x="{SVG_LEFT - 8}" y="{y + 16}" text-anchor="end">{_svg_escape(label)}</text>'
        )
        parts.append(
            f'<rect x="{SVG_LEFT}" y="{y + 4}" width="{width}" height="{SVG_ROW_HEIGHT - 8}" '
            f'fill="#4878a8"/>'
        )
        parts.append(f'<text x="{SVG_LEFT + width + 6}" y="{y + 16}">{count}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _svg_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
