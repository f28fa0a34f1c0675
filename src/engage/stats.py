"""Descriptive statistics, binning, Pearson correlation and sample filtering.

All functions are pure and skip absent (``None``) observations; counts of
defined observations travel with every result so downstream tables can
report their own n. Conventions: sample standard deviation (n-1 in the
denominator), adjusted Fisher-Pearson skewness (G1) and bias-corrected
excess kurtosis (G2), the forms mainstream statistics packages print.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, combinations_with_replacement, compress, repeat
from operator import is_not, mul, sub, truediv
from typing import Collection, Iterable, Mapping, Sequence

from .metrics import VideoStatsSnapshot

Number = int | float | Fraction
OptionalNumber = Number | None


@dataclass(frozen=True)
class SampleSummary:
    """Descriptive statistics of one variable over a sample.

    Statistics are ``None`` when too few defined observations exist to
    compute them (skewness needs n >= 3, kurtosis n >= 4, both need a
    non-zero standard deviation).
    """

    n: int
    mean: float | None = None
    std_dev: float | None = None
    min: float | None = None
    max: float | None = None
    skewness: float | None = None
    kurtosis: float | None = None
    bin_mode: str | None = None


@dataclass(frozen=True)
class BinSpec:
    """Histogram bins: left-closed right-open, the last bin closed on both ends.

    ``labels`` are display strings, one per bin; generated from the edges
    when not supplied.
    """

    edges: tuple[float, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.edges) < 2:
            raise ValueError("BinSpec needs at least 2 edges")
        if not all(map(math.isfinite, self.edges)):
            raise ValueError(f"BinSpec edges must be finite, got {self.edges}")
        if any(a >= b for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError("BinSpec edges must be strictly increasing")
        if self.labels is not None and len(self.labels) != len(self.edges) - 1:
            raise ValueError(
                f"BinSpec has {len(self.edges) - 1} bins but {len(self.labels)} labels"
            )

    @property
    def bin_labels(self) -> tuple[str, ...]:
        if self.labels is not None:
            return self.labels
        return tuple(
            f"{_fmt_edge(a)}-{_fmt_edge(b)}" for a, b in zip(self.edges, self.edges[1:])
        )


def _fmt_edge(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return f"{x:g}"


@dataclass(frozen=True)
class Histogram:
    """Bin counts plus explicit under/overflow buckets for out-of-range values."""

    rows: tuple[tuple[str, int], ...]
    underflow: int = 0
    overflow: int = 0

    @property
    def mode(self) -> str | None:
        """Label of the most populated bin, the lowest on ties; None if all are empty."""
        # max() keeps the first (lowest) bin on ties
        best = max(self.rows, key=lambda row: row[1], default=None)
        return best[0] if best is not None and best[1] > 0 else None


@dataclass(frozen=True)
class CorrelationCell:
    """Pearson r with its two-tailed p-value and the pair count used.

    ``r`` is ``None`` when the correlation is undefined (constant series or
    fewer than 2 pairs), with ``error`` naming the condition. ``p_value``
    is ``None`` when |r| = 1 exactly or n < 3.
    """

    r: float | None
    p_value: float | None
    n: int
    error: str | None = None


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric matrix of pairwise correlation cells."""

    names: tuple[str, ...]
    cells: tuple[tuple[CorrelationCell, ...], ...]

    def cell(self, row: str, col: str) -> CorrelationCell:
        return self.cells[self.names.index(row)][self.names.index(col)]


@dataclass(frozen=True)
class StudySample:
    """An ordered, deduplicated collection of snapshots plus provenance."""

    snapshots: tuple[VideoStatsSnapshot, ...]
    selection_note: str = ""

    def __post_init__(self) -> None:
        # a set of the ids and no list of them, since a store load peaks here
        if len({s.video_id for s in self.snapshots}) != len(self.snapshots):
            counts = Counter(s.video_id for s in self.snapshots)
            dupes = sorted({v for v, c in counts.items() if c > 1})
            raise ValueError(f"duplicate video ids in sample: {dupes[:5]}")


def _defined(values: Iterable[OptionalNumber]) -> list[float]:
    return [float(v) for v in values if v is not None]


def summarize(values: Iterable[OptionalNumber]) -> SampleSummary:
    """Descriptive statistics over the defined entries of ``values``.

    Mean, sample standard deviation, min, max, G1 skewness and G2 excess
    kurtosis; ``bin_mode`` is left for the report's binning to fill in.
    A standard deviation past the float range is ``None``.
    """
    return _summary(_deviations(_defined(values)))


def _summary(deviations: _Deviations) -> SampleSummary:
    """``summarize`` of the values whose deviations these are."""
    n, e, mean, dx, ss, _, lo, hi = deviations
    if not n:
        return SampleSummary(n=0)

    std_dev = skew = kurt = None
    if n >= 2:  # ss is 0 for a constant series
        sd = math.sqrt(ss / (n - 1))
        std_dev = math.ldexp(sd, e) if math.frexp(sd)[1] + e <= 1024 else None
    if dx is not None:
        z = array("d", map(truediv, dx, repeat(sd)))
        z3 = math.fsum(map(pow, z, repeat(3)))
        z4 = math.fsum(map(pow, z, repeat(4)))
        if n >= 3:
            skew = n / ((n - 1) * (n - 2)) * z3
        if n >= 4:
            kurt = (
                n * (n + 1) / ((n - 1) * (n - 2) * (n - 3)) * z4
                - 3 * (n - 1) ** 2 / ((n - 2) * (n - 3))
            )

    return SampleSummary(n=n, mean=math.ldexp(mean, e), std_dev=std_dev, min=lo, max=hi,
                         skewness=skew, kurtosis=kurt)


def pearson(
    xs: Sequence[OptionalNumber], ys: Sequence[OptionalNumber]
) -> CorrelationCell:
    """Pearson product-moment correlation with a two-tailed p-value.

    Pairs with either member absent are dropped first. The p-value comes
    from t = r * sqrt((n-2) / (1-r^2)) with n-2 degrees of freedom,
    evaluated through the regularized incomplete beta function.

    Raises ``ValueError`` on length mismatch; degenerate data (constant
    series, fewer than 2 pairs) yields an error cell, not an exception.
    """
    if len(xs) != len(ys):
        raise ValueError(f"series lengths differ: {len(xs)} != {len(ys)}")
    rows = _both(_defined_rows(xs), _defined_rows(ys))
    return _cell(_deviations(_take(xs, rows)), _deviations(_take(ys, rows)))


def _defined_rows(values: Sequence[OptionalNumber]) -> bytes:
    """Mask of the rows where ``values`` is defined: one byte per row, 1 or 0."""
    return bytes(map(is_not, values, repeat(None)))


def _both(a: bytes, b: bytes) -> bytes:
    """Mask of the rows defined in both masks."""
    both = int.from_bytes(a, "little") & int.from_bytes(b, "little")
    return both.to_bytes(len(a), "little")


def _take(values: Sequence[OptionalNumber], rows: bytes) -> list[float]:
    """The values on the masked rows, as floats."""
    return list(map(float, compress(values, rows)))


# (n, e, mean, dx, ss, error, lo, hi); dx is an array("d"), or a list of the
# same floats where one column meets many in a correlation matrix
_Deviations = tuple[int, int, float, "array[float] | list[float] | None", float, "str | None",
                    float, float]


def _deviations(values: list[float]) -> _Deviations:
    """``(n, e, mean, dx, ss, error, lo, hi)``: the mean of ``values * 2**-e``,
    the deviations from it and their sum of squares, or why the series has no
    correlation (``dx`` is then None), and the unscaled min and max. This is
    the one degeneracy rule: fewer than 2 values, or all values equal (tested
    exactly, not via a rounded mean). One pass gives both a column's summary
    (``_summary``) and its side of every Pearson cell (``_cell``).
    """
    n = len(values)
    lo, hi = min(values, default=0.0), max(values, default=0.0)
    e = math.frexp(max(-lo, hi))[1]  # every |x| < 2**e
    # Unscaled, |dx| < 2**(e+1), and max |dx| > 2**(e-56): two distinct floats
    # below 2**e, one of them at least 2**(e-1) in magnitude, differ by at least
    # 2**(e-54). For -200 < e < 239 and n < 2**34 each sum of squares is then in
    # (2**-510, 2**512), so ssx * ssy is normal and finite, and the squares
    # below 2**-1022 move ss by less than an ulp. Elsewhere the values are
    # scaled by 2**-e, exactly but for parts below 2**(e-1074).
    if -200 < e < 239:
        e = 0
    else:
        values = [math.ldexp(x, -e) for x in values]
    mean = math.fsum(values) / n if n else 0.0
    if n < 2:
        return n, e, mean, None, 0.0, "fewer than 2 pairs", lo, hi
    if lo == hi:
        return n, e, mean, None, 0.0, "constant series", lo, hi
    dx = array("d", map(sub, values, repeat(mean)))
    # d * d is the correctly rounded square; the window above keeps it finite
    return n, e, mean, dx, math.fsum(map(mul, dx, dx)), None, lo, hi


def _cell(x: _Deviations, y: _Deviations) -> CorrelationCell:
    """The Pearson cell of two series' deviations over the same rows."""
    n, _, _, dx, ssx, error, _, _ = x
    _, _, _, dy, ssy, y_error, _, _ = y
    error = error or y_error
    if error is not None:
        return CorrelationCell(r=None, p_value=None, n=n, error=error)
    r = math.fsum(map(mul, dx, dy)) / math.sqrt(ssx * ssy)
    r = max(-1.0, min(1.0, r))
    return CorrelationCell(r=r, p_value=_pearson_p(r, n), n=n)


def _pearson_p(r: float, n: int) -> float | None:
    if n < 3 or abs(r) == 1.0:
        return None
    # two-tailed p for t = r*sqrt(df/(1-r^2)) is I_{1-r^2}(df/2, 1/2); both
    # 1-r^2 and r^2 are passed so neither is formed by a cancelling subtraction
    return _betainc((n - 2) / 2.0, 0.5, (1.0 - r) * (1.0 + r), r * r)


_BETAINC_MAX_TERMS = 200  # b = 1/2 takes at most 60, up to n = 10^9
# Stirling-series coefficients of lgamma(z) - ((z - 1/2) log z - z + log(2 pi)/2)
_STIRLING = (1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0, given y = 1 - x.

    The continued fraction A&S 26.5.8, contracted to its even part as in
    TOMS 708's ``bfrac`` (DiDonato & Morris 1992), evaluated by modified
    Lentz (Numerical Recipes 6.4). It converges fast below x = (a+1)/(a+b+2);
    above, the result is 1 - I_y(b, a). log x, log y and lambda = a - (a+b)x
    all come from the smaller of x and y, so no subtraction from 1 loses digits.
    """
    if x == 0.0 or y == 0.0:
        return 0.0 if x == 0.0 else 1.0
    swap = x >= (a + 1.0) / (a + b + 2.0)
    if swap:
        a, b, x, y = b, a, y, x
    if x <= y:
        log_x, log_y, lam = math.log(x), math.log1p(-x), a - (a + b) * x
    else:
        log_x, log_y, lam = math.log1p(-y), math.log(y), (a + b) * y - b
    front = math.exp(a * log_x + b * log_y - _log_beta(a, b))  # x^a y^b / B(a, b)
    c, c0, c1 = 1.0 + lam, b / a, 1.0 + 1.0 / a
    fraction = lentz_c = c / c1
    lentz_d, p, s = 0.0, 1.0, a + 1.0
    for n in range(1, _BETAINC_MAX_TERMS + 1):
        t, w, e = n / a, n * (b - n) * x, a / s
        alpha = p * (p + c0) * e * e * (w * x)
        beta = n + w / s + (1.0 + t) / (c1 + t + t) * (c + n * (1.0 + y))
        p, s = 1.0 + t, s + 2.0
        lentz_d = 1.0 / ((beta + alpha * lentz_d) or 1e-300)
        lentz_c = (beta + alpha / lentz_c) or 1e-300
        fraction *= lentz_c * lentz_d
        if abs(lentz_c * lentz_d - 1.0) <= 2.0**-52:
            break
    result = front / fraction
    return 1.0 - result if swap else result


def _log_beta(a: float, b: float) -> float:
    """log B(a, b). For max(a, b) >= 10, lgamma(big) - lgamma(big + small)
    is taken in the form of TOMS 708's ``algdiv``: log1p(small/big) plus the
    difference of two Stirling corrections, with no cancelling lgamma pair."""
    small, big = sorted((a, b))
    if big < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    u = (big + small - 0.5) * math.log1p(small / big)
    v = small * (math.log(big) - 1.0)
    return math.lgamma(small) + (_stirling(big) - _stirling(big + small)) - u - v


def _stirling(z: float) -> float:
    """lgamma(z) minus its Stirling approximation, for z >= 10."""
    z2, total = 1.0 / (z * z), 0.0
    for coef in _STIRLING:
        total = total * z2 + coef
    return total / z


def correlation_matrix(
    columns: Mapping[str, Sequence[OptionalNumber]]
) -> CorrelationMatrix:
    """Symmetric matrix of pairwise correlations over named columns.

    Rows where either member of a pair is absent are deleted pairwise, so
    each cell carries its own n; every off-diagonal cell equals ``pearson``
    of its two columns. A diagonal cell is exactly r = 1 over the column's
    defined values unless ``pearson``'s degeneracy rule holds there: fewer
    than 2 values or all values equal. The diagonal then names the
    condition, and so does every cell in its row. Each column's deviations
    are taken once per set of rows it is paired on.
    """
    return _correlations(columns)[0]


def _correlations(
    columns: Mapping[str, Sequence[OptionalNumber]], summarized: Collection[str] = ()
) -> tuple[CorrelationMatrix, dict[str, SampleSummary]]:
    """``correlation_matrix`` of ``columns``, plus ``summarize`` of each
    column named in ``summarized``, taken from its diagonal's deviations."""
    names = tuple(columns.keys())
    series = [columns[name] for name in names]
    length = len(series[0]) if series else 0
    for name, col in zip(names, series):
        if len(col) != length:
            raise ValueError(f"column {name!r} has length {len(col)}, expected {length}")

    # the pairs, diagonal included, grouped by the rows they are defined on,
    # so that each column's deviations are taken once per row set
    masks = [_defined_rows(col) for col in series]
    by_rows: dict[bytes, list[tuple[int, int]]] = {}
    for i, j in combinations_with_replacement(range(len(names)), 2):
        rows = masks[i] if i == j else _both(masks[i], masks[j])
        by_rows.setdefault(rows, []).append((i, j))

    cells: list[list[CorrelationCell | None]] = [[None] * len(names) for _ in names]
    summaries: dict[str, SampleSummary] = {}
    for rows, pairs in by_rows.items():
        _fill_row_set(cells, summaries, names, summarized,
                      {i: _deviations(_take(series[i], rows)) for i in set(chain(*pairs))},
                      pairs)
    matrix = CorrelationMatrix(
        names=names, cells=tuple(tuple(row) for row in cells)  # type: ignore[arg-type]
    )
    return matrix, summaries


def _fill_row_set(cells: list[list], summaries: dict[str, SampleSummary],
                  names: tuple[str, ...], summarized: Collection[str],
                  deviations: dict[int, _Deviations], pairs: list[tuple[int, int]]) -> None:
    """The cells of one row set's pairs, and the summaries on its diagonals.

    Only this row set's deviations are held, and only while it is filled.
    The pairs come sorted by their left column, which is turned into a list
    once for all its pairs, so each product boxes one operand and not two.
    """
    left_i, left = -1, None
    for i, j in pairs:
        if i == j:
            n, _, _, _, _, error, _, _ = deviations[i]
            cells[i][i] = CorrelationCell(r=None if error else 1.0, p_value=None, n=n,
                                          error=error)
            if names[i] in summarized:
                summaries[names[i]] = _summary(deviations[i])
            continue
        if i != left_i:
            left_i, left = i, deviations[i]
            if left[3] is not None:
                left = (*left[:3], left[3].tolist(), *left[4:])
        cells[i][j] = cells[j][i] = _cell(left, deviations[j])


def upper_quartile_rows(snapshots: Sequence[VideoStatsSnapshot]) -> list[int]:
    """Indices, in sample order, of the top three quartiles by views.

    The lowest floor(n/4) snapshots by ``(views, video_id)`` are dropped,
    so an n=100 sample keeps 75 and ties at the cut go to the higher id.
    """
    ranks = [(s.views, s.video_id) for s in snapshots]
    ranked = sorted(range(len(ranks)), key=ranks.__getitem__)
    return sorted(ranked[len(ranks) // 4:])


def histogram(values: Iterable[OptionalNumber], bins: BinSpec) -> Histogram:
    """Count defined values into the bins, plus under/overflow buckets."""
    labels = bins.bin_labels
    # bisect_right over the edges gives each value's bin plus one: 0 is
    # underflow and len(edges) overflow, where NaN lands too, as it compares
    # false to every edge. With the top edge raised by one ulp, a value equal
    # to it falls in the last bin, which is closed on both ends.
    edges = (*bins.edges[:-1], math.nextafter(bins.edges[-1], math.inf))
    xs = map(float, filter(partial(is_not, None), values))
    index = Counter(map(bisect_right, repeat(edges), xs))
    return Histogram(
        rows=tuple(zip(labels, map(index.__getitem__, range(1, len(edges))))),
        underflow=index[0],
        overflow=index[len(edges)],
    )


def category_counts(sample: StudySample) -> list[tuple[str, int]]:
    """Category frequencies, sorted by count descending then name ascending."""
    counts = Counter(s.category for s in sample.snapshots)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
