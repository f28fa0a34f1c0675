"""Descriptive statistics, binning, Pearson correlation and sample filtering.

All functions are pure and skip absent (``None``) observations; counts of
defined observations travel with every result so downstream tables can
report their own n. Conventions: sample standard deviation (n-1 in the
denominator), adjusted Fisher-Pearson skewness (G1) and bias-corrected
excess kurtosis (G2), the forms mainstream statistics packages print.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

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

    def bin_index(self, value: float) -> int:
        """Index of the bin holding ``value``; -1 = underflow, len = overflow."""
        if value < self.edges[0]:
            return -1
        if value > self.edges[-1]:
            return len(self.edges) - 1
        if value == self.edges[-1]:
            return len(self.edges) - 2
        lo, hi = 0, len(self.edges) - 1
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if value >= self.edges[mid]:
                lo = mid
            else:
                hi = mid
        return lo


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
        ids = [s.video_id for s in self.snapshots]
        if len(set(ids)) != len(ids):
            dupes = sorted({v for v, c in Counter(ids).items() if c > 1})
            raise ValueError(f"duplicate video ids in sample: {dupes[:5]}")


def _defined(values: Iterable[OptionalNumber]) -> list[float]:
    return [float(v) for v in values if v is not None]


def summarize(values: Iterable[OptionalNumber]) -> SampleSummary:
    """Descriptive statistics over the defined entries of ``values``.

    Mean, sample standard deviation, min, max, G1 skewness and G2 excess
    kurtosis; ``bin_mode`` is left for the report's binning to fill in.
    """
    xs = _defined(values)
    n = len(xs)
    if n == 0:
        return SampleSummary(n=0)

    mean = math.fsum(xs) / n
    lo, hi = min(xs), max(xs)

    std_dev = skew = kurt = None
    if n >= 2:
        m2 = math.fsum((x - mean) ** 2 for x in xs)
        std_dev = math.sqrt(m2 / (n - 1))
        if std_dev > 0:
            z3 = math.fsum(((x - mean) / std_dev) ** 3 for x in xs)
            z4 = math.fsum(((x - mean) / std_dev) ** 4 for x in xs)
            if n >= 3:
                skew = n / ((n - 1) * (n - 2)) * z3
            if n >= 4:
                kurt = (
                    n * (n + 1) / ((n - 1) * (n - 2) * (n - 3)) * z4
                    - 3 * (n - 1) ** 2 / ((n - 2) * (n - 3))
                )

    return SampleSummary(
        n=n, mean=mean, std_dev=std_dev, min=lo, max=hi, skewness=skew, kurtosis=kurt
    )


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
    pairs = [(float(x), float(y)) for x, y in zip(xs, ys) if x is not None and y is not None]
    n = len(pairs)
    px = [x for x, _ in pairs]
    py = [y for _, y in pairs]
    error = _undefined(px, py)
    if error is not None:
        return CorrelationCell(r=None, p_value=None, n=n, error=error)

    mx = math.fsum(px) / n
    my = math.fsum(py) / n
    ssx = math.fsum((x - mx) ** 2 for x in px)
    ssy = math.fsum((y - my) ** 2 for y in py)
    if ssx == 0 or ssy == 0:
        # squared deviations of subnormal values can underflow to 0
        return CorrelationCell(r=None, p_value=None, n=n, error="constant series")
    cov = math.fsum((x - mx) * (y - my) for x, y in pairs)
    r = cov / math.sqrt(ssx * ssy)
    r = max(-1.0, min(1.0, r))
    return CorrelationCell(r=r, p_value=_pearson_p(r, n), n=n)


def _undefined(*paired: Sequence[float]) -> str | None:
    """Why paired series have no correlation: too few pairs, or all paired
    values of one series equal (tested exactly, not via a rounded mean)."""
    if len(paired[0]) < 2:
        return "fewer than 2 pairs"
    if any(min(series) == max(series) for series in paired):
        return "constant series"
    return None


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
    each cell carries its own n. Diagonal cells are exactly r = 1 except
    for degenerate columns (fewer than 2 defined values, or all equal): their
    diagonal names the condition, and every cell in their row is an error cell.
    """
    names = tuple(columns.keys())
    series = [columns[name] for name in names]
    length = len(series[0]) if series else 0
    for name, col in zip(names, series):
        if len(col) != length:
            raise ValueError(f"column {name!r} has length {len(col)}, expected {length}")

    k = len(names)
    cells: list[list[CorrelationCell | None]] = [[None] * k for _ in range(k)]
    for i in range(k):
        xi = series[i]
        defined = _defined(xi)
        error = _undefined(defined)
        cells[i][i] = CorrelationCell(
            r=None if error else 1.0, p_value=None, n=len(defined), error=error
        )
        for j in range(i + 1, k):
            cell = pearson(xi, series[j])
            cells[i][j] = cell
            cells[j][i] = cell
    return CorrelationMatrix(
        names=names, cells=tuple(tuple(row) for row in cells)  # type: ignore[arg-type]
    )


ALL_QUARTILES = frozenset({1, 2, 3, 4})
TOP_THREE_QUARTILES = frozenset({2, 3, 4})


def quartile_filter(
    sample: StudySample,
    key: Callable[[VideoStatsSnapshot], Number],
    keep: frozenset[int] | set[int] = TOP_THREE_QUARTILES,
) -> StudySample:
    """Keep only the members falling in the given rank-based quartiles.

    Members are ranked ascending by ``key`` (ties broken by video_id);
    rank boundaries sit at floor(q*n/4), so keeping the top three
    quartiles of an n=100 sample drops the 25 lowest and retains 75.
    Output preserves the sample's original order.
    """
    if not keep <= ALL_QUARTILES:
        raise ValueError(f"quartile set must be within {{1,2,3,4}}, got {sorted(keep)}")
    n = len(sample.snapshots)
    if n == 0 or set(keep) == ALL_QUARTILES:
        return sample

    ranked = sorted(sample.snapshots, key=lambda s: (key(s), s.video_id))
    bounds = [0] + [n * q // 4 for q in (1, 2, 3)] + [n]
    keep_ids = set()
    for q in range(1, 5):
        if q in keep:
            keep_ids.update(s.video_id for s in ranked[bounds[q - 1]:bounds[q]])

    kept = tuple(s for s in sample.snapshots if s.video_id in keep_ids)
    label = f"quartiles {sorted(keep)}"
    note = f"{sample.selection_note}; kept {label} ({len(kept)} of {n})".lstrip("; ")
    return StudySample(snapshots=kept, selection_note=note)


def histogram(values: Iterable[OptionalNumber], bins: BinSpec) -> Histogram:
    """Count defined values into the bins, plus under/overflow buckets."""
    labels = bins.bin_labels
    counts = [0] * len(labels)
    under = over = 0
    for v in values:
        if v is None:
            continue
        idx = bins.bin_index(float(v))
        if idx < 0:
            under += 1
        elif idx >= len(counts):
            over += 1
        else:
            counts[idx] += 1
    return Histogram(
        rows=tuple(zip(labels, counts)), underflow=under, overflow=over,
    )


def category_counts(sample: StudySample) -> list[tuple[str, int]]:
    """Category frequencies, sorted by count descending then name ascending."""
    counts = Counter(s.category for s in sample.snapshots)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
