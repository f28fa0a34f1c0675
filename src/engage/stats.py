"""Descriptive statistics, binning, Pearson correlation and sample filtering.

All functions are pure and skip absent (``None``) observations; counts of
defined observations travel with every result so downstream tables can
report their own n. Conventions: sample standard deviation (n-1 in the
denominator), adjusted Fisher-Pearson skewness (G1) and bias-corrected
excess kurtosis (G2), the forms mainstream statistics packages print.

Every moment comes from exact integer power sums. Each column is taken
as ints over one binary exponent, with an absent value as 0, so
n, Σx, Σx², Σx³, Σx⁴ and each pair's Σxy are exact. The rows are summed
in blocks that keep a subsample's rows apart from the others, and the
sums of disjoint blocks simply add (Chan, Golub & LeVeque, Am. Stat.
37(3), 1983): every block gives the full sample, the subsample's blocks
alone give the subsample, and each row is summed once. A large sample's
blocks are split between this process and a forked worker (``_sums``);
the sums are exact, so they are those of one process. Each statistic
is then rounded once, to the float nearest its exact value: the mean and
G2 by one int division, r, the standard deviation and G1 by one
``math.isqrt``. The textbook one-pass formulas that fail in floating
point are exact in integers.
"""

from __future__ import annotations

import marshal
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import compress, filterfalse, islice, repeat
from operator import add, is_not, mul, truediv
from typing import BinaryIO, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._fork import _fork_allowed, _forked
from .metrics import VideoStatsSnapshot

Number = int | float | Fraction
OptionalNumber = Number | None


class SampleSummary(NamedTuple):
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


class _Validated:
    """Base of a record that checks its fields in ``__new__``: ``_make``, and
    so ``_replace``, build through it too, where namedtuple's own ``_make``
    calls ``tuple.__new__`` directly."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _BinSpecFields(NamedTuple):
    edges: tuple[float, ...]
    labels: tuple[str, ...] | None = None


class BinSpec(_Validated, _BinSpecFields):
    """Histogram bins: left-closed right-open, the last bin closed on both ends.

    ``labels`` are display strings, one per bin; generated from the edges
    when not supplied.
    """

    __slots__ = ()

    def __new__(cls, edges: tuple[float, ...], labels: tuple[str, ...] | None = None) -> BinSpec:
        if len(edges) < 2:
            raise ValueError("BinSpec needs at least 2 edges")
        if not all(map(math.isfinite, edges)):
            raise ValueError(f"BinSpec edges must be finite, got {edges}")
        if any(a >= b for a, b in zip(edges, edges[1:])):
            raise ValueError("BinSpec edges must be strictly increasing")
        if labels is not None and len(labels) != len(edges) - 1:
            raise ValueError(f"BinSpec has {len(edges) - 1} bins but {len(labels)} labels")
        return super().__new__(cls, edges, labels)

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


class Histogram(NamedTuple):
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


class CorrelationCell(NamedTuple):
    """Pearson r with its two-tailed p-value and the pair count used.

    ``r`` is ``None`` when the correlation is undefined (constant series or
    fewer than 2 pairs), with ``error`` naming the condition. ``p_value``
    is ``None`` when |r| = 1 exactly or n < 3.
    """

    r: float | None
    p_value: float | None
    n: int
    error: str | None = None


class CorrelationMatrix(NamedTuple):
    """Symmetric matrix of pairwise correlation cells."""

    names: tuple[str, ...]
    cells: tuple[tuple[CorrelationCell, ...], ...]

    def cell(self, row: str, col: str) -> CorrelationCell:
        return self.cells[self.names.index(row)][self.names.index(col)]


class _StudySampleFields(NamedTuple):
    snapshots: tuple[VideoStatsSnapshot, ...]
    selection_note: str = ""


class StudySample(_Validated, _StudySampleFields):
    """An ordered, deduplicated collection of snapshots plus provenance."""

    __slots__ = ()

    def __new__(cls, snapshots: tuple[VideoStatsSnapshot, ...],
                selection_note: str = "") -> StudySample:
        # a set of the ids and no list of them, since a store load peaks here
        if len({s.video_id for s in snapshots}) != len(snapshots):
            counts = Counter(s.video_id for s in snapshots)
            dupes = sorted({v for v, c in counts.items() if c > 1})
            raise ValueError(f"duplicate video ids in sample: {dupes[:5]}")
        return super().__new__(cls, snapshots, selection_note)


def summarize(values: Iterable[OptionalNumber]) -> SampleSummary:
    """Descriptive statistics over the defined entries of ``values``.

    Mean, sample standard deviation, min, max, G1 skewness and G2 excess
    kurtosis, each the float nearest its exact value; ``bin_mode`` is left
    for the report's binning to fill in. A standard deviation past the
    float range is ``None``. A value that is not finite raises ``ValueError``.
    """
    column = _column("values", list(values))
    (singles, _), _ = _sums([column], (0,))
    return _summary(column, singles[0])


def pearson(
    xs: Sequence[OptionalNumber], ys: Sequence[OptionalNumber]
) -> CorrelationCell:
    """Pearson product-moment correlation with a two-tailed p-value.

    Pairs with either member absent are dropped first. The p-value comes
    from t = r * sqrt((n-2) / (1-r^2)) with n-2 degrees of freedom,
    evaluated through the regularized incomplete beta function.

    Raises ``ValueError`` on length mismatch or a value that is not finite;
    degenerate data (constant series, fewer than 2 pairs) yields an error
    cell, not an exception.
    """
    if len(xs) != len(ys):
        raise ValueError(f"series lengths differ: {len(xs)} != {len(ys)}")
    return correlation_matrix({"xs": xs, "ys": ys}).cells[0][1]


class _Column(NamedTuple):
    """One column, exact: row i's value is an int times 2**e, which is 0 on an
    absent row. ``values`` holds those ints, or, when ``floats``, the floats
    they are scaled from (0.0 on an absent row); ``take`` gives the ints of
    some rows. ``mask`` holds one byte per row, 1 where the value is
    defined; ``lo`` and ``hi`` are the least and greatest defined values."""

    values: Sequence[int | float]
    e: int
    floats: bool
    mask: bytes
    lo: Number
    hi: Number

    def take(self, rows: Sequence[int]) -> _Column:
        """The column over ``rows`` alone, in that order, with int values."""
        values = list(map(self.values.__getitem__, rows))
        if self.floats:
            values = list(map(int, map(math.ldexp, values, repeat(-self.e))))
        return self._replace(values=values, floats=False,
                             mask=bytes(map(self.mask.__getitem__, rows)))


def _column(label: str, values: Sequence[OptionalNumber]) -> _Column:
    """``values`` as exact ints over one binary exponent. An int is taken as
    itself and any other value as ``float(v)``; one that is not finite raises
    ``ValueError`` naming ``label``."""
    mask = _defined_rows(values)
    defined = list(compress(values, mask))
    kinds = set(map(type, defined))
    if not kinds <= {int, float}:  # bools, Fractions and other numbers
        values = [v if v is None or type(v) is int else float(v) for v in values]
        defined = list(compress(values, mask))
        kinds = set(map(type, defined))
    lo, hi = (min(defined), max(defined)) if defined else (0, 0)
    complete = len(defined) == len(values)
    if kinds <= {int}:  # counts are ints already
        return _Column(values if complete else [v or 0 for v in values], 0, False, mask, lo, hi)

    floats = defined if int not in kinds else [v for v in defined if type(v) is float]
    if not all(map(math.isfinite, floats)):
        bad = next(filterfalse(math.isfinite, floats))
        raise ValueError(f"{label} holds {bad!r}, which is not a finite number")
    # a float is a multiple of its last place, so each one is a multiple of
    # the last place of the smallest nonzero magnitude, 2**e
    tiny = min(map(abs, filter(None, floats)), default=0.0)
    e = math.frexp(tiny)[1] - 53 if tiny else 0
    if int in kinds:
        e = min(e, 0)
    elif math.frexp(max(-lo, hi))[1] - e <= 1024:  # each v * 2**-e is a float
        return _Column(values if complete else [v or 0.0 for v in values], e, True, mask, lo, hi)
    # ints among the floats, or more binades than a float spans
    ints = [_scaled(v, e) if v is not None else 0 for v in values]
    return _Column(ints, e, False, mask, lo, hi)


def _scaled(value: int | float, e: int) -> int:
    """``value * 2**-e``, which must be an int."""
    num, den = value.as_integer_ratio()
    shift = den.bit_length() - 1 + e  # value * 2**-e == num / 2**shift
    return num >> shift if shift >= 0 else num << -shift


def _defined_rows(values: Sequence[OptionalNumber]) -> bytes:
    """Mask of the rows where ``values`` is defined: one byte per row, 1 or 0."""
    return bytes(map(is_not, values, repeat(None)))


_BLOCK = 4096  # rows summed at a time: one block's ints are all that is held


def _power_sums(ints: Sequence[int], mask: bytes, higher: bool = False) -> tuple[int, ...]:
    """``(n, Σx, Σx²)`` of a column's defined values, then ``Σx³`` and ``Σx⁴``
    when ``higher``. The squares are held only while these are taken."""
    if not higher:
        return mask.count(1), sum(ints), sum(map(mul, ints, ints))
    squares = list(map(mul, ints, ints))
    return (mask.count(1), sum(ints), sum(squares), sum(map(mul, squares, ints)),
            sum(map(mul, squares, squares)))


def _shared_sums(column: _Column, sums: tuple[int, ...], other: bytes) -> tuple[int, int, int]:
    """``(n, Σx, Σx²)`` of the int ``column`` over the rows defined in both its
    mask and ``other``: its own sums minus the rows that only it defines."""
    mask = column.mask
    alone = int.from_bytes(mask, "little") & ~int.from_bytes(other, "little")
    n, s1, s2 = sums[:3]
    if not alone:
        return n, s1, s2
    dropped = list(compress(column.values, alone.to_bytes(len(mask), "little")))
    return n - len(dropped), s1 - sum(dropped), s2 - sum(map(mul, dropped, dropped))


_Sums = tuple[list[tuple[int, ...]], dict[tuple[int, int], tuple[int, ...]]]


def _row_set_sums(columns: Sequence[_Column], higher: Collection[int] = ()) -> _Sums:
    """The exact sums of the int ``columns`` over their rows: for each column,
    ``_power_sums`` (with the higher powers where its index is in ``higher``);
    for each pair i < j, ``(n, Σx, Σx², Σy, Σy², Σxy)`` over the rows where
    both are defined. Σxy runs over every row, since an absent value is 0:
    that is the pairwise deletion."""
    singles = [_power_sums(c.values, c.mask, i in higher) for i, c in enumerate(columns)]
    pairs = {}
    for i, x in enumerate(columns):
        for j in range(i + 1, len(columns)):
            y = columns[j]
            pairs[i, j] = (*_shared_sums(x, singles[i], y.mask),
                           *_shared_sums(y, singles[j], x.mask)[1:],
                           sum(map(mul, x.values, y.values)))
    return singles, pairs


def _add(total: _Sums, sums: _Sums) -> None:
    """Add the ``_row_set_sums`` of a row set to ``total``, those of a disjoint
    one, in place: ``total`` becomes the sums of their union."""
    singles, pairs = total
    for i, single in enumerate(sums[0]):
        singles[i] = tuple(map(add, singles[i], single))
    for pair, pair_sums in sums[1].items():
        pairs[pair] = tuple(map(add, pairs[pair], pair_sums))


# A worker costs a few ms to fork, spool and reap. Summed in process, 2**17 values
# (rows times columns) took 28-33% less time split than in one process, as one,
# two, four or eight columns; at 2**16 values, two and four columns were still
# faster in one process. So a sum of fewer values than this stays in one process.
_SPLIT_MIN_VALUES = 1 << 17


def _blocks(length: int, kept: bytes | None) -> Iterator[tuple[int, list[int]]]:
    """The blocks of ``_sums``: each is a flag, 1 for kept rows and 0 for the
    others, and at most ``_BLOCK`` rows in row order; the other rows' blocks
    come first. With ``kept`` None every row is an other row."""
    flags = bytes(length) if kept is None else kept
    for flag in (0, 1):
        rows = compress(range(length), map(flag.__eq__, flags))
        while block := list(islice(rows, _BLOCK)):
            yield flag, block


def _sums(series: Sequence[_Column], higher: Collection[int] = (),
          kept: bytes | None = None) -> tuple[_Sums, _Sums | None]:
    """``_row_set_sums`` of ``series`` over every row, and over the rows that
    ``kept`` marks with a 1 (None when ``kept`` is None). The rows are summed
    in the ``_blocks`` of ``kept``, so no block mixes kept and other rows;
    the sums of disjoint blocks add, and no row is summed twice. Each block
    scales its float values to ints once.

    With ``_SPLIT_MIN_VALUES`` values or more, where ``_fork_allowed``, a forked
    worker sums the second half of the blocks while this process sums the
    first; it sends back its two totals as one marshal record, and this
    process adds them into its own. The sums are exact, so the order of the
    additions cannot change them. Where the worker gives no readable record,
    this process sums its blocks itself."""
    length = len(series[0].mask) if series else 0

    def sum_blocks(blocks: Iterable[tuple[int, list[int]]]) -> tuple[_Sums, _Sums]:
        # the totals come first and change in place, so nothing that outlives a
        # block is allocated among its lists
        full, upper = (_row_set_sums([c.take(()) for c in series], higher) for _ in range(2))
        for flag, block in blocks:
            sums = _row_set_sums([c.take(block) for c in series], higher)
            _add(full, sums)
            if flag:
                _add(upper, sums)
        return full, upper

    if length * len(series) < _SPLIT_MIN_VALUES or not _fork_allowed():
        full, upper = sum_blocks(_blocks(length, kept))
        return full, None if kept is None else upper
    n_kept = 0 if kept is None else kept.count(1)
    split = sum((n + _BLOCK - 1) // _BLOCK for n in (length - n_kept, n_kept)) // 2

    def second_half(spool: BinaryIO) -> None:
        marshal.dump(sum_blocks(islice(_blocks(length, kept), split, None)), spool)

    with _forked(second_half) as wait:
        full, upper = sum_blocks(islice(_blocks(length, kept), split))
        spool = None if wait is None else wait()
        try:
            record = None if spool is None else marshal.load(spool)
        except (OSError, EOFError, ValueError, TypeError):
            record = None
    if record is None:  # this process sums the worker's half itself
        record = sum_blocks(islice(_blocks(length, kept), split, None))
    _add(full, record[0])
    _add(upper, record[1])
    return full, None if kept is None else upper


def _degeneracy(n: int, s1: int, s2: int) -> str | None:
    """Why values with these power sums have no correlation, or None. This is
    the one degeneracy rule: fewer than 2 values, or all values equal, which
    is n Σx² = (Σx)² exactly."""
    if n < 2:
        return "fewer than 2 pairs"
    if n * s2 == s1 * s1:
        return "constant series"
    return None


def _matrix(names: tuple[str, ...], singles: Sequence[tuple[int, ...]],
            pairs: Mapping[tuple[int, int], tuple[int, ...]]) -> CorrelationMatrix:
    """The correlation matrix of a row set's ``_row_set_sums``."""
    cells: list[list[CorrelationCell | None]] = [[None] * len(names) for _ in names]
    for i, (n, s1, s2, *_) in enumerate(singles):
        error = _degeneracy(n, s1, s2)
        cells[i][i] = CorrelationCell(r=None if error else 1.0, p_value=None, n=n, error=error)
    for (i, j), sums in pairs.items():
        cells[i][j] = cells[j][i] = _cell(*sums)
    return CorrelationMatrix(names=names, cells=tuple(map(tuple, cells)))  # type: ignore[arg-type]


def _cell(n: int, sx: int, sxx: int, sy: int, syy: int, sxy: int) -> CorrelationCell:
    """The Pearson cell of two series with these power sums over n pairs."""
    error = _degeneracy(n, sx, sxx) or _degeneracy(n, sy, syy)
    if error is not None:
        return CorrelationCell(r=None, p_value=None, n=n, error=error)
    # r = cxy / sqrt(cxx * cyy), each c being n times a sum of deviation products
    cxy = n * sxy - sx * sy
    num, den = cxy * cxy, (n * sxx - sx * sx) * (n * syy - sy * sy)
    r = _sqrt_ratio(num, den)
    r = -r if cxy < 0 else r
    p = None if n < 3 or abs(r) == 1.0 else _pearson_p(n, num, den)
    return CorrelationCell(r=r, p_value=p, n=n)


def _pearson_p(n: int, num: int, den: int) -> float:
    """Two-tailed p of r² = num / den over n >= 3 pairs. For t = r*sqrt(df/(1-r²))
    it is I_{1-r²}(df/2, 1/2); r² and 1 - r² are each one correctly rounded
    division of exact ints, so neither is formed by a cancelling subtraction."""
    return _betainc((n - 2) / 2.0, 0.5, (den - num) / den, num / den)


def _sqrt_ratio(num: int, den: int) -> float:
    """The float nearest sqrt(num / den), for num >= 0 and den > 0. An isqrt
    to at least 55 bits keeps a sticky bit (round to odd), so the one
    correctly rounded int division after it rounds the root correctly
    (Boldo & Melquiond, IEEE Trans. Comput. 57(4), 2008). Raises
    OverflowError past the float range."""
    shift = (num.bit_length() - den.bit_length() - 110) // 2
    if shift >= 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    quotient, remainder = divmod(num, den)
    root = math.isqrt(quotient)
    root |= remainder != 0 or root * root != quotient
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


def _exp2_ratio(num: int, den: int, e: int) -> tuple[int, int]:
    """``(num, den)`` with the factor 2**e moved onto one of them."""
    return (num << e, den) if e >= 0 else (num, den << -e)


def _summary(column: _Column, sums: tuple[int, ...]) -> SampleSummary:
    """``summarize`` of a column with these ``_power_sums``, higher powers included."""
    n, s1, s2, s3, s4 = sums
    if not n:
        return SampleSummary(n=0)
    c2 = n * s2 - s1 * s1  # n times the sum of squared deviations
    std_dev = skew = kurt = None
    if n >= 2:
        try:
            std_dev = _sqrt_ratio(*_exp2_ratio(c2, n * (n - 1), 2 * column.e))
        except OverflowError:  # past the float range
            pass
    if n >= 3 and c2:
        c3 = (n * s3 - 3 * s1 * s2) * n + 2 * s1 * s1 * s1  # n² Σ(x - mean)³
        g1 = _sqrt_ratio(n * (n - 1) * c3 * c3, (n - 2) * (n - 2) * c2 * c2 * c2)
        skew = -g1 if c3 < 0 else g1
    if n >= 4 and c2:
        # n³ Σ(x - mean)⁴
        c4 = ((n * s4 - 4 * s1 * s3) * n + 6 * s1 * s1 * s2) * n - 3 * s1 * s1 * s1 * s1
        kurt = ((n - 1) * ((n + 1) * c4 - 3 * (n - 1) * c2 * c2)
                / ((n - 2) * (n - 3) * c2 * c2))
    return SampleSummary(n=n, mean=truediv(*_exp2_ratio(s1, n, column.e)), std_dev=std_dev,
                         min=float(column.lo), max=float(column.hi), skewness=skew,
                         kurtosis=kurt)


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
    condition, and so does every cell in its row. A value that is not
    finite raises ``ValueError`` naming its column.
    """
    return _correlations(columns)[0]


def _correlations(
    columns: Mapping[str, Sequence[OptionalNumber]], summarized: Collection[str] = (),
    kept: Sequence[int] | None = None,
) -> tuple[CorrelationMatrix, dict[str, SampleSummary], CorrelationMatrix | None]:
    """``correlation_matrix`` of ``columns``; ``summarize`` of each column
    named in ``summarized``; and ``correlation_matrix`` over the distinct rows
    in ``kept`` alone, or None. One pass of ``_sums`` gives all three; with
    ``_SPLIT_MIN_VALUES`` values or more, a forked worker sums half its blocks."""
    names = tuple(columns.keys())
    length = len(columns[names[0]]) if names else 0
    for name in names:
        if len(columns[name]) != length:
            raise ValueError(f"column {name!r} has length {len(columns[name])}, "
                             f"expected {length}")
    series = [_column(f"column {name!r}", columns[name]) for name in names]
    higher = [i for i, name in enumerate(names) if name in summarized]
    is_kept = None
    if kept is not None:
        is_kept = bytearray(length)
        for row in kept:
            is_kept[row] = 1
    (singles, pairs), upper = _sums(series, higher, is_kept)
    summaries = {names[i]: _summary(series[i], singles[i]) for i in higher}
    return (_matrix(names, singles, pairs), summaries,
            None if upper is None else _matrix(names, *upper))


def upper_quartile_rows(snapshots: Sequence[VideoStatsSnapshot]) -> list[int]:
    """Indices, in sample order, of the top three quartiles by views.

    The lowest floor(n/4) snapshots by ``(views, video_id)`` are dropped,
    so an n=100 sample keeps 75 and ties at the cut go to the higher id.
    """
    return _upper_quartile([s.views for s in snapshots], [s.video_id for s in snapshots])


def _upper_quartile(views: Sequence[int], video_ids: Sequence[str]) -> list[int]:
    """``upper_quartile_rows`` of the snapshots with these views and ids."""
    ranks = list(zip(views, video_ids))
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
    return _category_table(s.category for s in sample.snapshots)


def _category_table(categories: Iterable[str]) -> list[tuple[str, int]]:
    """``category_counts`` of the snapshots with these categories."""
    return sorted(Counter(categories).items(), key=lambda kv: (-kv[1], kv[0]))
