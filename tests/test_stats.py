import marshal
import math
import os
import random
import signal
import tempfile
from bisect import bisect_right
from datetime import datetime, timezone
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from engage import stats
from engage.metrics import VideoStatsSnapshot
from engage.stats import (
    BinSpec,
    StudySample,
    category_counts,
    correlation_matrix,
    histogram,
    pearson,
    summarize,
    upper_quartile_rows,
)

NOW = datetime(2013, 12, 10, 9, 0, 0, tzinfo=timezone.utc)


def snap(video_id, views, category="Entertainment"):
    return VideoStatsSnapshot(
        video_id=video_id, fetched_at=NOW, views=views, category=category
    )


def sample_of(views_list):
    return StudySample(
        snapshots=tuple(snap(f"vid{i:08d}", v) for i, v in enumerate(views_list))
    )


# values frozen from a 50-digit direct-formula computation
SUMMARY_CASES = [
    ([2, 4, 4, 4, 5, 5, 7, 9],
     (5.0, 2.138089935299395, 0.8184875533567997, 0.940625)),
    ([1.5, 2.5, 2.5, 2.75, 3.25, 4.75],
     (2.875, 1.0810874155219827, 0.9348875702875334, 1.9460093225428237)),
    ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
     (5.5, 3.0276503540974917, 0.0, -1.2)),
    ([0.1, 0.1, 0.1, 0.2, 0.9],
     (0.28, 0.3492849839314596, 2.1542838971316844, 4.677506046761623)),
    ([12.0, 7.5, 3.25, 9800.125, 0.5, 2.0, 2.0],
     (1403.9107142857142, 3702.384637462758, 2.6457448745487775, 6.999974039398916)),
]


@pytest.mark.parametrize("values,expected", SUMMARY_CASES)
def test_summarize_matches_frozen_oracle(values, expected):
    mean, sd, skew, kurt = expected
    s = summarize(values)
    assert s.n == len(values)
    assert s.mean == pytest.approx(mean, rel=1e-12)
    assert s.std_dev == pytest.approx(sd, rel=1e-12)
    assert s.skewness == pytest.approx(skew, rel=1e-9, abs=1e-12)
    assert s.kurtosis == pytest.approx(kurt, rel=1e-9)
    assert s.min == min(values)
    assert s.max == max(values)


def test_summarize_matches_the_exact_oracle_on_random_vectors():
    rng = random.Random(23)
    for _ in range(50):
        xs = [rng.uniform(-50, 50) for _ in range(rng.randrange(5, 40))]
        s = summarize(xs)
        got = (s.mean, s.std_dev, s.skewness, s.kurtosis)
        assert tuple(map(_bits, got)) == tuple(map(_bits, _oracle_summary(xs)))


def test_summarize_small_and_degenerate():
    assert summarize([]).n == 0
    assert summarize([None, None]).n == 0
    one = summarize([5])
    assert (one.n, one.mean, one.std_dev) == (1, 5.0, None)
    two = summarize([1, 2])
    assert two.std_dev is not None and two.skewness is None
    three = summarize([1, 2, 4])
    assert three.skewness is not None and three.kurtosis is None
    flat = summarize([3, 3, 3, 3, 3])
    assert flat.std_dev == 0 and flat.skewness is None and flat.kurtosis is None
    # the test for equal values is exact, so a rounded mean leaves no deviations
    inexact = summarize([0.1] * 3)
    assert inexact.std_dev == 0 and inexact.skewness is None


def test_moments_of_one_outlier_are_exact():
    # a rounded mean would absorb the spread: these are the exact G1 and G2
    # of two or three equal values and one below them
    assert summarize([1.0, 1.0, 1 - 2**-53]).skewness == -1.7320508075688772
    assert summarize([1.0, 1.0, 1.0, 1 - 2**-53]).kurtosis == 4.0


def test_non_finite_values_raise_naming_their_column():
    with pytest.raises(ValueError, match="values holds inf"):
        summarize([1.0, math.inf])
    with pytest.raises(ValueError, match="'xs' holds inf"):
        pearson([1, 2, math.inf], [1, 2, 3])
    with pytest.raises(ValueError, match="column 'b' holds nan"):
        correlation_matrix({"a": [1.0, 2.0, 3.0], "b": [0.5, None, math.nan]})


def test_summarize_skips_absent_values():
    s = summarize([None, 1, None, 3])
    assert s.n == 2
    assert s.mean == 2.0


def test_bin_mode_prefers_lowest_on_tie():
    bins = BinSpec(edges=(0.0, 1.0, 2.0, 3.0))
    assert histogram([0.5, 0.6, 1.5, 1.7, 2.5], bins).mode == "0-1"
    assert histogram([0.5, 1.5], bins).mode == "0-1"


def test_bin_mode_absent_when_nothing_in_range():
    bins = BinSpec(edges=(0.0, 1.0))
    assert histogram([5.0, 6.0], bins).mode is None


def bin_index(bins, value):
    """Index of the bin holding ``value``, -1 for underflow and the bin count for
    overflow, where NaN lands too: the reference the histogram must agree with."""
    if value == bins.edges[-1]:  # the last bin is closed on both ends
        return len(bins.edges) - 2
    return bisect_right(bins.edges, value) - 1


def test_binspec_validation_and_index():
    with pytest.raises(ValueError):
        BinSpec(edges=(1.0,))
    with pytest.raises(ValueError):
        BinSpec(edges=(1.0, 1.0))
    with pytest.raises(ValueError):
        BinSpec(edges=(0.0, 1.0, 2.0), labels=("only one",))
    bins = BinSpec(edges=(0.0, 1.0, 2.0))
    assert bin_index(bins, -0.1) == -1
    assert bin_index(bins, 0.0) == 0
    assert bin_index(bins, 0.999) == 0
    assert bin_index(bins, 1.0) == 1
    # the top edge belongs to the last bin, everything beyond overflows
    assert bin_index(bins, 2.0) == 1
    assert bin_index(bins, 2.0001) == 2
    assert bin_index(bins, math.nan) == 2  # NaN is in no bin


@pytest.mark.parametrize("edge", [math.inf, -math.inf, math.nan])
def test_binspec_rejects_non_finite_edges(edge):
    with pytest.raises(ValueError, match="finite"):
        BinSpec(edges=(0.0, 1.0, edge) if edge > 0 else (edge, 0.0, 1.0))


def test_histogram_conserves_counts():
    bins = BinSpec(edges=(0.0, 10.0, 20.0))
    values = [-5, 0, 3, 9.999, 10, 15, 20, 25, None, 99]
    hist = histogram(values, bins)
    defined = sum(1 for v in values if v is not None)
    assert hist.underflow + hist.overflow + sum(c for _, c in hist.rows) == defined
    assert hist.underflow == 1
    assert hist.overflow == 2
    # 0, 3, 9.999 in [0,10); 10, 15 and the closing edge 20 in [10,20]
    assert [c for _, c in hist.rows] == [3, 3]


def test_pearson_hand_case_is_exact():
    cell = pearson([1, 2, 3, 4], [1, 3, 2, 4])
    assert cell.r == 0.8
    assert cell.p_value == pytest.approx(0.2, rel=1e-12)
    assert cell.n == 4
    assert cell.error is None


def test_pearson_perfect_and_anti():
    xs = [1.0, 2.0, 5.0, 7.0, 11.0]
    assert pearson(xs, [2 * x for x in xs]).r == 1.0
    assert pearson(xs, [-x for x in xs]).r == -1.0
    assert pearson(xs, [2 * x for x in xs]).p_value is None


def test_pearson_matches_the_exact_and_mpmath_oracles():
    rng = random.Random(29)
    for _ in range(50):
        n = rng.randrange(5, 60)
        xs = [rng.gauss(0, 10) for _ in range(n)]
        ys = [0.7 * x + rng.gauss(0, 5) for x in xs]
        _assert_exact(xs, ys)  # r bit for bit
        cell = pearson(xs, ys)
        want = _mpmath_pearson_p(cell.r, n)
        assert want and abs(cell.p_value - want) <= 1e-12 * want, (n, cell.r, cell.p_value)


def _mpmath_pearson_p(r: float, n: int):
    """Two-tailed p at 40 digits: 0 when below 1e-300, None where mpmath fails."""
    with mpmath.workdps(40):
        a, r2 = mpmath.mpf(n - 2) / 2, mpmath.mpf(r) ** 2
        # I_x(a, 1/2) <= x^a / (a B(a, 1/2) sqrt(1-x)) shows underflow cheaply
        if (1 - r2) ** a / (a * mpmath.beta(a, 0.5) * mpmath.sqrt(r2)) < 1e-300:
            return 0
        try:
            p = mpmath.betainc(a, 0.5, 0, 1 - r2, regularized=True)
        except (ValueError, mpmath.libmp.NoConvergence):
            try:
                p = 1 - mpmath.betainc(0.5, a, 0, r2, regularized=True)
            except (ValueError, mpmath.libmp.NoConvergence):
                return None
        return p if p >= 1e-300 else 0


def test_pearson_p_matches_mpmath():
    """The in-repo incomplete beta is within 1e-12 relative of mpmath from
    n = 3 to 10^6; the cells below 1e-300 (20 of 510) must underflow too."""
    rng = random.Random(41)
    fixed = [1e-12, 1e-8, 1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.99, 0.9999, 0.999999]
    points = skipped = 0
    for n in (3, 4, 5, 10, 30, 100, 10**3, 38_000, 10**5, 10**6):
        df = n - 2
        # random r through the t statistic, so p spans 1 to ~1e-200 at every n
        drawn = [t / math.sqrt(df + t * t) for t in (rng.uniform(0, 30) for _ in range(40))]
        for r in fixed + [rng.choice((-1, 1)) * r for r in drawn]:
            points += 1
            r2 = Fraction(r) ** 2
            got = stats._pearson_p(n, r2.numerator, r2.denominator)
            want = _mpmath_pearson_p(r, n)
            if not want:
                skipped += 1
                assert want is None or got < 1e-300, (n, r, got)
                continue
            assert abs(got - want) <= 1e-12 * want, (n, r, got, float(want))
    assert skipped < 0.05 * points, (skipped, points)


def test_pearson_affine_invariance():
    rng = random.Random(31)
    xs = [rng.uniform(0, 100) for _ in range(30)]
    ys = [rng.uniform(0, 100) for _ in range(30)]
    base = pearson(xs, ys).r
    for _ in range(50):
        a = rng.uniform(0.01, 50)
        b = rng.uniform(-100, 100)
        assert pearson(xs, [a * y + b for y in ys]).r == pytest.approx(base, abs=1e-12)
        assert pearson(xs, [-a * y + b for y in ys]).r == pytest.approx(-base, abs=1e-12)


def test_pearson_degenerate_inputs():
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])
    short = pearson([1], [2])
    assert short.error == "fewer than 2 pairs" and short.r is None
    constant = pearson([3, 3, 3], [1, 2, 3])
    assert constant.error == "constant series" and constant.p_value is None


def test_pearson_pairwise_deletion():
    cell = pearson([1, None, 2, 3, 4], [1, 9, None, 2, 4])
    # only the (1,1), (3,2), (4,4) pairs survive
    assert cell.n == 3


def test_correlation_matrix_shape_and_symmetry():
    rng = random.Random(37)
    cols = {
        "a": [rng.random() for _ in range(20)],
        "b": [rng.random() for _ in range(20)],
        "c": [rng.random() for _ in range(20)],
    }
    m = correlation_matrix(cols)
    assert m.names == ("a", "b", "c")
    for i in range(3):
        assert m.cells[i][i].r == 1.0
        for j in range(3):
            assert m.cells[i][j] is m.cells[j][i]


def test_correlation_matrix_degenerate_column():
    m = correlation_matrix({"a": [1, 2, 3], "b": [5, 5, 5]})
    assert m.cell("b", "b").error == "constant series"
    assert m.cell("a", "b").error == "constant series"
    assert m.cell("a", "a").r == 1.0


def test_pearson_constant_series_with_inexact_mean():
    # fsum([0.1] * 3) / 3 is not 0.1, so the deviations from the mean are not 0
    cell = pearson([0.1] * 3, [1, 2, 4])
    assert cell.error == "constant series"
    assert cell.r is None and cell.p_value is None


def test_correlation_matrix_constant_row_has_no_numeric_cell():
    m = correlation_matrix({
        "x": [1, 2, 4, 8],
        "c": [0.1, 0.1, None, 0.1],
        "y": [3, None, 1, 2],
    })
    row = m.names.index("c")
    assert m.cells[row][row].error == "constant series"
    assert all(cell.r is None and cell.error for cell in m.cells[row])


finite = st.floats(allow_nan=False, allow_infinity=False)
moderate = st.floats(min_value=-1e6, max_value=1e6)


def _linear_bin(edges, value):
    """Reference bin index: scan the bins in order, the last one closed."""
    if value < edges[0]:
        return -1
    for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
        if lo <= value < hi or (value == hi and i == len(edges) - 2):
            return i
    return len(edges) - 1


@given(
    edges=st.lists(finite, min_size=2, max_size=8, unique=True).map(sorted),
    drawn=st.lists(finite, max_size=30),
)
def test_histogram_equals_a_linear_scan(edges, drawn):
    values = drawn + [-math.inf, math.inf, None]
    for edge in edges:
        values += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
    counts = [0] * (len(edges) + 1)  # underflow, bins..., overflow
    for v in values:
        if v is not None:
            counts[_linear_bin(edges, v) + 1] += 1
    hist = histogram(values, BinSpec(edges=tuple(edges)))
    assert [c for _, c in hist.rows] == counts[1:-1]
    assert (hist.underflow, hist.overflow) == (counts[0], counts[-1])


@st.composite
def binned_values(draw):
    """A BinSpec, default or labelled, and values on, beside and far from its edges."""
    edges = draw(st.lists(st.one_of(finite, st.integers(-5, 5).map(float)),
                          min_size=2, max_size=8, unique=True).map(sorted))
    labels = draw(st.one_of(st.none(), st.just([f"bin {i}" for i in range(len(edges) - 1)])))
    bins = BinSpec(edges=tuple(edges), labels=None if labels is None else tuple(labels))
    values = draw(st.lists(st.one_of(st.none(), finite, st.integers(-10, 10),
                                     st.integers(-2**64, 2**64)), max_size=20))
    values += [None, math.nan, -math.inf, math.inf, edges[-1], math.nextafter(edges[-1], 0.0)]
    for edge in edges:
        values += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
        if edge == int(edge):
            values.append(int(edge))
    return bins, draw(st.permutations(values))


@settings(derandomize=True, max_examples=100)
@given(binned=binned_values())
def test_histogram_counts_what_bin_index_gives_each_value(binned):
    bins, values = binned
    counts = [0] * (len(bins.edges) + 1)  # underflow, bins..., overflow
    for v in values:
        if v is not None:
            counts[bin_index(bins, float(v)) + 1] += 1
    hist = histogram(values, bins)
    assert hist.rows == tuple(zip(bins.bin_labels, counts[1:-1]))
    assert (hist.underflow, hist.overflow) == (counts[0], counts[-1])


@given(constant=finite, others=st.lists(moderate, min_size=2, max_size=30))
def test_any_finite_constant_is_a_constant_series(constant, others):
    constants = [constant] * len(others)
    cell = pearson(constants, others)
    assert cell.error == "constant series"
    assert cell.r is None and cell.p_value is None
    m = correlation_matrix({"c": constants, "o": others})
    assert m.cell("c", "c").error == "constant series"
    assert m.cell("c", "o").error == "constant series"


def test_correlation_matrix_subnormal_column_agrees_with_its_row():
    # distinct subnormals are distinct ints over the exponent 2**-1126
    m = correlation_matrix({"s": [5e-324, 1e-323, 1.5e-323], "x": [1, 2, 3]})
    assert m.cell("s", "s").r == 1.0 and m.cell("s", "s").n == 3
    assert m.cell("s", "x").r == 1.0
    assert m.cell("x", "x").r == 1.0


def test_correlation_matrix_column_within_1e_162_agrees_with_its_row():
    # the squares of s's deviations are below the float range
    s = [1.6086415292405457e-162, 2.2162096354476993e-162, 2.0813909966885495e-162,
         0.0, 2.2162096354476993e-162, 0.0]
    m = correlation_matrix({"s": s, "x": [None, 1, 2, 3, 4, None]})
    assert (m.cell("s", "s").r, m.cell("s", "s").error) == (1.0, None)
    pair = m.cell("s", "x")
    assert pair.error is None and pair.n == 4
    # 50-digit mpmath value of r over the four shared rows
    assert pair.r == pytest.approx(-0.24708779373991731699, rel=1e-14)


def test_pearson_and_summarize_on_overflowing_squares():
    # the squared deviations are past the float range
    assert pearson([1e200, -1e200, 0], [1, 2, 3]).r == -0.5
    assert pearson([1e200, -1e200, 0], [1, 1, 1]).error == "constant series"
    big = correlation_matrix({"big": [1e200, -1e200, 0], "x": [1, 2, 3]})
    assert big.cell("big", "big").r == 1.0 and big.cell("big", "x").r == -0.5
    assert summarize([1e200, -1e200, 0.0]).std_dev == 1e200
    # and squares that would underflow keep their digits
    assert summarize([1e-170, 2e-170, 4e-170]).std_dev == pytest.approx(
        math.sqrt(7 / 3) * 1e-170, rel=1e-15)
    # a standard deviation past the float range is absent, not an error
    past = summarize([1.7e308, -1.7e308])
    assert past.std_dev is None and (past.mean, past.min, past.max) == (0.0, -1.7e308, 1.7e308)


def test_pearson_when_the_product_of_the_sums_of_squares_leaves_the_float_range():
    # each sum of squares is near 1e200 or 1e-174; their product is not a float
    assert pearson([1e100, -1e100, 0], [1e100, -1e100, 0]).r == 1.0
    tiny = pearson([0, 3e-87, 1e-87], [0, 3e-87, 2e-87])
    assert tiny.r == pytest.approx(pearson([0, 3, 1], [0, 3, 2]).r, rel=1e-12)


cell_values = st.one_of(st.none(), st.integers(-5, 5), finite)


@st.composite
def matrix_columns(draw):
    length = draw(st.integers(0, 12))
    columns = {}
    for k in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            value = draw(cell_values)
            holes = draw(st.lists(st.booleans(), min_size=length, max_size=length))
            columns[f"c{k}"] = [None if hole else value for hole in holes]
        else:
            columns[f"c{k}"] = draw(
                st.lists(cell_values, min_size=length, max_size=length)
            )
    return columns


def _exact(cell):
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in (cell.r, cell.p_value, cell.n, cell.error))


@settings(derandomize=True, max_examples=200)
@given(columns=matrix_columns())
def test_correlation_matrix_is_symmetric_with_each_columns_count_on_its_diagonal(columns):
    m = correlation_matrix(columns)
    for i, name in enumerate(m.names):
        assert m.cells[i][i].n == sum(v is not None for v in columns[name])
        for j in range(len(m.names)):
            assert m.cells[i][j] == m.cells[j][i]


@given(columns=matrix_columns())
def test_correlation_matrix_cells_equal_pearson_exactly(columns):
    m = correlation_matrix(columns)
    for i, a in enumerate(m.names):
        diagonal = m.cells[i][i]
        for j, b in enumerate(m.names):
            assert m.cells[i][j] is m.cells[j][i]
            if i != j:
                assert _exact(m.cells[i][j]) == _exact(pearson(columns[a], columns[b]))
                if diagonal.error is not None:
                    assert m.cells[i][j].error is not None


@st.composite
def summed_columns(draw):
    """Columns of ints and floats with scattered None, the names to summarize
    and the kept rows: none, every row, or drawn with repeats."""
    length = draw(st.integers(0, 14))
    columns = {f"c{k}": draw(st.lists(cell_values, min_size=length, max_size=length))
               for k in range(draw(st.integers(1, 12)))}
    summarized = draw(st.sets(st.sampled_from(sorted(columns))))
    kept = draw(st.one_of(st.just([]), st.just(list(range(length))),
                          st.lists(st.integers(0, length - 1), max_size=2 * length)
                          if length else st.just([])))
    return columns, summarized, kept


def _matrix_bits(m):
    return m.names, tuple(tuple(map(_exact, row)) for row in m.cells)


@settings(derandomize=True, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=summed_columns())
def test_sums_over_blocks_of_three_rows_equal_those_over_one_block(monkeypatch, drawn):
    # every input here fits in one block of the default size; at 3 rows a block, the
    # kept rows and the others are each cut across many, with absent values in most
    columns, summarized, kept = drawn
    rows = sorted(set(kept))
    upper = correlation_matrix({name: [values[i] for i in rows]
                                for name, values in columns.items()})
    summaries = {name: summarize(columns[name]) for name in summarized}
    full = correlation_matrix(columns)
    with monkeypatch.context() as patch:
        patch.setattr(stats, "_BLOCK", 3)
        got_full, got_summaries, got_upper = stats._correlations(columns, summarized, kept)
    assert _matrix_bits(got_full) == _matrix_bits(full)
    assert _matrix_bits(got_upper) == _matrix_bits(upper)
    assert got_summaries == summaries


# --- the sums split with a forked worker ---------------------------------------


def _summary_bits(summary):
    return tuple(v.hex() if isinstance(v, float) else v for v in summary)


def _split_correlations(drawn, split, spool_dir, fault=None, forks=None):
    """``_correlations(*drawn)`` at 3 rows a block, with the sums' worker allowed
    for any number of values or not allowed, as bits. Checks that ``forks``
    workers were forked (one where allowed, by default), and that none and no
    spool file is left."""
    made = []
    real_fork = os.fork
    open_fds = len(os.listdir("/proc/self/fd"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_fork_allowed", lambda: split)
        mp.setattr(stats, "_SPLIT_MIN_VALUES", 0)
        mp.setattr(stats, "_BLOCK", 3)
        mp.setattr(os, "fork", lambda: made.append(1) or real_fork())
        mp.setattr(tempfile, "tempdir", str(spool_dir))
        if fault is not None:
            fault(mp)
        full, summaries, upper = stats._correlations(*drawn)
    assert len(made) == (split if forks is None else forks)
    with pytest.raises(ChildProcessError):  # no worker left
        os.waitpid(-1, os.WNOHANG)
    assert not any(spool_dir.iterdir())
    assert len(os.listdir("/proc/self/fd")) == open_fds  # the spool is closed
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])
    return (_matrix_bits(full), {name: _summary_bits(s) for name, s in summaries.items()},
            None if upper is None else _matrix_bits(upper))


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=summed_columns(), with_kept=st.booleans())
def test_sums_split_with_a_worker_equal_those_of_one_process(tmp_path, drawn, with_kept):
    # at 3 rows a block the worker takes the second half of up to ten blocks, kept
    # rows and others, with absent values in most
    columns, summarized, kept = drawn
    drawn = (columns, summarized, kept if with_kept else None)
    assert (_split_correlations(drawn, True, tmp_path)
            == _split_correlations(drawn, False, tmp_path))


def _die_in_the_worker(mp):
    parent, real = os.getpid(), stats._row_set_sums
    mp.setattr(stats, "_row_set_sums",
               lambda *args: os._exit(7) if os.getpid() != parent else real(*args))


def _fail_the_read(mp):
    mp.setattr(marshal, "load", lambda file: (_ for _ in ()).throw(OSError("read failed")))


def _truncate_the_record(mp):
    mp.setattr(marshal, "dump", lambda record, file: file.write(marshal.dumps(record)[:-9]))


def _no_temporary_file(mp):
    mp.setattr(tempfile, "TemporaryFile", lambda: (_ for _ in ()).throw(OSError("none")))


def _no_process(mp):
    mp.setattr(os, "fork", lambda: (_ for _ in ()).throw(OSError("none")))


SPLIT_COLUMNS = ({"views": [10 * i for i in range(20)],
                  "rate": [None if i % 4 == 1 else i / 7 for i in range(20)],
                  "likes": [None if i % 5 == 2 else i * i - 30 for i in range(20)]},
                 ["views", "rate"], [2, 3, 5, 7, 11, 13, 17, 19])


@pytest.mark.parametrize("fault, forks", [
    (_die_in_the_worker, 1), (_fail_the_read, 1), (_truncate_the_record, 1),
    (_no_temporary_file, 0), (_no_process, 0),
], ids=["dies", "read-fails", "truncated", "no-temporary-file", "no-process"])
def test_a_sums_worker_that_gives_no_readable_record_leaves_its_half_here(tmp_path, fault,
                                                                           forks):
    serial = _split_correlations(SPLIT_COLUMNS, False, tmp_path)
    assert _split_correlations(SPLIT_COLUMNS, True, tmp_path, fault, forks) == serial


def test_an_interrupt_in_this_half_of_the_sums_leaves_no_worker(tmp_path):
    parent, real, calls = os.getpid(), stats._row_set_sums, []

    def row_set_sums(*args):
        calls.append(1)
        if os.getpid() == parent and len(calls) == 4:  # the second block of this half
            raise KeyboardInterrupt
        return real(*args)

    with pytest.raises(KeyboardInterrupt):
        _split_correlations(SPLIT_COLUMNS, True, tmp_path,
                            lambda mp: mp.setattr(stats, "_row_set_sums", row_set_sums))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not any(tmp_path.iterdir())
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])


@pytest.mark.parametrize("min_values, allowed, forks", [
    (60, True, 1), (61, True, 0), (0, False, 0),
], ids=["at-the-size", "below-the-size", "not-allowed"])
def test_only_a_sum_of_the_split_size_forks(monkeypatch, min_values, allowed, forks):
    # three columns of 20 rows: 60 values
    monkeypatch.setattr(stats, "_fork_allowed", lambda: allowed)
    monkeypatch.setattr(stats, "_SPLIT_MIN_VALUES", min_values)
    made = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(1) or real_fork())
    got = stats._correlations(*SPLIT_COLUMNS)
    assert len(made) == forks
    monkeypatch.setattr(stats, "_fork_allowed", lambda: False)
    assert got == stats._correlations(*SPLIT_COLUMNS)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# huge, tiny and subnormal floats, and columns that mix them
extreme = st.one_of(
    finite,
    st.floats(-1e-300, 1e-300),
    st.floats(1e300, 1.7e308),
    st.floats(-1.7e308, -1e300),
    st.integers(-3, 3).map(float),
)


def _nearest_sqrt(square):
    """The float nearest the square root of a Fraction, or None past the
    float range: a 300-bit mpmath root, checked to be within half an ulp."""
    with mpmath.workprec(300):
        root = float(mpmath.sqrt(mpmath.mpf(square.numerator) / square.denominator))
    if math.isinf(root):
        assert square >= Fraction(2**1024 - 2**970) ** 2
        return None
    below = (Fraction(root) + Fraction(math.nextafter(root, 0.0))) / 2
    above = (Fraction(root) + Fraction(math.nextafter(root, math.inf))) / 2
    assert below * below <= square <= above * above
    return root


def _signed_sqrt(sign, square):
    root = _nearest_sqrt(square)
    return -root if sign < 0 else root


def _oracle_summary(values):
    """Exact mean, standard deviation, G1 and G2 from Fraction deviations, each
    rounded once to the nearest float (None where undefined)."""
    exact = [Fraction(v) for v in values]
    n = len(exact)
    mean = sum(exact) / n
    dx = [v - mean for v in exact]
    m2, m3, m4 = (sum(d**k for d in dx) for k in (2, 3, 4))
    std = _nearest_sqrt(m2 / (n - 1)) if n >= 2 else None
    g1 = g2 = None
    if n >= 3 and m2:
        g1 = _signed_sqrt(m3, Fraction(n * n * (n - 1)) * m3 * m3 / ((n - 2) ** 2 * m2**3))
    if n >= 4 and m2:
        g2 = float(Fraction(n * (n + 1) * (n - 1)) * m4 / ((n - 2) * (n - 3) * m2 * m2)
                   - Fraction(3 * (n - 1) ** 2, (n - 2) * (n - 3)))
    return float(mean), std, g1, g2


def _oracle_r2(xs, ys):
    """The exact covariance's sign and r², as a Fraction."""
    ex, ey = [Fraction(v) for v in xs], [Fraction(v) for v in ys]
    mx, my = sum(ex) / len(ex), sum(ey) / len(ey)
    dx, dy = [v - mx for v in ex], [v - my for v in ey]
    sxy = sum(a * b for a, b in zip(dx, dy))
    return sxy, sxy * sxy / (sum(d * d for d in dx) * sum(d * d for d in dy))


def _bits(x):
    return x.hex() if isinstance(x, float) else x


def _assert_exact(xs, ys):
    """summarize(xs) and pearson(xs, ys), the r² and 1 - r² that pearson hands
    to the incomplete beta included, equal their correctly rounded values."""
    summary = summarize(xs)
    with mock.patch.object(stats, "_betainc", wraps=stats._betainc) as betainc:
        cell = pearson(xs, ys)
    assert summary.n == cell.n == len(xs)
    if not xs:
        assert cell.error == "fewer than 2 pairs"
        return
    got = (summary.mean, summary.std_dev, summary.skewness, summary.kurtosis)
    assert tuple(map(_bits, got)) == tuple(map(_bits, _oracle_summary(xs)))
    assert (summary.min, summary.max) == (min(xs), max(xs))
    if len(xs) < 2 or min(xs) == max(xs) or min(ys) == max(ys):
        assert cell.error is not None and cell.r is None and not betainc.called
        return
    sxy, r2 = _oracle_r2(xs, ys)
    assert _bits(cell.r) == _bits(_signed_sqrt(sxy, r2))
    if len(xs) < 3 or abs(cell.r) == 1.0:
        assert cell.p_value is None and not betainc.called
    else:
        (a, b, x, y), _ = betainc.call_args
        assert (a, b, _bits(x), _bits(y)) == ((len(xs) - 2) / 2, 0.5, _bits(float(1 - r2)),
                                              _bits(float(r2)))


# no shrink phase: each shrink step rebuilds oracles thousands of bits wide, so a
# failure would take minutes to report; unshrunk, it reports within seconds
@settings(phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(pairs=st.lists(st.tuples(extreme, extreme), max_size=10))
def test_moments_of_any_finite_floats_match_an_exact_oracle(pairs):
    _assert_exact([p[0] for p in pairs], [p[1] for p in pairs])


def test_moments_of_a_column_spanning_every_binade_match_an_exact_oracle():
    # 5e-324 and 1.7e308 over one exponent make ints of about 2,150 bits
    rng = random.Random(43)
    xs = [rng.choice((5e-324, 1.7e308, -1.7e308, 1e-300, 3.0)) for _ in range(300)]
    ys = [rng.choice((5e-324, 2.5e-310, 1.0, 1e200)) * rng.random() for _ in range(300)]
    _assert_exact(xs, ys)
    _assert_exact(ys, xs)


def test_moments_of_the_found_and_constant_cases_match_an_exact_oracle():
    for xs in ([1.0, 1.0, 1 - 2**-53], [1.0, 1.0, 1.0, 1 - 2**-53], [0.1] * 5,
               [5e-324] * 4, [1.7e308] * 3, [1e200, -1e200, 0.0], [1.7e308, -1.7e308],
               [5e-324, 1e-323, 1.5e-323], [2**-1074, 2**-1073, 1.0, 2.0],
               [3, 0.5, 2**52 + 1, -7, True]):
        _assert_exact(xs, [float(i * i) for i in range(len(xs))])


def test_correlation_matrix_rejects_ragged_columns():
    with pytest.raises(ValueError):
        correlation_matrix({"a": [1, 2], "b": [1, 2, 3]})


def upper_quartile(sample):
    """The snapshots ``upper_quartile_rows`` keeps, in its order."""
    return [sample.snapshots[i] for i in upper_quartile_rows(sample.snapshots)]


def test_quartile_filter_keeps_exactly_75_of_100():
    rng = random.Random(41)
    views = [rng.randrange(1_000, 10_000_000) for _ in range(100)]
    kept = upper_quartile(sample_of(views))
    assert len(kept) == 75
    cut = sorted(views)[25]
    assert all(s.views >= cut for s in kept)


def test_quartile_filter_preserves_input_order():
    kept = upper_quartile(sample_of([40, 10, 30, 20]))
    # drops the single lowest (views=10), keeps the rest in sample order
    assert [s.views for s in kept] == [40, 30, 20]


def test_quartile_filter_breaks_ties_by_video_id():
    snaps = tuple(snap(vid, 100) for vid in ("d", "c", "b", "a"))
    kept = upper_quartile(StudySample(snapshots=snaps))
    assert sorted(s.video_id for s in kept) == ["b", "c", "d"]


def test_quartile_sizes_for_odd_n():
    # floor boundaries: n=10 -> drop floor(10/4)=2
    assert len(upper_quartile(sample_of(list(range(10))))) == 8


@settings(derandomize=True, max_examples=25)
@given(st.lists(st.integers(0, 5), min_size=200, max_size=200))
def test_upper_quartile_keeps_n_minus_a_quarter_in_sample_order_for_every_n(views):
    # few distinct view counts, so ties at the cut are common; each prefix is one n
    snaps = sample_of(views).snapshots
    for n in range(len(snaps) + 1):
        rows = upper_quartile_rows(snaps[:n])
        assert len(rows) == n - n // 4
        assert rows == sorted(set(rows))  # sample order, each index once
        dropped = sorted(set(range(n)) - set(rows),
                         key=lambda i: (snaps[i].views, snaps[i].video_id))
        ranked = sorted(range(n), key=lambda i: (snaps[i].views, snaps[i].video_id))
        assert dropped == ranked[:n // 4]


def test_study_sample_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        StudySample(snapshots=(snap("same", 1), snap("same", 2)))


def test_category_counts_sorted_by_count_then_name():
    snaps = (
        snap("a1", 1, "News"),
        snap("a2", 1, "News"),
        snap("a3", 1, "Comedy"),
        snap("a4", 1, "Animals"),
        snap("a5", 1, "Comedy"),
    )
    counts = category_counts(StudySample(snapshots=snaps))
    assert counts == [("Comedy", 2), ("News", 2), ("Animals", 1)]
