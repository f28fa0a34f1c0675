import json
import math
import random
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engage.ingestion import MAX_COUNT
from engage.metrics import VideoStatsSnapshot, compute_cpki, compute_disp, compute_vpki
from engage.report import (
    CORR_NAMES,
    DEFAULT_BINS,
    _metric_columns,
    bundle_from_json,
    bundle_to_json,
    build_report,
    format_r,
    is_moderate,
    load_binspec_file,
    rebin_bundle,
    render,
    render_histogram_plot,
    significance_stars,
)
from engage.stats import (
    BinSpec,
    Histogram,
    StudySample,
    correlation_matrix,
)

NOW = datetime(2013, 12, 10, 9, 0, 0, tzinfo=timezone.utc)


def snap(i, views, likes=50, dislikes=5, comments=20, category="News", enabled=True):
    return VideoStatsSnapshot(
        video_id=f"vid{i:08d}", fetched_at=NOW, views=views,
        likes=likes, dislikes=dislikes,
        comments=comments if enabled else None,
        comments_enabled=enabled, category=category,
    )


def make_sample(n=100, seed=47):
    rng = random.Random(seed)
    snaps = tuple(
        snap(
            i,
            views=rng.randrange(10_000, 30_000_000),
            likes=rng.randrange(10, 50_000),
            dislikes=rng.randrange(0, 5_000),
            comments=rng.randrange(1, 80_000),
            category=rng.choice(["News", "Comedy", "Tech"]),
        )
        for i in range(n)
    )
    return StudySample(snapshots=snaps, selection_note="synthetic sample")


@pytest.fixture(scope="module")
def bundle():
    return build_report(make_sample())


def test_build_report_shapes(bundle):
    assert bundle.provenance["sample_n"] == 100
    assert bundle.provenance["upper_quartile_n"] == 75
    assert bundle.corr_full.names == (
        "CpkI", "VpkI", "DisP", "Views", "Votes+", "Votes-", "Comments", "Votes (sum)"
    )
    assert bundle.corr_upper_quartiles.cells[3][3].n == 75
    assert set(bundle.histograms) == {"CpkI", "VpkI", "DisP"}
    assert len(bundle.rates["CpkI"]) == 100
    assert sum(count for _, count in bundle.categories) == 100


def test_build_report_rejects_empty_sample():
    with pytest.raises(ValueError):
        build_report(StudySample(snapshots=()))


def test_single_video_sample_annotated():
    b = build_report(StudySample(snapshots=(snap(1, views=100),)))
    assert b.summary_basic["Views"].n == 1
    assert "insufficient n" in b.provenance["annotations"]["corr_full"]
    assert "insufficient n" in b.provenance["annotations"]["corr_upper_quartiles"]


def test_missing_dislikes_coverage_note():
    snaps = tuple(
        snap(i, views=1000 * (i + 1), dislikes=None) if i < 4 else snap(i, views=1000 * (i + 1))
        for i in range(8)
    )
    b = build_report(StudySample(snapshots=snaps))
    assert any("dislike counts absent for 4 of 8" in note
               for note in b.provenance["coverage_notes"])
    # VpkI and DisP summarize only the defined half
    assert b.summary_metrics["VpkI"].n == 4
    assert b.summary_metrics["DisP"].n == 4


def test_all_dislikes_absent_annotates_tables():
    snaps = tuple(snap(i, views=1000 * (i + 1), dislikes=None) for i in range(6))
    b = build_report(StudySample(snapshots=snaps))
    assert b.summary_metrics["VpkI"].n == 0
    assert "summary_VpkI" in b.provenance["annotations"]
    assert "summary_DisP" in b.provenance["annotations"]
    assert "cells undefined" in b.provenance["annotations"]["corr_full"]


counts = st.integers(-MAX_COUNT, MAX_COUNT)
small_counts = st.integers(-3, 3)
optional_counts = st.one_of(st.none(), counts, small_counts)
videos = st.tuples(
    st.one_of(counts, small_counts),  # views: zero and negative included
    optional_counts, optional_counts, optional_counts, st.booleans(),
)


def _bits(rate):
    return None if rate is None else float(rate).hex()


@given(st.lists(videos, min_size=1, max_size=20))
def test_rate_columns_equal_the_exact_rates_bit_for_bit(rows):
    snaps = tuple(
        VideoStatsSnapshot(video_id=f"v{i}", fetched_at=NOW, views=views, likes=likes,
                           dislikes=dislikes, comments=comments, comments_enabled=enabled)
        for i, (views, likes, dislikes, comments, enabled) in enumerate(rows)
    )
    columns = _metric_columns(StudySample(snapshots=snaps))
    for i, s in enumerate(snaps):
        comments = s.comments if s.comments_enabled else None
        assert _bits(columns["CpkI"][i]) == _bits(compute_cpki(comments, s.views))
        assert _bits(columns["VpkI"][i]) == _bits(compute_vpki(s.likes, s.dislikes, s.views))
        assert _bits(columns["DisP"][i]) == _bits(compute_disp(s.likes, s.dislikes))


def test_disp_of_zero_dislikes_over_a_negative_total_is_positive_zero():
    s = snap(1, views=10, likes=-5, dislikes=0)
    assert _bits(_metric_columns(StudySample(snapshots=(s,)))["DisP"][0]) == (0.0).hex()


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 50), st.integers(0, 50),
                          st.integers(0, 50)), min_size=1, max_size=40))
def test_upper_quartile_is_the_quartile_filter(rows):
    # few distinct view counts, so ties are common and video_id breaks them
    sample = StudySample(snapshots=tuple(
        snap(i, views=views, likes=likes, dislikes=dislikes, comments=comments)
        for i, (views, likes, dislikes, comments) in enumerate(rows)
    ))
    n = len(rows)
    # the reference cut: the lowest n // 4 by (views, video_id) go, sample order stays
    cut = set(sorted(sample.snapshots, key=lambda s: (s.views, s.video_id))[n // 4:])
    kept = StudySample(snapshots=tuple(s for s in sample.snapshots if s in cut))
    bundle = build_report(sample)
    assert bundle.provenance["upper_quartile_n"] == n - n // 4 == len(kept.snapshots)
    columns = _metric_columns(kept)
    assert bundle.corr_upper_quartiles == correlation_matrix(
        {name: columns[name] for name in CORR_NAMES}
    )


def test_significance_star_thresholds():
    assert significance_stars(0.0005) == "**"
    assert significance_stars(0.001) == "*"
    assert significance_stars(0.049) == "*"
    assert significance_stars(0.05) == ""
    assert significance_stars(0.054) == ""
    assert significance_stars(None) == ""


def test_moderate_bold_threshold():
    assert is_moderate(0.723)
    assert is_moderate(-0.41)
    assert not is_moderate(0.4)
    assert not is_moderate(0.194)
    assert not is_moderate(None)


def test_format_r_strips_leading_zero():
    assert format_r(0.723) == ".723"
    assert format_r(-0.208) == "-.208"
    assert format_r(0.19444) == ".194"
    assert format_r(1.0) == "1"
    assert format_r(-1.0) == "-1"


def test_markdown_star_and_bold_cell(bundle):
    md = render(bundle, "md")
    # strongly significant moderate pair: bold wrap, two escaped stars inside
    assert "**.9" in md or "**.8" in md or "**.7" in md
    assert "\\*\\***" in md
    assert "|r| > .4" in md


def test_markdown_formats_counts_and_percent(bundle):
    md = render(bundle, "md")
    views_mean = bundle.summary_basic["Views"].mean
    assert f"{views_mean:,.1f}" in md
    disp_mean = bundle.summary_metrics["DisP"].mean
    assert f"{100 * disp_mean:.2f}%" in md


def test_markdown_lower_triangle(bundle):
    md = render(bundle, "md")
    lines = [l for l in md.splitlines() if l.startswith("| VpkI |")]
    assert lines
    # the first correlation row carries the VpkI-CpkI pair, then the diagonal 1
    first = [c.strip() for c in lines[0].split("|")[1:-1]]
    assert first[0] == "VpkI"
    assert first[2] == "1"
    assert all(cell == "" for cell in first[3:])


def test_csv_has_separate_r_p_columns_no_stars(bundle):
    csv_text = render(bundle, "csv")
    assert "# correlations_full" in csv_text
    assert "row,col,r,p_value,n,error" in csv_text
    assert "*" not in csv_text
    assert "# summary_metrics" in csv_text
    assert "# categories" in csv_text


def test_json_round_trip_preserves_everything(bundle):
    text = render(bundle, "json")
    restored = bundle_from_json(json.loads(text))
    assert restored == bundle
    # stable key order: rendering the restored bundle is byte-identical
    assert render(restored, "json") == text
    assert render(restored, "md") == render(bundle, "md")
    assert render(restored, "csv") == render(bundle, "csv")


@settings(derandomize=True, max_examples=60)
@given(st.lists(st.tuples(st.one_of(counts, small_counts), optional_counts, optional_counts,
                          optional_counts, st.booleans(), st.sampled_from(["News", "Música", ""])),
                min_size=1, max_size=12))
def test_json_round_trip_of_any_drawn_sample_is_exact(rows):
    # counts up to 2**64 - 1 in magnitude, hidden counters and disabled comments
    sample = StudySample(snapshots=tuple(
        VideoStatsSnapshot(video_id=f"v{i}", fetched_at=NOW, views=views, likes=likes,
                           dislikes=dislikes, comments=comments, comments_enabled=enabled,
                           category=category)
        for i, (views, likes, dislikes, comments, enabled, category) in enumerate(rows)
    ), selection_note="drawn sample")
    bundle = build_report(sample)
    assert bundle_from_json(json.loads(render(bundle, "json"))) == bundle


non_negative = st.one_of(st.integers(0, MAX_COUNT), st.integers(0, 3),
                         st.sampled_from([0, MAX_COUNT]))
optional_non_negative = st.one_of(st.none(), non_negative)


@settings(derandomize=True, max_examples=100)
@given(st.lists(st.tuples(non_negative, optional_non_negative, optional_non_negative,
                          optional_non_negative, st.booleans()), min_size=1, max_size=12))
def test_rates_are_none_or_in_range_for_non_negative_counts(rows):
    # zero views, zero votes and counts up to 2**64 - 1
    sample = StudySample(snapshots=tuple(
        VideoStatsSnapshot(video_id=f"v{i}", fetched_at=NOW, views=views, likes=likes,
                           dislikes=dislikes, comments=comments, comments_enabled=enabled)
        for i, (views, likes, dislikes, comments, enabled) in enumerate(rows)
    ))
    bundle = build_report(sample)
    for name, high in (("CpkI", math.inf), ("VpkI", math.inf), ("DisP", 1.0)):
        rates = bundle.rates[name]
        assert len(rates) == len(rows)
        assert all(r is None or 0.0 <= r <= high for r in rates), (name, rates)
        summary = bundle.summary_metrics[name]
        if summary.n:
            assert 0.0 <= summary.min <= summary.max <= high


def test_every_markdown_number_is_in_json(bundle):
    data = json.loads(render(bundle, "json"))
    cell = bundle.corr_full.cells[3][0]
    assert data["corr_full"]["cells"][3][0]["r"] == cell.r
    assert data["summary_basic"]["Views"]["mean"] == bundle.summary_basic["Views"].mean
    assert data["provenance"]["upper_quartile_n"] == 75


def test_render_rejects_unknown_format(bundle):
    with pytest.raises(ValueError):
        render(bundle, "pdf")


def test_bundle_from_json_rejects_wrong_format():
    with pytest.raises(ValueError):
        bundle_from_json({"format": "something-else"})


def test_render_is_deterministic(bundle):
    for fmt in ("md", "csv", "json"):
        assert render(bundle, fmt) == render(bundle, fmt)


def test_default_bins_match_documented_labels():
    assert DEFAULT_BINS["CpkI"].bin_labels[2] == ".6-1.0"
    assert DEFAULT_BINS["VpkI"].bin_labels[2] == "2.0-4.0"
    assert DEFAULT_BINS["DisP"].bin_labels[0] == "≤ 4%"


def test_rebin_bundle_recomputes_histogram_and_mode(bundle):
    new_bins = {"CpkI": BinSpec(edges=(0.0, 50.0), labels=("everything",))}
    rebinned = rebin_bundle(bundle, new_bins)
    assert rebinned.histograms["CpkI"].rows[0][0] == "everything"
    assert rebinned.summary_metrics["CpkI"].bin_mode == "everything"
    # untouched metrics keep their original binning
    assert rebinned.histograms["VpkI"] == bundle.histograms["VpkI"]
    assert rebinned.summary_metrics["DisP"] == bundle.summary_metrics["DisP"]


def test_load_binspec_file(tmp_path):
    path = tmp_path / "bins.json"
    path.write_text(json.dumps({
        "cpki": {"edges": [0, 1, 2]},
        "DisP": {"edges": [0, 0.5, 1], "labels": ["low", "high"]},
    }))
    bins = load_binspec_file(path)
    assert set(bins) == {"CpkI", "DisP"}
    assert bins["DisP"].labels == ("low", "high")

    path.write_text(json.dumps({"unknown": {"edges": [0, 1]}}))
    with pytest.raises(ValueError):
        load_binspec_file(path)
    path.write_text(json.dumps({"cpki": {"labels": ["a"]}}))
    with pytest.raises(ValueError):
        load_binspec_file(path)
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError):
        load_binspec_file(path)


@pytest.mark.parametrize("spec", [
    {"edges": 5},
    {"edges": "012"},
    {"edges": [0, None, 2]},
    {"edges": [0, [1], 2]},
    {"edges": [0, 10**400]},
    {"edges": [0, 1], "labels": "a"},
    {"edges": [0, 1], "labels": 5},
])
def test_load_binspec_file_rejects_bad_edges_and_labels(tmp_path, spec):
    path = tmp_path / "bins.json"
    path.write_text(json.dumps({"cpki": spec}))
    with pytest.raises(ValueError):
        load_binspec_file(path)


def test_text_histogram_bar_widths():
    hist = Histogram(rows=(("a", 10), ("b", 3), ("c", 1)))
    text = render_histogram_plot(hist, style="text")
    lines = text.splitlines()
    assert lines[0].endswith("#" * 10)
    assert lines[1].endswith("# " + "#" * 2) or lines[1].endswith("#" * 3)
    assert lines[2].endswith("| #")


def test_text_histogram_scales_to_40_columns():
    hist = Histogram(rows=(("a", 400), ("b", 100)))
    text = render_histogram_plot(hist, style="text")
    lines = text.splitlines()
    assert lines[0].count("#") == 40
    assert lines[1].count("#") == 10


def test_text_histogram_single_bin():
    text = render_histogram_plot(Histogram(rows=(("only", 7),)), style="text")
    assert text.splitlines()[0].endswith("#" * 7)


def test_text_histogram_overflow_row():
    hist = Histogram(rows=(("a", 5),), underflow=1, overflow=2)
    text = render_histogram_plot(hist, style="text")
    lines = text.splitlines()
    assert lines[0].startswith("< min")
    assert lines[-1].startswith("> max")


def test_svg_histogram_deterministic_and_escaped():
    hist = Histogram(rows=(("≤ 4% <&>", 3), ("rest", 1)))
    svg = render_histogram_plot(hist, style="svg", title="DisP")
    assert svg == render_histogram_plot(hist, style="svg", title="DisP")
    assert svg.startswith("<svg xmlns=")
    assert "&lt;&amp;&gt;" in svg
    assert "<rect" in svg


def test_histogram_plot_rejects_unknown_style():
    with pytest.raises(ValueError):
        render_histogram_plot(Histogram(rows=(("a", 1),)), style="png")
