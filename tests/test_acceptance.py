"""Acceptance checklist. Run with -s to see one PASS line per criterion."""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import engage
from engage.cli import main
from engage.ingestion import (
    collect_sweeps,
    dedup_latest,
    fixture_sweeps,
    select_study_sample,
    snapshot_from_record,
)
from engage.metrics import (
    VideoStatsSnapshot,
    compute_cpki,
    compute_disp,
    compute_metrics,
    compute_vpki,
)
from engage.report import build_report
from engage.stats import (
    StudySample,
    category_counts,
    correlation_matrix,
    pearson,
    summarize,
    upper_quartile_rows,
)

PKG_ROOT = Path(engage.__file__).parent.parent.parent
BUNDLED_FIXTURES = Path(engage.__file__).parent / "fixtures" / "replication"
NOW = datetime(2013, 12, 10, 9, 0, 0, tzinfo=timezone.utc)


@contextmanager
def criterion(number, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s (budget {budget_s}s)"
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")


def relerr(got, want):
    if want == 0:
        return abs(got)
    return abs(got - want) / abs(want)


def snap(i, views, likes=50, dislikes=5, comments=20, category="News", enabled=True):
    return VideoStatsSnapshot(
        video_id=f"vid{i:08d}", fetched_at=NOW, views=views,
        likes=likes, dislikes=dislikes,
        comments=comments if enabled else None,
        comments_enabled=enabled, category=category,
    )


def test_criterion_1_rate_formulas_match_rational_oracle():
    with criterion(1, "rate formulas match an exact-rational oracle", 1.0):
        rng = random.Random(20131210)
        for _ in range(1000):
            views = rng.choice((0, rng.randrange(0, 10**8)))
            likes = rng.randrange(0, 10**6)
            dislikes = rng.randrange(0, 10**6)
            comments = rng.randrange(0, 10**6)

            want_cpki = Fraction(comments * 1000, views) if views else None
            want_vpki = Fraction((likes + dislikes) * 1000, views) if views else None
            want_disp = (
                Fraction(dislikes, likes + dislikes) if likes + dislikes else None
            )

            got = (
                compute_cpki(comments, views),
                compute_vpki(likes, dislikes, views),
                compute_disp(likes, dislikes),
            )
            for value, want in zip(got, (want_cpki, want_vpki, want_disp)):
                if want is None:
                    assert value is None
                else:
                    assert value is not None
                    assert relerr(float(value), float(want)) < 1e-12


def test_criterion_2_disp_bounds_and_complement():
    with criterion(2, "DisP absent iff zero votes, else within [0, 1] with complement symmetry", 1.0):
        rng = random.Random(8)
        for _ in range(10_000):
            likes = rng.choice((0, rng.randrange(0, 10**6)))
            dislikes = rng.choice((0, rng.randrange(0, 10**6)))
            d = compute_disp(likes, dislikes)
            if likes + dislikes == 0:
                assert d is None
            else:
                assert 0 <= d <= 1
                assert d + compute_disp(dislikes, likes) == 1


def test_criterion_3_pearson_identities():
    with criterion(3, "Pearson identities: exact 1/-1, symmetry, hand case .8, affine invariance", 1.0):
        rng = random.Random(13)
        x = [rng.uniform(-100, 100) for _ in range(50)]
        y = [rng.uniform(-100, 100) for _ in range(50)]

        assert pearson(x, [2 * v for v in x]).r == 1.0
        assert pearson(x, [-v for v in x]).r == -1.0
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]).r == 0.8

        matrix = correlation_matrix({"x": x, "y": y, "z": [v * v for v in x]})
        for i in range(3):
            assert matrix.cells[i][i].r == 1.0
            for j in range(3):
                assert matrix.cells[i][j].r == matrix.cells[j][i].r

        base = pearson(x, y).r
        for _ in range(100):
            a = rng.choice((-1, 1)) * rng.uniform(0.01, 50)
            c = rng.choice((-1, 1)) * rng.uniform(0.01, 50)
            b, d = rng.uniform(-1000, 1000), rng.uniform(-1000, 1000)
            got = pearson([a * v + b for v in x], [c * v + d for v in y]).r
            want = base if a * c > 0 else -base
            assert abs(got - want) < 1e-12


def test_criterion_4_summary_statistics_match_extended_precision_oracle():
    with criterion(4, "summary statistics match a 50-digit direct-formula oracle", 1.0):
        vectors = (
            [2, 4, 4, 4, 5, 5, 7, 9],
            [1.5, 2.5, 2.5, 2.75, 3.25, 4.75],
            [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            [0.1, 0.1, 0.1, 0.2, 0.9],
            [12.0, 7.5, 3.25, 9800.125, 0.5, 2.0, 2.0],
        )
        with mpmath.workdps(50):
            for values in vectors:
                n = len(values)
                xs = [mpmath.mpf(repr(v)) for v in values]
                mean = mpmath.fsum(xs) / n
                sd = mpmath.sqrt(mpmath.fsum((v - mean) ** 2 for v in xs) / (n - 1))
                z3 = mpmath.fsum(((v - mean) / sd) ** 3 for v in xs)
                z4 = mpmath.fsum(((v - mean) / sd) ** 4 for v in xs)
                skew = z3 * n / ((n - 1) * (n - 2))
                kurt = (
                    z4 * n * (n + 1) / ((n - 1) * (n - 2) * (n - 3))
                    - 3 * (n - 1) ** 2 / mpmath.mpf((n - 2) * (n - 3))
                )

                got = summarize(values)
                assert relerr(got.mean, float(mean)) < 1e-9
                assert relerr(got.std_dev, float(sd)) < 1e-9
                assert relerr(got.skewness, float(skew)) < 1e-9
                assert relerr(got.kurtosis, float(kurt)) < 1e-9


def test_criterion_5_quartile_rule_keeps_75_of_100():
    with criterion(5, "top-three-quartile filter keeps exactly 75 of any 100-video sample", 1.0):
        for seed in range(10):
            rng = random.Random(seed)
            views = [rng.randrange(1, 50) * 1000 for _ in range(100)]  # many ties
            sample = StudySample(
                snapshots=tuple(snap(i, views=v) for i, v in enumerate(views))
            )
            kept = tuple(sample.snapshots[i] for i in upper_quartile_rows(sample.snapshots))
            assert len(kept) == 75
            assert kept == tuple(s for s in sample.snapshots if s in set(kept))


def test_criterion_6_bundled_category_table():
    with criterion(6, "bundled fixture reproduces the frozen category table summing to 100", 1.0):
        pages = collect_sweeps(fixture_sweeps(BUNDLED_FIXTURES, 3))
        candidates = StudySample(tuple(dedup_latest(
            snapshot_from_record(json.loads(line))
            for page in pages for line in page.lines.splitlines())))
        sample = select_study_sample(candidates, n=100)
        table = category_counts(sample)
        assert table == [
            ("Entertainment", 24), ("Tech", 15), ("Sports", 11), ("Comedy", 9),
            ("Education", 9), ("News", 8), ("Film", 7), ("Animals", 4),
            ("Music", 4), ("People", 4), ("Nonprofit", 3), ("Howto", 1),
            ("Travel", 1),
        ]
        assert sum(count for _, count in table) == 100


def test_criterion_7_replicate_command_passes(tmp_path):
    with criterion(7, "engage replicate verifies 106 unique ids and the full protocol, exit 0", 5.0):
        proc = subprocess.run(
            [sys.executable, "-m", "engage.cli", "replicate", "--out", "art"],
            cwd=tmp_path, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "106" in proc.stdout
        assert "PASS sample size: 100" in proc.stdout
        assert "replication checks passed" in proc.stdout


def test_criterion_8_reports_are_byte_identical_across_runs(tmp_path):
    with criterion(8, "analyze+report twice over one store: byte-identical outputs", 5.0):
        store = tmp_path / "snapshots.jsonl"
        assert main(["fetch", "--offline", str(BUNDLED_FIXTURES),
                     "--store", str(store)]) == 0
        runs = []
        for name in ("one", "two"):
            bundle = tmp_path / f"{name}.json"
            out_dir = tmp_path / name
            assert main(["analyze", "--store", str(store), "--out", str(bundle)]) == 0
            assert main(["report", "--bundle", str(bundle), "--out", str(out_dir)]) == 0
            files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
            files["bundle"] = bundle.read_bytes()
            runs.append(files)
        assert len(runs[0]) == 10
        assert runs[0] == runs[1]


def test_criterion_9_mean_of_ratios_semantics_documented():
    with criterion(9, "README demonstrates mean-of-ratios semantics (1.435 vs 2.687)", 1.0):
        ratio_of_means = round(1000 * 3526 / 2456693, 3)
        assert ratio_of_means == 1.435
        assert ratio_of_means != 2.687

        readme = (PKG_ROOT / "README.md").read_text(encoding="utf-8")
        assert "1.435" in readme
        assert "2.687" in readme
        assert "2,456,693" in readme
        assert "mean of per-video" in readme


def test_criterion_10_degenerate_inputs_never_crash():
    with criterion(10, "degenerate inputs produce documented absent/error outcomes", 1.0):
        zero_views = compute_metrics(snap(1, views=0))
        assert zero_views.cpki is None and zero_views.vpki is None
        assert zero_views.disp is not None  # DisP does not depend on views

        zero_votes = compute_metrics(snap(2, views=100, likes=0, dislikes=0))
        assert zero_votes.vpki == 0
        assert zero_votes.disp is None

        no_dislikes = StudySample(snapshots=tuple(
            snap(i, views=1000 * (i + 1), dislikes=None) for i in range(6)
        ))
        bundle = build_report(no_dislikes)
        assert bundle.summary_metrics["DisP"].n == 0
        assert "summary_DisP" in bundle.provenance["annotations"]
        assert any("dislike" in note for note in bundle.provenance["coverage_notes"])

        matrix = correlation_matrix({"const": [3, 3, 3], "x": [1, 2, 3]})
        assert matrix.cell("const", "x").error == "constant series"
        assert matrix.cell("const", "x").r is None

        empty = summarize([])
        assert empty.n == 0 and empty.mean is None and empty.std_dev is None
        with pytest.raises(ValueError):
            build_report(StudySample(snapshots=()))
        assert select_study_sample(StudySample(snapshots=()), n=100).snapshots == ()
