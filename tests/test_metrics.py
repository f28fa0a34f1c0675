import random
from datetime import datetime, timezone
from fractions import Fraction

import pytest

from engage.ingestion import EngageWarning, _snapshot_values
from engage.metrics import (
    VideoStatsSnapshot,
    compute_cpki,
    compute_disp,
    compute_metrics,
    compute_vpki,
)

NOW = datetime(2013, 12, 10, 9, 0, 0, tzinfo=timezone.utc)


def snap(**kwargs) -> VideoStatsSnapshot:
    base = dict(video_id="vid00000001", fetched_at=NOW, views=1000)
    base.update(kwargs)
    return VideoStatsSnapshot(**base)


def test_cpki_exact_rational():
    assert compute_cpki(3526, 2456693) == Fraction(3526000, 2456693)
    assert float(compute_cpki(3526, 2456693)) == pytest.approx(
        1.4352627699106075, rel=1e-15
    )


def test_vpki_exact_rational():
    assert compute_vpki(24000, 1217, 2456693) == Fraction(25217000, 2456693)
    assert float(compute_vpki(24000, 1217, 2456693)) == pytest.approx(
        10.264611817593813, rel=1e-15
    )


def test_disp_exact_rational():
    assert compute_disp(2254, 263) == Fraction(263, 2517)
    assert float(compute_disp(2254, 263)) == pytest.approx(0.10448947159316647, rel=1e-15)


def test_cpki_absent_cases():
    assert compute_cpki(None, 1000) is None
    assert compute_cpki(10, 0) is None
    assert compute_cpki(0, 1000) == 0


def test_vpki_absent_and_zero_votes():
    assert compute_vpki(None, 5, 1000) is None
    assert compute_vpki(5, None, 1000) is None
    assert compute_vpki(5, 5, 0) is None
    # zero votes on a viewed video is a measured rate of zero, not absence
    assert compute_vpki(0, 0, 1000) == 0


def test_disp_absent_cases():
    assert compute_disp(None, 5) is None
    assert compute_disp(5, None) is None
    assert compute_disp(0, 0) is None
    assert compute_disp(0, 7) == 1
    assert compute_disp(7, 0) == 0


def test_disp_bounds_and_complement():
    rng = random.Random(7)
    for _ in range(2000):
        likes = rng.randrange(0, 10_000)
        dislikes = rng.randrange(0, 10_000)
        d = compute_disp(likes, dislikes)
        if likes + dislikes == 0:
            assert d is None
        else:
            assert 0 <= d <= 1
            assert d + compute_disp(dislikes, likes) == 1


def test_cpki_round_trips_to_comment_count():
    rng = random.Random(11)
    for _ in range(500):
        views = rng.randrange(1, 10**8)
        comments = rng.randrange(0, 10**6)
        cpki = compute_cpki(comments, views)
        assert cpki * views / 1000 == comments


def test_rates_match_rational_oracle():
    rng = random.Random(13)
    for _ in range(500):
        views = rng.randrange(1, 10**8)
        likes = rng.randrange(0, 10**6)
        dislikes = rng.randrange(0, 10**5)
        comments = rng.randrange(0, 10**6)
        assert compute_cpki(comments, views) == Fraction(comments * 1000, views)
        assert compute_vpki(likes, dislikes, views) == Fraction(
            (likes + dislikes) * 1000, views
        )
        if likes + dislikes:
            assert compute_disp(likes, dislikes) == Fraction(dislikes, likes + dislikes)


def test_compute_metrics_all_defined():
    m = compute_metrics(snap(views=2000, likes=90, dislikes=10, comments=30))
    assert m.cpki == Fraction(15)
    assert m.vpki == Fraction(50)
    assert m.disp == Fraction(1, 10)


def test_compute_metrics_zero_views():
    m = compute_metrics(snap(views=0, likes=90, dislikes=10, comments=30))
    assert m.cpki is None
    assert m.vpki is None
    assert m.disp == Fraction(1, 10)


def test_compute_metrics_disabled_comments_has_no_cpki():
    m = compute_metrics(snap(likes=5, dislikes=5, comments=None, comments_enabled=False))
    assert m.cpki is None
    assert m.vpki is not None


def normalized(snapshot):
    """The snapshot as validation leaves it, through the store's validated fields."""
    return VideoStatsSnapshot(*_snapshot_values(*snapshot))


def test_normalize_drops_comment_count_when_disabled():
    with pytest.warns(EngageWarning, match="comment count 12 with commenting disabled"):
        dropped = normalized(snap(comments=12, comments_enabled=False))
    assert dropped.comments is None
    assert dropped.comments_enabled is False
    untouched = normalized(snap(comments=12))
    assert untouched.comments == 12


def test_metrics_scale_invariance():
    rng = random.Random(17)
    for _ in range(200):
        views = rng.randrange(1, 10**6)
        likes = rng.randrange(0, 10**4)
        dislikes = rng.randrange(0, 10**4)
        comments = rng.randrange(0, 10**4)
        k = rng.randrange(2, 50)
        assert compute_cpki(comments * k, views * k) == compute_cpki(comments, views)
        assert compute_vpki(likes * k, dislikes * k, views * k) == compute_vpki(
            likes, dislikes, views
        )
        if likes + dislikes:
            assert compute_disp(likes * k, dislikes * k) == compute_disp(likes, dislikes)
