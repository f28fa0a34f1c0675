"""Relative engagement metrics computed from raw video counters.

Three per-video rates are derived from the public counters:

* CpkI -- comments per thousand impressions: ``comments * 1000 / views``
* VpkI -- votes per thousand impressions: ``(likes + dislikes) * 1000 / views``
* DisP -- dislike proportion: ``dislikes / (likes + dislikes)``, in [0, 1] for
  non-negative counts

Each rate is undefined (``None``) when its inputs are missing or its
denominator is zero; that is a data condition, never an exception. The
``compute_*`` functions return exact :class:`fractions.Fraction` values. The
report derives its float rate columns by int true division, which CPython
rounds correctly, so each float is bit-identical to ``float`` of the exact
``compute_*`` result.
"""

from __future__ import annotations

from datetime import datetime
from fractions import Fraction
from typing import NamedTuple


class VideoStatsSnapshot(NamedTuple):
    """One video's public counters at a fetch instant.

    ``likes``, ``dislikes`` and ``comments`` are ``None`` when the platform
    withholds them (dislike counts are absent on the live API since 2021;
    comment counts are absent when commenting is disabled).
    """

    video_id: str
    fetched_at: datetime
    views: int
    likes: int | None = None
    dislikes: int | None = None
    comments: int | None = None
    comments_enabled: bool = True
    category: str = ""


class EngagementMetrics(NamedTuple):
    """The three derived per-video rates; each ``None`` when undefined."""

    cpki: Fraction | None = None
    vpki: Fraction | None = None
    disp: Fraction | None = None


def compute_cpki(comments: int | None, views: int) -> Fraction | None:
    """Comments per thousand impressions, or ``None`` when undefined.

    Undefined when the comment count is unknown or ``views`` is zero.
    """
    if comments is None or views <= 0:
        return None
    return Fraction(comments * 1000, views)


def compute_vpki(likes: int | None, dislikes: int | None, views: int) -> Fraction | None:
    """Votes per thousand impressions, or ``None`` when undefined.

    Defined whenever both vote counts are known and ``views`` is positive;
    zero votes yield a rate of 0 rather than an undefined result.
    """
    if likes is None or dislikes is None or views <= 0:
        return None
    return Fraction((likes + dislikes) * 1000, views)


def compute_disp(likes: int | None, dislikes: int | None) -> Fraction | None:
    """Share of votes that are negative, or ``None`` when undefined.

    Undefined when either vote count is unknown or no votes were cast.
    Does not depend on views.
    """
    if likes is None or dislikes is None:
        return None
    total = likes + dislikes
    if total == 0:
        return None
    return Fraction(dislikes, total)


def compute_metrics(snapshot: VideoStatsSnapshot) -> EngagementMetrics:
    """Compute all three rates for one snapshot.

    Absent inputs propagate to absent outputs; a comment count on a
    snapshot with commenting disabled is ignored.
    """
    comments = snapshot.comments if snapshot.comments_enabled else None
    return EngagementMetrics(
        cpki=compute_cpki(comments, snapshot.views),
        vpki=compute_vpki(snapshot.likes, snapshot.dislikes, snapshot.views),
        disp=compute_disp(snapshot.likes, snapshot.dislikes),
    )
