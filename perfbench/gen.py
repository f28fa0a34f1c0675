"""Seeded inputs for the engage benchmark.

One generator serves every workload. It writes recorded trending sweeps
(``sweep<k>_page<j>.json``, the layout ``engage fetch --offline`` replays)
and the same latest-per-id snapshots as a JSON-lines store, then a
manifest computed from the generator's own counters, never from engage:
page, snapshot, unique-id and eligible counts, the top-n ids in selection
order with their exact rates, the category table and each rate's mean.

Data is valid and realistic: ids recur across sweeps with growing
counters, so latest-wins dedup matters; some videos hide likes or
dislikes, some have commenting disabled; every count is a non-negative
integer far below 2**53.

Outputs are cached under ``<cache>/<workload>-seed<seed>-<size>`` and the
manifest is written last, so a cache entry either exists whole or is
rebuilt. Generation is never timed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path

# The generator's own copy of the category labels, so the category check
# compares two independent derivations.
CATEGORY_LABELS = {
    "1": "Film", "10": "Music", "17": "Sports", "20": "Gaming", "22": "People",
    "23": "Comedy", "24": "Entertainment", "25": "News", "27": "Education", "28": "Tech",
}
ID_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
PAGE_SIZE = 50
PAGES_PER_SWEEP = 10  # engage's FetchConfig.max_pages: a sweep holds at most 500 items
RATE_NAMES = ("CpkI", "VpkI", "DisP")
# Rate means are summed in fixed point with this many fraction bits: each
# term is truncated by less than 2**-FIXED_BITS, so the rational sum is
# enclosed to n * 2**-FIXED_BITS, far inside the 1e-12 check tolerance.
FIXED_BITS = 160
FIRST_SWEEP = datetime(2014, 1, 1, 9, 0, tzinfo=timezone.utc)
DISABLED_SHARE = 0.05  # videos with commenting disabled
HIDDEN_LIKES_SHARE = 0.03
HIDDEN_DISLIKES_SHARE = 0.08


@dataclass(frozen=True)
class Shape:
    """Size of one generated dataset.

    Each sweep's chart keeps ``keep`` ids of the previous chart and adds
    ``chart - keep`` new ones; ``n`` is the study sample size, ``None``
    for every eligible video.
    """

    sweeps: int
    chart: int
    keep: int
    n: int | None

    @property
    def tag(self) -> str:
        return f"{self.sweeps}x{self.chart}k{self.keep}n{self.n or 'all'}"


@dataclass
class _Video:
    video_id: str
    category_id: str
    enabled: bool
    hide_likes: bool
    hide_dislikes: bool
    views: int
    cpki: float
    vpki: float
    disp: float


def _new_id(rng: random.Random, taken: set[str]) -> str:
    while True:
        vid = "".join(rng.choice(ID_ALPHABET) for _ in range(11))
        if vid not in taken:
            taken.add(vid)
            return vid


def _charts(rng: random.Random, shape: Shape) -> tuple[list[list[int]], int]:
    """Per sweep, the chart as indexes into the universe of videos."""
    charts: list[list[int]] = []
    universe = 0
    previous: list[int] = []
    for _ in range(shape.sweeps):
        kept = rng.sample(previous, shape.keep) if previous else []
        fresh = list(range(universe, universe + shape.chart - len(kept)))
        universe += len(fresh)
        chart = kept + fresh
        rng.shuffle(chart)
        charts.append(chart)
        previous = chart
    return charts, universe


def _videos(rng: random.Random, count: int) -> list[_Video]:
    taken: set[str] = set()
    disabled = set(rng.sample(range(count), round(DISABLED_SHARE * count)))
    categories = sorted(CATEGORY_LABELS)
    videos = []
    for index in range(count):
        videos.append(_Video(
            video_id=_new_id(rng, taken),
            category_id=rng.choice(categories),
            enabled=index not in disabled,
            hide_likes=rng.random() < HIDDEN_LIKES_SHARE,
            hide_dislikes=rng.random() < HIDDEN_DISLIKES_SHARE,
            views=int(10 ** rng.uniform(3.0, 8.5)),
            cpki=min(rng.lognormvariate(0.5, 1.0), 40.0),
            vpki=min(rng.lognormvariate(2.0, 0.8), 120.0),
            disp=rng.betavariate(2, 16),
        ))
    return videos


def _counters(video: _Video, sweep: int) -> dict[str, int | None]:
    """Counters of one appearance; they grow with the sweep index."""
    views = video.views + video.views * sweep // 100
    votes = round(views * video.vpki / 1000)
    dislikes = round(votes * video.disp)
    return {
        "views": views,
        "likes": None if video.hide_likes else votes - dislikes,
        "dislikes": None if video.hide_dislikes else dislikes,
        "comments": round(views * video.cpki / 1000) if video.enabled else None,
    }


def _exact_rates(c: dict[str, int | None]) -> dict[str, Fraction | None]:
    views, likes, dislikes, comments = c["views"], c["likes"], c["dislikes"], c["comments"]
    votes = None if likes is None or dislikes is None else likes + dislikes
    return {
        "CpkI": Fraction(comments * 1000, views) if comments is not None and views else None,
        "VpkI": Fraction(votes * 1000, views) if votes is not None and views else None,
        "DisP": Fraction(dislikes, votes) if votes else None,
    }


def _mean(values: list[Fraction]) -> float | None:
    if not values:
        return None
    fixed = sum((v.numerator << FIXED_BITS) // v.denominator for v in values)
    return float(Fraction(fixed, len(values) << FIXED_BITS))


def _sweep_time(sweep: int) -> str:
    # one sweep per day, as a daily fetch job would record them
    return (FIRST_SWEEP + timedelta(days=sweep)).strftime("%Y-%m-%dT%H:%M:%SZ")


def _item(video: _Video, c: dict[str, int | None]) -> dict:
    stats = {"viewCount": str(c["views"])}
    for api_name, key in (("likeCount", "likes"), ("dislikeCount", "dislikes"),
                          ("commentCount", "comments")):
        if c[key] is not None:
            stats[api_name] = str(c[key])
    return {
        "kind": "youtube#video",
        "id": video.video_id,
        "snippet": {"title": f"Video {video.video_id}", "categoryId": video.category_id},
        "statistics": stats,
    }


def generate(directory: Path, seed: int, shape: Shape) -> dict:
    """Write sweeps, the JSON-lines store and the manifest; return the manifest."""
    rng = random.Random(f"engage-bench/{seed}/{shape.tag}")
    charts, count = _charts(rng, shape)
    videos = _videos(rng, count)

    pages = snapshots = 0
    latest: dict[int, tuple[int, dict]] = {}
    for sweep, chart in enumerate(charts):
        recorded = _sweep_time(sweep)
        blocks = [chart[i:i + PAGE_SIZE] for i in range(0, len(chart), PAGE_SIZE)]
        if len(blocks) > PAGES_PER_SWEEP:
            raise ValueError(f"chart of {len(chart)} exceeds one sweep's pages")
        for page_no, block in enumerate(blocks, start=1):
            items = []
            for index in block:
                counters = _counters(videos[index], sweep)
                latest[index] = (sweep, counters)
                items.append(_item(videos[index], counters))
            payload = {"kind": "youtube#videoListResponse", "recordedAt": recorded,
                       "items": items}
            if page_no < len(blocks):
                payload["nextPageToken"] = f"sweep{sweep + 1}_page{page_no + 1}"
            (directory / f"sweep{sweep + 1}_page{page_no}.json").write_text(
                json.dumps(payload), encoding="utf-8")
            pages += 1
            snapshots += len(items)

    with open(directory / "store.jsonl", "w", encoding="utf-8") as f:
        for index in sorted(latest):
            sweep, c = latest[index]
            video = videos[index]
            f.write(json.dumps({
                "video_id": video.video_id, "fetched_at": _sweep_time(sweep),
                **c, "comments_enabled": video.enabled,
                "category": CATEGORY_LABELS[video.category_id],
            }) + "\n")

    eligible = [i for i in latest if videos[i].enabled]
    eligible.sort(key=lambda i: (-latest[i][1]["views"], videos[i].video_id))
    n = shape.n if shape.n is not None else len(eligible)
    if len(eligible) < n:
        raise ValueError(f"only {len(eligible)} eligible videos for n={n}")
    top = eligible[:n]
    rates = [_exact_rates(latest[i][1]) for i in top]
    tally: dict[str, int] = {}
    for i in top:
        label = CATEGORY_LABELS[videos[i].category_id]
        tally[label] = tally.get(label, 0) + 1
    defined = {name: [r[name] for r in rates if r[name] is not None] for name in RATE_NAMES}

    manifest = {
        "seed": seed,
        "shape": shape.tag,
        "pages": pages,
        "snapshots": snapshots,
        "unique_ids": len(latest),
        "eligible": len(eligible),
        "n": n,
        "upper_quartile_n": n - n // 4,
        "top_ids": [videos[i].video_id for i in top],
        "top_rates": {
            name: [None if r[name] is None else float(r[name]) for r in rates]
            for name in RATE_NAMES
        },
        "categories": sorted(tally.items(), key=lambda kv: (-kv[1], kv[0])),
        "rate_n": {name: len(values) for name, values in defined.items()},
        "rate_means": {name: _mean(values) for name, values in defined.items()},
    }
    return manifest


def prepare(cache: Path, workload: str, seed: int, shape: Shape) -> tuple[Path, dict]:
    """The cached dataset for (workload, seed, shape), generated on a miss.

    A miss also evicts the workload's other cached datasets, so the cache
    stays one dataset per workload however many seeds are run.
    """
    directory = cache / f"{workload}-seed{seed}-{shape.tag}"
    manifest_path = directory / "manifest.json"
    if manifest_path.is_file():
        return directory, json.loads(manifest_path.read_text(encoding="utf-8"))
    for stale in cache.glob(f"{workload}-seed*"):
        shutil.rmtree(stale, ignore_errors=True)
    directory.mkdir(parents=True)
    manifest = generate(directory, seed, shape)
    tmp = directory / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest), encoding="utf-8")
    os.replace(tmp, manifest_path)
    return directory, json.loads(manifest_path.read_text(encoding="utf-8"))
