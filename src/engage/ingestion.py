"""Acquire video statistics from the live trending API or recorded fixtures.

The sampling protocol mirrors how the study sample was collected: several
fetch sweeps of the trending chart (the API pages in blocks of at most 50),
union of the sweeps deduplicated by video id keeping the latest snapshot,
then selection of the top-n videos by views among those with commenting
enabled. Snapshots persist in an append-only JSON-lines store so an
analysis can be re-run on frozen data.

Transports are pluggable: :class:`LiveTransport` talks HTTPS with rate
limiting, :class:`FixtureTransport` replays recorded pages from a
directory (files named ``sweep<k>_page<j>.json``), so the whole pipeline
runs hermetically offline. ``collect_sweeps`` runs one chart sweep per
transport it is given: the same ``LiveTransport`` once per live sweep, or
the fixture transports that ``fixture_sweeps`` gives. It yields each page
as the store lines of its snapshots, which ``StoreAppender`` appends.
"""

from __future__ import annotations

import heapq
import json
import logging
import os
import re
import time
from datetime import datetime, timezone
from functools import cache, lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Protocol, Sequence, TypeVar
from urllib.parse import urlencode  # loaded by pathlib already

from .metrics import VideoStatsSnapshot, _kept_comments
from .stats import StudySample

logger = logging.getLogger(__name__)

API_URL = "https://www.googleapis.com/youtube/v3/videos"
API_KEY_ENV = "ENGAGE_API_KEY"
PAGE_SIZE = 50  # items per request, the API's maximum
MAX_PAGES = 10  # pages followed per sweep
REQUEST_INTERVAL_MS = 200  # live delay between requests

# Compact display labels for the platform's numeric category ids.
CATEGORY_LABELS = {
    "1": "Film",
    "2": "Autos",
    "10": "Music",
    "15": "Animals",
    "17": "Sports",
    "19": "Travel",
    "20": "Gaming",
    "22": "People",
    "23": "Comedy",
    "24": "Entertainment",
    "25": "News",
    "26": "Howto",
    "27": "Education",
    "28": "Tech",
    "29": "Nonprofit",
}
_LABELS = {label: label for label in CATEGORY_LABELS.values()}  # each label's one str object


class EngageError(Exception):
    """Base for all expected failures raised by this package."""


class ConfigError(EngageError):
    """Invalid configuration (bad flag value, missing API key)."""


class TransportError(EngageError):
    """A page could not be fetched."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class QuotaExceededError(TransportError):
    """The API reported an exhausted quota; callers should back off."""


class ParseError(EngageError):
    """A payload field could not be interpreted."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class StorageError(EngageError):
    """The snapshot store could not be read or written."""


class EmptySampleError(EngageError):
    """The study sample holds no comment-enabled videos to analyze."""


# Every record of a page shares one timestamp, so both conversions are memoized.
# Equal datetimes denote the same instant (naive ones are taken as UTC, and a
# naive datetime never equals an aware one), so they format alike.
@lru_cache(maxsize=1024)
def format_rfc3339(dt: datetime) -> str:
    """UTC, second precision, trailing Z."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    dt = dt.astimezone(timezone.utc).replace(microsecond=0)
    return dt.isoformat().replace("+00:00", "Z")


def parse_rfc3339(text: str) -> datetime:
    # checked before the cache, which would raise TypeError on an unhashable value
    if not isinstance(text, str):
        raise ParseError(f"bad timestamp {text!r}", field="fetched_at")
    return _parse_utc(text)


@lru_cache(maxsize=1024)
def _parse_utc(text: str) -> datetime:
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        # a time at the edge of the range can leave it once its offset is applied
        return dt.astimezone(timezone.utc)
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"bad timestamp {text!r}: {exc}", field="fetched_at") from exc


def _utc_now_seconds() -> datetime:
    return datetime.now(timezone.utc).replace(microsecond=0)


def read_json_object(path: Path | str, error: type[Exception], label: str) -> dict:
    """The JSON object in the UTF-8 file at ``path``.

    A file that cannot be read, is not JSON (nesting too deep to decode
    included) or holds some other value raises ``error``, with a one-line
    message that names the file as ``label`` and its path.
    """
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise error(f"cannot read {label} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"{label} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{label} {path} is not a JSON object")
    return data


class Transport(Protocol):
    """One API page fetch; fixture and live implementations share this shape."""

    def get_page(self, params: dict[str, str]) -> dict: ...


def _http_get(url: str) -> tuple[int, bytes]:
    """Status and body of one GET on the standard library; an error status is
    an answer too, since its body can name a quota."""
    # imported here, not at module level: only a live fetch pays for them
    import http.client
    import urllib.error
    import urllib.request

    try:  # the outer handler also covers reading an error body
        try:
            with urllib.request.urlopen(url, timeout=30) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, exc.read()
    except (OSError, http.client.HTTPException) as exc:
        # the reason only: the request URL carries the API key
        raise TransportError(f"request failed: {getattr(exc, 'reason', exc)}") from exc


class LiveTransport:
    """HTTPS transport that waits ``REQUEST_INTERVAL_MS`` between its requests.

    One transport shared by several sweeps keeps that wait between them too.
    """

    def __init__(self, api_key: str):
        if not api_key:
            raise ConfigError(f"live fetching needs an API key in ${API_KEY_ENV}")
        self._api_key = api_key
        self._last_request = 0.0

    def _throttle(self) -> None:
        wait = self._last_request + REQUEST_INTERVAL_MS / 1000 - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        self._last_request = time.monotonic()

    def get_page(self, params: dict[str, str]) -> dict:
        self._throttle()
        status, body = _http_get(f"{API_URL}?{urlencode({**params, 'key': self._api_key})}")
        ok = 200 <= status < 300
        try:
            payload = json.loads(body)
        except (ValueError, RecursionError) as exc:
            if ok:
                raise ParseError(f"response body is not JSON: {exc}") from exc
            payload = None  # an error page: its status is the answer
        if status == 403 and _is_quota_error(payload):
            raise QuotaExceededError("API quota exceeded", status=403)
        if not ok:
            raise TransportError(f"HTTP {status} from API", status=status)
        if not isinstance(payload, dict):
            raise ParseError("response body is not a JSON object")
        return payload


def _is_quota_error(payload) -> bool:
    try:
        errors = payload["error"]["errors"]
        reasons = {e.get("reason") for e in errors if isinstance(e, dict)}
    except (LookupError, TypeError):
        return False
    return bool(reasons & {"quotaExceeded", "dailyLimitExceeded", "rateLimitExceeded"})


class FixtureTransport:
    """Replays recorded pages from ``<dir>/sweep<k>_page<j>.json``.

    The first request of sweep k serves ``sweep<k>_page1.json``; pagination
    follows the recorded ``nextPageToken`` values, which name the next
    page file. A recorded page may carry ``recordedAt`` so replays keep
    their original fetch timestamps.
    """

    def __init__(self, directory: Path | str, sweep: int = 1):
        self._directory = Path(directory)
        self._sweep = sweep

    def get_page(self, params: dict[str, str]) -> dict:
        token = params.get("pageToken") or f"sweep{self._sweep}_page1"
        path = self._directory / f"{token}.json"
        if not path.is_file():
            raise TransportError(f"fixture page not found: {path}")
        return read_json_object(path, ParseError, "fixture page")


def fixture_sweeps(directory: Path | str, occasions: int | None = None) -> list[FixtureTransport]:
    """One ``FixtureTransport`` per sweep to replay from ``directory``: sweeps 1
    to ``occasions``, or, when it is None, every recorded sweep, counted up from
    ``sweep1_page1.json`` to the first missing one. A directory with no
    recorded sweep raises ConfigError."""
    directory = Path(directory)
    if occasions is None:
        occasions = 0
        while (directory / f"sweep{occasions + 1}_page1.json").is_file():
            occasions += 1
        if not occasions:
            raise ConfigError(f"no sweep fixtures (sweep1_page1.json) in {directory}")
    return [FixtureTransport(directory, sweep) for sweep in range(1, occasions + 1)]


# Largest count magnitude accepted from the API or a store, as for an unsigned
# 64-bit counter: a larger one is corrupt and overflows the report's floats.
MAX_COUNT = 2**64 - 1


def _check_text(value, field: str) -> None:
    """The rare text field: not a str, an empty video id, or not ASCII."""
    if not isinstance(value, str) or (not value and field == "video_id"):
        raise ParseError(f"bad {field}: {value!r}", field=field)
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, which no store line can hold
        raise ParseError(f"bad {field}: {value!r} is not valid UTF-8", field=field) from None


def _check_count(video_id: str, field: str, value) -> None:
    """The rare count: hidden (None), not a 64-bit count, or negative."""
    if value is None and field != "views":
        return
    if type(value) is not int or abs(value) > MAX_COUNT:
        raise ParseError(f"video {video_id}: {field} is not a 64-bit count: {value!r}", field=field)
    if value < 0:
        # kept as-is: the analysis-side range checks are the guard for bad feeds
        logger.warning("video %s: negative %s count %d", video_id, field, value)


# A snapshot's eight fields in VideoStatsSnapshot's order, validated but not built.
_Values = tuple[str, datetime, int, "int | None", "int | None", "int | None", bool, str]


def _snapshot_values(
    video_id, fetched_at, views, likes, dislikes, comments, comments_enabled, category
) -> _Values:
    """The one definition of a valid snapshot, for API items and store records:
    its fields as ``VideoStatsSnapshot(*values)`` takes them.

    A null count is a hidden counter, except ``views``, which is required. A
    comment count with commenting disabled is dropped, with a warning unless it
    is zero. ``fetched_at`` is passed through unchecked. Raises ParseError
    naming the first bad field.
    """
    if not (type(video_id) is str and video_id and video_id.isascii()):
        _check_text(video_id, "video_id")
    # one test for the common value; anything else takes the slow branch
    if not (type(views) is int and 0 <= views <= MAX_COUNT):
        _check_count(video_id, "views", views)
    if not (type(likes) is int and 0 <= likes <= MAX_COUNT):
        _check_count(video_id, "likes", likes)
    if not (type(dislikes) is int and 0 <= dislikes <= MAX_COUNT):
        _check_count(video_id, "dislikes", dislikes)
    if not (type(comments) is int and 0 <= comments <= MAX_COUNT):
        _check_count(video_id, "comments", comments)
    if not isinstance(comments_enabled, bool):
        raise ParseError(f"bad comments_enabled: {comments_enabled!r}", field="comments_enabled")
    if not (type(category) is str and category.isascii()):
        _check_text(category, "category")
    if not comments_enabled:
        comments = _kept_comments(video_id, comments, comments_enabled)
    # a known label is held once, not once per record
    category = _LABELS.get(category, category)
    return video_id, fetched_at, views, likes, dislikes, comments, comments_enabled, category


def _api_count(value):
    """An API count string of ASCII digits, with an optional leading minus, as
    an int. Any other value is left as it is: a JSON int passes, and
    _snapshot_values rejects the rest (a float, a bool and any other string
    included)."""
    if type(value) is str and value.isascii() and (
            value.isdigit() or (value[:1] == "-" and value[1:].isdigit())):
        try:
            return int(value)
        except ValueError:  # past int()'s digit limit, so past any 64-bit count
            pass
    return value


def _item_values(item: dict, fetched_at: datetime) -> _Values:
    """One API item's validated fields; raises ParseError naming the bad field."""
    if not isinstance(item, dict):
        raise ParseError("item is not a JSON object")
    stats = item.get("statistics")
    if not isinstance(stats, dict):
        stats = {}
    snippet = item.get("snippet")
    category_id = str(snippet.get("categoryId", "")) if isinstance(snippet, dict) else ""
    category = CATEGORY_LABELS.get(category_id)
    if category is None:
        category = f"Category {category_id}" if category_id else ""
    return _snapshot_values(
        item.get("id"),
        fetched_at,
        _api_count(stats.get("viewCount")),
        _api_count(stats.get("likeCount")),
        _api_count(stats.get("dislikeCount")),
        _api_count(stats.get("commentCount")),
        # the API omits the comment count when commenting is disabled
        "commentCount" in stats,
        category,
    )


_Page = TypeVar("_Page")


def _parse_page(
    payload: dict, encode: Callable[[list, datetime], _Page]
) -> tuple[_Page, str | None]:
    """A page's ``encode(items, fetched_at)`` and its next page token, which is
    absent, null or a non-empty str; raises ParseError naming the first bad field."""
    items = payload.get("items")
    if not isinstance(items, list):
        raise ParseError("page has no items list", field="items")
    recorded = payload.get("recordedAt")
    fetched_at = _utc_now_seconds() if recorded is None else parse_rfc3339(recorded)
    page = encode(items, fetched_at)
    next_token = payload.get("nextPageToken")
    if next_token is not None and not (isinstance(next_token, str) and next_token):
        raise ParseError(f"bad nextPageToken: {next_token!r}", field="nextPageToken")
    return page, next_token


def _check_region(region_code: str) -> None:
    if len(region_code) != 2 or not region_code.isalpha():
        raise ConfigError(f"region_code must be 2 letters, got {region_code!r}")


def collect_sweeps(
    transports: Sequence[Transport], region_code: str = "US"
) -> Iterator[StorePage]:
    """Run one sweep of the ``region_code`` trending chart per transport, in
    order; yields each page as the page arrives, in fetch order, as a
    ``StorePage``: the ids of its snapshots and their store lines, each the
    line ``store_snapshots`` writes for the item's validated snapshot.

    A live sweep is a fresh pass over the current chart: pass the same
    ``LiveTransport`` for each, so its wait between requests holds across
    sweeps. Each sweep follows page tokens for at most MAX_PAGES. Rows are
    stamped with the page's recorded fetch time if it carries one, else with
    the current UTC time. Nothing is fetched, and no error raised, until the
    first page is asked for.
    """
    _check_region(region_code)
    if not transports:
        raise ConfigError(f"occasions must be >= 1, got {len(transports)}")
    params = {
        "chart": "mostPopular",
        "part": "snippet,statistics",
        "maxResults": str(PAGE_SIZE),
        "regionCode": region_code,
    }
    for transport in transports:
        token: str | None = None
        for _ in range(MAX_PAGES):
            page, token = _parse_page(
                transport.get_page({**params, "pageToken": token} if token else params),
                _api_page)
            yield page
            if token is None:
                break


def dedup_latest(snapshots: Iterable[VideoStatsSnapshot]) -> list[VideoStatsSnapshot]:
    """One snapshot per video id: latest fetched_at wins, ties go to the
    later-read record. Output keeps first-encounter order of the ids."""
    latest = _latest_by_id((s.video_id, s.fetched_at, s) for s in snapshots)
    return [row[-1] for row in latest.values()]


def _latest_by_id(rows: Iterable[tuple]) -> dict[str, tuple]:
    """The latest of each id's ``(video_id, fetched_at, ...)`` rows, keyed by id:
    a later fetched_at wins, a tie goes to the later-read row, and the ids keep
    their first-seen order. The one dedup rule, for ``dedup_latest`` and the load."""
    best: dict[str, tuple] = {}
    for row in rows:
        current = best.get(row[0])
        # replacing a key's value keeps the key's place in the dict
        if current is None or row[1] >= current[1]:
            best[row[0]] = row
    return best


def fetch_by_ids(
    video_ids: Sequence[str], *, transport: Transport
) -> Iterator[list[VideoStatsSnapshot]]:
    """Fetch current statistics for explicit video ids; yields one page's
    snapshots per batch of at most ``PAGE_SIZE`` ids, as the page arrives.

    Statistics drift over time, so re-querying a historical id list yields
    present-day counters, not the ones originally studied.
    """
    for start in range(0, len(video_ids), PAGE_SIZE):
        batch = video_ids[start : start + PAGE_SIZE]
        params = {"part": "snippet,statistics", "id": ",".join(batch)}
        yield _parse_page(transport.get_page(params), _item_snapshots)[0]


def _item_snapshots(items: list, fetched_at: datetime) -> list[VideoStatsSnapshot]:
    return [VideoStatsSnapshot(*_item_values(item, fetched_at)) for item in items]


def select_study_sample(candidates: StudySample, n: int) -> StudySample:
    """The n highest-view videos with commenting enabled.

    Ties at the cut go to the lower video id. Fewer than n eligible
    candidates is a shortfall, not a fault: all eligible are returned and
    the selection note records the shortfall.
    """
    # a snapshot is a row of its fields, as _top_rows ranks them
    chosen, note = _top_rows(candidates.snapshots, n, candidates.selection_note)
    return StudySample(snapshots=tuple(chosen), selection_note=note)


def _top_rows(rows: Sequence[tuple], n: int, note: str) -> tuple[list[tuple], str]:
    """``select_study_sample`` over rows that begin with a snapshot's fields:
    the chosen rows, best first, and ``note`` with the selection appended."""
    if n < 1:
        raise ConfigError(f"sample size must be >= 1, got {n}")
    eligible = [row for row in rows if row[6]]  # comments_enabled
    # equal to sorted(...)[:n] by (-views, video_id), without sorting the whole eligible set
    chosen = heapq.nsmallest(n, eligible, key=lambda row: (-row[2], row[0]))

    note = f"{note}; top {len(chosen)} of {len(eligible)} comment-enabled by views".lstrip("; ")
    if len(eligible) < n:
        logger.warning("only %d eligible videos for requested n=%d", len(eligible), n)
        note += f" (shortfall: requested {n})"
    return chosen, note


def snapshot_to_record(snapshot: VideoStatsSnapshot) -> dict:
    return {**snapshot._asdict(), "fetched_at": format_rfc3339(snapshot.fetched_at)}


def snapshot_from_record(record: dict) -> VideoStatsSnapshot:
    return VideoStatsSnapshot(*_record_values(record))


def _record_values(record: dict) -> _Values:
    """A store record's validated fields; raises ParseError naming the first bad one."""
    if not isinstance(record, dict):
        raise ParseError("record is not a JSON object")
    get = record.get
    return _snapshot_values(
        get("video_id"),
        parse_rfc3339(get("fetched_at")),
        get("views"),
        get("likes"),
        get("dislikes"),
        get("comments"),
        get("comments_enabled"),
        get("category", ""),
    )


_quote = json.encoder.encode_basestring  # json.dumps's escaping of a str, non-ASCII kept


def _record_line(values: _Values) -> str:
    """One store line from a snapshot's validated fields, by one template: for
    ``s = VideoStatsSnapshot(*values)``, ``json.dumps(snapshot_to_record(s),
    ensure_ascii=False) + "\\n"``."""
    video_id, fetched_at, views, likes, dislikes, comments, enabled, category = values
    return (
        f'{{"video_id": {_quote(video_id)}, "fetched_at": "{format_rfc3339(fetched_at)}", '
        f'"views": {views}, "likes": {"null" if likes is None else likes}, '
        f'"dislikes": {"null" if dislikes is None else dislikes}, '
        f'"comments": {"null" if comments is None else comments}, '
        f'"comments_enabled": {"true" if enabled else "false"}, '
        f'"category": {_quote(category)}}}\n'
    )


class StorePage(NamedTuple):
    """One page as the store takes it: the video ids of its snapshots, in
    order, and their store lines as one text."""

    ids: list[str]
    lines: str


def _rows_page(rows: Sequence[_Values]) -> StorePage:
    """The store page of rows of validated snapshot fields."""
    return StorePage([row[0] for row in rows], "".join(map(_record_line, rows)))


# categoryId -> the end of a store line whose category is the id's label
_CATEGORY_TAILS = {
    key: f', "category": {_quote(label)}}}\n' for key, label in CATEGORY_LABELS.items()
}


def _plain_line(item, head: str) -> str | None:
    """The store line of a plain API item, written straight from its strings, or
    None for any other item; ``head`` is the line's text from the comma after the
    video id up to the view count.

    An item is plain when its ``statistics`` is an object, its ``id`` a non-empty
    ASCII str and its ``snippet.categoryId`` a key of CATEGORY_LABELS, and when
    its view count, and each other count that is not hidden (absent or null), is
    a str of 1 to 19 ASCII digits with no leading zero unless it is ``"0"``. Such
    a str is already the text of its count, which is at most MAX_COUNT, so the
    line is the one ``_record_line(_item_values(item, fetched_at))`` writes, and
    those two would log no warning for the item.
    """
    try:
        stats = item["statistics"]
        video_id = item["id"]
        tail = _CATEGORY_TAILS[item["snippet"]["categoryId"]]
    except (TypeError, KeyError):  # not an object, a field missing, or an unknown category
        return None
    if not (type(stats) is dict and type(video_id) is str and video_id and video_id.isascii()):
        return None
    views = stats.get("viewCount")
    likes = stats.get("likeCount")
    dislikes = stats.get("dislikeCount")
    comments = stats.get("commentCount")
    if views is None:  # the one count that may not be hidden
        return None
    for count in (views, likes, dislikes, comments):
        if count is not None and not (
                type(count) is str and count.isascii() and count.isdigit()
                and (count[0] != "0" and len(count) < 20 or count == "0")):
            return None
    return (
        f'{{"video_id": {_quote(video_id)}{head}{views}, '
        f'"likes": {"null" if likes is None else likes}, '
        f'"dislikes": {"null" if dislikes is None else dislikes}, '
        f'"comments": {"null" if comments is None else comments}, '
        # the API omits the comment count when commenting is disabled
        f'"comments_enabled": {"true" if "commentCount" in stats else "false"}{tail}'
    )


def _api_page(items: list, fetched_at: datetime) -> StorePage:
    """The store page of a page's API items, each line the one that
    ``_record_line(_item_values(item, fetched_at))`` writes: a plain item's
    straight from its strings, any other's through those two, which give its
    warnings and errors."""
    head = f', "fetched_at": "{format_rfc3339(fetched_at)}", "views": '
    lines = [_plain_line(item, head) or _record_line(_item_values(item, fetched_at))
             for item in items]
    # each item is an object with a valid id by now, which its snapshot keeps as it is
    return StorePage([item["id"] for item in items], "".join(lines))


_COUNT = "0|[1-9][0-9]{0,18}"  # at most 19 digits, so below MAX_COUNT
# _record_line's lines that _snapshot_values passes unchanged and without a warning:
# a text holds no quote, backslash or control character, so it reads as written, and
# a comment count with commenting disabled, which _snapshot_values drops, does not
# match. Groups are the eight fields.
_CANONICAL_LINE = (
    r'\{"video_id": "([^"\\\x00-\x1f]+)", '
    r'"fetched_at": "([0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z)", '
    f'"views": ({_COUNT}), "likes": (null|{_COUNT}), "dislikes": (null|{_COUNT}), '
    f'"comments": (null|{_COUNT}), '
    r'"comments_enabled": (true|(?<=null, "comments_enabled": )false), '
    r'"category": "([^"\\\x00-\x1f]*)"\}\n'
)


@cache  # compiled on the first load, not at import
def _canonical_match():
    """``fullmatch`` of a line against ``_CANONICAL_LINE``."""
    return re.compile(_CANONICAL_LINE).fullmatch


def _matched_values(groups: tuple[str, ...]) -> _Values:
    """The fields of a line that ``_canonical_match`` matched, from its groups, as
    ``_record_values(json.loads(line))`` gives them; a date that does not exist
    raises ParseError as there."""
    video_id, stamp, views, likes, dislikes, comments, enabled, category = groups
    return (
        video_id, _parse_utc(stamp), int(views),
        None if likes == "null" else int(likes),
        None if dislikes == "null" else int(dislikes),
        None if comments == "null" else int(comments),
        enabled == "true", _LABELS.get(category, category),
    )


def _stored_values(snapshot: VideoStatsSnapshot) -> _Values:
    """A snapshot's fields validated as a store record's are on load, and its
    ``fetched_at`` a datetime with a UTC text; raises ParseError naming the field."""
    values = _snapshot_values(*snapshot)
    fetched_at = values[1]
    if isinstance(fetched_at, datetime):
        try:
            format_rfc3339(fetched_at)
            return values
        except OverflowError:  # the instant leaves the datetime range in UTC
            pass
    raise ParseError(f"bad fetched_at: {fetched_at!r}", field="fetched_at")


def store_snapshots(path: Path, snapshots: Sequence[VideoStatsSnapshot]) -> int:
    """Append one record per snapshot; returns the number written.

    Appending never rewrites existing lines; deduplication happens on read.
    Each snapshot is validated as a store record is on load, so a strict
    ``load_snapshots`` reads every line back; a comment count with commenting
    disabled is dropped, as on load. An invalid snapshot raises ParseError
    naming its bad field, and nothing of the page is written. Each line is
    ``json.dumps(snapshot_to_record(s), ensure_ascii=False) + "\\n"`` of the
    validated snapshot, the same bytes that a fetch writes for an API item
    with that snapshot. A store whose last line lacks its line end gets
    one when that line is a valid record; otherwise that torn tail of an
    interrupted append is cut away, with a warning, before the page goes on.
    """
    page = _rows_page(list(map(_stored_values, snapshots)))
    with StoreAppender(path) as store:
        return store.append(page)


class StoreAppender:
    """Appends ``StorePage``s to one store, opened once.

    A page's lines are written as they stand: ``collect_sweeps`` makes them
    from API items, and ``_rows_page`` from validated snapshot fields, which
    is how ``store_snapshots`` and ``fetch --ids`` make theirs. The store is
    opened on the first non-empty page, so a run that stores nothing creates
    no file, and its tail is repaired then, as ``store_snapshots`` describes.
    Each page is encoded whole, written in one call and flushed before
    ``append`` returns. Use it as a context manager: the file is closed on
    every path.
    """

    def __init__(self, path: Path):
        self._path = path
        self._file = None

    def __enter__(self) -> StoreAppender:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._file is not None:
            f, self._file = self._file, None
            try:
                f.close()
            except OSError as exc:
                raise StorageError(f"cannot write {self._path}: {exc}") from exc

    def append(self, page: StorePage) -> int:
        """Append the page's lines; returns the number of snapshots written."""
        if not page.ids:
            return 0
        data = page.lines.encode("utf-8")
        try:
            if self._file is None:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                self._file = open(self._path, "a+b")
                _end_last_line(self._file, self._path.name)
            self._file.write(data)
            self._file.flush()
        except OSError as exc:
            raise StorageError(f"cannot write {self._path}: {exc}") from exc
        return len(page.ids)


def _end_last_line(f, name: str) -> None:
    """Make an append-mode store end in a line end before anything is appended."""
    end = f.seek(0, os.SEEK_END)
    if not end:
        return
    f.seek(end - 1)
    if f.read(1) == b"\n":
        return
    start, chunks, cut = end, [], 0
    while start and not cut:  # read back, 4 KiB at a time, to the last line's start
        step = min(start, 4096)
        start -= step
        f.seek(start)
        chunk = f.read(step)
        cut = chunk.rfind(b"\n") + 1
        chunks.append(chunk[cut:])
    start, tail = start + cut, b"".join(reversed(chunks))
    try:
        _record_values(json.loads(tail.decode("utf-8")))
    except (ValueError, RecursionError, ParseError) as exc:
        f.truncate(start)
        logger.warning("%s: torn final line of %d bytes dropped before appending: %s",
                       name, len(tail), exc)
    else:
        f.write(b"\n")


def load_snapshots(path: Path, lenient: bool = False) -> StudySample:
    """Read the store back into a deduplicated sample, one line at a time.

    Every line is validated, but only the latest record of each id is held,
    as a tuple of its fields, so memory grows with the unique ids, not with
    the records; once the file is read, only those records become snapshots.
    A line as ``store_snapshots`` writes it, with plain text fields and counts
    of at most 19 digits, is checked by one compiled pattern; any other is
    decoded as JSON and checked field by field, with the same result,
    warnings and errors.
    A malformed line (not UTF-8, not JSON, or not a valid record) aborts
    with an error naming the line number; in lenient mode it is skipped with
    a warning instead, and the count of skipped lines lands in the selection
    note. A malformed final line with no line end is the torn tail of an
    interrupted append: either mode skips it with a warning and names it in
    the note.
    """
    rows, note = _load_rows(path, lenient)
    # each row is replaced as its snapshot is built, so the two are never both
    # held in full
    for i, values in enumerate(rows):
        rows[i] = VideoStatsSnapshot(*values)
    unique = tuple(rows)
    del rows  # freed before the sample's own id check allocates
    return StudySample(snapshots=unique, selection_note=note)


def _load_rows(path: Path, lenient: bool = False) -> tuple[list[_Values], str]:
    """``load_snapshots`` without the snapshots: the validated fields of each
    id's latest record, in first-seen order of the ids, and the note. A line
    that ``_canonical_match`` matches is read from its groups; any other goes
    through ``json.loads`` and ``_record_values``, which give it the same
    fields, warnings and errors."""
    records = skipped = 0
    torn = False
    match = _canonical_match()

    def rows(lines: Iterable[bytes]) -> Iterator[_Values]:
        nonlocal records, skipped, torn
        for lineno, raw in enumerate(lines, start=1):
            try:
                line = raw.decode("utf-8")
                canonical = match(line)
                if canonical is not None:
                    values = _matched_values(canonical.groups())
                elif not line.strip():
                    continue
                else:
                    values = _record_values(json.loads(line))
            except (ValueError, RecursionError, ParseError) as exc:
                if not raw.endswith(b"\n"):  # only the final line can lack one
                    logger.warning("%s line %d: torn final line skipped: %s",
                                   path.name, lineno, exc)
                    torn = True
                    continue
                if not lenient:
                    raise StorageError(f"{path.name} line {lineno}: {exc}") from exc
                logger.warning("%s line %d skipped: %s", path.name, lineno, exc)
                skipped += 1
                continue
            records += 1
            yield values

    try:
        with open(path, "rb") as f:
            unique = list(_latest_by_id(rows(f)).values())
    except OSError as exc:
        raise StorageError(f"cannot read {path}: {exc}") from exc

    note = f"loaded {records} records from {path.name}, {len(unique)} unique ids"
    if skipped:
        note += f", {skipped} malformed line(s) skipped"
    if torn:
        note += ", 1 torn final line skipped"
    return unique, note
