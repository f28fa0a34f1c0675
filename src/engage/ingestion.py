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
runs hermetically offline.
"""

from __future__ import annotations

import heapq
import json
import logging
import os
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence

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


@dataclass(frozen=True)
class FetchConfig:
    """Fetch parameters; the API key comes from the environment, never flags."""

    api_key: str = ""
    region_code: str = "US"
    fixture_dir: Path | None = None

    def __post_init__(self) -> None:
        if len(self.region_code) != 2 or not self.region_code.isalpha():
            raise ConfigError(f"region_code must be 2 letters, got {self.region_code!r}")


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


class _HttpResponse:
    """Status code and body of one HTTP exchange."""

    def __init__(self, status_code: int, body: bytes):
        self.status_code = status_code
        self._body = body

    def json(self):
        """The body decoded as JSON; raises ValueError when it is not."""
        return json.loads(self._body)


class _UrllibSession:
    """The one HTTP call LiveTransport needs, on the standard library."""

    def get(self, url: str, params: dict[str, str], timeout: float) -> _HttpResponse:
        # imported here, not at module level: only a live fetch pays for them
        import http.client
        import urllib.error
        import urllib.parse
        import urllib.request

        request_url = f"{url}?{urllib.parse.urlencode(params)}"
        try:  # the outer handler also covers reading an error body
            try:
                with urllib.request.urlopen(request_url, timeout=timeout) as resp:
                    return _HttpResponse(resp.status, resp.read())
            except urllib.error.HTTPError as exc:
                # an error status is still an answer: its body can name a quota
                with exc:
                    return _HttpResponse(exc.code, exc.read())
        except (OSError, http.client.HTTPException) as exc:
            # the reason only: the request URL carries the API key
            raise TransportError(f"request failed: {getattr(exc, 'reason', exc)}") from exc


class LiveTransport:
    """HTTPS transport with a fixed inter-request delay.

    ``session`` is anything with ``get(url, params, timeout)`` returning a
    response with ``status_code`` and ``json()``; the default uses urllib.
    """

    def __init__(
        self,
        api_key: str,
        request_interval_ms: int = REQUEST_INTERVAL_MS,
        session: _UrllibSession | None = None,
    ):
        if not api_key:
            raise ConfigError(f"live fetching needs an API key in ${API_KEY_ENV}")
        self._api_key = api_key
        self._interval = request_interval_ms / 1000.0
        self._session = session or _UrllibSession()
        self._last_request = 0.0

    def _throttle(self) -> None:
        wait = self._last_request + self._interval - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        self._last_request = time.monotonic()

    def get_page(self, params: dict[str, str]) -> dict:
        self._throttle()
        resp = self._session.get(API_URL, params={**params, "key": self._api_key}, timeout=30)
        if resp.status_code == 403 and _is_quota_error(resp):
            raise QuotaExceededError("API quota exceeded", status=403)
        if not 200 <= resp.status_code < 300:
            raise TransportError(f"HTTP {resp.status_code} from API", status=resp.status_code)
        try:
            payload = resp.json()
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"response body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ParseError("response body is not a JSON object")
        return payload


def _is_quota_error(resp: _HttpResponse) -> bool:
    try:
        errors = resp.json()["error"]["errors"]
        reasons = {e.get("reason") for e in errors if isinstance(e, dict)}
    except (ValueError, RecursionError, LookupError, TypeError):
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


def default_transport(config: FetchConfig, sweep: int = 1) -> Transport:
    """Fixture transport when a fixture directory is configured, else live."""
    if config.fixture_dir is not None:
        return FixtureTransport(config.fixture_dir, sweep=sweep)
    return LiveTransport(config.api_key)


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
    comment count with commenting disabled is dropped, as ``normalize_snapshot``
    drops it. Raises ParseError naming the first bad field.
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
    """An API count string as an int; a value int() refuses is left for
    _snapshot_values to reject."""
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        return value


def parse_video_item(item: dict, fetched_at: datetime) -> VideoStatsSnapshot:
    """One API item to a snapshot; raises ParseError naming the bad field."""
    return VideoStatsSnapshot(*_item_values(item, fetched_at))


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


def _parse_page(payload: dict) -> tuple[list[_Values], str | None]:
    items = payload.get("items")
    if not isinstance(items, list):
        raise ParseError("page has no items list", field="items")
    recorded = payload.get("recordedAt")
    fetched_at = _utc_now_seconds() if recorded is None else parse_rfc3339(recorded)
    rows = [_item_values(item, fetched_at) for item in items]
    next_token = payload.get("nextPageToken")
    if next_token is not None and not isinstance(next_token, str):
        raise ParseError(f"bad nextPageToken: {next_token!r}", field="nextPageToken")
    return rows, next_token


def _snapshots(rows: Iterable[_Values]) -> list[VideoStatsSnapshot]:
    return [VideoStatsSnapshot(*row) for row in rows]


def fetch_trending_page(
    config: FetchConfig,
    page_token: str | None = None,
    *,
    transport: Transport,
) -> tuple[list[VideoStatsSnapshot], str | None]:
    """Fetch and parse one page of the trending chart.

    Returns up to ``PAGE_SIZE`` snapshots and the token for the next page
    (``None`` on the last one). Snapshots are stamped with the recorded
    fetch time if the page carries one, else with the current UTC time.
    """
    rows, next_token = _trending_page(config, page_token, transport)
    return _snapshots(rows), next_token


def _trending_page(
    config: FetchConfig, page_token: str | None, transport: Transport
) -> tuple[list[_Values], str | None]:
    params = {
        "chart": "mostPopular",
        "part": "snippet,statistics",
        "maxResults": str(PAGE_SIZE),
        "regionCode": config.region_code,
    }
    if page_token:
        params["pageToken"] = page_token
    return _parse_page(transport.get_page(params))


def collect_sweeps(config: FetchConfig, occasions: int) -> Iterator[list[_Values]]:
    """Run ``occasions`` sweeps, sweep k through ``default_transport(config, sweep=k)``;
    yields each page as the page arrives, in fetch order, as the validated
    fields of its snapshots (``VideoStatsSnapshot(*row)`` builds one).

    A fixture sweep k replays recorded sweep k; a live sweep is a fresh pass
    over the current chart. Each follows page tokens for at most MAX_PAGES.
    Nothing is fetched, and no error raised, until the first page is asked for.
    """
    if occasions < 1:
        raise ConfigError(f"occasions must be >= 1, got {occasions}")
    for sweep in range(1, occasions + 1):
        transport = default_transport(config, sweep=sweep)
        token: str | None = None
        for _ in range(MAX_PAGES):
            page, token = _trending_page(config, token, transport)
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
    return map(_snapshots, collect_by_ids(video_ids, transport=transport))


def collect_by_ids(video_ids: Sequence[str], *, transport: Transport) -> Iterator[list[_Values]]:
    """``fetch_by_ids``'s pages as the validated fields of their snapshots."""
    for start in range(0, len(video_ids), PAGE_SIZE):
        batch = video_ids[start : start + PAGE_SIZE]
        params = {"part": "snippet,statistics", "id": ",".join(batch)}
        yield _parse_page(transport.get_page(params))[0]


def select_study_sample(candidates: StudySample, n: int) -> StudySample:
    """The n highest-view videos with commenting enabled.

    Ties at the cut go to the lower video id. Fewer than n eligible
    candidates is a shortfall, not a fault: all eligible are returned and
    the selection note records the shortfall.
    """
    if n < 1:
        raise ConfigError(f"sample size must be >= 1, got {n}")
    eligible = [s for s in candidates.snapshots if s.comments_enabled]
    # equal to sorted(...)[:n], without sorting the whole eligible set
    chosen = tuple(heapq.nsmallest(n, eligible, key=lambda s: (-s.views, s.video_id)))

    note = (
        f"{candidates.selection_note}; top {len(chosen)} of {len(eligible)} "
        f"comment-enabled by views"
    ).lstrip("; ")
    if len(eligible) < n:
        logger.warning("only %d eligible videos for requested n=%d", len(eligible), n)
        note += f" (shortfall: requested {n})"
    return StudySample(snapshots=chosen, selection_note=note)


def snapshot_to_record(snapshot: VideoStatsSnapshot) -> dict:
    return {**vars(snapshot), "fetched_at": format_rfc3339(snapshot.fetched_at)}


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


# The string escaping of json.dumps(..., ensure_ascii=False), and its whole
# encoder for any value the line template does not write itself.
_quote = json.encoder.encode_basestring
_encode = json.JSONEncoder(ensure_ascii=False).encode


def _json_value(value) -> str:
    """``json.dumps(value, ensure_ascii=False)`` of one record value, None inline."""
    return "null" if value is None else _encode(value)


def _record_line(values: _Values) -> str:
    """One store line from a snapshot's fields, by one template: for
    ``s = VideoStatsSnapshot(*values)``, ``json.dumps(snapshot_to_record(s),
    ensure_ascii=False) + "\\n"``.

    Exact-type strs, ints and bools are written directly; any other value
    (a hand-built snapshot's float count, say) goes through the JSON encoder.
    """
    video_id, fetched_at, views, likes, dislikes, comments, enabled, category = values
    return (
        f'{{"video_id": {_quote(video_id) if type(video_id) is str else _json_value(video_id)}, '
        f'"fetched_at": {_quote(format_rfc3339(fetched_at))}, '
        f'"views": {views if type(views) is int else _json_value(views)}, '
        f'"likes": {likes if type(likes) is int else _json_value(likes)}, '
        f'"dislikes": {dislikes if type(dislikes) is int else _json_value(dislikes)}, '
        f'"comments": {comments if type(comments) is int else _json_value(comments)}, '
        f'"comments_enabled": '
        f'{"true" if enabled is True else "false" if enabled is False else _json_value(enabled)}, '
        f'"category": {_quote(category) if type(category) is str else _json_value(category)}}}\n'
    )


# A snapshot's eight fields, in order, as the tuple _record_line takes.
_fields = attrgetter(
    "video_id", "fetched_at", "views", "likes", "dislikes", "comments", "comments_enabled",
    "category",
)


def store_snapshots(path: Path, snapshots: Sequence[VideoStatsSnapshot]) -> int:
    """Append one record per snapshot; returns the number written.

    Appending never rewrites existing lines; deduplication happens on read.
    Each line is ``json.dumps(snapshot_to_record(s), ensure_ascii=False) + "\\n"``.
    The page is encoded before it is written, so a page that cannot be
    encoded (a lone surrogate in its text) raises ParseError and writes
    nothing. A store whose last line lacks its line end gets
    one when that line is a valid record; otherwise that torn tail of an
    interrupted append is cut away, with a warning, before the page goes on.
    """
    with StoreAppender(path) as store:
        return store.append(list(map(_fields, snapshots)))


class StoreAppender:
    """Appends pages of validated snapshot fields to one store, opened once.

    The store is opened on the first non-empty page, so a run that stores
    nothing creates no file, and its tail is repaired then, as
    ``store_snapshots`` describes. Each page is encoded whole, written in one
    call and flushed before ``append`` returns. Use it as a context manager:
    the file is closed on every path.
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

    def append(self, page: Sequence[_Values]) -> int:
        """Append one record per row of validated fields; returns the number written."""
        if not page:
            return 0
        try:
            data = "".join(map(_record_line, page)).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(f"snapshot text cannot be stored as UTF-8: {exc}") from None
        try:
            if self._file is None:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                self._file = open(self._path, "a+b")
                _end_last_line(self._file, self._path.name)
            self._file.write(data)
            self._file.flush()
        except OSError as exc:
            raise StorageError(f"cannot write {self._path}: {exc}") from exc
        return len(page)


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
        _record_values(_decode_line(tail.decode("utf-8")))
    except (ValueError, RecursionError, ParseError) as exc:
        f.truncate(start)
        logger.warning("%s: torn final line of %d bytes dropped before appending: %s",
                       name, len(tail), exc)
    else:
        f.write(b"\n")


_scan_once = json.JSONDecoder().scan_once  # the scanner json.loads itself runs
_LINE_ENDS = ("", "\n", "\r\n")


def _decode_line(line: str):
    """``json.loads(line)``, in one scanner call when the line is one JSON value and
    a line end; any other line goes to ``json.loads`` for its value or its error."""
    try:
        value, end = _scan_once(line, 0)
    except (StopIteration, ValueError):
        end = -1
    if end < 0 or line[end:] not in _LINE_ENDS:
        return json.loads(line)
    return value


def load_snapshots(path: Path, lenient: bool = False) -> StudySample:
    """Read the store back into a deduplicated sample, one line at a time.

    Every line is validated, but only the latest record of each id is held,
    as a tuple of its fields, so memory grows with the unique ids, not with
    the records; once the file is read, only those records become snapshots.
    A malformed line (not UTF-8, not JSON, or not a valid record) aborts
    with an error naming the line number; in lenient mode it is skipped with
    a warning instead, and the count of skipped lines lands in the selection
    note. A malformed final line with no line end is the torn tail of an
    interrupted append: either mode skips it with a warning and names it in
    the note.
    """
    records = skipped = 0
    torn = False

    def rows(lines: Iterable[bytes]) -> Iterator[_Values]:
        nonlocal records, skipped, torn
        for lineno, raw in enumerate(lines, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                values = _record_values(_decode_line(line))
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
            latest = _latest_by_id(rows(f))
    except OSError as exc:
        raise StorageError(f"cannot read {path}: {exc}") from exc
    # each tuple is replaced as its snapshot is built, so the two are never
    # both held in full
    for video_id, values in latest.items():
        latest[video_id] = VideoStatsSnapshot(*values)
    unique = tuple(latest.values())
    del latest  # freed before the sample's own id check allocates

    note = f"loaded {records} records from {path.name}, {len(unique)} unique ids"
    if skipped:
        note += f", {skipped} malformed line(s) skipped"
    if torn:
        note += ", 1 torn final line skipped"
    return StudySample(snapshots=unique, selection_note=note)
