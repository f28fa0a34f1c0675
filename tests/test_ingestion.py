import contextlib
import copy
import io
import json
import re
import socket
import tempfile
import unittest.mock
import urllib.error
import urllib.parse
import warnings
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engage import ingestion
from engage.cli import main
from engage.ingestion import (
    ConfigError,
    EngageWarning,
    FixtureTransport,
    LiveTransport,
    MAX_COUNT,
    ParseError,
    QuotaExceededError,
    StorageError,
    StudySample,
    TransportError,
    collect_sweeps,
    dedup_latest,
    fetch_by_ids,
    fixture_sweeps,
    format_rfc3339,
    load_snapshots,
    parse_rfc3339,
    read_json_object,
    select_study_sample,
    snapshot_from_record,
    snapshot_to_record,
    store_snapshots,
)
from engage.metrics import VideoStatsSnapshot

T1 = datetime(2013, 12, 10, 9, 0, 0, tzinfo=timezone.utc)
T2 = datetime(2013, 12, 13, 9, 0, 0, tzinfo=timezone.utc)
DEEP = "[" * 100_000  # nested past the JSON decoder's recursion limit


@contextlib.contextmanager
def warned():
    """The warnings given while open, recorded as they are given, repeats
    included: a fresh list for each use, so one hypothesis example's warnings
    never count toward the next."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield caught


def texts(caught):
    """The texts of recorded warnings, in order; each one must be an EngageWarning."""
    assert [w.category for w in caught] == [EngageWarning] * len(caught)
    return [str(w.message) for w in caught]


def snap(video_id, views=1000, fetched_at=T1, **kwargs):
    base = dict(
        video_id=video_id, fetched_at=fetched_at, views=views,
        likes=10, dislikes=2, comments=5, category="News",
    )
    base.update(kwargs)
    return VideoStatsSnapshot(**base)


def item(video_id, views=1000, likes=10, dislikes=2, comments=5, category_id="25"):
    stats = {
        "viewCount": str(views),
        "likeCount": str(likes),
        "dislikeCount": str(dislikes),
    }
    if comments is not None:
        stats["commentCount"] = str(comments)
    return {
        "id": video_id,
        "snippet": {"categoryId": category_id},
        "statistics": stats,
    }


def write_page(directory, name, items, next_token=None, recorded_at="2013-12-10T09:00:00Z"):
    payload = {"items": items, "recordedAt": recorded_at}
    if next_token:
        payload["nextPageToken"] = next_token
    (directory / f"{name}.json").write_text(json.dumps(payload), encoding="utf-8")


def page_snapshots(page):
    """The snapshots of a ``collect_sweeps`` page, read back from its store lines."""
    lines = page.lines.split("\n")[:-1]
    assert len(lines) == len(page.ids)
    snapshots = [snapshot_from_record(json.loads(line)) for line in lines]
    assert [s.video_id for s in snapshots] == page.ids
    return snapshots


def swept(transports):
    """Every snapshot of ``collect_sweeps``, its pages flattened in fetch order."""
    return [s for page in collect_sweeps(transports) for s in page_snapshots(page)]


def parsed(item, fetched_at):
    """The snapshot of one API item, through the fetch path's validated fields."""
    return VideoStatsSnapshot(*ingestion._item_values(item, fetched_at))


def record_line(snapshot):
    """The store line the line template writes for ``snapshot``."""
    return ingestion._record_line(snapshot)


def test_rfc3339_round_trip():
    assert format_rfc3339(T1) == "2013-12-10T09:00:00Z"
    assert parse_rfc3339("2013-12-10T09:00:00Z") == T1
    # offsets normalize to UTC, naive timestamps are taken as UTC
    assert parse_rfc3339("2013-12-10T10:00:00+01:00") == T1
    assert parse_rfc3339("2013-12-10T09:00:00") == T1
    with pytest.raises(ParseError):
        parse_rfc3339("not a time")


@pytest.mark.parametrize("value", [None, 12, ["2013-12-10T09:00:00Z"], {"t": 1}])
def test_parse_rfc3339_non_string_is_parse_error(value):
    # an unhashable value must not reach the memo, which would raise TypeError
    with pytest.raises(ParseError) as exc:
        parse_rfc3339(value)
    assert exc.value.field == "fetched_at"


@pytest.mark.parametrize("text", ["9999-12-31T23:59:59-01:00", "0001-01-01T00:00:00+01:00"])
def test_parse_rfc3339_instant_past_the_range_is_parse_error(text):
    # valid text whose offset moves the instant outside the datetime range
    with pytest.raises(ParseError) as exc:
        parse_rfc3339(text)
    assert exc.value.field == "fetched_at"


def test_rfc3339_memo_formats_each_instant_in_utc():
    naive = datetime(2013, 12, 10, 9, 0, 0)
    plus_one = timezone(timedelta(hours=1))
    assert format_rfc3339(naive) == "2013-12-10T09:00:00Z"
    assert format_rfc3339(T1.astimezone(plus_one)) == "2013-12-10T09:00:00Z"
    assert format_rfc3339(naive.replace(tzinfo=plus_one)) == "2013-12-10T08:00:00Z"
    assert parse_rfc3339("2013-12-10T09:00:00Z") is parse_rfc3339("2013-12-10T09:00:00Z")


def test_parse_video_item_full():
    s = parsed(item("vid00000001", views=5000, comments=7), T1)
    assert s.video_id == "vid00000001"
    assert s.views == 5000
    assert s.comments == 7
    assert s.comments_enabled is True
    assert s.category == "News"
    assert s.fetched_at == T1


def test_parse_video_item_disabled_comments():
    s = parsed(item("vid00000001", comments=None), T1)
    assert s.comments is None
    assert s.comments_enabled is False


def test_parse_video_item_unknown_category():
    s = parsed(item("vid00000001", category_id="77"), T1)
    assert s.category == "Category 77"


def test_parse_video_item_errors():
    with pytest.raises(ParseError) as exc:
        parsed({"statistics": {"viewCount": "1"}}, T1)
    assert exc.value.field == "video_id"
    with pytest.raises(ParseError) as exc:
        parsed({"id": "x", "statistics": {}}, T1)
    assert exc.value.field == "views"
    with pytest.raises(ParseError) as exc:
        parsed(item("x", views="many"), T1)
    assert exc.value.field == "views"


def test_parse_video_item_rejects_non_object():
    with pytest.raises(ParseError, match="item is not a JSON object"):
        parsed(1, T1)


def test_parse_video_item_negative_count_passes_with_warning():
    bad = item("vid00000001")
    bad["statistics"]["likeCount"] = "-4"
    with pytest.warns(EngageWarning, match="negative"):
        s = parsed(bad, T1)
    assert s.likes == -4


def test_parse_video_item_count_bound():
    edge = item("vid00000001")
    edge["statistics"]["viewCount"] = "18446744073709551615"
    assert parsed(edge, T1).views == 2**64 - 1
    for raw in ("18446744073709551616", "-18446744073709551616", float("inf")):
        over = item("vid00000001")
        over["statistics"]["viewCount"] = raw
        with pytest.raises(ParseError) as exc:
            parsed(over, T1)
        assert exc.value.field == "views"


def test_parse_video_item_null_count_is_hidden():
    hidden = item("vid00000001")
    hidden["statistics"]["likeCount"] = None
    assert parsed(hidden, T1).likes is None
    no_views = item("vid00000001")
    no_views["statistics"]["viewCount"] = None
    with pytest.raises(ParseError) as exc:
        parsed(no_views, T1)
    assert exc.value.field == "views"


@pytest.mark.parametrize("key, field", [("viewCount", "views"), ("likeCount", "likes"),
                                        ("dislikeCount", "dislikes"),
                                        ("commentCount", "comments")])
@pytest.mark.parametrize("value, count", [
    ("7", 7), (7, 7),  # the API's decimal string, and a JSON int
    (3.7, None), (1e3, None), (7.0, None), (True, None), (False, None),
    # only ASCII digits, with a leading minus at most: int() takes more than that
    ("1_000", None), (" 12 ", None), ("+5", None), ("\u0663\u0663", None), ("", None),
    ("-", None), ("-5", -5),  # a negative count is stored, with a warning
])
def test_parse_video_item_takes_a_count_only_as_an_int_or_a_string(key, field, value, count):
    # a float is never truncated and a bool never read as 0 or 1, as at the store boundary
    api_item = item("vid00000001")
    api_item["statistics"][key] = value
    if count is not None:
        with warned() as caught:
            assert getattr(parsed(api_item, T1), field) == count
        assert texts(caught) == (
            [f"video vid00000001: negative {field} count {count}"] if count < 0 else [])
        return
    message = f"{field} is not a 64-bit count: {re.escape(repr(value))}$"
    with pytest.raises(ParseError, match=message) as exc:
        parsed(api_item, T1)
    assert exc.value.field == field


def test_parse_video_item_refuses_a_count_past_the_digit_limit():
    # int() refuses a string of more than 4300 digits; so does the 64-bit check
    api_item = item("vid00000001", views="1" * 5000)
    with pytest.raises(ParseError, match="views is not a 64-bit count: '1111") as exc:
        parsed(api_item, T1)
    assert exc.value.field == "views"


def test_page_with_non_string_timestamp_is_parse_error(tmp_path):
    write_page(tmp_path, "sweep1_page1", [item("a000000000a")], recorded_at=12)
    with pytest.raises(ParseError) as exc:
        list(collect_sweeps(fixture_sweeps(tmp_path, 1)))
    assert exc.value.field == "fetched_at"


@pytest.mark.parametrize("recorded_at", [0, False, "", [], {}])
def test_page_with_falsy_timestamp_is_parse_error(tmp_path, recorded_at):
    # only an absent or null recordedAt means "stamp with the current time"
    payload = {"items": [item("a000000000a")], "recordedAt": recorded_at}
    (tmp_path / "sweep1_page1.json").write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        list(collect_sweeps(fixture_sweeps(tmp_path, 1)))
    assert exc.value.field == "fetched_at"


def test_page_with_null_timestamp_is_stamped_now(tmp_path):
    payload = {"items": [item("a000000000a")], "recordedAt": None}
    (tmp_path / "sweep1_page1.json").write_text(json.dumps(payload), encoding="utf-8")
    before = datetime.now(timezone.utc).replace(microsecond=0)
    [snapshot] = swept(fixture_sweeps(tmp_path, 1))
    assert before <= snapshot.fetched_at <= datetime.now(timezone.utc)


def test_fixture_transport_pages(tmp_path):
    write_page(tmp_path, "sweep1_page1", [item("a000000000a")], next_token="sweep1_page2")
    write_page(tmp_path, "sweep1_page2", [item("b000000000b")])
    transport = FixtureTransport(tmp_path, sweep=1)

    assert transport.get_page({})["nextPageToken"] == "sweep1_page2"
    assert "nextPageToken" not in transport.get_page({"pageToken": "sweep1_page2"})
    page1, page2 = collect_sweeps([transport])
    assert [s.video_id for s in page_snapshots(page1)] == ["a000000000a"]
    assert [s.video_id for s in page_snapshots(page2)] == ["b000000000b"]


@pytest.mark.parametrize("token", [".", "..", "../x", "/x", "a/b", "a\\b", "a\0b"])
def test_fixture_transport_takes_only_a_plain_file_stem(tmp_path, token, monkeypatch):
    opened = []
    monkeypatch.setattr(ingestion, "open", lambda *a, **k: opened.append(a), raising=False)
    with pytest.raises(ParseError, match="bad nextPageToken for a fixture page") as exc:
        FixtureTransport(tmp_path).get_page({"pageToken": token})
    assert exc.value.field == "nextPageToken" and opened == []


def test_fixture_transport_takes_a_stem_with_dots(tmp_path):
    write_page(tmp_path, "...", [item("a000000000a")])
    page = FixtureTransport(tmp_path).get_page({"pageToken": "..."})
    assert page["items"][0]["id"] == "a000000000a"


def test_fixture_transport_missing_page(tmp_path):
    with pytest.raises(TransportError):
        FixtureTransport(tmp_path).get_page({})


@pytest.mark.parametrize("data, message", [
    (DEEP.encode(), "widget {path} is not valid JSON: "),
    (b"{", "widget {path} is not valid JSON: "),
    (b"\xff{}", "widget {path} is not valid JSON: "),
    (b"[1]", "widget {path} is not a JSON object"),
    (None, "cannot read widget {path}: "),  # no file
])
def test_read_json_object_raises_the_callers_error(tmp_path, data, message):
    path = tmp_path / "in.json"
    if data is not None:
        path.write_bytes(data)
    with pytest.raises(ConfigError) as exc:
        read_json_object(path, ConfigError, "widget")
    assert str(exc.value).startswith(message.format(path=path))


def test_collect_sweeps_follows_tokens(tmp_path):
    write_page(tmp_path, "sweep1_page1", [item("a000000000a")], next_token="sweep1_page2")
    write_page(tmp_path, "sweep1_page2", [item("b000000000b")])
    snaps = swept(fixture_sweeps(tmp_path, 1))
    assert [s.video_id for s in snaps] == ["a000000000a", "b000000000b"]


def test_collect_sweeps_respects_max_pages(tmp_path, monkeypatch):
    # page 1 points to page 2, but MAX_PAGES=1 stops the walk first, and says so
    monkeypatch.setattr(ingestion, "MAX_PAGES", 1)
    write_page(tmp_path, "sweep1_page1", [item("a000000000a")], next_token="sweep1_page2")
    write_page(tmp_path, "sweep1_page2", [item("b000000000b")])
    with warned() as caught:
        snaps = swept(fixture_sweeps(tmp_path, 1))
    assert len(snaps) == 1
    assert texts(caught) == ["sweep 1: stopped after MAX_PAGES = 1 pages with a nextPageToken"
                             " left; the later pages are not fetched"]


def test_fixture_pages_keep_recorded_timestamps(tmp_path):
    write_page(tmp_path, "sweep1_page1", [item("a000000000a")],
               recorded_at="2013-12-13T09:00:00Z")
    snaps = swept(fixture_sweeps(tmp_path, 1))
    assert snaps[0].fetched_at == T2


def test_dedup_latest_wins():
    first = snap("a", views=100, fetched_at=T1)
    later = snap("a", views=200, fetched_at=T2)
    other = snap("b", views=50, fetched_at=T1)
    unique = dedup_latest([first, other, later])
    assert [s.video_id for s in unique] == ["a", "b"]
    assert unique[0].views == 200


def test_dedup_equal_timestamps_keeps_later_read():
    unique = dedup_latest([snap("a", views=1), snap("a", views=2)])
    assert unique[0].views == 2


def _dedup_reference(snaps):
    """dedup_latest's contract without a dict: each id once, at its first
    position, holding its latest snapshot, the later-read one on a tie."""
    out = []
    for i, first in enumerate(snaps):
        if all(s.video_id != first.video_id for s in snaps[:i]):
            same = [s for s in snaps if s.video_id == first.video_id]
            latest = max(s.fetched_at for s in same)
            out.append([s for s in same if s.fetched_at == latest][-1])
    return out


@given(st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from([T1, T2])), max_size=12))
def test_dedup_latest_equals_reference_and_is_idempotent(drawn):
    # views = read position, so every snapshot is distinguishable
    snaps = [snap(vid, views=i, fetched_at=t) for i, (vid, t) in enumerate(drawn)]
    unique = dedup_latest(snaps)
    assert unique == _dedup_reference(snaps)
    assert len({s.video_id for s in unique}) == len(unique)
    assert dedup_latest(unique) == unique


def test_collect_sweeps_union_dedups_in_first_seen_order(tmp_path):
    write_page(tmp_path, "sweep1_page1", [item("a000000000a"), item("b000000000b")])
    write_page(tmp_path, "sweep2_page1", [item("b000000000b"), item("c000000000c")],
               recorded_at="2013-12-13T09:00:00Z")
    unique = dedup_latest(swept(fixture_sweeps(tmp_path, 2)))
    assert [s.video_id for s in unique] == [
        "a000000000a", "b000000000b", "c000000000c"
    ]


def test_select_study_sample_top_by_views():
    candidates = StudySample(snapshots=(
        snap("low", views=10),
        snap("high", views=1000),
        snap("mid", views=500),
        snap("disabled", views=99999, comments=None, comments_enabled=False),
    ))
    chosen = select_study_sample(candidates, n=2)
    assert [s.video_id for s in chosen.snapshots] == ["high", "mid"]
    assert "top 2 of 3 comment-enabled by views" in chosen.selection_note


def test_select_study_sample_tie_goes_to_lower_id():
    candidates = StudySample(snapshots=(snap("zz", views=100), snap("aa", views=100)))
    chosen = select_study_sample(candidates, n=1)
    assert chosen.snapshots[0].video_id == "aa"


@given(st.lists(st.tuples(st.sampled_from("abcdefghij"), st.integers(0, 3), st.booleans()),
                max_size=10, unique_by=lambda t: t[0]), st.integers(1, 12))
def test_select_study_sample_equals_full_sort(drawn, n):
    # few view values force ties, which the video id must break
    snaps = tuple(snap(vid, views=views, comments_enabled=enabled)
                  for vid, views, enabled in drawn)
    with warned() as caught:
        chosen = select_study_sample(StudySample(snapshots=snaps), n=n).snapshots
    eligible = [s for s in snaps if s.comments_enabled]
    assert chosen == tuple(sorted(eligible, key=lambda s: (-s.views, s.video_id))[:n])
    assert texts(caught) == (
        # with none eligible there is nothing to warn of; a caller's error says so
        [f"only {len(eligible)} eligible videos for requested n={n}"]
        if 0 < len(eligible) < n else [])


def test_select_study_sample_shortfall_noted():
    candidates = StudySample(snapshots=(snap("a", views=1), snap("b", views=2)))
    with pytest.warns(EngageWarning, match="eligible"):
        chosen = select_study_sample(candidates, n=10)
    assert len(chosen.snapshots) == 2
    assert "shortfall: requested 10" in chosen.selection_note


def test_select_study_sample_rejects_bad_n():
    with pytest.raises(ConfigError):
        select_study_sample(StudySample(snapshots=()), n=0)


def test_store_round_trip_preserves_fields(tmp_path):
    store = tmp_path / "snaps.jsonl"
    original = snap("vid00000001", views=123, likes=None, dislikes=7,
                    comments=None, comments_enabled=False, category="Comedy")
    assert store_snapshots(store, [original]) == 1
    loaded = load_snapshots(store)
    assert loaded.snapshots == (original,)


def test_store_line_is_json_dumps_of_the_record(tmp_path):
    store = tmp_path / "snaps.jsonl"
    snaps = [snap("a", category="Música ✓ 音楽"), snap("b", likes=None, comments=None,
                                                      comments_enabled=False)]
    store_snapshots(store, snaps)
    expected = "".join(json.dumps(snapshot_to_record(s), ensure_ascii=False) + "\n"
                       for s in snaps)
    assert store.read_bytes() == expected.encode("utf-8")


# Values a hand-built snapshot may hold where the parser would only put an int or a str.
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-MAX_COUNT, MAX_COUNT),
    st.sampled_from([-MAX_COUNT, MAX_COUNT, 0, 1, -1, 2**64, 0.0, -0.0, 1.0]),
    st.floats(allow_nan=True, allow_infinity=True), st.text(),
)
# non-ASCII, control characters, quotes, backslashes and lone surrogates
TEXT = st.one_of(st.text(), st.text(alphabet='"\\\x00\x1f\x7f\u2028é音\ud800 '))


EPOCH = datetime(1, 1, 1, tzinfo=timezone.utc)  # earlier than or equal to any fetched_at
API_COUNTS = st.one_of(st.integers(-MAX_COUNT, MAX_COUNT),
                       st.sampled_from([0, MAX_COUNT, -MAX_COUNT]))
# a hand-built snapshot's field may hold anything; the offsets move the earliest and
# latest datetimes out of range in UTC
ANY_VALUE = {
    "video_id": st.one_of(TEXT, JSON_SCALARS),
    "fetched_at": st.one_of(
        st.datetimes(timezones=st.sampled_from(
            [timezone.utc, timezone(-timedelta(hours=5)), timezone(timedelta(hours=1))])),
        st.datetimes(), JSON_SCALARS,
        st.sampled_from([datetime(1, 1, 1, 0, 30, tzinfo=timezone(timedelta(hours=1))),
                         datetime.max.replace(tzinfo=timezone(-timedelta(hours=5)))])),
    **dict.fromkeys(["views", "likes", "dislikes", "comments", "comments_enabled"], JSON_SCALARS),
    "category": st.one_of(TEXT, JSON_SCALARS),
}


@st.composite
def hand_built_snapshots(draw):
    """A snapshot of fields the store accepts, with up to two of them swapped for any
    value, so that both stored and refused snapshots are common."""
    text = st.text()  # no lone surrogates
    fields = {
        "video_id": draw(text.filter(bool)),
        "fetched_at": draw(st.datetimes(timezones=st.just(timezone.utc))),
        "views": draw(API_COUNTS),
        **{name: draw(st.one_of(st.none(), API_COUNTS))
           for name in ("likes", "dislikes", "comments")},
        "comments_enabled": draw(st.booleans()),
        "category": draw(text),
    }
    for name in draw(st.lists(st.sampled_from(list(ANY_VALUE)), max_size=2)):
        fields[name] = draw(ANY_VALUE[name])
    return VideoStatsSnapshot(**fields)


@settings(derandomize=True, max_examples=200)
@given(hand_built_snapshots())
def test_store_line_template_equals_json_dumps(s):
    # a hand-built snapshot is either refused whole or stored as a record a strict load reads
    with tempfile.TemporaryDirectory() as directory, warned() as caught:
        store = Path(directory) / "snaps.jsonl"
        store_snapshots(store, [snap("seed", fetched_at=EPOCH)])
        before = store.read_bytes()
        try:
            store_snapshots(store, [s])
        except ParseError:
            assert store.read_bytes() == before
            return
        stored = texts(caught)
        stored_at = parse_rfc3339(format_rfc3339(s.fetched_at))
        expected = VideoStatsSnapshot(
            *ingestion._snapshot_values(*s._replace(fetched_at=stored_at)))
        line = json.dumps(snapshot_to_record(expected), ensure_ascii=False) + "\n"
        assert store.read_bytes() == before + line.encode("utf-8")
        # the seed is no later, so the drawn record is kept even when the ids agree
        assert load_snapshots(store).snapshots[-1] == expected
        # the store and the load give no warning that the check alone does not
        assert set(texts(caught)) == set(stored)


@pytest.mark.parametrize("field, value", [
    ("video_id", ""), ("video_id", 7), ("views", 1.5), ("views", True), ("views", 2**70),
    ("likes", "3"), ("comments_enabled", 1), ("category", None),
    ("fetched_at", "2013-12-10T09:00:00Z"), ("fetched_at", [T1]),
    ("fetched_at", datetime(1, 1, 1, 0, 30, tzinfo=timezone(timedelta(hours=1)))),
])
def test_store_refuses_an_invalid_snapshot_and_writes_none_of_its_page(tmp_path, field, value):
    store = tmp_path / "snaps.jsonl"
    store_snapshots(store, [snap("a")])
    before = store.read_bytes()
    with pytest.raises(ParseError) as exc:
        store_snapshots(store, [snap("b"), snap("c")._replace(**{field: value})])
    assert exc.value.field == field
    assert store.read_bytes() == before


ABSENT = object()  # a statistics key the item leaves out
# any text a parsed item can hold: everything but lone surrogates
API_TEXT = st.text(st.characters(blacklist_categories=("Cs",)))


@st.composite
def api_items(draw):
    """An API item with hidden counters (null or absent), disabled comments
    (no commentCount), counts up to 2**64 - 1 in magnitude as text or number,
    and known, unknown or non-ASCII category ids."""
    stats = {}
    for key, hidden in (("viewCount", st.nothing()), ("likeCount", st.sampled_from([None, ABSENT])),
                        ("dislikeCount", st.sampled_from([None, ABSENT])),
                        ("commentCount", st.sampled_from([None, ABSENT]))):
        value = draw(st.one_of(hidden, API_COUNTS.map(str), API_COUNTS))
        if value is not ABSENT:
            stats[key] = value
    result = {"id": draw(API_TEXT.filter(bool)), "statistics": stats}
    category_id = draw(st.one_of(st.sampled_from([ABSENT, "25", "10", 24]), API_TEXT))
    if category_id is not ABSENT:
        result["snippet"] = {"categoryId": category_id}
    return result


@settings(derandomize=True, max_examples=60)
@given(items=st.lists(api_items(), min_size=1, max_size=6), split=st.integers(0, 6),
       recorded_at=st.sampled_from(["2013-12-10T09:00:00Z", "2013-12-10T10:30:00+01:30",
                                    "2013-12-10T09:00:00"]))
def test_fetch_writes_json_dumps_of_each_parsed_item(items, split, recorded_at):
    # two pages through one open store; each line is the record of the item's snapshot
    fetched_at = parse_rfc3339(recorded_at)
    with warned() as caught:
        built = [parsed(i, fetched_at) for i in items]
    # the fetch gives the same warnings, one stderr line each
    printed = "".join(f"warning: {text}\n" for text in texts(caught))
    expected = "".join(json.dumps(snapshot_to_record(s), ensure_ascii=False) + "\n"
                       for s in built).encode("utf-8")
    with tempfile.TemporaryDirectory() as directory:
        fixture = Path(directory)
        write_page(fixture, "sweep1_page1", items[:split], next_token="sweep1_page2",
                   recorded_at=recorded_at)
        write_page(fixture, "sweep1_page2", items[split:], recorded_at=recorded_at)
        store = fixture / "fetched.jsonl"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["fetch", "--offline", directory, "--store", str(store)]) == 0
        assert store.read_bytes() == expected
        assert err.getvalue() == printed
        # a comment count that a disabled section contradicts is stored as null
        stray = [s._replace(comments=7) for s in built if not s.comments_enabled]
        direct = fixture / "stored.jsonl"
        with warned() as caught:
            assert store_snapshots(direct, built + stray) == len(built) + len(stray)
        assert [text for text in texts(caught) if "commenting disabled" in text] == [
            f"video {s.video_id}: comment count 7 with commenting disabled; dropping count"
            for s in stray]
        assert direct.read_bytes() == expected + "".join(
            json.dumps({**snapshot_to_record(s), "comments": None}, ensure_ascii=False) + "\n"
            for s in stray
        ).encode("utf-8")


# what a plain item's count may be: the text of a count of 1 to 19 digits
PLAIN_COUNTS = st.one_of(st.integers(0, 10**19 - 1), st.sampled_from([0, 9, 10**19 - 1])).map(str)


@st.composite
def plain_items(draw):
    """API items that the fetch writes straight from their strings: ASCII ids (quotes,
    backslashes and control characters included), known category ids, and counts as
    digit strings, hidden (null or absent) but for the view count."""
    stats = {"viewCount": draw(PLAIN_COUNTS)}
    for key in ("likeCount", "dislikeCount", "commentCount"):
        value = draw(st.one_of(PLAIN_COUNTS, st.sampled_from([None, ABSENT])))
        if value is not ABSENT:
            stats[key] = value
    return {"kind": "youtube#video",
            "id": draw(st.one_of(st.text(st.characters(max_codepoint=127), min_size=1),
                                 st.sampled_from(["a000000000a", '"', "\\", "a\x00b"]))),
            "snippet": {"categoryId": draw(st.sampled_from(sorted(ingestion.CATEGORY_LABELS)))},
            "statistics": stats}


# (path, value) edits of a plain item; ABSENT deletes the key at the path
COUNT_KEYS = ("viewCount", "likeCount", "dislikeCount", "commentCount")
ITEM_EDITS = [
    *((("statistics", key), value) for key in COUNT_KEYS for value in [
        7, 0, 7.0, 1.5, True, False, None, ABSENT, "007", "00", "0", "-5", "-0", "", "1_000",
        " 12 ", "+5", "\u0663\u0663", "\u00b2", "9" * 19, "1" + "0" * 19, str(MAX_COUNT),
        str(MAX_COUNT + 1), "1" * 5000, [], {}]),
    (("statistics",), ABSENT), (("statistics",), None), (("statistics",), []),
    (("statistics",), "x"), (("statistics",), 5),
    (("snippet",), ABSENT), (("snippet",), None), (("snippet",), ["25"]), (("snippet",), "25"),
    (("snippet", "categoryId"), ABSENT), (("snippet", "categoryId"), 25),
    (("snippet", "categoryId"), "77"), (("snippet", "categoryId"), ""),
    (("snippet", "categoryId"), None), (("snippet", "categoryId"), []),
    (("snippet", "categoryId"), "News"),
    *((("id",), value) for value in [
        '"', "\\", "a\"b", "\x00", "a\nb", "\x7f", "é", "音", "\u2028", "\ud800", "",
        7, None, ABSENT, ["a"]]),
    ((), 1), ((), None), ((), []), ((), "item"),
]


def _edited(item, path, value):
    """A copy of ``item`` with the value at ``path`` replaced, or deleted for ABSENT."""
    if not path:
        return value
    item = copy.deepcopy(item)
    parent = item
    for key in path[:-1]:
        if not isinstance(parent, dict):
            return item
        parent = parent.get(key)
    if not isinstance(parent, dict):
        return item
    if value is ABSENT:
        parent.pop(path[-1], None)
    else:
        parent[path[-1]] = value
    return item


def _page_outcome(encode, items, fetched_at):
    """The page that ``encode`` gives, or its ParseError's message and field, and
    the warnings given on the way."""
    with warned() as caught:
        try:
            return encode(items, fetched_at), texts(caught)
        except ParseError as exc:
            return ("ParseError", str(exc), exc.field), texts(caught)


def _general_page(items, fetched_at):
    """The page through the field checks alone: ``_record_line(_item_values(item))``."""
    return ingestion._rows_page([ingestion._item_values(item, fetched_at) for item in items])


def _assert_fetch_writes_as_the_general_path(items, fetched_at=T1):
    fetched = _page_outcome(ingestion._api_page, items, fetched_at)
    assert fetched == _page_outcome(_general_page, items, fetched_at)


@settings(derandomize=True, max_examples=300)
@given(items=st.lists(plain_items(), min_size=1, max_size=4),
       fetched_at=st.sampled_from([T1, T2, datetime(2013, 12, 10, 10, 30, 5, 123456,
                                                    tzinfo=timezone(timedelta(hours=1)))]))
def test_a_plain_item_is_written_straight_from_its_strings(items, fetched_at):
    head = f', "fetched_at": "{format_rfc3339(fetched_at)}", "views": '
    assert all(ingestion._plain_line(item, head) is not None for item in items)
    _assert_fetch_writes_as_the_general_path(items, fetched_at)


@settings(derandomize=True, max_examples=300)
@given(items=st.lists(plain_items(), min_size=1, max_size=3),
       edits=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(ITEM_EDITS)),
                      min_size=1, max_size=3))
def test_an_edited_item_is_written_as_the_general_path_writes_it(items, edits):
    # the same line bytes, or the same ParseError, and the same warnings
    for at, (path, value) in edits:
        items[at % len(items)] = _edited(items[at % len(items)], path, value)
    _assert_fetch_writes_as_the_general_path(items)


@pytest.mark.parametrize("path, value", ITEM_EDITS)
def test_each_item_edit_is_written_as_the_general_path_writes_it(path, value):
    plain = item("a000000000a", views=123, likes=0, dislikes=10**18, comments=7)
    _assert_fetch_writes_as_the_general_path([plain, _edited(plain, path, value)])


def test_plain_items_are_not_sent_through_the_field_checks(monkeypatch):
    items = [item("a000000000a", views=0, comments=None),
             item("b000000000b", views=10**19 - 1, likes=None, category_id="1")]
    del items[1]["statistics"]["likeCount"]
    expected = _general_page(items, T1)

    def refuse(item, fetched_at):
        raise AssertionError(f"sent through the field checks: {item!r}")

    monkeypatch.setattr(ingestion, "_item_values", refuse)
    assert ingestion._api_page(items, T1) == expected


def test_store_page_that_cannot_be_encoded_writes_nothing(tmp_path):
    store = tmp_path / "snaps.jsonl"
    store_snapshots(store, [snap("a")])
    before = store.read_bytes()
    with pytest.raises(ParseError):
        store_snapshots(store, [snap("b"), snap("c", category="\ud800")])
    assert store.read_bytes() == before


def _old_count_check(record):
    """The per-count validation before the one-test fast path, as a reference."""
    for field in ("views", "likes", "dislikes", "comments"):
        value = record.get(field)
        if value is None and field != "views":
            continue
        if type(value) is not int or abs(value) > MAX_COUNT:
            return ("error", field,
                    f"video {record['video_id']}: {field} is not a 64-bit count: {value!r}")
    return ("ok", [f for f in ("views", "likes", "dislikes", "comments")
                   if type(record.get(f)) is int and record[f] < 0])


NEAR_BOUNDS = st.one_of(
    st.sampled_from([None, True, False, 0, 1, -1, MAX_COUNT, MAX_COUNT + 1, -MAX_COUNT,
                     -MAX_COUNT - 1, 2**63, -(2**63), 10**200, 0.0, 1.5, "7"]),
    st.integers(MAX_COUNT - 2, MAX_COUNT + 2), st.integers(-MAX_COUNT - 2, -MAX_COUNT + 2),
)


@given(st.lists(NEAR_BOUNDS, min_size=4, max_size=4))
def test_count_check_accepts_rejects_and_warns_as_before(counts):
    record = snapshot_to_record(snap("vid00000001"))
    record.update(zip(("views", "likes", "dislikes", "comments"), counts))
    expected = _old_count_check(record)
    with warned() as caught:
        try:
            restored = snapshot_from_record(record)
        except ParseError as exc:
            assert expected == ("error", exc.field, str(exc))
            return
    assert expected[0] == "ok"
    assert texts(caught) == [
        f"video vid00000001: negative {field} count {record[field]}" for field in expected[1]]
    assert (restored.views, restored.likes, restored.dislikes, restored.comments) == tuple(counts)


def test_store_record_field_set_is_exact():
    record = snapshot_to_record(snap("vid00000001"))
    assert list(record) == [
        "video_id", "fetched_at", "views", "likes", "dislikes",
        "comments", "comments_enabled", "category",
    ]
    assert record["fetched_at"] == "2013-12-10T09:00:00Z"


def test_record_unknown_fields_ignored():
    record = snapshot_to_record(snap("vid00000001"))
    record["future_field"] = {"x": 1}
    restored = snapshot_from_record(record)
    assert restored.video_id == "vid00000001"


def test_record_validation_errors():
    good = snapshot_to_record(snap("vid00000001"))
    for field, bad in [
        ("video_id", ""), ("fetched_at", 12), ("views", None),
        ("views", "1e3"), ("likes", 1.5), ("comments_enabled", "yes"),
        ("category", 7),
    ]:
        record = dict(good)
        record[field] = bad
        with pytest.raises(ParseError):
            snapshot_from_record(record)
    with pytest.raises(ParseError):
        snapshot_from_record("not a dict")


def test_record_count_bound():
    edge = snapshot_to_record(snap("vid00000001", views=2**64 - 1, likes=-(2**64 - 1)))
    with pytest.warns(EngageWarning, match=f"negative likes count {-(2**64 - 1)}"):
        restored = snapshot_from_record(edge)
    assert (restored.views, restored.likes) == (2**64 - 1, -(2**64 - 1))
    for field in ("views", "likes", "dislikes", "comments"):
        for bad in (2**64, -(2**64), 10**200):
            record = snapshot_to_record(snap("vid00000001"))
            record[field] = bad
            with pytest.raises(ParseError) as exc:
                snapshot_from_record(record)
            assert exc.value.field == field


def test_record_negative_count_loads_with_warning():
    record = snapshot_to_record(snap("vid00000001"))
    record["likes"] = -4
    with pytest.warns(EngageWarning, match="negative"):
        restored = snapshot_from_record(record)
    assert restored.likes == -4


def test_record_zero_comments_with_commenting_disabled_loads_as_null():
    record = snapshot_to_record(snap("vid00000001", comments=0, comments_enabled=False))
    assert record["comments"] == 0
    with warned() as caught:
        restored = snapshot_from_record(record)
    assert restored.comments is None
    assert not caught


def test_store_appends_and_dedups_on_read(tmp_path):
    store = tmp_path / "snaps.jsonl"
    store_snapshots(store, [snap("a", views=1, fetched_at=T1)])
    store_snapshots(store, [snap("a", views=2, fetched_at=T2), snap("b", views=3)])
    assert len(store.read_text().splitlines()) == 3
    loaded = load_snapshots(store)
    assert len(loaded.snapshots) == 2
    assert loaded.snapshots[0].views == 2
    assert "3 records" in loaded.selection_note


def test_load_strict_names_the_bad_line(tmp_path):
    store = tmp_path / "snaps.jsonl"
    store_snapshots(store, [snap("a")])
    with open(store, "a", encoding="utf-8") as f:
        f.write("{broken\n")
    with pytest.raises(StorageError) as exc:
        load_snapshots(store)
    assert "line 2" in str(exc.value)


def test_load_lenient_skips_and_counts(tmp_path):
    store = tmp_path / "snaps.jsonl"
    store_snapshots(store, [snap("a")])
    with open(store, "a", encoding="utf-8") as f:
        f.write("{broken\n")
    store_snapshots(store, [snap("b")])
    with pytest.warns(EngageWarning, match="line 2 skipped"):
        loaded = load_snapshots(store, lenient=True)
    assert len(loaded.snapshots) == 2
    assert "1 malformed line(s) skipped" in loaded.selection_note


def _store_with_non_utf8_line(tmp_path):
    # CRLF line ends and a blank line 2: the bad line is still line 3
    good = [json.dumps(snapshot_to_record(snap(v))).encode() + b"\r\n" for v in "ab"]
    store = tmp_path / "snaps.jsonl"
    store.write_bytes(good[0] + b"\r\n" + b"\xff\xfe{}\r\n" + good[1])
    return store


def test_load_strict_names_a_non_utf8_line(tmp_path):
    with pytest.raises(StorageError) as exc:
        load_snapshots(_store_with_non_utf8_line(tmp_path))
    assert "line 3" in str(exc.value)
    assert "utf-8" in str(exc.value)


def test_load_lenient_skips_a_non_utf8_line(tmp_path):
    with pytest.warns(EngageWarning, match="line 3"):
        loaded = load_snapshots(_store_with_non_utf8_line(tmp_path), lenient=True)
    assert [s.video_id for s in loaded.snapshots] == ["a", "b"]
    assert "1 malformed line(s) skipped" in loaded.selection_note


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c", "é"]), st.sampled_from([T1, T2]),
                          st.sampled_from(["\n", "\r\n"]), st.sampled_from(["", "\n", " \r\n"])),
                max_size=10),
       st.integers(0, 9), st.booleans())
def test_load_equals_dedup_of_every_non_blank_line(drawn, tie, unterminated):
    if drawn:  # one more record of a drawn id at its drawn time: a tie the later one wins
        drawn = [*drawn, drawn[tie % len(drawn)]]
    # views = write position, so every record is distinguishable
    text = "".join(json.dumps(snapshot_to_record(snap(vid, views=i, fetched_at=t)),
                              ensure_ascii=False) + end + blank
                   for i, (vid, t, end, blank) in enumerate(drawn))
    if unterminated:
        text = text.rstrip("\r\n")  # a valid final record without its line end
    lines = [line for line in text.split("\n") if line.strip()]
    records = [snapshot_from_record(json.loads(line)) for line in lines]
    expected = _dedup_reference(records)
    assert dedup_latest(records) == expected
    with tempfile.TemporaryDirectory() as directory:
        store = Path(directory) / "snaps.jsonl"
        store.write_bytes(text.encode("utf-8"))
        loaded = load_snapshots(store)
    assert loaded.snapshots == tuple(expected)
    assert loaded.selection_note == (
        f"loaded {len(lines)} records from snaps.jsonl, {len(expected)} unique ids")


def test_load_warns_once_for_each_record_a_later_one_supersedes(tmp_path):
    store = tmp_path / "snaps.jsonl"
    # written by hand: store_snapshots would drop b's comment count, and warn, before the load
    store.write_text("".join(
        json.dumps(snapshot_to_record(s)) + "\n"
        for s in [snap("a", likes=-4), snap("b", comments=7, comments_enabled=False), snap("c")]
    ), encoding="utf-8")
    store_snapshots(store, [snap(v, views=2, fetched_at=T2) for v in "abc"])
    with warned() as caught:
        loaded = load_snapshots(store)
    assert [(s.video_id, s.views) for s in loaded.snapshots] == [("a", 2), ("b", 2), ("c", 2)]
    assert [(w.category, str(w.message)) for w in caught] == [
        (EngageWarning, "video a: negative likes count -4"),
        (EngageWarning, "video b: comment count 7 with commenting disabled; dropping count"),
    ]


def test_load_skips_a_torn_tail_cut_at_any_byte(tmp_path):
    earlier = [snap("a", views=1), snap("b", views=2)]
    last = snap("c", views=3, category="Música ✓ 音楽")  # multi-byte UTF-8
    full = "".join(json.dumps(snapshot_to_record(s), ensure_ascii=False) + "\n"
                   for s in [*earlier, last]).encode("utf-8")
    start = full.rindex(b"\n", 0, -1) + 1
    assert any(byte >= 0x80 for byte in full[start:])
    store = tmp_path / "snaps.jsonl"
    for cut in range(start, len(full)):
        store.write_bytes(full[:cut])
        with warned() as caught:
            loaded = load_snapshots(store)
        if cut == len(full) - 1:  # a whole record without its line end is kept
            assert loaded.snapshots == (*earlier, last)
        else:
            assert loaded.snapshots == tuple(earlier)
        torn = start < cut < len(full) - 1
        assert loaded.selection_note.endswith(", 1 torn final line skipped") == torn
        assert any("torn final line" in text for text in texts(caught)) == torn
    store.write_bytes(full[:-5])
    with pytest.warns(EngageWarning, match="snaps.jsonl line 3: torn final line skipped"):
        loaded = load_snapshots(store, lenient=True)
    assert loaded.selection_note == (
        "loaded 2 records from snaps.jsonl, 2 unique ids, 1 torn final line skipped")


def test_append_repairs_a_torn_tail_cut_at_any_byte(tmp_path):
    earlier = [snap("a", views=1), snap("b", views=2)]
    last = snap("c", views=3, category="Música ✓ 音楽")  # multi-byte UTF-8
    page = [snap("d", views=4), snap("a", views=5, fetched_at=T2)]
    full = "".join(record_line(s) for s in [*earlier, last]).encode("utf-8")
    start = full.rindex(b"\n", 0, -1) + 1
    store = tmp_path / "snaps.jsonl"
    for cut in range(start, len(full) + 1):
        store.write_bytes(full[:cut])
        with warned() as caught:
            store_snapshots(store, page)
        loaded = load_snapshots(store)  # strict: every line is a whole record
        kept = [last] if cut >= len(full) - 1 else []
        assert loaded.snapshots == (page[1], earlier[1], *kept, page[0])
        dropped = start < cut < len(full) - 1
        warning = f"snaps.jsonl: torn final line of {cut - start} bytes dropped before appending: "
        assert [text.startswith(warning) for text in texts(caught)] == (
            [True] if dropped else [])


@pytest.mark.parametrize("tail_length", [4095, 4096, 4097])
def test_append_finds_a_line_end_on_a_read_back_chunk_boundary(tmp_path, tail_length):
    # the tail is read back in 4096-byte chunks; at 4096 the last line end is
    # the final byte of the second chunk, at 4095 the first byte of the first
    first = record_line(snap("a")).encode("utf-8")
    padding = "x" * (tail_length + 1 - len(record_line(snap("b", category=""))))
    whole = record_line(snap("b", category=padding)).encode("utf-8")[:-1]
    assert len(whole) == tail_length
    store = tmp_path / "snaps.jsonl"
    for tail, kept in ((whole, ["a", "b", "c"]), (b"y" * tail_length, ["a", "c"])):
        store.write_bytes(first + tail)
        with warned() as caught:
            store_snapshots(store, [snap("c")])
        assert [s.video_id for s in load_snapshots(store).snapshots] == kept
        warning = f"torn final line of {tail_length} bytes dropped"
        assert [warning in text for text in texts(caught)] == ([] if len(kept) == 3 else [True])


def test_load_treats_a_deeply_nested_line_as_malformed(tmp_path):
    store = tmp_path / "snaps.jsonl"
    store_snapshots(store, [snap("a")])
    with open(store, "a", encoding="utf-8") as f:
        f.write(DEEP + "\n")
    store_snapshots(store, [snap("b")])
    with pytest.raises(StorageError) as exc:
        load_snapshots(store)
    assert "line 2" in str(exc.value)
    with pytest.warns(EngageWarning, match="line 2 skipped"):
        loaded = load_snapshots(store, lenient=True)
    assert [s.video_id for s in loaded.snapshots] == ["a", "b"]
    assert "1 malformed line(s) skipped" in loaded.selection_note


def test_a_deeply_nested_torn_tail_is_skipped_then_cut(tmp_path):
    store = tmp_path / "snaps.jsonl"
    store_snapshots(store, [snap("a")])
    with open(store, "a", encoding="utf-8") as f:
        f.write(DEEP)
    with warned() as caught:
        assert load_snapshots(store).selection_note.endswith(", 1 torn final line skipped")
        store_snapshots(store, [snap("b")])
    assert [s.video_id for s in load_snapshots(store).snapshots] == ["a", "b"]
    assert any(f"torn final line of {len(DEEP)} bytes dropped" in text
               for text in texts(caught))


def test_load_missing_store_is_storage_error(tmp_path):
    with pytest.raises(StorageError):
        load_snapshots(tmp_path / "absent.jsonl")


# what a store line's text may hold: quotes, backslashes and control characters are
# escaped by the store, so they take the JSON path; no lone surrogates, which no line holds
STORE_TEXT = st.one_of(st.text(), st.text(alphabet='"\\\x00\x1f\x7f é音 aZ'),
                       st.sampled_from(["News", "Film", "Music", "Category 99"]))
STORE_COUNTS = st.one_of(st.integers(0, 10**19 - 1), st.integers(10**19, MAX_COUNT),
                         st.sampled_from([0, 1, 10**19 - 1, 10**19, MAX_COUNT]))
STAMPS = st.datetimes(timezones=st.just(timezone.utc)).map(
    lambda t: t.replace(microsecond=0, fold=0))  # as a store line gives it back


@st.composite
def stored_values(draw, ids=STORE_TEXT.filter(bool)):
    """The fields ``_snapshot_values`` gives for values it accepts, as a store holds them."""
    values = (draw(ids), draw(STAMPS), draw(STORE_COUNTS),
              *(draw(st.one_of(st.none(), STORE_COUNTS)) for _ in range(3)),
              draw(st.booleans()), draw(STORE_TEXT))
    with warned():  # a negative or dropped count: the warning is not what is drawn
        return ingestion._snapshot_values(*values)


def _reads_as_written(text):
    return not any(c in '"\\' or c < " " for c in text)


@settings(derandomize=True, max_examples=300)
@given(stored_values())
def test_canonical_pattern_reads_back_every_line_the_store_writes(values):
    line = ingestion._record_line(values)
    with warned() as caught:
        from_json = ingestion._record_values(json.loads(line))
    assert repr(from_json) == repr(values)
    # only a negative count warns: the comment count a disabled section held is gone
    assert texts(caught) == [f"video {values[0]}: negative {field} count {count}"
                             for field, count in zip(("views", "likes", "dislikes", "comments"),
                                                     values[2:6])
                             if count is not None and count < 0]
    matched = ingestion._canonical_match()(line)
    counts = [c for c in values[2:6] if c is not None]
    # a 20-digit count or an escaped character takes the JSON path
    assert (matched is not None) == (
        max(counts) < 10**19 and _reads_as_written(values[0]) and _reads_as_written(values[7]))
    if matched is not None:
        from_match = ingestion._matched_values(matched.groups())
        assert repr(from_match) == repr(values)
        if values[7] in ingestion._LABELS:  # a known label is its one str object
            assert from_match[7] is ingestion._LABELS[values[7]]
        with warned() as caught:  # the fields pass the check unchanged and without a warning
            assert ingestion._snapshot_values(*from_match) == from_match
        assert caught == []


# Values that a canonical line's field may be edited to: each fails the pattern or the
# date check, or reads the same on both paths.
FIELD_EDITS = {
    "video_id": ['""', '"\\u00e9"', '"\\ud800"', '"a\\"b"', '"\\n"', '"a\tb"', '"\x7f"', "7",
                 "null"],
    "fetched_at": ['"2014-02-30T09:00:00Z"', '"2014-01-01T09:00:00+00:00"',
                   '"9999-12-31T23:59:59Z"', '"0000-01-01T00:00:00Z"',
                   '"２０１４-01-01T09:00:00Z"', '"2014-01-01 09:00:00Z"', '"2014-13-01T09:00:00Z"'],
    "views": ["-1", "-0", "01", "1.0", "1e3", "null", "true", '"5"', str(MAX_COUNT),
              str(MAX_COUNT + 1), "9" * 20, "0"],
    "likes": ["-4", "null", str(MAX_COUNT), "9" * 20, "1.5"],
    "comments": ["7", "0", "null", "-7", str(MAX_COUNT)],
    "comments_enabled": ["false", "true", "null", "0", "1"],
    "category": ['"\\n"', '"News"', '"\\u0000"', '"\x1f"', "7", '"\\ud800"', '""'],
}
FIELD_EDIT_PAIRS = [(name, value) for name, values in FIELD_EDITS.items() for value in values]
EDIT_CHARACTERS = '"\\ ,:{}0123456789-.enultrfaTZ\n\r\t\x00é音 '


def _json_edit(line, edit):
    """``line`` rewritten by ``edit`` on its decoded object, or as it was when it is not
    one JSON object."""
    try:
        record = json.loads(line)
    except ValueError:
        return line
    if not isinstance(record, dict):
        return line
    return edit(record).encode("utf-8", "surrogatepass") + b"\n"  # a lone surrogate: not UTF-8


def _edit_field(line, name, value):
    """``line`` with the value after ``"name": `` up to the next ``, `` (or the closing
    brace) replaced by ``value``; as it was when the key is not there."""
    key = f'"{name}": '.encode()
    if key not in line:
        return line
    start = line.index(key) + len(key)
    end = start + min(len(line[start:].split(b", ")[0]), len(line[start:]) - 2)
    return line[:start] + value.encode("utf-8") + line[end:]


@st.composite
def edited_stores(draw):
    """Canonical store lines with one to three drawn edits applied."""
    ids = st.one_of(st.sampled_from(["a", "b", "é音"]), STORE_TEXT.filter(bool))
    lines = [ingestion._record_line(values).encode("utf-8")
             for values in draw(st.lists(stored_values(ids), min_size=1, max_size=4))]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        at = draw(st.integers(0, len(line)))
        char = draw(st.sampled_from(EDIT_CHARACTERS)).encode("utf-8")
        edit = draw(st.sampled_from(["insert", "delete", "replace", "field", "field", "field",
                                     "swap", "compact", "crlf", "blank", "bytes"]))
        if edit == "insert":
            line = line[:at] + char + line[at:]
        elif edit == "delete":
            line = line[:at] + line[at + 1:]
        elif edit == "replace":
            line = line[:at] + char + line[at + 1:]
        elif edit == "field":
            line = _edit_field(line, *draw(st.sampled_from(FIELD_EDIT_PAIRS)))
        elif edit == "swap":
            j, k = sorted(draw(st.lists(st.integers(0, 7), min_size=2, max_size=2, unique=True)))

            def swapped(record):
                items = list(record.items())
                if k < len(items):
                    items[j], items[k] = items[k], items[j]
                return json.dumps(dict(items), ensure_ascii=False)

            line = _json_edit(line, swapped)
        elif edit == "compact":
            line = _json_edit(line, lambda record: json.dumps(
                record, separators=(",", ":"), ensure_ascii=False))
        elif edit == "crlf":
            line = line.removesuffix(b"\n") + b"\r\n"
        elif edit == "blank":
            line = draw(st.sampled_from([b"\n", b"  \n", b"\r\n", b"\t\n"])) + line
        else:  # bytes that are not UTF-8
            line = line[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe9", b"\x80"])) + line[at:]
        lines[i] = line
    data = b"".join(lines)
    if draw(st.booleans()):  # a torn tail: the end of the store cut away
        data = data[:len(data) - draw(st.integers(1, max(1, len(lines[-1]))))]
    return data


def _load_outcome(store, lenient):
    """What ``_load_rows`` gives, its rows by their repr, or its StorageError, and the
    warnings given on the way."""
    with warned() as caught:
        try:
            rows, note = ingestion._load_rows(store, lenient)
            return repr(rows), note, texts(caught)
        except StorageError as exc:
            return "StorageError", str(exc), texts(caught)


def _assert_loads_as_the_json_path(data):
    with tempfile.TemporaryDirectory() as directory:
        store = Path(directory) / "snaps.jsonl"
        store.write_bytes(data)
        for lenient in (False, True):
            loaded = _load_outcome(store, lenient)
            # the reference: every line decoded as JSON and checked field by field
            with unittest.mock.patch.object(ingestion, "_canonical_match",
                                            lambda: lambda line: None):
                assert loaded == _load_outcome(store, lenient)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(edited_stores())
def test_load_equals_the_json_path_on_edited_canonical_lines(data):
    _assert_loads_as_the_json_path(data)


@pytest.mark.parametrize("name, value", FIELD_EDIT_PAIRS)
def test_load_equals_the_json_path_on_each_field_edit(name, value):
    line = record_line(snap("a", category="Film")).encode("utf-8")
    edited = _edit_field(line, name, value)
    assert edited != line or value in ('"Film"', "true")
    _assert_loads_as_the_json_path(record_line(snap("b")).encode("utf-8") + edited)


def test_canonical_lines_are_not_decoded_as_json(tmp_path, monkeypatch):
    store = tmp_path / "snaps.jsonl"
    written = [snap("a"), snap("b", likes=None, comments_enabled=False, comments=None,
                               category="Música"), snap("c", views=10**19 - 1)]
    store_snapshots(store, written)

    def refuse(record):
        raise AssertionError(f"decoded as JSON: {record!r}")

    monkeypatch.setattr(ingestion, "_record_values", refuse)
    assert load_snapshots(store).snapshots == tuple(written)


def http_error(code, body):
    return urllib.error.HTTPError(
        ingestion.API_URL, code, "error", {}, io.BytesIO(json.dumps(body).encode())
    )


def test_live_transport_requires_key():
    with pytest.raises(ConfigError) as exc:
        LiveTransport("")
    assert "ENGAGE_API_KEY" in str(exc.value)


def test_live_transport_sends_key_and_parses(urlopen_calls):
    calls = urlopen_calls(b'{"items": []}')
    payload = LiveTransport("secret").get_page({"chart": "mostPopular"})
    assert payload == {"items": []}
    [(url, _)] = calls
    query = urllib.parse.parse_qs(urllib.parse.urlsplit(url).query)
    assert query == {"chart": ["mostPopular"], "key": ["secret"]}


def test_live_transport_quota_error(urlopen_calls):
    for reason in ("dailyLimitExceeded", "rateLimitExceeded"):  # besides quotaExceeded
        urlopen_calls(http_error(403, {"error": {"errors": [{"reason": reason}]}}))
        with pytest.raises(QuotaExceededError):
            LiveTransport("secret").get_page({})


def test_live_transport_http_error_status(urlopen_calls):
    # an error page that is not JSON is still an HTTP error, not a parse error
    urlopen_calls(urllib.error.HTTPError(ingestion.API_URL, 404, "not found", {},
                                         io.BytesIO(b"<html>not found</html>")))
    with pytest.raises(TransportError) as exc:
        LiveTransport("secret").get_page({})
    assert type(exc.value) is TransportError and exc.value.status == 404


def test_live_transport_bad_body(urlopen_calls):
    urlopen_calls(b"[1, 2]")  # JSON, but not an object
    with pytest.raises(ParseError, match="^response body is not a JSON object$"):
        LiveTransport("secret").get_page({})


def test_live_sweeps_share_the_wait_between_requests(urlopen_calls, sleeps):
    # one transport for both sweeps: the second sweep's first request waits its 200 ms
    calls = urlopen_calls(json.dumps({"items": [item("a000000000a")]}).encode())
    transport = LiveTransport("secret")
    pages = list(collect_sweeps([transport, transport]))
    assert len(pages) == len(calls) == 2
    assert sleeps == [pytest.approx(ingestion.REQUEST_INTERVAL_MS / 1000)]


def test_live_sweep_sends_the_chart_query(urlopen_calls, sleeps):
    # every page names a next one, so the sweep stops at MAX_PAGES, and says so
    calls = urlopen_calls(
        lambda k: json.dumps({"items": [], "nextPageToken": f"tok{k + 1}"}).encode())
    with pytest.warns(EngageWarning) as caught:
        pages = list(collect_sweeps([LiveTransport("secret")], "GB"))
    assert len(pages) == len(calls) == ingestion.MAX_PAGES
    assert texts(caught) == [
        f"sweep 1: stopped after MAX_PAGES = {ingestion.MAX_PAGES} pages with a"
        " nextPageToken left; the later pages are not fetched"]
    first, second = (urllib.parse.parse_qs(urllib.parse.urlsplit(url).query)
                     for url, _ in calls[:2])
    chart = {"chart": ["mostPopular"], "part": ["snippet,statistics"],
             "maxResults": [str(ingestion.PAGE_SIZE)], "regionCode": ["GB"], "key": ["secret"]}
    assert first == chart and second == {**chart, "pageToken": ["tok2"]}
    assert sleeps == [pytest.approx(ingestion.REQUEST_INTERVAL_MS / 1000)] * (len(calls) - 1)


def test_live_sweep_refuses_a_token_it_has_followed(urlopen_calls, sleeps):
    calls = urlopen_calls(json.dumps({"items": [], "nextPageToken": "tok2"}).encode())
    pages = []
    with pytest.raises(ParseError, match="repeated nextPageToken: 'tok2'") as exc:
        pages.extend(collect_sweeps([LiveTransport("secret")], "GB"))
    assert exc.value.field == "nextPageToken"
    assert len(pages) == 1 and len(calls) == 2


def test_urllib_session_sends_urlencoded_params(urlopen_calls):
    calls = urlopen_calls(b'{"items": []}')
    transport = LiveTransport("secret")
    assert transport.get_page({"part": "snippet,statistics", "id": "a b"}) == {"items": []}
    query = urllib.parse.urlencode({"part": "snippet,statistics", "id": "a b", "key": "secret"})
    assert calls == [(f"{ingestion.API_URL}?{query}", 30)]


@pytest.mark.parametrize("failure", [
    urllib.error.URLError(ConnectionRefusedError(111, "Connection refused")),
    socket.timeout("timed out"),
])
def test_urllib_session_failure_never_shows_key(urlopen_calls, failure):
    urlopen_calls(failure)
    transport = LiveTransport("secret-key-123")
    with pytest.raises(TransportError) as exc:
        transport.get_page({"chart": "mostPopular"})
    assert "secret-key-123" not in str(exc.value)
    assert "request failed" in str(exc.value) and exc.value.status is None


def test_urllib_session_http_403_quota(urlopen_calls):
    urlopen_calls(http_error(403, {"error": {"errors": [{"reason": "quotaExceeded"}]}}))
    with pytest.raises(QuotaExceededError):
        LiveTransport("secret").get_page({})


@pytest.mark.parametrize("code, body", [(500, {}), (403, ["not", "an", "object"])])
def test_urllib_session_http_error_status(urlopen_calls, code, body):
    urlopen_calls(http_error(code, body))
    with pytest.raises(TransportError) as exc:
        LiveTransport("secret").get_page({})
    assert type(exc.value) is TransportError and exc.value.status == code


def test_urllib_session_non_json_body(urlopen_calls):
    urlopen_calls(b"<html>not json</html>")
    with pytest.raises(ParseError):
        LiveTransport("secret").get_page({})


def test_urllib_session_deeply_nested_body(urlopen_calls):
    urlopen_calls(DEEP.encode())
    with pytest.raises(ParseError):
        LiveTransport("secret").get_page({})


def test_urllib_session_http_403_deeply_nested_body_is_no_quota(urlopen_calls):
    urlopen_calls(urllib.error.HTTPError(ingestion.API_URL, 403, "error", {},
                                         io.BytesIO(DEEP.encode())))
    with pytest.raises(TransportError) as exc:
        LiveTransport("secret").get_page({})
    assert type(exc.value) is TransportError and exc.value.status == 403


def test_fetch_by_ids_batches(monkeypatch):
    class RecordingTransport:
        def __init__(self):
            self.batches = []

        def get_page(self, params):
            ids = params["id"].split(",")
            self.batches.append(ids)
            return {"items": [item(v) for v in ids],
                    "recordedAt": "2013-12-10T09:00:00Z"}

    monkeypatch.setattr(ingestion, "PAGE_SIZE", 2)
    transport = RecordingTransport()
    ids = ["a000000000a", "b000000000b", "c000000000c"]
    pages = fetch_by_ids(ids, transport=transport)
    assert transport.batches == []  # nothing is fetched before the first page is asked for
    assert [s.video_id for page in pages for s in page] == ids
    assert transport.batches == [ids[:2], ids[2:]]


def test_fetch_config_validation(tmp_path):
    # the region is checked before any page is asked for
    write_page(tmp_path, "sweep1_page1", [item("a000000000a")])
    for region in ("USA", "U1"):
        with pytest.raises(ConfigError, match=f"^region_code must be 2 letters, got '{region}'$"):
            next(collect_sweeps(fixture_sweeps(tmp_path), region))
    with pytest.raises(ConfigError, match="^occasions must be >= 1, got 0$"):
        next(collect_sweeps([]))


def test_fixture_sweeps_counts_the_recorded_sweeps(tmp_path):
    with pytest.raises(ConfigError, match="no sweep fixtures"):
        fixture_sweeps(tmp_path)
    for sweep in (1, 2, 4):  # sweep 3 is missing, so sweep 4 is not replayed
        write_page(tmp_path, f"sweep{sweep}_page1", [item(f"{sweep:011d}")])
    assert [s.video_id for s in swept(fixture_sweeps(tmp_path))] == ["00000000001", "00000000002"]
    assert [s.video_id for s in swept(fixture_sweeps(tmp_path, 1))] == ["00000000001"]
