import io
import json
import logging
import socket
import tempfile
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engage import ingestion
from engage.cli import main
from engage.ingestion import (
    ConfigError,
    FetchConfig,
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
    fetch_trending_page,
    format_rfc3339,
    load_snapshots,
    parse_rfc3339,
    parse_video_item,
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


def swept(config, occasions):
    """Every snapshot of ``collect_sweeps``, its pages flattened in fetch order."""
    return [VideoStatsSnapshot(*row) for page in collect_sweeps(config, occasions) for row in page]


def record_line(snapshot):
    """The store line the line template writes for ``snapshot``."""
    return ingestion._record_line(ingestion._fields(snapshot))


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
    s = parse_video_item(item("vid00000001", views=5000, comments=7), T1)
    assert s.video_id == "vid00000001"
    assert s.views == 5000
    assert s.comments == 7
    assert s.comments_enabled is True
    assert s.category == "News"
    assert s.fetched_at == T1


def test_parse_video_item_disabled_comments():
    s = parse_video_item(item("vid00000001", comments=None), T1)
    assert s.comments is None
    assert s.comments_enabled is False


def test_parse_video_item_unknown_category():
    s = parse_video_item(item("vid00000001", category_id="77"), T1)
    assert s.category == "Category 77"


def test_parse_video_item_errors():
    with pytest.raises(ParseError) as exc:
        parse_video_item({"statistics": {"viewCount": "1"}}, T1)
    assert exc.value.field == "video_id"
    with pytest.raises(ParseError) as exc:
        parse_video_item({"id": "x", "statistics": {}}, T1)
    assert exc.value.field == "views"
    with pytest.raises(ParseError) as exc:
        parse_video_item(item("x", views="many"), T1)
    assert exc.value.field == "views"


def test_parse_video_item_rejects_non_object():
    with pytest.raises(ParseError, match="item is not a JSON object"):
        parse_video_item(1, T1)


def test_parse_video_item_negative_count_passes_with_warning(caplog):
    bad = item("vid00000001")
    bad["statistics"]["likeCount"] = "-4"
    with caplog.at_level("WARNING"):
        s = parse_video_item(bad, T1)
    assert s.likes == -4
    assert any("negative" in rec.message for rec in caplog.records)


def test_parse_video_item_count_bound():
    edge = item("vid00000001")
    edge["statistics"]["viewCount"] = "18446744073709551615"
    assert parse_video_item(edge, T1).views == 2**64 - 1
    for raw in ("18446744073709551616", "-18446744073709551616", float("inf")):
        over = item("vid00000001")
        over["statistics"]["viewCount"] = raw
        with pytest.raises(ParseError) as exc:
            parse_video_item(over, T1)
        assert exc.value.field == "views"


def test_parse_video_item_null_count_is_hidden():
    hidden = item("vid00000001")
    hidden["statistics"]["likeCount"] = None
    assert parse_video_item(hidden, T1).likes is None
    no_views = item("vid00000001")
    no_views["statistics"]["viewCount"] = None
    with pytest.raises(ParseError) as exc:
        parse_video_item(no_views, T1)
    assert exc.value.field == "views"


def test_page_with_non_string_timestamp_is_parse_error(tmp_path):
    write_page(tmp_path, "sweep1_page1", [item("a000000000a")], recorded_at=12)
    with pytest.raises(ParseError) as exc:
        list(collect_sweeps(FetchConfig(fixture_dir=tmp_path), 1))
    assert exc.value.field == "fetched_at"


@pytest.mark.parametrize("recorded_at", [0, False, "", [], {}])
def test_page_with_falsy_timestamp_is_parse_error(tmp_path, recorded_at):
    # only an absent or null recordedAt means "stamp with the current time"
    payload = {"items": [item("a000000000a")], "recordedAt": recorded_at}
    (tmp_path / "sweep1_page1.json").write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        list(collect_sweeps(FetchConfig(fixture_dir=tmp_path), 1))
    assert exc.value.field == "fetched_at"


def test_page_with_null_timestamp_is_stamped_now(tmp_path):
    payload = {"items": [item("a000000000a")], "recordedAt": None}
    (tmp_path / "sweep1_page1.json").write_text(json.dumps(payload), encoding="utf-8")
    before = datetime.now(timezone.utc).replace(microsecond=0)
    [snapshot] = swept(FetchConfig(fixture_dir=tmp_path), 1)
    assert before <= snapshot.fetched_at <= datetime.now(timezone.utc)


def test_fixture_transport_pages(tmp_path):
    write_page(tmp_path, "sweep1_page1", [item("a000000000a")], next_token="sweep1_page2")
    write_page(tmp_path, "sweep1_page2", [item("b000000000b")])
    config = FetchConfig(fixture_dir=tmp_path)
    transport = FixtureTransport(tmp_path, sweep=1)

    page1, token = fetch_trending_page(config, transport=transport)
    assert [s.video_id for s in page1] == ["a000000000a"]
    assert token == "sweep1_page2"
    page2, token = fetch_trending_page(config, page_token=token, transport=transport)
    assert [s.video_id for s in page2] == ["b000000000b"]
    assert token is None


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
    config = FetchConfig(fixture_dir=tmp_path)
    snaps = swept(config, 1)
    assert [s.video_id for s in snaps] == ["a000000000a", "b000000000b"]


def test_collect_sweeps_respects_max_pages(tmp_path, monkeypatch):
    # page 1 points to page 2, but MAX_PAGES=1 stops the walk first
    monkeypatch.setattr(ingestion, "MAX_PAGES", 1)
    write_page(tmp_path, "sweep1_page1", [item("a000000000a")], next_token="sweep1_page2")
    write_page(tmp_path, "sweep1_page2", [item("b000000000b")])
    config = FetchConfig(fixture_dir=tmp_path)
    snaps = swept(config, 1)
    assert len(snaps) == 1


def test_fixture_pages_keep_recorded_timestamps(tmp_path):
    write_page(tmp_path, "sweep1_page1", [item("a000000000a")],
               recorded_at="2013-12-13T09:00:00Z")
    config = FetchConfig(fixture_dir=tmp_path)
    snaps = swept(config, 1)
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
    config = FetchConfig(fixture_dir=tmp_path)
    unique = dedup_latest(swept(config, 2))
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
    chosen = select_study_sample(StudySample(snapshots=snaps), n=n).snapshots
    eligible = [s for s in snaps if s.comments_enabled]
    assert chosen == tuple(sorted(eligible, key=lambda s: (-s.views, s.video_id))[:n])


def test_select_study_sample_shortfall_noted(caplog):
    candidates = StudySample(snapshots=(snap("a", views=1), snap("b", views=2)))
    with caplog.at_level("WARNING"):
        chosen = select_study_sample(candidates, n=10)
    assert len(chosen.snapshots) == 2
    assert "shortfall: requested 10" in chosen.selection_note
    assert any("eligible" in rec.message for rec in caplog.records)


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


@given(
    video_id=st.one_of(TEXT, JSON_SCALARS),
    fetched_at=st.datetimes(
        timezones=st.sampled_from([timezone.utc, timezone(-timedelta(hours=5))])
    ),
    counts=st.lists(JSON_SCALARS, min_size=4, max_size=4),
    enabled=st.one_of(st.booleans(), JSON_SCALARS),
    category=st.one_of(TEXT, JSON_SCALARS),
)
def test_store_line_template_equals_json_dumps(video_id, fetched_at, counts, enabled, category):
    s = VideoStatsSnapshot(video_id, fetched_at, *counts, enabled, category)
    expected = json.dumps(snapshot_to_record(s), ensure_ascii=False) + "\n"
    assert record_line(s) == expected


ABSENT = object()  # a statistics key the item leaves out
API_COUNTS = st.one_of(st.integers(-MAX_COUNT, MAX_COUNT),
                       st.sampled_from([0, MAX_COUNT, -MAX_COUNT]))
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
    # two pages through one open store; each line is the record of parse_video_item's snapshot
    fetched_at = parse_rfc3339(recorded_at)
    built = [parse_video_item(i, fetched_at) for i in items]
    expected = "".join(json.dumps(snapshot_to_record(s), ensure_ascii=False) + "\n"
                       for s in built).encode("utf-8")
    with tempfile.TemporaryDirectory() as directory:
        fixture = Path(directory)
        write_page(fixture, "sweep1_page1", items[:split], next_token="sweep1_page2",
                   recorded_at=recorded_at)
        write_page(fixture, "sweep1_page2", items[split:], recorded_at=recorded_at)
        store = fixture / "fetched.jsonl"
        assert main(["fetch", "--offline", directory, "--store", str(store)]) == 0
        assert store.read_bytes() == expected
        # a hand-built snapshot keeps a comment count its disabled section contradicts
        stray = [replace(s, comments=7) for s in built if not s.comments_enabled]
        direct = fixture / "stored.jsonl"
        assert store_snapshots(direct, built + stray) == len(built) + len(stray)
        assert direct.read_bytes() == expected + "".join(
            json.dumps(snapshot_to_record(s), ensure_ascii=False) + "\n" for s in stray
        ).encode("utf-8")


def test_store_page_that_cannot_be_encoded_writes_nothing(tmp_path):
    store = tmp_path / "snaps.jsonl"
    store_snapshots(store, [snap("a")])
    before = store.read_bytes()
    with pytest.raises(ParseError):
        store_snapshots(store, [snap("b"), snap("c", category="\ud800")])
    assert store.read_bytes() == before


def _loads_outcome(decode, line):
    """The value decode(line) returns, or the type and text of its error."""
    try:
        return "value", repr(decode(line))  # repr: nan and -0.0 compare exactly
    except ValueError as exc:
        return type(exc), str(exc)


RECORD_LINE = json.dumps(snapshot_to_record(snap("vid00000001")), ensure_ascii=False)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
LINE_PREFIXES = ["", "\ufeff", " ", "\t", "\n"]
LINE_SUFFIXES = ["", "\n", "\r\n", "\r", " ", "\t", "\x0b", " \n", "\t\r\n", "\x0b\n",
                 "x", "}\n", "{}\n", "\n\n"]


@given(st.one_of(st.just(RECORD_LINE), JSON_VALUES.map(json.dumps), st.text(max_size=20)))
def test_line_decoder_equals_json_loads(body):
    for line in [prefix + body + suffix for prefix in LINE_PREFIXES for suffix in LINE_SUFFIXES]:
        assert _loads_outcome(ingestion._decode_line, line) == _loads_outcome(json.loads, line)


class _Messages(logging.Handler):
    """The messages logged while attached; caplog cannot be reset between examples."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


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
    warnings = _Messages()
    logger = logging.getLogger("engage.ingestion")
    logger.addHandler(warnings)
    try:
        restored = snapshot_from_record(record)
    except ParseError as exc:
        assert expected == ("error", exc.field, str(exc))
        return
    finally:
        logger.removeHandler(warnings)
    assert expected[0] == "ok"
    assert warnings.messages == [
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
    restored = snapshot_from_record(edge)
    assert (restored.views, restored.likes) == (2**64 - 1, -(2**64 - 1))
    for field in ("views", "likes", "dislikes", "comments"):
        for bad in (2**64, -(2**64), 10**200):
            record = snapshot_to_record(snap("vid00000001"))
            record[field] = bad
            with pytest.raises(ParseError) as exc:
                snapshot_from_record(record)
            assert exc.value.field == field


def test_record_negative_count_loads_with_warning(caplog):
    record = snapshot_to_record(snap("vid00000001"))
    record["likes"] = -4
    with caplog.at_level("WARNING"):
        restored = snapshot_from_record(record)
    assert restored.likes == -4
    assert any("negative" in rec.message for rec in caplog.records)


def test_record_zero_comments_with_commenting_disabled_loads_as_null(caplog):
    record = snapshot_to_record(snap("vid00000001", comments=0, comments_enabled=False))
    assert record["comments"] == 0
    with caplog.at_level("WARNING"):
        restored = snapshot_from_record(record)
    assert restored.comments is None
    assert not caplog.records


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


def test_load_lenient_skips_and_counts(tmp_path, caplog):
    store = tmp_path / "snaps.jsonl"
    store_snapshots(store, [snap("a")])
    with open(store, "a", encoding="utf-8") as f:
        f.write("{broken\n")
    store_snapshots(store, [snap("b")])
    with caplog.at_level("WARNING"):
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


def test_load_lenient_skips_a_non_utf8_line(tmp_path, caplog):
    with caplog.at_level("WARNING"):
        loaded = load_snapshots(_store_with_non_utf8_line(tmp_path), lenient=True)
    assert [s.video_id for s in loaded.snapshots] == ["a", "b"]
    assert "1 malformed line(s) skipped" in loaded.selection_note
    assert any("line 3" in rec.message for rec in caplog.records)


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


def test_load_warns_once_for_each_record_a_later_one_supersedes(tmp_path, caplog):
    store = tmp_path / "snaps.jsonl"
    store_snapshots(store, [snap("a", likes=-4), snap("b", comments=7, comments_enabled=False),
                            snap("c")])
    store_snapshots(store, [snap(v, views=2, fetched_at=T2) for v in "abc"])
    with caplog.at_level("WARNING"):
        loaded = load_snapshots(store)
    assert [(s.video_id, s.views) for s in loaded.snapshots] == [("a", 2), ("b", 2), ("c", 2)]
    assert [(rec.name, rec.getMessage()) for rec in caplog.records] == [
        ("engage.ingestion", "video a: negative likes count -4"),
        ("engage.metrics", "video b: comment count 7 with commenting disabled; dropping count"),
    ]


def test_load_skips_a_torn_tail_cut_at_any_byte(tmp_path, caplog):
    earlier = [snap("a", views=1), snap("b", views=2)]
    last = snap("c", views=3, category="Música ✓ 音楽")  # multi-byte UTF-8
    full = "".join(json.dumps(snapshot_to_record(s), ensure_ascii=False) + "\n"
                   for s in [*earlier, last]).encode("utf-8")
    start = full.rindex(b"\n", 0, -1) + 1
    assert any(byte >= 0x80 for byte in full[start:])
    store = tmp_path / "snaps.jsonl"
    for cut in range(start, len(full)):
        store.write_bytes(full[:cut])
        with caplog.at_level("WARNING"):
            loaded = load_snapshots(store)
        if cut == len(full) - 1:  # a whole record without its line end is kept
            assert loaded.snapshots == (*earlier, last)
        else:
            assert loaded.snapshots == tuple(earlier)
        torn = start < cut < len(full) - 1
        assert loaded.selection_note.endswith(", 1 torn final line skipped") == torn
        assert any("torn final line" in rec.message for rec in caplog.records) == torn
        caplog.clear()
    store.write_bytes(full[:-5])
    assert load_snapshots(store, lenient=True).selection_note == (
        "loaded 2 records from snaps.jsonl, 2 unique ids, 1 torn final line skipped")


def test_append_repairs_a_torn_tail_cut_at_any_byte(tmp_path, caplog):
    earlier = [snap("a", views=1), snap("b", views=2)]
    last = snap("c", views=3, category="Música ✓ 音楽")  # multi-byte UTF-8
    page = [snap("d", views=4), snap("a", views=5, fetched_at=T2)]
    full = "".join(record_line(s) for s in [*earlier, last]).encode("utf-8")
    start = full.rindex(b"\n", 0, -1) + 1
    store = tmp_path / "snaps.jsonl"
    for cut in range(start, len(full) + 1):
        store.write_bytes(full[:cut])
        with caplog.at_level("WARNING"):
            store_snapshots(store, page)
        loaded = load_snapshots(store)  # strict: every line is a whole record
        kept = [last] if cut >= len(full) - 1 else []
        assert loaded.snapshots == (page[1], earlier[1], *kept, page[0])
        dropped = start < cut < len(full) - 1
        warned = f"snaps.jsonl: torn final line of {cut - start} bytes dropped before appending: "
        assert [r.message.startswith(warned) for r in caplog.records] == ([True] if dropped else [])
        caplog.clear()


@pytest.mark.parametrize("tail_length", [4095, 4096, 4097])
def test_append_finds_a_line_end_on_a_read_back_chunk_boundary(tmp_path, caplog, tail_length):
    # the tail is read back in 4096-byte chunks; at 4096 the last line end is
    # the final byte of the second chunk, at 4095 the first byte of the first
    first = record_line(snap("a")).encode("utf-8")
    padding = "x" * (tail_length + 1 - len(record_line(snap("b", category=""))))
    whole = record_line(snap("b", category=padding)).encode("utf-8")[:-1]
    assert len(whole) == tail_length
    store = tmp_path / "snaps.jsonl"
    for tail, kept in ((whole, ["a", "b", "c"]), (b"y" * tail_length, ["a", "c"])):
        store.write_bytes(first + tail)
        with caplog.at_level("WARNING"):
            store_snapshots(store, [snap("c")])
        assert [s.video_id for s in load_snapshots(store).snapshots] == kept
        warned = f"torn final line of {tail_length} bytes dropped"
        assert [warned in r.message for r in caplog.records] == ([] if len(kept) == 3 else [True])
        caplog.clear()


def test_load_treats_a_deeply_nested_line_as_malformed(tmp_path, caplog):
    store = tmp_path / "snaps.jsonl"
    store_snapshots(store, [snap("a")])
    with open(store, "a", encoding="utf-8") as f:
        f.write(DEEP + "\n")
    store_snapshots(store, [snap("b")])
    with pytest.raises(StorageError) as exc:
        load_snapshots(store)
    assert "line 2" in str(exc.value)
    with caplog.at_level("WARNING"):
        loaded = load_snapshots(store, lenient=True)
    assert [s.video_id for s in loaded.snapshots] == ["a", "b"]
    assert "1 malformed line(s) skipped" in loaded.selection_note


def test_a_deeply_nested_torn_tail_is_skipped_then_cut(tmp_path, caplog):
    store = tmp_path / "snaps.jsonl"
    store_snapshots(store, [snap("a")])
    with open(store, "a", encoding="utf-8") as f:
        f.write(DEEP)
    with caplog.at_level("WARNING"):
        assert load_snapshots(store).selection_note.endswith(", 1 torn final line skipped")
        store_snapshots(store, [snap("b")])
    assert [s.video_id for s in load_snapshots(store).snapshots] == ["a", "b"]
    assert any(f"torn final line of {len(DEEP)} bytes dropped" in r.message
               for r in caplog.records)


def test_load_missing_store_is_storage_error(tmp_path):
    with pytest.raises(StorageError):
        load_snapshots(tmp_path / "absent.jsonl")


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def get(self, url, params=None, timeout=None):
        self.calls.append((url, dict(params or {})))
        return self.responses.pop(0)


def test_live_transport_requires_key():
    with pytest.raises(ConfigError) as exc:
        LiveTransport("")
    assert "ENGAGE_API_KEY" in str(exc.value)


def test_live_transport_sends_key_and_parses(tmp_path):
    session = FakeSession([FakeResponse(payload={"items": []})])
    transport = LiveTransport("secret", request_interval_ms=0, session=session)
    payload = transport.get_page({"chart": "mostPopular"})
    assert payload == {"items": []}
    url, params = session.calls[0]
    assert params["key"] == "secret"


def test_live_transport_quota_error():
    quota_body = {"error": {"errors": [{"reason": "quotaExceeded"}]}}
    session = FakeSession([FakeResponse(status_code=403, payload=quota_body)])
    transport = LiveTransport("secret", request_interval_ms=0, session=session)
    with pytest.raises(QuotaExceededError):
        transport.get_page({})


def test_live_transport_http_error_status():
    session = FakeSession([FakeResponse(status_code=500, payload={})])
    transport = LiveTransport("secret", request_interval_ms=0, session=session)
    with pytest.raises(TransportError) as exc:
        transport.get_page({})
    assert exc.value.status == 500


def test_live_transport_bad_body():
    session = FakeSession([FakeResponse(payload=None)])
    transport = LiveTransport("secret", request_interval_ms=0, session=session)
    with pytest.raises(ParseError):
        transport.get_page({})


class FakeHttpResponse(io.BytesIO):
    status = 200


@pytest.fixture
def urlopen_calls(monkeypatch):
    """Replace urllib's urlopen: each call records (url, timeout), then
    raises ``outcome`` if it is an exception or returns it as the body."""
    calls = []

    def install(outcome):
        def fake_urlopen(url, timeout=None):
            calls.append((url, timeout))
            if isinstance(outcome, BaseException):
                raise outcome
            return FakeHttpResponse(outcome)

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        return calls

    return install


def http_error(code, body):
    return urllib.error.HTTPError(
        ingestion.API_URL, code, "error", {}, io.BytesIO(json.dumps(body).encode())
    )


def test_urllib_session_sends_urlencoded_params(urlopen_calls):
    calls = urlopen_calls(b'{"items": []}')
    transport = LiveTransport("secret", request_interval_ms=0)
    assert transport.get_page({"part": "snippet,statistics", "id": "a b"}) == {"items": []}
    query = urllib.parse.urlencode({"part": "snippet,statistics", "id": "a b", "key": "secret"})
    assert calls == [(f"{ingestion.API_URL}?{query}", 30)]


@pytest.mark.parametrize("failure", [
    urllib.error.URLError(ConnectionRefusedError(111, "Connection refused")),
    socket.timeout("timed out"),
])
def test_urllib_session_failure_never_shows_key(urlopen_calls, failure):
    urlopen_calls(failure)
    transport = LiveTransport("secret-key-123", request_interval_ms=0)
    with pytest.raises(TransportError) as exc:
        transport.get_page({"chart": "mostPopular"})
    assert "secret-key-123" not in str(exc.value)
    assert "request failed" in str(exc.value) and exc.value.status is None


def test_urllib_session_http_403_quota(urlopen_calls):
    urlopen_calls(http_error(403, {"error": {"errors": [{"reason": "quotaExceeded"}]}}))
    with pytest.raises(QuotaExceededError):
        LiveTransport("secret", request_interval_ms=0).get_page({})


@pytest.mark.parametrize("code, body", [(500, {}), (403, ["not", "an", "object"])])
def test_urllib_session_http_error_status(urlopen_calls, code, body):
    urlopen_calls(http_error(code, body))
    with pytest.raises(TransportError) as exc:
        LiveTransport("secret", request_interval_ms=0).get_page({})
    assert type(exc.value) is TransportError and exc.value.status == code


def test_urllib_session_non_json_body(urlopen_calls):
    urlopen_calls(b"<html>not json</html>")
    with pytest.raises(ParseError):
        LiveTransport("secret", request_interval_ms=0).get_page({})


def test_urllib_session_deeply_nested_body(urlopen_calls):
    urlopen_calls(DEEP.encode())
    with pytest.raises(ParseError):
        LiveTransport("secret", request_interval_ms=0).get_page({})


def test_urllib_session_http_403_deeply_nested_body_is_no_quota(urlopen_calls):
    urlopen_calls(urllib.error.HTTPError(ingestion.API_URL, 403, "error", {},
                                         io.BytesIO(DEEP.encode())))
    with pytest.raises(TransportError) as exc:
        LiveTransport("secret", request_interval_ms=0).get_page({})
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


def test_fetch_config_validation():
    with pytest.raises(ConfigError):
        FetchConfig(region_code="USA")
