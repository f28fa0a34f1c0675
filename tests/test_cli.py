import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engage
from engage import cli, ingestion
from engage.cli import main
from engage.ingestion import load_snapshots, select_study_sample
from engage.metrics import VideoStatsSnapshot
from engage.report import CORR_NAMES, _bundle_json, build_report, bundle_from_json, render
from engage.stats import StudySample

BUNDLED_FIXTURES = Path(engage.__file__).parent / "fixtures" / "replication"

REPORT_FILES = [
    "report.md", "report.csv", "report.json",
    "hist_cpki.txt", "hist_cpki.svg",
    "hist_vpki.txt", "hist_vpki.svg",
    "hist_disp.txt", "hist_disp.svg",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    store = base / "snapshots.jsonl"
    bundle = base / "bundle.json"
    assert main(["fetch", "--offline", str(BUNDLED_FIXTURES), "--store", str(store)]) == 0
    assert main(["analyze", "--store", str(store), "--out", str(bundle)]) == 0
    return {"store": store, "bundle": bundle}


def test_replicate_pristine_passes(tmp_path, capsys):
    out_dir = tmp_path / "art"
    assert main(["replicate", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out
    assert "106" in out
    assert "replication checks passed" in out
    for name in REPORT_FILES + ["bundle.json", "snapshots.jsonl"]:
        assert (out_dir / name).is_file(), name


def test_replicate_runs_as_module(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "engage.cli", "replicate", "--out", "art"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "replication checks passed" in proc.stdout


def test_import_loads_no_dependency():
    # -S: no site hooks, so only engage.cli's own imports are counted; the last
    # twelve are slow standard modules that the records, paths, warnings and the
    # forked workers of a replay or a load do without, or import only when they run
    code = ("import sys, engage.cli; print(sorted(set(sys.modules)"
            " & {'scipy', 'numpy', 'requests', 'urllib.request',"
            " 'dataclasses', 'inspect', 'importlib.resources',"
            " 'logging', 'traceback', 'threading', 'tokenize',"
            " 'tempfile', 'multiprocessing', 'concurrent.futures', 'pickle', '_pickle'}))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fetch_offline_counts(tmp_path, capsys):
    store = tmp_path / "s.jsonl"
    assert main(["fetch", "--offline", str(BUNDLED_FIXTURES), "--store", str(store)]) == 0
    assert "fetched 6 pages, 180 snapshots, 106 unique ids" in capsys.readouterr().out
    assert store.is_file()


def test_fetch_offline_occasions_cap(tmp_path, capsys):
    store = tmp_path / "s.jsonl"
    argv = ["fetch", "--offline", str(BUNDLED_FIXTURES),
            "--occasions", "1", "--store", str(store)]
    assert main(argv) == 0
    assert "fetched 2 pages, 60 snapshots, 60 unique ids" in capsys.readouterr().out


@pytest.mark.parametrize("occasions", ["0", "-1"])
def test_fetch_occasions_below_one_exit2(tmp_path, capsys, occasions):
    store = tmp_path / "s.jsonl"
    argv = ["fetch", "--offline", str(BUNDLED_FIXTURES),
            "--occasions", occasions, "--store", str(store)]
    assert main(argv) == 2
    assert "occasions must be >= 1" in capsys.readouterr().err
    assert not store.exists()


def test_fetch_live_without_key_is_config_error(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "ENGAGE_API_KEY"}
    proc = subprocess.run(
        [sys.executable, "-m", "engage.cli", "fetch", "--store", "s.jsonl"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "ENGAGE_API_KEY" in proc.stderr
    assert not (tmp_path / "s.jsonl").exists()


LIVE_KEY = "live-key-0123456789"
LIVE_PAGE = json.dumps({
    "items": [{"id": "a000000000a", "snippet": {"categoryId": "25"},
               "statistics": {"viewCount": "100", "likeCount": "5", "commentCount": "2"}}],
    "recordedAt": "2013-12-10T09:00:00Z",
}).encode()
LIVE_LINE = ('{"video_id": "a000000000a", "fetched_at": "2013-12-10T09:00:00Z", "views": 100,'
             ' "likes": 5, "dislikes": null, "comments": 2, "comments_enabled": true,'
             ' "category": "News"}\n')


@pytest.mark.parametrize("mode", ["sweeps", "ids"])
def test_fetch_live_stores_the_pages_and_never_the_key(tmp_path, capsys, monkeypatch,
                                                       urlopen_calls, sleeps, mode):
    monkeypatch.setenv("ENGAGE_API_KEY", LIVE_KEY)
    calls = urlopen_calls(LIVE_PAGE)
    store = tmp_path / "s.jsonl"
    if mode == "sweeps":
        argv, pages, query = ["--region", "US", "--occasions", "2"], 2, "regionCode=US"
    else:
        ids = tmp_path / "ids.txt"
        ids.write_text("a000000000a\n", encoding="utf-8")
        argv, pages, query = ["--ids", str(ids)], 1, "id=a000000000a"
    assert main(["fetch", *argv, "--store", str(store)]) == 0
    out, err = capsys.readouterr()
    assert f"fetched {pages} pages, {pages} snapshots, 1 unique ids" in out
    assert len(calls) == pages and all(query in url and LIVE_KEY in url for url, _ in calls)
    assert sleeps == [pytest.approx(0.2)] * (pages - 1)  # one wait, between the two sweeps
    text = store.read_text(encoding="utf-8")
    assert text == LIVE_LINE * pages
    assert LIVE_KEY not in out + err + text


@pytest.mark.parametrize("key", [LIVE_KEY, None], ids=["key", "no-key"])
def test_fetch_live_bad_region_exit2_before_any_request(tmp_path, capsys, monkeypatch,
                                                        urlopen_calls, key):
    # the region is checked first: before the API key, and with --ids, which sends none
    if key is None:
        monkeypatch.delenv("ENGAGE_API_KEY", raising=False)
    else:
        monkeypatch.setenv("ENGAGE_API_KEY", key)
    calls = urlopen_calls(LIVE_PAGE)
    store = tmp_path / "s.jsonl"
    for extra in ([], ["--ids"]):
        assert main(["fetch", "--region", "USA", *extra, "--store", str(store)]) == 2
        assert capsys.readouterr().err == "error: region_code must be 2 letters, got 'USA'\n"
    assert calls == []
    assert not store.exists()


def test_fetch_ids_conflicts_with_offline(tmp_path, capsys):
    argv = ["fetch", "--offline", str(BUNDLED_FIXTURES), "--ids",
            "--store", str(tmp_path / "s.jsonl")]
    assert main(argv) == 2
    assert "--offline" in capsys.readouterr().err


def test_fetch_config_ids_conflicts_with_offline(tmp_path, capsys):
    ids = tmp_path / "ids.txt"
    ids.write_text("abc\n", encoding="utf-8")
    config = tmp_path / "engage.json"
    config.write_text(json.dumps({
        "fetch": {"offline": str(BUNDLED_FIXTURES), "ids": str(ids)},
    }), encoding="utf-8")
    store = tmp_path / "s.jsonl"
    assert main(["fetch", "--config", str(config), "--store", str(store)]) == 2
    assert "--ids re-queries the live API; drop --offline" in capsys.readouterr().err
    assert not store.exists()


def test_fetch_missing_fixture_dir(tmp_path, capsys):
    argv = ["fetch", "--offline", str(tmp_path / "nope"), "--store", "s.jsonl"]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_fetch_non_object_item_exit3(tmp_path, capsys):
    fixture = tmp_path / "fixture"
    fixture.mkdir()
    page = {"items": [1], "recordedAt": "2013-12-10T09:00:00Z"}
    (fixture / "sweep1_page1.json").write_text(json.dumps(page), encoding="utf-8")
    argv = ["fetch", "--offline", str(fixture), "--store", str(tmp_path / "s.jsonl")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "not a JSON object" in err
    assert "Traceback" not in err


def test_fetch_lone_surrogate_id_exit3(tmp_path, capsys):
    fixture = tmp_path / "fixture"
    fixture.mkdir()
    item = {"id": "\ud800abc", "statistics": {"viewCount": "10"}}
    page = {"items": [item], "recordedAt": "2013-12-10T09:00:00Z"}
    (fixture / "sweep1_page1.json").write_text(json.dumps(page), encoding="utf-8")
    store = tmp_path / "s.jsonl"
    assert main(["fetch", "--offline", str(fixture), "--store", str(store)]) == 3
    err = capsys.readouterr().err
    assert "video_id" in err and "not valid UTF-8" in err
    assert "Traceback" not in err
    assert not store.exists()


def test_failed_fetch_keeps_the_pages_already_stored(tmp_path, capsys):
    sweep1 = tmp_path / "sweep1.jsonl"
    argv = ["fetch", "--offline", str(BUNDLED_FIXTURES), "--occasions", "1", "--store"]
    assert main([*argv, str(sweep1)]) == 0
    fixture = tmp_path / "fixture"
    shutil.copytree(BUNDLED_FIXTURES, fixture)
    (fixture / "sweep2_page1.json").unlink()
    capsys.readouterr()

    store = tmp_path / "s.jsonl"
    argv = ["fetch", "--offline", str(fixture), "--occasions", "2", "--store", str(store)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert store.read_bytes() == sweep1.read_bytes()
    assert f"60 snapshots from 2 pages were stored in {store}" in err
    assert "sweep2_page1.json" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_fetch_of_only_empty_pages_creates_no_store(tmp_path, capsys):
    fixture = tmp_path / "fixture"
    fixture.mkdir()
    for name, page in (("sweep1_page1", {"items": [], "nextPageToken": "sweep1_page2"}),
                       ("sweep1_page2", {"items": []})):
        (fixture / f"{name}.json").write_text(json.dumps(page), encoding="utf-8")
    store = tmp_path / "new" / "s.jsonl"
    assert main(["fetch", "--offline", str(fixture), "--store", str(store)]) == 0
    assert "fetched 2 pages, 0 snapshots, 0 unique ids" in capsys.readouterr().out
    assert not store.parent.exists()


def test_fetch_cuts_a_torn_tail_once(tmp_path, capsys):
    fresh = tmp_path / "fresh.jsonl"
    assert main(["fetch", "--offline", str(BUNDLED_FIXTURES), "--store", str(fresh)]) == 0
    first_line = fresh.read_bytes().split(b"\n")[0] + b"\n"
    store = tmp_path / "s.jsonl"
    store.write_bytes(first_line + b'{"video_id": "torn')
    capsys.readouterr()
    assert main(["fetch", "--offline", str(BUNDLED_FIXTURES), "--store", str(store)]) == 0
    printed = capsys.readouterr()
    assert "fetched 6 pages, 180 snapshots, 106 unique ids" in printed.out
    assert store.read_bytes() == first_line + fresh.read_bytes()
    assert printed.err == (
        "warning: s.jsonl: torn final line of 18 bytes dropped before appending:"
        " Unterminated string starting at: line 1 column 14 (char 13)\n")
    assert len(load_snapshots(store).snapshots) == 106  # strict: every line is whole


def _page_chain(directory: Path, tokens: list) -> list[str]:
    """Sweep-1 fixture pages ``sweep1_page<j>``, one per token, each holding one
    item ``v<j>`` and naming its token as the next page; the fetch's argv."""
    directory.mkdir()
    for j, token in enumerate(tokens, start=1):
        page = {"items": [{"id": f"v{j}", "statistics": {"viewCount": str(j)}}],
                "recordedAt": "2013-12-10T09:00:00Z", "nextPageToken": token}
        _write(directory, f"sweep1_page{j}.json", json.dumps(page))
    return ["fetch", "--offline", str(directory), "--store", str(directory.parent / "s.jsonl")]


def _stored_ids(store: Path) -> list[str]:
    lines = store.read_text(encoding="utf-8").splitlines()
    return [json.loads(line)["video_id"] for line in lines]


def test_fetch_of_a_chain_past_max_pages_warns_once(tmp_path, capsys):
    tokens = [f"sweep1_page{j + 1}" for j in range(1, 12)] + [None]  # 12 pages
    assert main(_page_chain(tmp_path / "fixture", tokens)) == 0
    printed = capsys.readouterr()
    assert "fetched 10 pages, 10 snapshots, 10 unique ids" in printed.out
    assert printed.err == (
        f"warning: sweep 1: stopped after MAX_PAGES = {ingestion.MAX_PAGES} pages with a"
        " nextPageToken left; the later pages are not fetched\n")
    assert _stored_ids(tmp_path / "s.jsonl") == [f"v{j}" for j in range(1, 11)]


def test_fetch_refuses_a_two_page_cycle(tmp_path, capsys):
    # page 1 -> page 2 -> page 1: the third request repeats a token already followed
    assert main(_page_chain(tmp_path / "fixture", ["sweep1_page2", "sweep1_page1"])) == 3
    assert capsys.readouterr().err == (
        "error: repeated nextPageToken: 'sweep1_page2' (2 snapshots from 2 pages were stored"
        f" in {tmp_path / 's.jsonl'})\n")
    assert _stored_ids(tmp_path / "s.jsonl") == ["v1", "v2"]  # the pages before the fault


@pytest.mark.parametrize("absolute", [False, True], ids=["relative", "absolute"])
def test_fetch_never_stores_a_page_outside_the_fixture_directory(tmp_path, capsys, absolute):
    token = str(tmp_path / "x") if absolute else "../x"
    assert main(_fetch_token(tmp_path, token)) == 3
    assert capsys.readouterr().err == (
        f"error: bad nextPageToken for a fixture page: {token!r} (1 snapshots from 1 pages"
        f" were stored in {tmp_path / 's.jsonl'})\n")
    assert _stored_ids(tmp_path / "s.jsonl") == ["a"]  # never the planted page's "x"


def test_fetch_write_error_on_page_two_keeps_page_one_and_closes_the_store(
        tmp_path, capsys, monkeypatch):
    opened, writes = [], []

    class FailsOnSecondWrite:
        def __init__(self, f):
            self.file = f

        def write(self, data):
            writes.append(len(data))
            if len(writes) == 2:
                raise OSError(28, "No space left on device")
            return self.file.write(data)

        def __getattr__(self, name):
            return getattr(self.file, name)

    def failing_open(file, mode="r", **kwargs):
        if mode != "a+b":  # a fixture page, read
            return open(file, mode, **kwargs)
        opened.append(open(file, mode, **kwargs))
        return FailsOnSecondWrite(opened[-1])

    one_sweep = ["fetch", "--offline", str(BUNDLED_FIXTURES), "--occasions", "1", "--store"]
    page1 = tmp_path / "page1.jsonl"
    monkeypatch.setattr(ingestion, "MAX_PAGES", 1)
    assert main([*one_sweep, str(page1)]) == 0
    monkeypatch.undo()
    capsys.readouterr()

    store = tmp_path / "s.jsonl"
    monkeypatch.setattr(ingestion, "open", failing_open, raising=False)
    assert main([*one_sweep, str(store)]) == 4
    err = capsys.readouterr().err
    assert err == f"error: cannot write {store}: [Errno 28] No space left on device\n"
    assert store.read_bytes() == page1.read_bytes()
    assert len(opened) == 1 and opened[0].closed  # one store, opened once


def test_analyze_writes_bundle(pipeline):
    data = json.loads(pipeline["bundle"].read_text(encoding="utf-8"))
    assert data["format"] == "engage-bundle/1"
    assert data["provenance"]["sample_n"] == 100
    assert data["provenance"]["upper_quartile_n"] == 75


def test_failed_write_keeps_the_old_file_and_leaves_no_temporary(pipeline, tmp_path,
                                                                 capsys, monkeypatch):
    out = tmp_path / "b.json"
    out.write_text("old bundle", encoding="utf-8")

    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["analyze", "--store", str(pipeline["store"]), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"cannot write {out}" in err and "Traceback" not in err
    assert out.read_text(encoding="utf-8") == "old bundle"
    assert [path.name for path in tmp_path.iterdir()] == ["b.json"]


def test_a_lone_surrogate_deep_in_a_bundle_keeps_the_old_file(pipeline, tmp_path):
    # the bundle is written chunk by chunk, so these fail the write part way
    out = tmp_path / "bundle.json"
    shutil.copy(pipeline["bundle"], out)
    before = out.read_bytes()
    bundle = bundle_from_json(json.loads(before))
    bundle = bundle._replace(provenance={**bundle.provenance, "selection_note": "\ud800"})
    passed = []

    def chunks():
        for chunk in _bundle_json(bundle):
            passed.append(chunk)
            yield chunk

    with pytest.raises(ingestion.StorageError, match=f"cannot write {out}: 'utf-8' codec"):
        cli._write_text(out, chunks())
    assert "\ud800" in passed[-1] and len(passed) > 100
    assert out.read_bytes() == before
    assert [path.name for path in tmp_path.iterdir()] == ["bundle.json"]

    def failing_chunks():  # an error while the text is made is not a write error
        yield from passed[:100]
        raise ValueError("not JSON")

    with pytest.raises(ValueError, match="not JSON"):
        cli._write_text(out, failing_chunks())
    assert out.read_bytes() == before
    assert [path.name for path in tmp_path.iterdir()] == ["bundle.json"]


def test_rewritten_artifact_keeps_the_old_files_mode(pipeline, tmp_path):
    out = tmp_path / "b.json"
    out.write_text("old bundle", encoding="utf-8")
    out.chmod(0o600)
    assert main(["analyze", "--store", str(pipeline["store"]), "--out", str(out)]) == 0
    assert out.stat().st_mode & 0o7777 == 0o600
    assert json.loads(out.read_text(encoding="utf-8"))["format"] == "engage-bundle/1"


def test_analyze_shortfall_keeps_going(pipeline, tmp_path, capsys):
    out = tmp_path / "b.json"
    argv = ["analyze", "--store", str(pipeline["store"]), "--n", "150",
            "--out", str(out)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert "analyzed 100 videos" in printed
    assert "shortfall: requested 150" in printed


def test_analyze_builds_no_snapshot_and_no_sample(pipeline, tmp_path, monkeypatch):
    built = []
    for cls in (VideoStatsSnapshot, StudySample):
        def counting_new(kind, *args, _new=cls.__new__, **kwargs):
            built.append(kind.__name__)
            return _new(kind, *args, **kwargs)
        monkeypatch.setattr(cls, "__new__", counting_new)
    out = tmp_path / "b.json"
    assert main(["analyze", "--store", str(pipeline["store"]), "--out", str(out)]) == 0
    assert built == []
    assert out.read_bytes() == pipeline["bundle"].read_bytes()
    load_snapshots(pipeline["store"])  # the wrappers do see the public path build them
    assert built.count("VideoStatsSnapshot") == 106 and built.count("StudySample") == 1


STAMPS = ["2013-12-10T09:00:00Z", "2013-12-10T10:00:00Z", "2013-12-11T09:00:00Z"]
store_records = st.lists(st.fixed_dictionaries({
    # few ids and stamps: repeated ids with older, equal and newer fetched_at
    "video_id": st.sampled_from(["a", "b", "c", "d", "e", "f"]),
    "fetched_at": st.sampled_from(STAMPS),
    "views": st.integers(0, 4),  # few view counts: ties at the top-n cut
    # hidden counts, and now and then a negative one
    "likes": st.none() | st.integers(-1, 40),
    "dislikes": st.none() | st.integers(0, 40),
    "comments": st.none() | st.integers(0, 40),
    "comments_enabled": st.booleans(),
    "category": st.sampled_from(["News", "Music", ""]),
}), max_size=30)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(records=store_records, n=st.integers(1, 7))  # more than the eligible ids: a shortfall
def test_analyze_writes_what_the_public_functions_give(records, n):
    with tempfile.TemporaryDirectory() as tmp:
        store, out = Path(tmp) / "s.jsonl", Path(tmp) / "b.json"
        store.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["analyze", "--store", str(store), "--n", str(n), "--out", str(out)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sample = select_study_sample(load_snapshots(store), n)
        # the command warns as the public functions do, one line each time
        given = "".join(f"warning: {w.message}\n" for w in caught)
        if not sample.snapshots:
            assert code == 5 and not out.exists()
            assert err.getvalue().startswith(given + "error: ")
            return
        assert code == 0
        bundle = build_report(sample)
        assert out.read_text(encoding="utf-8") == render(bundle, "json")
        assert err.getvalue() == given + "".join(
            f"warning: {note}\n" for note in bundle.provenance["coverage_notes"])


def test_analyze_prints_each_data_warning_as_one_line(tmp_path, capsys):
    records = [{**RECORD, "video_id": "neg", "likes": -4},
               {**RECORD, "video_id": "off", "comments": 7, "comments_enabled": False},
               {**RECORD, "video_id": "nodis", "views": 900, "dislikes": None}]
    store = _write(tmp_path, "s.jsonl", "".join(json.dumps(r) + "\n" for r in records))
    assert main(["analyze", "--store", store, "--n", "5", "--out", str(tmp_path / "b.json")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: video neg: negative likes count -4",
        "warning: video off: comment count 7 with commenting disabled; dropping count",
        "warning: only 2 eligible videos for requested n=5",
        "warning: dislike counts absent for 1 of 2 snapshots; VpkI and DisP are undefined there",
    ]


@pytest.mark.parametrize("n", ["150", "0"], ids=["warns", "fails"])
def test_main_gives_back_the_warning_filters_and_showwarning(pipeline, tmp_path, capsys, n):
    filters, show = list(warnings.filters), warnings.showwarning
    argv = ["analyze", "--store", str(pipeline["store"]), "--n", n, "--out", str(tmp_path / "b")]
    assert main(argv) == (0 if n == "150" else 2)
    assert capsys.readouterr().err.startswith("warning: only 100" if n == "150" else "error: ")
    assert warnings.filters == filters and warnings.showwarning is show


def test_analyze_annotates_values_out_of_range(tmp_path, capsys):
    records = [{**RECORD, "video_id": f"vid0000000{i}", "views": 1000 + 7 * i * i,
                "likes": 10 + i, "dislikes": 1 + i % 2, "comments": 3 + i * i}
               for i in range(4)]
    records.append({**RECORD, "video_id": "vid00000009", "likes": -1, "dislikes": 2})
    store = _write(tmp_path, "s.jsonl", "".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "b.json"
    assert main(["analyze", "--store", store, "--out", str(out)]) == 0
    bundle = json.loads(out.read_text(encoding="utf-8"))
    assert bundle["summary_metrics"]["DisP"]["max"] == 2.0
    assert bundle["provenance"]["annotations"]["range"] == (
        "negative counts: 1; DisP outside [0, 1]: 1 videos (vid00000009)")


def test_analyze_empty_store_exit5(tmp_path, capsys):
    store = tmp_path / "empty.jsonl"
    store.write_text("", encoding="utf-8")
    assert main(["analyze", "--store", str(store)]) == 5
    assert "error:" in capsys.readouterr().err


def test_analyze_without_comment_enabled_videos_prints_only_the_error(tmp_path, capsys):
    # the shortfall warning would repeat the error, so none is given when nothing is chosen
    store = tmp_path / "off.jsonl"
    store.write_text(json.dumps({**RECORD, "comments": None, "comments_enabled": False}) + "\n",
                     encoding="utf-8")
    assert main(["analyze", "--store", str(store), "--out", str(tmp_path / "b.json")]) == 5
    assert capsys.readouterr().err == f"error: no comment-enabled videos among 1 in {store}\n"


def test_analyze_missing_store_exit4(tmp_path, capsys):
    assert main(["analyze", "--store", str(tmp_path / "gone.jsonl")]) == 4
    assert "error:" in capsys.readouterr().err


def test_analyze_oversized_count_exit4(tmp_path, capsys):
    # enough videos for the summaries to square the oversized views
    records = [
        {"video_id": f"vid0000000{i}", "fetched_at": "2013-12-10T09:00:00Z",
         "views": 1000 + 7 * i * i, "likes": 10 + i, "dislikes": 1 + i % 2,
         "comments": 3 + i * i, "comments_enabled": True, "category": "News"}
        for i in range(5)
    ]
    records[0]["views"] = 10**200
    store = tmp_path / "huge.jsonl"
    store.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert main(["analyze", "--store", str(store), "--out", str(tmp_path / "b.json")]) == 4
    err = capsys.readouterr().err
    assert "line 1" in err
    assert "Traceback" not in err


def test_analyze_lone_surrogate_category_exit4(tmp_path, capsys):
    record = {"video_id": "vid00000001", "fetched_at": "2013-12-10T09:00:00Z",
              "views": 1000, "likes": 10, "dislikes": 1, "comments": 3,
              "comments_enabled": True, "category": "\ud800"}
    store = tmp_path / "surrogate.jsonl"
    store.write_text(json.dumps(record) + "\n", encoding="ascii")  # json.dumps escapes it as \ud800
    assert main(["analyze", "--store", str(store), "--out", str(tmp_path / "b.json")]) == 4
    err = capsys.readouterr().err
    assert "line 1" in err and "category" in err
    assert "Traceback" not in err


def test_analyze_non_utf8_store_exit4(tmp_path, capsys):
    store = tmp_path / "bad.jsonl"
    store.write_bytes(b"\xff\xfe{}\n")
    assert main(["analyze", "--store", str(store), "--out", str(tmp_path / "b.json")]) == 4
    err = capsys.readouterr().err
    assert "line 1" in err
    assert "Traceback" not in err


def test_report_writes_all_formats(pipeline, tmp_path):
    out_dir = tmp_path / "rep"
    argv = ["report", "--bundle", str(pipeline["bundle"]), "--out", str(out_dir)]
    assert main(argv) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(REPORT_FILES)


def test_report_single_format_single_file(pipeline, tmp_path):
    out_dir = tmp_path / "rep"
    argv = ["report", "--bundle", str(pipeline["bundle"]),
            "--format", "json", "--out", str(out_dir)]
    assert main(argv) == 0
    assert [p.name for p in out_dir.iterdir()] == ["report.json"]


def test_report_unknown_format_exit2(pipeline, tmp_path, capsys):
    argv = ["report", "--bundle", str(pipeline["bundle"]),
            "--format", "pdf", "--out", str(tmp_path / "rep")]
    assert main(argv) == 2
    assert "unknown format" in capsys.readouterr().err


def test_report_missing_bundle_exit4(tmp_path, capsys):
    argv = ["report", "--bundle", str(tmp_path / "gone.json"),
            "--out", str(tmp_path / "rep")]
    assert main(argv) == 4
    assert "error:" in capsys.readouterr().err


def test_report_corrupt_bundle_exit4(tmp_path, capsys):
    bundle = tmp_path / "b.json"
    bundle.write_text("not json{", encoding="utf-8")
    assert main(["report", "--bundle", str(bundle), "--out", str(tmp_path / "rep")]) == 4
    assert "not valid JSON" in capsys.readouterr().err


def test_report_rebins_before_rendering(pipeline, tmp_path):
    bins = tmp_path / "bins.json"
    bins.write_text(json.dumps(
        {"cpki": {"edges": [0, 1000], "labels": ["everything"]}}
    ), encoding="utf-8")
    out_dir = tmp_path / "rep"
    argv = ["report", "--bundle", str(pipeline["bundle"]), "--format", "md",
            "--bins", str(bins), "--out", str(out_dir)]
    assert main(argv) == 0
    md = (out_dir / "report.md").read_text(encoding="utf-8")
    assert "| everything | 100 |" in md
    # the saved bundle is untouched
    saved = json.loads(pipeline["bundle"].read_text(encoding="utf-8"))
    assert all(row[0] != "everything" for row in saved["histograms"]["CpkI"]["rows"])


def test_report_bad_bins_exit2(pipeline, tmp_path, capsys):
    bins = tmp_path / "bins.json"
    bins.write_text("{\"cpki\": {\"edges\": [5]}}", encoding="utf-8")
    argv = ["report", "--bundle", str(pipeline["bundle"]), "--bins", str(bins),
            "--out", str(tmp_path / "rep")]
    assert main(argv) == 2
    assert "bad bins file" in capsys.readouterr().err


def test_report_is_deterministic(pipeline, tmp_path):
    outs = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        assert main(["report", "--bundle", str(pipeline["bundle"]),
                     "--out", str(out_dir)]) == 0
        outs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert outs[0] == outs[1]


def test_config_file_supplies_defaults_flags_win(pipeline, tmp_path, capsys):
    config = tmp_path / "engage.json"
    config.write_text(json.dumps({
        "analyze": {"store": str(pipeline["store"]), "n": 5,
                    "out": str(tmp_path / "from_config.json")},
    }), encoding="utf-8")

    assert main(["analyze", "--config", str(config)]) == 0
    data = json.loads((tmp_path / "from_config.json").read_text(encoding="utf-8"))
    assert data["provenance"]["sample_n"] == 5

    flag_out = tmp_path / "from_flag.json"
    assert main(["analyze", "--config", str(config), "--n", "7",
                 "--out", str(flag_out)]) == 0
    data = json.loads(flag_out.read_text(encoding="utf-8"))
    assert data["provenance"]["sample_n"] == 7
    capsys.readouterr()


def test_analyze_without_store_anywhere_exit2(capsys):
    assert main(["analyze"]) == 2
    assert "needs --store" in capsys.readouterr().err


def test_config_file_malformed_exit2(tmp_path, capsys):
    config = tmp_path / "engage.json"
    config.write_text("[1, 2]", encoding="utf-8")
    assert main(["analyze", "--config", str(config), "--store", "s"]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_unknown_section_exit2(pipeline, tmp_path, capsys):
    config = tmp_path / "engage.json"
    config.write_text(json.dumps({"analyse": {"nn": 5}}), encoding="utf-8")
    argv = ["analyze", "--config", str(config), "--store", str(pipeline["store"]),
            "--out", str(tmp_path / "b.json")]
    assert main(argv) == 2
    assert "'analyse'" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


@pytest.mark.parametrize("key", ["nn", "bins"])
def test_config_key_naming_no_flag_exit2(pipeline, tmp_path, capsys, key):
    # "bins" was an analyze key; bins now apply at report time only
    config = tmp_path / "engage.json"
    config.write_text(json.dumps({
        "analyze": {"store": str(pipeline["store"]), key: 5,
                    "out": str(tmp_path / "b.json")},
    }), encoding="utf-8")
    assert main(["analyze", "--config", str(config)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


@pytest.mark.parametrize("command, section", [
    ("fetch", {"region": 5}),
    ("analyze", {"store": "s.jsonl", "out": None}),
    ("report", {"bundle": "b.json", "format": ["md"]}),
])
def test_config_value_not_flag_text_exit2(tmp_path, capsys, command, section):
    config = tmp_path / "engage.json"
    config.write_text(json.dumps({command: section}), encoding="utf-8")
    assert main([command, "--config", str(config)]) == 2
    assert "error:" in capsys.readouterr().err


def test_replicate_takes_no_config(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["replicate", "--config", "x.json", "--out", str(tmp_path / "art")])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_replicate_detects_category_drift(tmp_path, capsys):
    fixture = tmp_path / "fixture"
    shutil.copytree(BUNDLED_FIXTURES, fixture)
    manifest = json.loads((fixture / "expected.json").read_text(encoding="utf-8"))
    manifest["categories"][0][1] += 1
    (fixture / "expected.json").write_text(json.dumps(manifest), encoding="utf-8")

    argv = ["replicate", "--fixture-dir", str(fixture), "--out", str(tmp_path / "art")]
    assert main(argv) == 6
    captured = capsys.readouterr()
    assert "FAIL category table" in captured.out
    assert "replication check failed: category table" in captured.err


def test_replicate_detects_disp_out_of_bounds(tmp_path, capsys):
    fixture = tmp_path / "fixture"
    shutil.copytree(BUNDLED_FIXTURES, fixture)
    target = None
    for page in sorted(fixture.glob("sweep*_page*.json")):
        data = json.loads(page.read_text(encoding="utf-8"))
        for item in data["items"]:
            stats = item["statistics"]
            if "commentCount" not in stats:
                continue
            if target is None:
                target = item["id"]
            if item["id"] == target:
                stats["likeCount"] = "-40"
                stats["dislikeCount"] = "60"
        page.write_text(json.dumps(data), encoding="utf-8")
    assert target is not None

    argv = ["replicate", "--fixture-dir", str(fixture), "--out", str(tmp_path / "art")]
    assert main(argv) == 6
    captured = capsys.readouterr()
    assert "FAIL DisP bounds" in captured.out
    assert target in captured.out
    assert "replication check failed: DisP bounds" in captured.err


def test_replicate_without_comment_enabled_videos_exit5(tmp_path, capsys):
    fixture = tmp_path / "fixture"
    shutil.copytree(BUNDLED_FIXTURES, fixture)
    for page in fixture.glob("sweep*_page*.json"):
        data = json.loads(page.read_text(encoding="utf-8"))
        for item in data["items"]:
            item["statistics"].pop("commentCount", None)
        page.write_text(json.dumps(data), encoding="utf-8")

    argv = ["replicate", "--fixture-dir", str(fixture), "--out", str(tmp_path / "art")]
    assert main(argv) == 5
    assert "no comment-enabled videos among 106 in" in capsys.readouterr().err


def test_replicate_bad_manifest_exit2(tmp_path, capsys):
    fixture = tmp_path / "fixture"
    shutil.copytree(BUNDLED_FIXTURES, fixture)
    (fixture / "expected.json").write_text("{}", encoding="utf-8")
    argv = ["replicate", "--fixture-dir", str(fixture), "--out", str(tmp_path / "art")]
    assert main(argv) == 2
    assert "bad replication manifest" in capsys.readouterr().err


DEEP = "[" * 100_000  # nested past the JSON decoder's recursion limit
RECORD = {"video_id": "vid00000001", "fetched_at": "2013-12-10T09:00:00Z",
          "views": 1000, "likes": 10, "dislikes": 1, "comments": 3,
          "comments_enabled": True, "category": "News"}


def _write(directory: Path, name: str, text: str) -> str:
    path = directory / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _fetch_page(tmp_path, text):
    fixture = tmp_path / "fixture"
    fixture.mkdir()
    _write(fixture, "sweep1_page1.json", text)
    return ["fetch", "--offline", str(fixture), "--store", str(tmp_path / "s.jsonl")]


def _fetch_token(tmp_path, token):
    """A one-page fetch whose page names ``token`` as the next, beside a valid page
    planted outside the fixture directory at ``<tmp_path>/x.json``."""
    planted = {"items": [{"id": "x", "statistics": {"viewCount": "1"}}]}
    _write(tmp_path, "x.json", json.dumps(planted))
    return _fetch_page(tmp_path, json.dumps({
        "items": [{"id": "a", "statistics": {"viewCount": "1"}}], "nextPageToken": token,
        "recordedAt": "2013-12-10T09:00:00Z"}))


def _fetch_ids(tmp_path, data):
    ids = tmp_path / "ids.txt"
    ids.write_bytes(data)
    return ["fetch", "--ids", str(ids), "--store", str(tmp_path / "s.jsonl")]


def _replicate_manifest(tmp_path, text):
    fixture = tmp_path / "fixture"
    shutil.copytree(BUNDLED_FIXTURES, fixture)
    _write(fixture, "expected.json", text)
    return ["replicate", "--fixture-dir", str(fixture), "--out", str(tmp_path / "art")]


def _analyze_store(tmp_path, text):
    store = _write(tmp_path, "s.jsonl", text)
    return ["analyze", "--store", store, "--out", str(tmp_path / "b.json")]


def _report(tmp_path, bundle, bins=None):
    argv = ["report", "--bundle", str(bundle), "--out", str(tmp_path / "rep")]
    return argv + ["--bins", _write(tmp_path, "bins.json", bins)] if bins else argv


MISSING = object()


def _bundle_with(tmp_path, bundle, path, value):
    """The bundle with the field at ``path``, a list of keys, set to ``value``,
    or removed when ``value`` is ``MISSING``."""
    data = json.loads(Path(bundle).read_text(encoding="utf-8"))
    field = data
    for key in path[:-1]:
        field = field[key]
    if value is MISSING:
        del field[path[-1]]
    else:
        field[path[-1]] = value
    # ASCII, with JSON escapes; NaN as the bare token
    return _write(tmp_path, "b.json", json.dumps(data))


# (case, exit code, text the error names, argv from a scratch directory and a valid bundle)
BAD_INPUT_CASES = [
    ("config-nested", 2, "config file",
     lambda tmp, _: ["analyze", "--config", _write(tmp, "c.json", DEEP), "--store", "s.jsonl"]),
    ("fixture-page-nested", 3, "fixture page", lambda tmp, _: _fetch_page(tmp, DEEP)),
    ("bundle-nested", 4, "is not valid JSON",
     lambda tmp, _: _report(tmp, _write(tmp, "b.json", DEEP))),
    ("bins-nested", 2, "bad bins file", lambda tmp, bundle: _report(tmp, bundle, DEEP)),
    ("manifest-nested", 2, "replication manifest", lambda tmp, _: _replicate_manifest(tmp, DEEP)),
    ("bundle-not-an-object", 4, "is not a JSON object",
     lambda tmp, _: _report(tmp, _write(tmp, "b.json", "[1]"))),
    ("store-line-nested", 4, "line 1", lambda tmp, _: _analyze_store(tmp, DEEP + "\n")),
    # the sample size is checked before the store is read, so a missing store is not named
    ("analyze-n-zero-missing-store", 2, "sample size must be >= 1, got 0",
     lambda tmp, _: ["analyze", "--store", str(tmp / "missing.jsonl"), "--n", "0",
                     "--out", str(tmp / "b.json")]),
    ("store-fetched-at-past-range", 4, "line 1: bad timestamp",
     lambda tmp, _: _analyze_store(
         tmp, json.dumps({**RECORD, "fetched_at": "9999-12-31T23:59:59-01:00"}) + "\n")),
    ("page-count-float", 3, "views is not a 64-bit count: 3.7",
     lambda tmp, _: _fetch_page(tmp, json.dumps({
         "items": [{"id": "a", "statistics": {"viewCount": 3.7}}],
         "recordedAt": "2013-12-10T09:00:00Z"}))),
    ("page-count-underscore", 3, "views is not a 64-bit count: '1_000'",
     lambda tmp, _: _fetch_page(tmp, json.dumps({
         "items": [{"id": "a", "statistics": {"viewCount": "1_000"}}],
         "recordedAt": "2013-12-10T09:00:00Z"}))),
    # an empty token would ask for the first page again, up to MAX_PAGES times
    ("page-token-empty", 3, "bad nextPageToken: ''",
     lambda tmp, _: _fetch_page(tmp, json.dumps({
         "items": [{"id": "a", "statistics": {"viewCount": "1"}}], "nextPageToken": "",
         "recordedAt": "2013-12-10T09:00:00Z"}))),
    # a page whose token names itself would be read again, up to MAX_PAGES times
    ("page-token-cycle", 3, "repeated nextPageToken: 'sweep1_page1'",
     lambda tmp, _: _fetch_token(tmp, "sweep1_page1")),
    # a token is a file stem in the fixture directory, never a path out of it
    ("page-token-path", 3, "bad nextPageToken for a fixture page: '../x'",
     lambda tmp, _: _fetch_token(tmp, "../x")),
    ("page-token-path-absolute", 3, "bad nextPageToken for a fixture page: '/",
     lambda tmp, _: _fetch_token(tmp, str(tmp / "x"))),
    ("page-recorded-at-past-range", 3, "bad timestamp",
     lambda tmp, _: _fetch_page(
         tmp, json.dumps({"items": [], "recordedAt": "0001-01-01T00:00:00+01:00"}))),
    ("bins-edges-not-a-list", 2, "bad bins file",
     lambda tmp, bundle: _report(tmp, bundle, '{"cpki": {"edges": 5}}')),
    ("bins-edge-overflows", 2, "bad bins file",
     lambda tmp, bundle: _report(tmp, bundle, '{"cpki": {"edges": [0, 1e400]}}')),
    ("bins-edge-nan", 2, "bad bins file",
     lambda tmp, bundle: _report(tmp, bundle, '{"cpki": {"edges": [NaN, 1]}}')),
    ("bins-edge-string", 2, "bad bins file",
     lambda tmp, bundle: _report(tmp, bundle, '{"CpkI": {"edges": ["0", "1", "2"]}}')),
    ("bins-edge-bool", 2, "bad bins file",
     lambda tmp, bundle: _report(tmp, bundle, '{"VpkI": {"edges": [false, true]}}')),
    ("bins-label-surrogate", 2, "bad bins file",
     lambda tmp, bundle: _report(
         tmp, bundle, '{"cpki": {"edges": [0, 1000], "labels": ["\\ud800"]}}')),
    ("ids-not-utf8", 2, "cannot read id list", lambda tmp, _: _fetch_ids(tmp, b"abc\xff\n")),
    ("bundle-category-surrogate", 4, "cannot write",
     lambda tmp, bundle: _report(tmp, _bundle_with(tmp, bundle, ["categories", 0, 0], "\ud800"))),
    # a valid bins file over a bundle whose rates cannot be binned blames the bundle
    ("bundle-rate-past-float-range", 4, "bundle.rates.CpkI must be a list of nulls and finite numbers",
     lambda tmp, bundle: _report(tmp, _bundle_with(tmp, bundle, ["rates", "CpkI", 0], 10**400),
                                 '{"cpki": {"edges": [0, 1, 2]}}')),
    ("bundle-rate-not-a-number", 4, "bundle.rates.CpkI must be a list of nulls and finite numbers",
     lambda tmp, bundle: _report(tmp, _bundle_with(tmp, bundle, ["rates", "CpkI", 0], "x"),
                                 '{"cpki": {"edges": [0, 1, 2]}}')),
    # a rate that is not a finite number is refused on load, with or without --bins
    ("bundle-rate-numeric-string", 4, "bundle.rates.CpkI must be a list of nulls and finite numbers",
     lambda tmp, bundle: _report(tmp, _bundle_with(tmp, bundle, ["rates", "CpkI", 0], "1.5"))),
    ("bundle-rate-nan", 4, "bundle.rates.CpkI must be a list of nulls and finite numbers",
     lambda tmp, bundle: _report(tmp, _bundle_with(
         tmp, bundle, ["rates", "CpkI", 0], float("nan")))),
    ("bundle-rate-true", 4, "bundle.rates.CpkI must be a list of nulls and finite numbers",
     lambda tmp, bundle: _report(tmp, _bundle_with(tmp, bundle, ["rates", "CpkI", 0], True))),
    # summaries, cells and matrix shapes are checked on load, naming the field
    ("bundle-summary-mean-string", 4, "summary_metrics.CpkI.mean",
     lambda tmp, bundle: _report(tmp, _bundle_with(
         tmp, bundle, ["summary_metrics", "CpkI", "mean"], "1.5"))),
    ("bundle-summary-mean-nan", 4, "summary_metrics.CpkI.mean",
     lambda tmp, bundle: _report(tmp, _bundle_with(
         tmp, bundle, ["summary_metrics", "CpkI", "mean"], float("nan")))),
    ("bundle-summary-n-string", 4, "summary_basic.Views.n",
     lambda tmp, bundle: _report(tmp, _bundle_with(
         tmp, bundle, ["summary_basic", "Views", "n"], "100"))),
    ("bundle-cell-r-string", 4, "corr_full.cells[1][0].r",
     lambda tmp, bundle: _report(tmp, _bundle_with(
         tmp, bundle, ["corr_full", "cells", 1, 0, "r"], "0.5"))),
    ("bundle-cell-r-nan", 4, "corr_full.cells[1][0].r",
     lambda tmp, bundle: _report(tmp, _bundle_with(
         tmp, bundle, ["corr_full", "cells", 1, 0, "r"], float("nan")))),
    ("bundle-cell-r-past-one", 4, "corr_upper_quartiles.cells[2][1].r",
     lambda tmp, bundle: _report(tmp, _bundle_with(
         tmp, bundle, ["corr_upper_quartiles", "cells", 2, 1, "r"], 1.5))),
    ("bundle-cell-p-negative", 4, "corr_full.cells[1][0].p_value",
     lambda tmp, bundle: _report(tmp, _bundle_with(
         tmp, bundle, ["corr_full", "cells", 1, 0, "p_value"], -0.5))),
    ("bundle-cell-error-int", 4, "corr_full.cells[1][0].error",
     lambda tmp, bundle: _report(tmp, _bundle_with(
         tmp, bundle, ["corr_full", "cells", 1, 0, "error"], 1))),
    ("bundle-matrix-row-empty", 4, "corr_full.cells must be 8 rows of 8 cells",
     lambda tmp, bundle: _report(tmp, _bundle_with(
         tmp, bundle, ["corr_full", "cells", 1], []))),
    ("bundle-matrix-names-short", 4, "bundle.corr_full.names must be the list",
     lambda tmp, bundle: _report(tmp, _bundle_with(
         tmp, bundle, ["corr_full", "names"], list(CORR_NAMES[:-1])))),
    # the bundle's own fields, its provenance and histogram fields are checked on load,
    # naming the field
    *((f"bundle-{case}", 4, named, lambda tmp, bundle, path=path, value=value: _report(
        tmp, _bundle_with(tmp, bundle, path, value)))
      for case, named, path, value in (
          ("coverage-notes-int", "provenance.coverage_notes",
           ["provenance", "coverage_notes"], 1),
          ("sample-n-missing", "provenance.sample_n is missing",
           ["provenance", "sample_n"], MISSING),
          ("fetched-from-int", "provenance.fetched_from", ["provenance", "fetched_from"], 5),
          ("selection-note-int", "provenance.selection_note",
           ["provenance", "selection_note"], 5),
          ("upper-quartile-n-string", "provenance.upper_quartile_n",
           ["provenance", "upper_quartile_n"], "75"),
          ("annotations-list", "provenance.annotations", ["provenance", "annotations"], []),
          ("annotation-int", "provenance.annotations",
           ["provenance", "annotations"], {"corr_full": 1}),
          ("histogram-count-string", "histograms.CpkI.rows",
           ["histograms", "CpkI", "rows", 0, 1], "3"),
          ("histogram-underflow-string", "histograms.CpkI.underflow",
           ["histograms", "CpkI", "underflow"], "0"),
          # counts past the float range, which the text plot once scaled into a traceback
          ("histogram-count-past-float-range", "bundle.histograms.CpkI.rows",
           ["histograms", "CpkI", "rows", 0, 1], 10**400),
          ("histogram-underflow-negative", "bundle.histograms.CpkI.underflow",
           ["histograms", "CpkI", "underflow"], -(2**64)),
          *((f"{key.replace('_', '-')}-list", f"bundle.{key} must be an object", [key], [])
            for key in ("histograms", "summary_basic", "summary_metrics", "rates", "corr_full")),
          ("categories-int", "bundle.categories must be a list of [category, count] pairs",
           ["categories"], 3),
          ("category-count-string", "bundle.categories", ["categories"], [["a", "x"]]),
          ("rate-series-int", "bundle.rates.CpkI must be a list", ["rates", "CpkI"], 3),
          ("matrix-names-int", "bundle.corr_full.names must be the list",
           ["corr_full", "names"], 3),
          # each table holds exactly the names that the renders read
          ("summary-missing", "bundle.summary_metrics.CpkI is missing",
           ["summary_metrics", "CpkI"], MISSING),
          ("histograms-empty", "bundle.histograms.CpkI is missing", ["histograms"], {}),
          ("rates-empty", "bundle.rates.CpkI is missing", ["rates"], {}),
          ("summary-extra", "bundle.summary_basic has the unknown field 'Zed'",
           ["summary_basic", "Zed"], {"n": 0, **dict.fromkeys(
               ("mean", "std_dev", "min", "max", "skewness", "kurtosis", "bin_mode"))}),
          ("matrix-name-renamed", "bundle.corr_full.names must be the list",
           ["corr_full", "names", 0], "Cpk"),
      )),
]


@pytest.mark.parametrize("code, named, make_argv", [case[1:] for case in BAD_INPUT_CASES],
                         ids=[case[0] for case in BAD_INPUT_CASES])
def test_bad_input_file_exits_with_its_code(pipeline, tmp_path, capsys, code, named, make_argv):
    assert main(make_argv(tmp_path, pipeline["bundle"])) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "rep" / "report.md").exists()


def _value_paths(value, path=()):
    """The path, as a tuple of keys, of ``value`` and of every value inside it, where
    a list stands for its items by its first and its last: so each field of the bundle
    is about as likely to be drawn, and not mostly a rate."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    else:
        items = [(0, value[0]), (-1, value[-1])] if isinstance(value, list) and value else []
    for key, item in items:
        yield from _value_paths(item, (*path, key))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


OTHER_TYPES = [None, True, 0, 2.5, "x", [], {}, [[]]]
EXTREMES = [-1, 2**63, 2**64, -(2**64), 10**400, 1.7976931348623157e308, -1e308, 5e-324,
            float("nan"), float("inf"), float("-inf")]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_report_on_a_mutated_bundle_exits_0_or_4(pipeline, tmp_path_factory, data):
    # one mutation of the bundle: a value swapped for another type, an extreme number or
    # a lone surrogate, a key deleted or added, or the file cut at any byte
    text = pipeline["bundle"].read_text(encoding="utf-8")
    bundle = json.loads(text)
    mutation = data.draw(st.sampled_from(
        ["type", "extreme", "surrogate", "delete", "add", "truncate"]))
    if mutation == "truncate":
        raw = text.encode("utf-8")
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    else:
        paths = list(_value_paths(bundle))
        if mutation == "add":
            paths = [path for path in paths if isinstance(_at(bundle, path), (dict, list))]
        elif mutation == "delete":
            paths = paths[1:]
        path = data.draw(st.sampled_from(paths))
        if mutation == "add":
            container = _at(bundle, path)
            value = data.draw(st.sampled_from(OTHER_TYPES))
            if isinstance(container, dict):
                container[data.draw(st.sampled_from(["extra", "\ud800", ""]))] = value
            else:
                container.append(value)
        elif mutation == "delete":
            del _at(bundle, path[:-1])[path[-1]]
        else:
            value = data.draw(st.sampled_from(
                {"type": OTHER_TYPES, "extreme": EXTREMES, "surrogate": ["\ud800"]}[mutation]))
            if path:
                _at(bundle, path[:-1])[path[-1]] = value
            else:
                bundle = value
        raw = json.dumps(bundle).encode("ascii")  # lone surrogates as JSON escapes
    base = tmp_path_factory.getbasetemp()
    (base / "fuzz.json").write_bytes(raw)
    argv = ["report", "--bundle", str(base / "fuzz.json"), "--out", str(base / "fuzz-rep")]
    if data.draw(st.booleans()):
        argv += ["--bins", _write(base, "fuzz-bins.json", '{"cpki": {"edges": [0, 1, 2]}}')]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert code == 0 or err.getvalue().startswith("error: ")


def test_help_names_exit_codes_and_drift(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "not reproducible from today's API" in out
    assert "6 replication check" in out
    assert "$ENGAGE_API_KEY" in out


def test_api_key_never_a_flag():
    with pytest.raises(SystemExit) as exc:
        main(["fetch", "--api-key", "xyz"])
    assert exc.value.code == 2
