import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import engage
from engage import ingestion
from engage.cli import main
from engage.ingestion import load_snapshots

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
    # -S: no site hooks, so only engage.cli's own imports are counted
    code = ("import sys, engage.cli; print(sorted(set(sys.modules)"
            " & {'scipy', 'numpy', 'requests', 'urllib.request'}))")
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


def test_fetch_cuts_a_torn_tail_once(tmp_path, capsys, caplog):
    fresh = tmp_path / "fresh.jsonl"
    assert main(["fetch", "--offline", str(BUNDLED_FIXTURES), "--store", str(fresh)]) == 0
    first_line = fresh.read_bytes().split(b"\n")[0] + b"\n"
    store = tmp_path / "s.jsonl"
    store.write_bytes(first_line + b'{"video_id": "torn')
    with caplog.at_level("WARNING"):
        assert main(["fetch", "--offline", str(BUNDLED_FIXTURES), "--store", str(store)]) == 0
    assert "fetched 6 pages, 180 snapshots, 106 unique ids" in capsys.readouterr().out
    assert store.read_bytes() == first_line + fresh.read_bytes()
    assert [r.getMessage() for r in caplog.records if "torn" in r.getMessage()] == [
        "s.jsonl: torn final line of 18 bytes dropped before appending:"
        " Unterminated string starting at: line 1 column 14 (char 13)"]
    assert len(load_snapshots(store).snapshots) == 106  # strict: every line is whole


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


def test_analyze_empty_store_exit5(tmp_path, capsys):
    store = tmp_path / "empty.jsonl"
    store.write_text("", encoding="utf-8")
    assert main(["analyze", "--store", str(store)]) == 5
    assert "error:" in capsys.readouterr().err


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


def _bundle_with_category(tmp_path, bundle, category):
    data = json.loads(Path(bundle).read_text(encoding="utf-8"))
    data["categories"][0][0] = category
    return _write(tmp_path, "b.json", json.dumps(data))  # ASCII, with JSON escapes


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
    ("store-fetched-at-past-range", 4, "line 1: bad timestamp",
     lambda tmp, _: _analyze_store(
         tmp, json.dumps({**RECORD, "fetched_at": "9999-12-31T23:59:59-01:00"}) + "\n")),
    ("page-recorded-at-past-range", 3, "bad timestamp",
     lambda tmp, _: _fetch_page(
         tmp, json.dumps({"items": [], "recordedAt": "0001-01-01T00:00:00+01:00"}))),
    ("bins-edges-not-a-list", 2, "bad bins file",
     lambda tmp, bundle: _report(tmp, bundle, '{"cpki": {"edges": 5}}')),
    ("bins-edge-overflows", 2, "bad bins file",
     lambda tmp, bundle: _report(tmp, bundle, '{"cpki": {"edges": [0, 1e400]}}')),
    ("bins-edge-nan", 2, "bad bins file",
     lambda tmp, bundle: _report(tmp, bundle, '{"cpki": {"edges": [NaN, 1]}}')),
    ("bins-label-surrogate", 2, "bad bins file",
     lambda tmp, bundle: _report(
         tmp, bundle, '{"cpki": {"edges": [0, 1000], "labels": ["\\ud800"]}}')),
    ("bundle-category-surrogate", 4, "cannot write",
     lambda tmp, bundle: _report(tmp, _bundle_with_category(tmp, bundle, "\ud800"))),
]


@pytest.mark.parametrize("code, named, make_argv", [case[1:] for case in BAD_INPUT_CASES],
                         ids=[case[0] for case in BAD_INPUT_CASES])
def test_bad_input_file_exits_with_its_code(pipeline, tmp_path, capsys, code, named, make_argv):
    assert main(make_argv(tmp_path, pipeline["bundle"])) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "rep" / "report.md").exists()


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
