"""The public records are immutable NamedTuples: fields, defaults, construction,
repr, equality, hashing and validation, for each of the nine."""

import re
from datetime import datetime, timezone
from fractions import Fraction

import pytest

from engage import (
    BinSpec,
    CorrelationCell,
    CorrelationMatrix,
    EngagementMetrics,
    Histogram,
    ReportBundle,
    SampleSummary,
    StudySample,
    VideoStatsSnapshot,
)

T = datetime(2013, 12, 10, 9, tzinfo=timezone.utc)
T_TEXT = "datetime.datetime(2013, 12, 10, 9, 0, tzinfo=datetime.timezone.utc)"
SNAPSHOT = VideoStatsSnapshot("a", T, 1000)
SNAPSHOT_TEXT = (f"VideoStatsSnapshot(video_id='a', fetched_at={T_TEXT}, views=1000, likes=None,"
                 " dislikes=None, comments=None, comments_enabled=True, category='')")
CELL = CorrelationCell(None, None, 1)
EMPTY_MATRIX = CorrelationMatrix((), ())

# each record: its class, its field names in order, the values of its required
# fields, its defaults, and the repr of the record built from those values
RECORDS = [
    (VideoStatsSnapshot,
     ("video_id", "fetched_at", "views", "likes", "dislikes", "comments", "comments_enabled",
      "category"),
     ("a", T, 1000),
     {"likes": None, "dislikes": None, "comments": None, "comments_enabled": True,
      "category": ""},
     SNAPSHOT_TEXT),
    (EngagementMetrics, ("cpki", "vpki", "disp"), (),
     {"cpki": None, "vpki": None, "disp": None},
     "EngagementMetrics(cpki=None, vpki=None, disp=None)"),
    (SampleSummary,
     ("n", "mean", "std_dev", "min", "max", "skewness", "kurtosis", "bin_mode"), (0,),
     dict.fromkeys(("mean", "std_dev", "min", "max", "skewness", "kurtosis", "bin_mode")),
     "SampleSummary(n=0, mean=None, std_dev=None, min=None, max=None, skewness=None,"
     " kurtosis=None, bin_mode=None)"),
    (BinSpec, ("edges", "labels"), ((0.0, 1.0),), {"labels": None},
     "BinSpec(edges=(0.0, 1.0), labels=None)"),
    (Histogram, ("rows", "underflow", "overflow"), ((("0-1", 2),),),
     {"underflow": 0, "overflow": 0},
     "Histogram(rows=(('0-1', 2),), underflow=0, overflow=0)"),
    (CorrelationCell, ("r", "p_value", "n", "error"), (None, None, 1), {"error": None},
     "CorrelationCell(r=None, p_value=None, n=1, error=None)"),
    (CorrelationMatrix, ("names", "cells"), (("x",), ((CELL,),)), {},
     "CorrelationMatrix(names=('x',), cells=((CorrelationCell(r=None, p_value=None, n=1,"
     " error=None),),))"),
    (StudySample, ("snapshots", "selection_note"), ((SNAPSHOT,),), {"selection_note": ""},
     f"StudySample(snapshots=({SNAPSHOT_TEXT},), selection_note='')"),
    (ReportBundle,
     ("provenance", "summary_basic", "summary_metrics", "corr_full", "corr_upper_quartiles",
      "histograms", "categories", "rates"),
     ({}, {}, {}, EMPTY_MATRIX, EMPTY_MATRIX, {}, [], {}), {},
     "ReportBundle(provenance={}, summary_basic={}, summary_metrics={},"
     " corr_full=CorrelationMatrix(names=(), cells=()),"
     " corr_upper_quartiles=CorrelationMatrix(names=(), cells=()), histograms={},"
     " categories=[], rates={})"),
]
IDS = [record[0].__name__ for record in RECORDS]


@pytest.mark.parametrize("cls, fields, required, defaults, text", RECORDS, ids=IDS)
def test_record_keeps_its_fields_defaults_and_repr(cls, fields, required, defaults, text):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    positional = cls(*required)
    by_keyword = cls(**dict(zip(fields, required)))
    assert positional == by_keyword
    assert tuple(positional) == (*required, *defaults.values())
    assert repr(positional) == repr(by_keyword) == text
    assert list(positional._asdict()) == list(fields)
    assert positional._asdict() == dict(zip(fields, positional))
    assert positional._replace() == positional
    if cls is not ReportBundle:  # the bundle's tables are dicts, as before
        assert hash(positional) == hash(by_keyword)
    else:
        with pytest.raises(TypeError):
            hash(positional)


@pytest.mark.parametrize("cls, fields, required, defaults, text", RECORDS, ids=IDS)
def test_record_is_immutable(cls, fields, required, defaults, text):
    record = cls(*required)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], getattr(record, fields[0]))
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict, on a validating subclass too
    assert record == cls(*required)


def test_records_are_equal_by_value():
    assert SampleSummary(3, mean=1.5) == SampleSummary(3, 1.5)
    assert SampleSummary(3, mean=1.5) != SampleSummary(3, mean=2.5)
    assert EngagementMetrics(Fraction(1, 2)) == EngagementMetrics(cpki=Fraction(2, 4))
    # a NamedTuple compares as the tuple of its fields
    assert BinSpec((0.0, 1.0)) == ((0.0, 1.0), None)
    assert {BinSpec((0.0, 1.0)), BinSpec((0.0, 1.0), None)} == {BinSpec((0.0, 1.0))}


def test_record_methods_and_properties_are_kept():
    assert BinSpec((0.0, 0.5, 1.0)).bin_labels == ("0-0.5", "0.5-1")
    assert BinSpec((0.0, 1.0), ("low",)).bin_labels == ("low",)
    assert Histogram((("a", 1), ("b", 3), ("c", 3))).mode == "b"
    assert Histogram((("a", 0),)).mode is None
    matrix = CorrelationMatrix(("x", "y"), ((CELL, CorrelationCell(0.5, 0.2, 9)),
                                            (CorrelationCell(0.5, 0.2, 9), CELL)))
    assert matrix.cell("x", "y") == CorrelationCell(0.5, 0.2, 9)


DUPLICATE = VideoStatsSnapshot("a", T, 2)

INVALID = [
    (BinSpec((0.0, 1.0)), {"edges": (0.0,)}, ValueError, "BinSpec needs at least 2 edges"),
    (BinSpec((0.0, 1.0)), {"edges": (0.0, float("nan"))}, ValueError,
     "BinSpec edges must be finite, got (0.0, nan)"),
    (BinSpec((0.0, 1.0)), {"edges": (1.0, 0.0)}, ValueError,
     "BinSpec edges must be strictly increasing"),
    (BinSpec((0.0, 1.0)), {"labels": ("a", "b")}, ValueError,
     "BinSpec has 1 bins but 2 labels"),
    (StudySample((SNAPSHOT,)), {"snapshots": (SNAPSHOT, DUPLICATE)}, ValueError,
     "duplicate video ids in sample: ['a']"),
]


@pytest.mark.parametrize("valid, change, error, message", INVALID,
                         ids=[f"{case[0].__class__.__name__}-{i}" for i, case in enumerate(INVALID)])
def test_invalid_record_raises_from_the_constructor_and_from_replace(valid, change, error, message):
    cls = type(valid)
    fields = {**valid._asdict(), **change}
    match = f"^{re.escape(message)}$"
    with pytest.raises(error, match=match):
        cls(**fields)
    with pytest.raises(error, match=match):
        cls(*fields.values())
    with pytest.raises(error, match=match):
        valid._replace(**change)
    with pytest.raises(error, match=match):
        cls._make(fields.values())
