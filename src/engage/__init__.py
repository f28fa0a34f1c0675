"""Relative engagement rates for online video statistics.

Three per-video rates normalize the platform's raw counters so videos of
different popularity can be compared: CpkI (comments per thousand
impressions), VpkI (votes per thousand impressions) and DisP (the dislike
share of all votes). The package fetches trending-chart snapshots (live
or from recorded fixtures), stores them as JSON lines, selects a study
sample, and renders descriptive statistics, correlation matrices,
histograms and category tables.
"""

from .ingestion import (
    API_KEY_ENV,
    CATEGORY_LABELS,
    ConfigError,
    EmptySampleError,
    EngageError,
    EngageWarning,
    FixtureTransport,
    LiveTransport,
    ParseError,
    QuotaExceededError,
    StorageError,
    Transport,
    TransportError,
    dedup_latest,
    fetch_by_ids,
    load_snapshots,
    select_study_sample,
    store_snapshots,
)
from .metrics import (
    EngagementMetrics,
    VideoStatsSnapshot,
    compute_cpki,
    compute_disp,
    compute_metrics,
    compute_vpki,
)
from .report import (
    DEFAULT_BINS,
    ReportBundle,
    build_report,
    bundle_from_json,
    bundle_to_json,
    render,
    render_histogram_plot,
)
from .stats import (
    BinSpec,
    CorrelationCell,
    CorrelationMatrix,
    Histogram,
    SampleSummary,
    StudySample,
    category_counts,
    correlation_matrix,
    histogram,
    pearson,
    summarize,
    upper_quartile_rows,
)

__version__ = "0.1.0"

__all__ = [
    "API_KEY_ENV",
    "BinSpec",
    "CATEGORY_LABELS",
    "ConfigError",
    "CorrelationCell",
    "CorrelationMatrix",
    "DEFAULT_BINS",
    "EmptySampleError",
    "EngageError",
    "EngageWarning",
    "EngagementMetrics",
    "FixtureTransport",
    "Histogram",
    "LiveTransport",
    "ParseError",
    "QuotaExceededError",
    "ReportBundle",
    "SampleSummary",
    "StorageError",
    "StudySample",
    "Transport",
    "TransportError",
    "VideoStatsSnapshot",
    "build_report",
    "bundle_from_json",
    "bundle_to_json",
    "category_counts",
    "compute_cpki",
    "compute_disp",
    "compute_metrics",
    "compute_vpki",
    "correlation_matrix",
    "dedup_latest",
    "fetch_by_ids",
    "histogram",
    "load_snapshots",
    "pearson",
    "render",
    "render_histogram_plot",
    "select_study_sample",
    "store_snapshots",
    "summarize",
    "upper_quartile_rows",
    "__version__",
]
