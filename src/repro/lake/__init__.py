"""Columnar result lake + cross-run analytics.

JSONL run directories are the engine's durable write format; the lake is
where they go to be *queried*.  :class:`ResultLake` compacts run dirs
into schema-versioned numpy struct-of-arrays segments (``runs/*.npz``)
under one catalog, and :mod:`repro.lake.query` derives canonical per-run
summaries -- byte-identical to the JSONL path -- plus cross-run trend,
contour, and profile-longevity reports.
"""

from .columns import (
    LAKE_SCHEMA,
    RunColumns,
    decode_results,
    encode_results,
    load_columns,
    save_columns,
)
from .query import (
    REPORTS,
    contour_report,
    longevity_report,
    run_summary,
    runs_report,
    summary_from_lake,
    summary_from_run_dir,
    trend_report,
)
from .store import (
    CompactionReport,
    ResultLake,
    fold_results_jsonl,
    run_id_for_dir,
)

__all__ = [
    "LAKE_SCHEMA",
    "RunColumns",
    "decode_results",
    "encode_results",
    "load_columns",
    "save_columns",
    "CompactionReport",
    "ResultLake",
    "fold_results_jsonl",
    "run_id_for_dir",
    "REPORTS",
    "run_summary",
    "runs_report",
    "trend_report",
    "contour_report",
    "longevity_report",
    "summary_from_lake",
    "summary_from_run_dir",
]
