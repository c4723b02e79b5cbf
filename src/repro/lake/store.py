"""The columnar result lake: offline compaction and the run catalog.

A lake is one directory::

    <lake_root>/
        lake.json                   # schema-versioned catalog of runs
        runs/<run_id>.npz           # one columnar segment per run

The engine writes run directories through
:class:`~repro.runner.store.ResultStore`; the lake only reads them.
:meth:`ResultLake.compact_run_dir` streams a run directory's
``results.jsonl``/``events.jsonl`` into one columnar segment (later rows
win, as on resume), and the catalog remembers each run's manifest so
cross-run queries can group by campaign configuration.
"""

from __future__ import annotations

import os
import pathlib
import re
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..errors import ConfigurationError
from ..jsonfiles import JsonlRows, read_json, write_json
from ..runner.store import EVENTS_NAME, MANIFEST_NAME, RESULTS_NAME
from ..runner.units import UnitResult
from .columns import LAKE_SCHEMA, RunColumns, decode_results, encode_results, load_columns, save_columns

CATALOG_NAME = "lake.json"
RUNS_DIR_NAME = "runs"
SEGMENT_SUFFIX = ".npz"

_RUN_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,119}$")


def validate_run_id(run_id: str) -> str:
    if not _RUN_ID_RE.match(run_id):
        raise ConfigurationError(
            f"invalid lake run id {run_id!r}: use 1-120 chars of "
            "[A-Za-z0-9._-], starting with an alphanumeric"
        )
    return run_id


def run_id_for_dir(run_dir: Union[str, os.PathLike]) -> str:
    """Derive a catalog run id from a run directory path (sanitized)."""
    name = pathlib.Path(run_dir).resolve().name or "run"
    cleaned = re.sub(r"[^A-Za-z0-9._-]", "-", name).lstrip("._-") or "run"
    return validate_run_id(cleaned[:120])


def fold_results_jsonl(
    path: Union[str, os.PathLike],
) -> Tuple[Dict[str, Dict[str, Any]], int, int]:
    """Fold a ``results.jsonl`` into ``unit_id -> final row``, streaming.

    Later rows win.  Compaction is an offline ingest pass, so one corrupt
    row costs one row, not the run: lines that are not JSON objects and
    rows without a ``unit_id`` are counted, not raised.  Returns
    ``(rows, raw_rows, skipped)``.
    """
    reader = JsonlRows(path)
    rows: Dict[str, Dict[str, Any]] = {}
    raw_rows = no_unit_id = 0
    for row in reader:
        if "unit_id" in row:
            rows[str(row["unit_id"])] = row
            raw_rows += 1
        else:
            no_unit_id += 1
    return rows, raw_rows, no_unit_id + reader.skipped


@dataclass(frozen=True)
class CompactionReport:
    """What one compaction pass ingested."""

    run_id: str
    segment: pathlib.Path
    units: int
    observations: int
    events: int
    source_rows: int
    skipped_lines: int

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "segment": str(self.segment),
            "units": self.units,
            "observations": self.observations,
            "events": self.events,
            "source_rows": self.source_rows,
            "skipped_lines": self.skipped_lines,
        }


class ResultLake:
    """Catalog + columnar segments for many compacted runs."""

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = pathlib.Path(root)
        self.catalog_path = self.root / CATALOG_NAME
        self.runs_dir = self.root / RUNS_DIR_NAME

    # -- catalog -------------------------------------------------------
    def _load_catalog(self) -> Dict[str, Any]:
        if not self.catalog_path.exists():
            return {"schema": LAKE_SCHEMA, "runs": {}}
        try:
            catalog = read_json(self.catalog_path)
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"{exc}; restore it from backup or delete the lake directory "
                "and recompact the runs"
            ) from exc
        if not isinstance(catalog.get("runs"), dict):
            raise ConfigurationError(
                f"{self.catalog_path} does not hold a lake catalog object"
            )
        schema = catalog.get("schema")
        if schema != LAKE_SCHEMA:
            raise ConfigurationError(
                f"{self.catalog_path} carries lake schema {schema!r}; this "
                f"reader understands schema {LAKE_SCHEMA} -- recompact into "
                "a fresh lake directory"
            )
        return catalog

    def run_ids(self) -> List[str]:
        return sorted(self._load_catalog()["runs"])

    def entry(self, run_id: str) -> Dict[str, Any]:
        catalog = self._load_catalog()
        try:
            return dict(catalog["runs"][run_id])
        except KeyError:
            known = ", ".join(sorted(catalog["runs"])) or "<empty lake>"
            raise ConfigurationError(
                f"run {run_id!r} is not in the lake (known runs: {known})"
            ) from None

    def manifest(self, run_id: str) -> Dict[str, Any]:
        manifest = self.entry(run_id).get("manifest")
        return dict(manifest) if isinstance(manifest, dict) else {}

    # -- segment paths -------------------------------------------------
    def segment_path(self, run_id: str) -> pathlib.Path:
        return self.runs_dir / (run_id + SEGMENT_SUFFIX)

    # -- ingest --------------------------------------------------------
    def write_run(
        self,
        run_id: str,
        rows: Mapping[str, Mapping[str, Any]],
        manifest: Optional[Mapping[str, Any]] = None,
        events: Optional[Iterable[Mapping[str, Any]]] = None,
        source: Optional[str] = None,
        source_rows: int = 0,
        skipped_lines: int = 0,
    ) -> CompactionReport:
        """Encode folded rows into a segment and register it in the catalog."""
        validate_run_id(run_id)
        cols = encode_results(rows, events=list(events) if events else None)
        segment = save_columns(cols, self.segment_path(run_id))
        catalog = self._load_catalog()
        catalog["runs"][run_id] = {
            "segment": f"{RUNS_DIR_NAME}/{run_id}{SEGMENT_SUFFIX}",
            "manifest": dict(manifest) if manifest is not None else None,
            "source": source,
            "units": cols.n_units,
            "observations": cols.n_observations,
            "events": cols.n_events,
            "source_rows": int(source_rows),
            "skipped_lines": int(skipped_lines),
        }
        write_json(self.catalog_path, catalog)
        return CompactionReport(
            run_id=run_id,
            segment=segment,
            units=cols.n_units,
            observations=cols.n_observations,
            events=cols.n_events,
            source_rows=int(source_rows),
            skipped_lines=int(skipped_lines),
        )

    def compact_run_dir(
        self,
        run_dir: Union[str, os.PathLike],
        run_id: Optional[str] = None,
    ) -> CompactionReport:
        """Stream one JSONL run directory into a columnar segment.

        Recompacting an existing ``run_id`` replaces its segment -- the
        natural refresh after a resumed run appended more rows.
        """
        run_dir = pathlib.Path(run_dir)
        manifest_path = run_dir / MANIFEST_NAME
        results_path = run_dir / RESULTS_NAME
        if not manifest_path.exists() and not results_path.exists():
            raise ConfigurationError(
                f"{run_dir} is not a run directory (no {MANIFEST_NAME} or "
                f"{RESULTS_NAME})"
            )
        manifest: Optional[Dict[str, Any]] = None
        if manifest_path.exists():
            try:
                manifest = read_json(manifest_path)
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"{exc}; cannot compact a run that can no longer prove "
                    "which campaign it belongs to"
                ) from exc
        rows, raw_rows, skipped = fold_results_jsonl(results_path)
        events = list(JsonlRows(run_dir / EVENTS_NAME))
        return self.write_run(
            run_id if run_id is not None else run_id_for_dir(run_dir),
            rows,
            manifest=manifest,
            events=events,
            source=str(run_dir),
            source_rows=raw_rows,
            skipped_lines=skipped,
        )

    # -- read ----------------------------------------------------------
    def columns(self, run_id: str) -> RunColumns:
        """One run's columnar segment."""
        self.entry(run_id)  # raises with the known-runs list if absent
        segment = self.segment_path(run_id)
        if not segment.exists():
            raise ConfigurationError(
                f"lake catalog lists run {run_id!r} but {segment} is missing; "
                "recompact the run"
            )
        return load_columns(segment)

    def results(self, run_id: str) -> Dict[str, UnitResult]:
        """One run's final results, byte-identical to the JSONL loader."""
        return decode_results(self.columns(run_id))
