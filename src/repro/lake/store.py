"""The columnar result lake: offline compaction and the run catalog.

A lake is one directory::

    <lake_root>/
        lake.json                   # schema-versioned catalog of runs
        runs/<run_id>.npz           # one columnar segment per run

The engine writes run directories through
:class:`~repro.runner.store.ResultStore`; the lake only reads them.
:meth:`ResultLake.compact_run_dir` streams a run directory's
``results.jsonl``/``events.jsonl`` into one columnar segment (resume-aware
-- later rows win, torn tails skipped -- exactly like
:meth:`repro.runner.store.ResultStore.load_results`), and the catalog
remembers each run's manifest so cross-run queries can group by campaign
configuration.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..errors import ConfigurationError
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


# ----------------------------------------------------------------------
# Streaming JSONL folding
# ----------------------------------------------------------------------
def fold_results_jsonl(
    path: Union[str, os.PathLike],
) -> Tuple[Dict[str, Dict[str, Any]], int, int]:
    """Fold a results JSONL stream into ``unit_id -> final row``.

    Mirrors :meth:`ResultStore.load_results` semantics -- later rows win
    (resumed runs re-record units), and a torn final line is skipped as a
    mid-write crash artifact -- but reads line-by-line instead of slurping
    the file, and *counts* undecodable interior rows instead of raising:
    compaction is an offline ingest pass, and one corrupt row should cost
    one row, not the whole run.  Returns ``(rows, raw_rows, skipped)``.
    """
    rows: Dict[str, Dict[str, Any]] = {}
    raw_rows = 0
    skipped = 0
    path = pathlib.Path(path)
    if not path.exists():
        return rows, raw_rows, skipped
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            text = line.strip()
            if not text:
                continue
            try:
                row = json.loads(text)
            except json.JSONDecodeError:
                # A torn tail is expected after a crash; interior garbage
                # is counted and skipped.
                skipped += 1
                continue
            if not isinstance(row, dict) or "unit_id" not in row:
                skipped += 1
                continue
            rows[str(row["unit_id"])] = row
            raw_rows += 1
    return rows, raw_rows, skipped


def read_events_jsonl(path: Union[str, os.PathLike]) -> List[Dict[str, Any]]:
    """Best-effort read of an ``events.jsonl`` stream (torn rows skipped)."""
    events: List[Dict[str, Any]] = []
    path = pathlib.Path(path)
    if not path.exists():
        return events
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            text = line.strip()
            if not text:
                continue
            try:
                row = json.loads(text)
            except json.JSONDecodeError:
                continue
            if isinstance(row, dict):
                events.append(row)
    return events


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
            catalog = json.loads(self.catalog_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigurationError(
                f"{self.catalog_path} is corrupt ({exc}); restore it from "
                "backup or delete the lake directory and recompact the runs"
            ) from exc
        if not isinstance(catalog, dict) or not isinstance(catalog.get("runs"), dict):
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

    def _save_catalog(self, catalog: Mapping[str, Any]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        tmp_path = self.catalog_path.with_name(CATALOG_NAME + ".tmp")
        tmp_path.write_text(
            json.dumps(dict(catalog), indent=2, sort_keys=True), encoding="utf-8"
        )
        os.replace(tmp_path, self.catalog_path)

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
        self._save_catalog(catalog)
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
        # Import here to avoid a hard layering cycle: runner.store names
        # live in the runner package, which never imports the lake.
        from ..runner.store import EVENTS_NAME, MANIFEST_NAME, RESULTS_NAME

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
                loaded = json.loads(manifest_path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigurationError(
                    f"{manifest_path} is corrupt ({exc}); cannot compact a run "
                    "that can no longer prove which campaign it belongs to"
                ) from exc
            if isinstance(loaded, dict):
                manifest = loaded
        rows, raw_rows, skipped = fold_results_jsonl(results_path)
        events = read_events_jsonl(run_dir / EVENTS_NAME)
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
