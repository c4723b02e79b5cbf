"""Durable JSONL result store for campaign runs.

A run directory holds everything needed to resume an interrupted campaign::

    <run_dir>/
        manifest.json    # campaign configuration fingerprint + metadata
        results.jsonl    # one UnitResult per line, append-only

Both files follow the crash contract of :mod:`repro.jsonfiles`.  The
manifest fingerprint check refuses to mix results from two different
campaign configurations in one directory.

Failed rows are deliberately *not* treated as completed: resuming a run
retries every unit that has no ``ok`` row, so transient infrastructure
failures heal across relaunches.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
from typing import Any, ContextManager, Dict, Mapping, Optional, Set, Union

from ..errors import ConfigurationError
from ..jsonfiles import JsonlLog, JsonlRows, read_json, write_json
from .units import STATUS_OK, UnitResult

MANIFEST_NAME = "manifest.json"
RESULTS_NAME = "results.jsonl"
#: Run event log written by the engine when observability is enabled.
EVENTS_NAME = "events.jsonl"
#: Durable merged metric snapshot written by the engine at run end.
METRICS_NAME = "metrics.json"

#: Manifest ``status`` values stamped by the engine.
STATUS_RUNNING = "running"
STATUS_COMPLETE = "complete"
STATUS_INTERRUPTED = "interrupted"

#: Manifest keys that are lifecycle bookkeeping, not campaign identity --
#: excluded from the collision-guard spec diff.
_MANIFEST_META_KEYS = ("fingerprint", "status", "kind")


def manifest_spec_diff(
    stored: Mapping[str, Any], requested: Mapping[str, Any], limit: int = 6
) -> str:
    """Human-readable diff of two manifests' configuration knobs.

    Used to make a fingerprint-mismatch refusal *actionable*: instead of
    two opaque hashes, the error names exactly which campaign knobs differ
    between the directory's occupant and the requested run.
    """
    keys = sorted(
        (set(stored) | set(requested)) - set(_MANIFEST_META_KEYS)
    )
    lines = []
    for key in keys:
        a, b = stored.get(key), requested.get(key)
        if a != b:
            lines.append(f"{key}: stored {a!r} != requested {b!r}")
    if not lines:
        return "the stored manifest carries no comparable configuration keys"
    shown = lines[:limit]
    if len(lines) > limit:
        shown.append(f"... and {len(lines) - limit} more differing keys")
    return "; ".join(shown)


class ResultStore:
    """Append-only persistence for one campaign run directory."""

    def __init__(self, run_dir: Union[str, os.PathLike]) -> None:
        self.run_dir = pathlib.Path(run_dir)
        self.manifest_path = self.run_dir / MANIFEST_NAME
        self.results_path = self.run_dir / RESULTS_NAME
        self._log: Optional[JsonlLog] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(self, manifest: Mapping[str, Any], resume: bool = False) -> None:
        """Create or re-open the run directory for appending.

        A fresh directory is stamped with ``manifest``.  An existing one is
        accepted only when ``resume`` is set *and* its stored fingerprint
        matches -- otherwise the mismatch (or the missing ``--resume``
        intent) raises :class:`~repro.errors.ConfigurationError` instead of
        silently mixing two campaigns' results.
        """
        if "fingerprint" not in manifest:
            raise ConfigurationError("store manifest must carry a 'fingerprint'")
        self.run_dir.mkdir(parents=True, exist_ok=True)
        if self.manifest_path.exists():
            existing = self._load_manifest()
            if existing.get("fingerprint") != manifest["fingerprint"]:
                raise ConfigurationError(
                    f"run directory {self.run_dir} belongs to a different campaign "
                    f"(manifest fingerprint {existing.get('fingerprint')!r} != "
                    f"{manifest['fingerprint']!r}).  Differing configuration: "
                    f"{manifest_spec_diff(existing, manifest)}.  Use a fresh "
                    "--run-dir, or relaunch with the directory's original "
                    "configuration to resume it"
                )
            if not resume and self.results_path.exists() and self.results_path.stat().st_size:
                raise ConfigurationError(
                    f"run directory {self.run_dir} already holds results; "
                    "pass resume=True (--resume) to continue it"
                )
        else:
            write_json(self.manifest_path, manifest)
        self._log = JsonlLog(self.results_path)
        self._log.open()

    def _load_manifest(self) -> Dict[str, Any]:
        """Load ``manifest.json``, refusing corruption with a clear path out."""
        try:
            return read_json(self.manifest_path)
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"{exc}; without its manifest object the run directory can no "
                "longer prove which campaign it belongs to.  Recover by "
                "deleting the directory and relaunching without --resume (the "
                "campaign re-executes from scratch), or restore manifest.json "
                "from a backup of the same configuration."
            ) from exc

    def mark_status(self, status: str) -> None:
        """Stamp the manifest's lifecycle ``status`` (atomic rewrite).

        The engine marks a run ``running`` on open, ``complete`` on a clean
        finish, and ``interrupted`` when a cooperative stop drained it early
        -- so a run directory always tells an operator whether its tail is
        a finished campaign or a resumable frontier.  The fingerprint and
        every other manifest key are preserved verbatim.
        """
        manifest = self._load_manifest()
        manifest["status"] = str(status)
        write_json(self.manifest_path, manifest)

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load_results(self) -> Dict[str, UnitResult]:
        """All persisted results, keyed by unit id.

        Later rows win: a resumed run re-records units whose earlier row
        was ``failed``.
        """
        results: Dict[str, UnitResult] = {}
        for row in JsonlRows(self.results_path, "result"):
            result = UnitResult.from_json_dict(row)
            results[result.unit_id] = result
        return results

    def completed_ids(self) -> Set[str]:
        """Ids of units with a persisted ``ok`` row (the resume skip-set)."""
        return {
            uid for uid, result in self.load_results().items() if result.status == STATUS_OK
        }

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, result: UnitResult) -> None:
        """Persist one result row and flush it to the OS immediately (at
        the end of the enclosing :meth:`batch`, inside one)."""
        if self._log is None:
            raise ConfigurationError("store is not open for appending")
        self._log.append(result.to_json_dict())

    def batch(self) -> ContextManager:
        """A block whose :meth:`append` rows flush together when it ends:
        the engine appends each unit result's rows in one."""
        if self._log is None:
            raise ConfigurationError("store is not open for appending")
        return self._log.batch()


class NullStore:
    """In-memory stand-in used when no run directory was requested: the
    calls the engine makes, persisting nothing."""

    run_dir: Optional[pathlib.Path] = None

    def open(self, manifest: Mapping[str, Any], resume: bool = False) -> None:
        pass

    def mark_status(self, status: str) -> None:
        pass

    def close(self) -> None:
        pass

    def load_results(self) -> Dict[str, UnitResult]:
        return {}

    def append(self, result: UnitResult) -> None:
        pass

    def batch(self) -> ContextManager:
        return contextlib.nullcontext()
