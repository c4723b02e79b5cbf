"""Durable JSONL result store for campaign runs.

A run directory holds everything needed to resume an interrupted campaign::

    <run_dir>/
        manifest.json    # campaign configuration fingerprint + metadata
        results.jsonl    # one UnitResult per line, append-only

Results stream in as workers complete, one ``json.dumps`` line per unit,
flushed after every append so a crash loses at most the line being written.
On re-open the loader tolerates a torn trailing line (the signature of a
mid-write crash) but rejects corruption anywhere else, and the manifest
fingerprint check refuses to mix results from two different campaign
configurations in one directory.

Failed rows are deliberately *not* treated as completed: resuming a run
retries every unit that has no ``ok`` row, so transient infrastructure
failures heal across relaunches.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Set, Union

from ..errors import ConfigurationError
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


def _json_object(line: str) -> Union[Dict[str, Any], str]:
    """``line`` parsed as a JSON object, or why it is not one."""
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        return str(exc)
    if not isinstance(row, dict):
        return f"expected a JSON object, got {type(row).__name__}"
    return row


def read_jsonl(path: pathlib.Path, what: str) -> Iterator[Dict[str, Any]]:
    """The rows of an append-only JSONL file of objects, in file order.

    The crash contract of every such file here (``results.jsonl``, the
    service's ``jobs.jsonl``): a final line without its newline that is not
    a JSON object is a torn write and is skipped, while any other line
    that is not a JSON object -- unparseable, or valid JSON of another
    type -- is corruption and raises
    :class:`~repro.errors.ConfigurationError` naming ``path:line`` and
    ``what`` the rows are.  A missing file has no rows.
    """
    if not path.exists():
        return
    lines = path.read_text(encoding="utf-8").split("\n")
    tail = lines.pop()  # "" after a final newline, else a possibly torn write
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        row = _json_object(line)
        if isinstance(row, str):
            raise ConfigurationError(f"{path}:{lineno}: corrupt {what} row: {row}")
        yield row
    if tail.strip():
        row = _json_object(tail)
        if not isinstance(row, str):
            yield row


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
        self._handle = None

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
            self._stamp_manifest(manifest)
        self._handle = open(self.results_path, "a", encoding="utf-8")

    def _stamp_manifest(self, manifest: Mapping[str, Any]) -> None:
        """Write ``manifest.json`` atomically.

        The payload lands in a sibling temp file first and is moved into
        place with :func:`os.replace`, so a crash mid-stamp leaves either
        no manifest (a fresh directory, restampable on relaunch) or the
        complete one -- never a torn ``manifest.json`` that poisons every
        subsequent ``--resume``.
        """
        tmp_path = self.manifest_path.with_name(MANIFEST_NAME + ".tmp")
        tmp_path.write_text(
            json.dumps(dict(manifest), indent=2, sort_keys=True), encoding="utf-8"
        )
        os.replace(tmp_path, self.manifest_path)

    def _load_manifest(self) -> Dict[str, Any]:
        """Load ``manifest.json``, refusing corruption with a clear path out."""
        try:
            existing = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigurationError(
                f"{self.manifest_path} is corrupt ({exc}); the run directory can "
                "no longer prove which campaign it belongs to.  Recover by "
                "deleting the directory and relaunching without --resume (the "
                "campaign re-executes from scratch), or restore manifest.json "
                "from a backup of the same configuration."
            ) from exc
        if not isinstance(existing, dict):
            raise ConfigurationError(
                f"{self.manifest_path} does not hold a manifest object; delete "
                "the run directory and relaunch without --resume"
            )
        return existing

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
        self._stamp_manifest(manifest)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load_results(self) -> Dict[str, UnitResult]:
        """All persisted results, keyed by unit id.

        Later rows win (a resumed run re-records units whose earlier row was
        ``failed``).  A torn final line is skipped as a crash artifact;
        corrupt interior lines raise (:func:`read_jsonl`).
        """
        results: Dict[str, UnitResult] = {}
        for row in read_jsonl(self.results_path, "result"):
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
        """Persist one result row and flush it to the OS immediately."""
        if self._handle is None:
            raise ConfigurationError("store is not open for appending")
        self._handle.write(json.dumps(result.to_json_dict(), sort_keys=True) + "\n")
        self._handle.flush()

    def append_all(self, results: Iterable[UnitResult]) -> None:
        for result in results:
            self.append(result)


class NullStore:
    """In-memory stand-in used when no run directory was requested.

    Mirrors the :class:`ResultStore` surface so the engine has one code
    path; nothing survives the process.
    """

    run_dir: Optional[pathlib.Path] = None

    def open(self, manifest: Mapping[str, Any], resume: bool = False) -> None:
        self._results: Dict[str, UnitResult] = {}

    def mark_status(self, status: str) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullStore":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def load_results(self) -> Dict[str, UnitResult]:
        return dict(getattr(self, "_results", {}))

    def completed_ids(self) -> Set[str]:
        return {
            uid
            for uid, result in getattr(self, "_results", {}).items()
            if result.status == STATUS_OK
        }

    def append(self, result: UnitResult) -> None:
        self._results[result.unit_id] = result

    def append_all(self, results: Iterable[UnitResult]) -> None:
        for result in results:
            self.append(result)
