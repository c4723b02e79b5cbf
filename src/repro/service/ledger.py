"""Durable job ledger: ``<root>/jobs.jsonl``, the service's source of truth.

Every job state transition is appended as one JSON line, under the crash
contract of :mod:`repro.jsonfiles` (a corrupt terminated line fails the
replay).

Replay folds the append-only stream into the latest state per job.  A
restarted :class:`~repro.service.manager.JobManager` re-adopts every job
whose folded state is resumable (``queued``/``running``/``interrupted``):
the run directory's manifest-guarded result store already holds whatever
the crashed process persisted, so resuming is just re-running the job
with ``resume=True``.

Row schema (``spec`` rides only on the first row of each job)::

    {"ts": ..., "job_id": "job-000001", "tenant": "acme",
     "state": "queued", "spec": {...}, "error": null}
"""

from __future__ import annotations

import os
import pathlib
import time
from typing import Any, Dict, Optional, Union

from ..jsonfiles import JsonlLog, JsonlRows

#: Ledger file name inside the service root.
LEDGER_NAME = "jobs.jsonl"


class JobLedger:
    """Append-only JSONL ledger of job state transitions."""

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = pathlib.Path(path)
        self._log = JsonlLog(self.path)
        #: Wall-clock time of the last flushed append (``None`` before the
        #: first write).  The service's healthz derives its *ledger lag*
        #: -- seconds since the last durable transition -- from this.
        self.last_append_ts: Optional[float] = None

    # ------------------------------------------------------------------
    def append(
        self,
        job_id: str,
        tenant: str,
        state: str,
        spec: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
        **extra: Any,
    ) -> None:
        """Record one transition, flushed to the OS before returning."""
        row: Dict[str, Any] = {
            "ts": time.time(),
            "job_id": job_id,
            "tenant": tenant,
            "state": state,
        }
        if spec is not None:
            row["spec"] = spec
        if error is not None:
            row["error"] = error
        row.update(extra)
        self._log.append(row)
        self.last_append_ts = row["ts"]

    def close(self) -> None:
        self._log.close()

    # ------------------------------------------------------------------
    def replay(self) -> Dict[str, Dict[str, Any]]:
        """Fold the stream into ``{job_id: latest row (+ first-seen spec)}``.

        Insertion order is submission order -- the order a restarted
        manager re-queues adopted jobs in, which keeps per-tenant FIFO
        fairness stable across restarts.
        """
        folded: Dict[str, Dict[str, Any]] = {}
        for row in JsonlRows(self.path, "ledger"):
            self._fold(folded, row)
        return folded

    @staticmethod
    def _fold(folded: Dict[str, Dict[str, Any]], row: Dict[str, Any]) -> None:
        job_id = str(row.get("job_id", ""))
        if not job_id:
            return
        previous = folded.get(job_id)
        if previous is not None and "spec" not in row and "spec" in previous:
            row = dict(row)
            row["spec"] = previous["spec"]
        if previous is not None and "trace_id" not in row and "trace_id" in previous:
            row = dict(row)
            row["trace_id"] = previous["trace_id"]
        if previous is not None and "created_ts" in previous:
            row.setdefault("created_ts", previous["created_ts"])
        elif previous is None:
            row = dict(row)
            row.setdefault("created_ts", row.get("ts"))
        folded[job_id] = row
