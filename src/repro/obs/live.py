"""The live aggregation plane: watch campaigns *while* they execute.

Everything else in :mod:`repro.obs` is post-hoc -- exporters and the
analyzer read a finished run directory.  :class:`LivePlane` is the
online counterpart the campaign service mounts: one object, owned by the
``JobManager``, that is a view over registries and keeps no statistic
of its own.  It holds three things --

* the **service registry**: per-route/method/status request counters
  and latency histograms (:meth:`note_request`), and the service gauges
  (queue depth, running jobs, pool saturation) the manager sets from its
  own state just before each ``/metrics`` render
  (:meth:`set_service_gauges`);
* each **running job's** :class:`~repro.obs.Observability` layer,
  registered for the job's lifetime (:meth:`register_job` /
  :meth:`unregister_job`) and read when a request arrives;
* the **completed** registry: a finished job's final snapshot folds into
  it, so fleet-wide counters never go backwards when a job ends.

Renders:

* :meth:`render_openmetrics` -- the ``GET /metrics`` body: service
  registry + completed registry + every running job's snapshot, merged
  with the registry's exact algebra and rendered through
  :func:`repro.obs.export.to_openmetrics`.
* :meth:`job_metrics` -- the ``GET /v1/jobs/{id}/metrics`` body: one
  job's live snapshot plus its p50/p99 unit latency, read from the
  snapshot's ``runner.unit_seconds{status="ok"}`` histogram.  A job's
  counts, rate and ETA live in its record's ``progress``, from the
  engine's :class:`~repro.runner.ProgressTracker`.

Concurrency: requests arrive on the event loop while job executor
threads write their registries.  A single plane lock guards the job
table; registry reads are snapshot-based (atomic list materialization
under the GIL), so a read racing a job-thread write sees at worst a
registry a few observations behind -- never a torn structure.  The plane
never touches simulation state, preserving the zero-perturbation
contract.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from . import Observability
from .export import to_openmetrics
from .metrics import MetricsRegistry

__all__ = ["LivePlane"]


class LivePlane:
    """Aggregates live telemetry across the service and its running jobs."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Service-level registry (requests, queue depth, pool gauges).
        #: Recorded directly -- the plane exists only when the service
        #: mounts it, so there is no enabled/disabled gate to check.
        self.service = Observability()
        #: Cumulative fold of finished jobs' final snapshots.
        self._completed = MetricsRegistry()
        #: job id -> (tenant, the job's layer).
        self._jobs: Dict[str, Tuple[str, Observability]] = {}

    # -- request feed ---------------------------------------------------
    def note_request(
        self, method: str, route: str, status: int, elapsed_s: float
    ) -> None:
        """Record one served HTTP request (called per response)."""
        self.service.counter(
            "service.requests", method=method, route=route, status=int(status)
        )
        self.service.observe(
            "service.request_seconds", elapsed_s, method=method, route=route
        )

    # -- service gauges -------------------------------------------------
    def set_service_gauges(self, **gauges: float) -> None:
        """Set ``service.<name>`` gauges (queue depth, pool saturation...)."""
        for name, value in gauges.items():
            self.service.gauge(f"service.{name}", float(value))

    # -- job lifecycle --------------------------------------------------
    def register_job(self, job_id: str, tenant: str, layer: Observability) -> None:
        with self._lock:
            self._jobs[job_id] = (tenant, layer)

    def unregister_job(self, job_id: str) -> None:
        """Drop a finished job's layer, folding its final snapshot into
        the cumulative completed registry."""
        with self._lock:
            entry = self._jobs.pop(job_id, None)
        if entry is not None:
            self._completed.merge_snapshot(entry[1].snapshot())

    # -- renders --------------------------------------------------------
    def merged_snapshot(self) -> List[Dict[str, Any]]:
        """Service + completed + every running job, merged exactly."""
        merged = MetricsRegistry()
        merged.merge_snapshot(self.service.snapshot())
        merged.merge_snapshot(self._completed.snapshot())
        with self._lock:
            layers = [layer for _tenant, layer in self._jobs.values()]
        for layer in layers:
            merged.merge_snapshot(layer.snapshot())
        return merged.snapshot()

    def render_openmetrics(self) -> str:
        """The ``GET /metrics`` exposition body."""
        return to_openmetrics(self.merged_snapshot())

    def job_metrics(self, job_id: str) -> Optional[Dict[str, Any]]:
        """One job's live snapshot + unit latency, or ``None`` if not running."""
        with self._lock:
            entry = self._jobs.get(job_id)
        if entry is None:
            return None
        tenant, layer = entry
        snapshot = layer.snapshot()
        ok = next(
            (
                row
                for row in snapshot
                if row["name"] == "runner.unit_seconds"
                and row["labels"] == {"status": "ok"}
            ),
            {},
        )
        return {
            "job_id": job_id,
            "tenant": tenant,
            "snapshot": snapshot,
            "rates": {"unit_p50_s": ok.get("p50"), "unit_p99_s": ok.get("p99")},
        }
