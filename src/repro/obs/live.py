"""The live aggregation plane: watch campaigns *while* they execute.

Everything else in :mod:`repro.obs` is post-hoc -- exporters and the
analyzer read a finished run directory.  :class:`LivePlane` is the
online counterpart the campaign service mounts: one object, owned by the
``JobManager``, that aggregates three feeds --

* **request telemetry** from the HTTP server (:meth:`note_request`):
  per-route/method/status counters and latency histograms;
* **service gauges** pushed by the manager's periodic sampler
  (:meth:`set_service_gauges`): queue depth, running jobs, pool
  saturation;
* **per-job registries**: each running job's
  :class:`~repro.obs.Observability` layer is registered for the job's
  lifetime (:meth:`register_job` / :meth:`unregister_job`), live-read at
  render time, and folded into a cumulative "completed" registry when
  the job ends -- so fleet-wide counters never go backwards when a job
  finishes; plus **unit deltas** at unit completion (:meth:`note_unit`)
  feeding per-job EWMA throughput and a recent-latency window for
  p50/p99.

Renders:

* :meth:`render_openmetrics` -- the ``GET /metrics`` body: service
  registry + completed registry + every running job's snapshot, merged
  with the registry's exact algebra and rendered through
  :func:`repro.obs.export.to_openmetrics`.
* :meth:`job_metrics` -- the ``GET /v1/jobs/{id}/metrics`` body: one
  job's live snapshot plus EWMA rates, latency percentiles, and the
  sampled ring-buffer time series.

Concurrency: feeds arrive from the HTTP protocol (event loop), the
manager's sampler task, and job executor threads.  A single plane lock
guards plane-level dicts (rings, rates, job table); registry reads are
snapshot-based (atomic list materialization under the GIL), so a sample
racing a job-thread write sees at worst a registry a few observations
behind -- never a torn structure.  The plane never touches simulation
state, preserving the zero-perturbation contract.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Tuple

from . import Observability
from .export import to_openmetrics
from .metrics import MetricsRegistry

__all__ = ["LivePlane", "SeriesRing"]

#: EWMA smoothing for unit-completion rates: ~the last dozen units
#: dominate, old throughput decays quickly when a job stalls.
_EWMA_ALPHA = 0.15

#: Per-job recent-latency window used for live p50/p99 (seconds values,
#: newest-wins).  Bounded so a million-unit job costs O(1) memory.
_LATENCY_WINDOW = 256


class SeriesRing:
    """Lock-cheap bounded time series: a deque of ``(ts, value)`` points.

    Appends are O(1) and evict the oldest point once ``maxlen`` is
    reached; reads copy the (small, bounded) buffer.  One ring per
    sampled series -- cheap enough to sample every second for hours.
    """

    __slots__ = ("_points", "_lock")

    def __init__(self, maxlen: int = 512) -> None:
        self._points: Deque[Tuple[float, float]] = deque(maxlen=maxlen)
        self._lock = threading.Lock()

    def push(self, ts: float, value: float) -> None:
        with self._lock:
            self._points.append((float(ts), float(value)))

    def points(self) -> List[Tuple[float, float]]:
        with self._lock:
            return list(self._points)

    def last(self) -> Optional[Tuple[float, float]]:
        with self._lock:
            return self._points[-1] if self._points else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._points)


class _JobFeed:
    """Plane-side state for one registered job."""

    __slots__ = (
        "tenant",
        "layer",
        "rings",
        "units_completed",
        "units_failed",
        "rate_ewma",
        "last_unit_mono",
        "latencies",
    )

    def __init__(self, tenant: str, layer: Observability) -> None:
        self.tenant = tenant
        self.layer = layer
        self.rings: Dict[str, SeriesRing] = {}
        self.units_completed = 0
        self.units_failed = 0
        self.rate_ewma: Optional[float] = None
        self.last_unit_mono: Optional[float] = None
        self.latencies: Deque[float] = deque(maxlen=_LATENCY_WINDOW)


def _window_percentile(values: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile over a small sorted copy; None when empty."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return ordered[rank]


class LivePlane:
    """Aggregates live telemetry across the service and its running jobs."""

    def __init__(
        self,
        clock: Callable[[], float] = time.time,
        monotonic: Callable[[], float] = time.monotonic,
        ring_points: int = 512,
    ) -> None:
        self._clock = clock
        self._monotonic = monotonic
        self._ring_points = int(ring_points)
        self._lock = threading.Lock()
        #: Service-level registry (requests, queue depth, pool gauges).
        #: Recorded directly -- the plane exists only when the service
        #: mounts it, so there is no enabled/disabled gate to check.
        self.service = Observability()
        #: Cumulative fold of finished jobs' final snapshots.
        self._completed = MetricsRegistry()
        self._jobs: Dict[str, _JobFeed] = {}
        self._service_rings: Dict[str, SeriesRing] = {}

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
        """Set ``service.<name>`` gauges (queue depth, pool saturation...)
        and push each onto its sampled ring."""
        ts = self._clock()
        for name, value in gauges.items():
            full = f"service.{name}"
            self.service.gauge(full, float(value))
            self._ring(self._service_rings, full).push(ts, float(value))

    def _ring(self, table: Dict[str, SeriesRing], name: str) -> SeriesRing:
        with self._lock:
            ring = table.get(name)
            if ring is None:
                ring = table[name] = SeriesRing(self._ring_points)
            return ring

    # -- job lifecycle --------------------------------------------------
    def register_job(self, job_id: str, tenant: str, layer: Observability) -> None:
        with self._lock:
            self._jobs[job_id] = _JobFeed(tenant, layer)

    def unregister_job(self, job_id: str) -> None:
        """Drop a finished job's live feed, folding its final snapshot
        into the cumulative completed registry."""
        with self._lock:
            feed = self._jobs.pop(job_id, None)
        if feed is not None:
            self._completed.merge_snapshot(feed.layer.snapshot())

    # -- unit deltas ----------------------------------------------------
    def note_unit(self, job_id: str, elapsed_s: float, status: str) -> None:
        """Record one completed work unit (called from the job's progress
        callback, i.e. the executor thread)."""
        with self._lock:
            feed = self._jobs.get(job_id)
            if feed is None:
                return
            now = self._monotonic()
            feed.units_completed += 1
            if status != "ok":
                feed.units_failed += 1
            feed.latencies.append(float(elapsed_s))
            if feed.last_unit_mono is not None:
                gap = max(now - feed.last_unit_mono, 1e-9)
                rate = 1.0 / gap
                feed.rate_ewma = (
                    rate
                    if feed.rate_ewma is None
                    else _EWMA_ALPHA * rate + (1.0 - _EWMA_ALPHA) * feed.rate_ewma
                )
            feed.last_unit_mono = now

    # -- periodic sampling ----------------------------------------------
    def sample_jobs(self) -> None:
        """Push each running job's completion counters onto its rings;
        called by the manager's sampler task every interval."""
        ts = self._clock()
        with self._lock:
            feeds = list(self._jobs.items())
        for job_id, feed in feeds:
            self._ring(feed.rings, "units_completed").push(ts, feed.units_completed)
            self._ring(feed.rings, "units_failed").push(ts, feed.units_failed)
            if feed.rate_ewma is not None:
                self._ring(feed.rings, "units_per_s").push(ts, feed.rate_ewma)

    # -- renders --------------------------------------------------------
    def merged_snapshot(self) -> List[Dict[str, Any]]:
        """Service + completed + every running job, merged exactly."""
        merged = MetricsRegistry()
        merged.merge_snapshot(self.service.snapshot())
        merged.merge_snapshot(self._completed.snapshot())
        with self._lock:
            feeds = list(self._jobs.values())
        for feed in feeds:
            merged.merge_snapshot(feed.layer.snapshot())
        return merged.snapshot()

    def render_openmetrics(self) -> str:
        """The ``GET /metrics`` exposition body."""
        return to_openmetrics(self.merged_snapshot())

    def job_metrics(self, job_id: str) -> Optional[Dict[str, Any]]:
        """One job's live snapshot + rates, or ``None`` if not running."""
        with self._lock:
            feed = self._jobs.get(job_id)
            if feed is None:
                return None
            latencies = list(feed.latencies)
            rates: Dict[str, Any] = {
                "units_completed": feed.units_completed,
                "units_failed": feed.units_failed,
                "units_per_s_ewma": feed.rate_ewma,
            }
            rings = {name: ring.points() for name, ring in feed.rings.items()}
            tenant = feed.tenant
            layer = feed.layer
        rates["unit_p50_s"] = _window_percentile(latencies, 0.50)
        rates["unit_p99_s"] = _window_percentile(latencies, 0.99)
        return {
            "job_id": job_id,
            "tenant": tenant,
            "snapshot": layer.snapshot(),
            "rates": rates,
            "series": rings,
        }

    def service_series(self) -> Dict[str, List[Tuple[float, float]]]:
        """The sampled service-gauge rings (for dashboards)."""
        with self._lock:
            table = dict(self._service_rings)
        return {name: ring.points() for name, ring in table.items()}
