"""The multi-tenant job manager: queueing, fairness, shared pool, resume.

:class:`JobManager` turns the blocking campaign engine into a long-lived
service core:

* **Bounded queue, FIFO-per-tenant fairness.**  Submissions enter their
  tenant's FIFO; the scheduler round-robins across tenants, so one tenant
  queueing 100 campaigns cannot starve another's single job.  The queue
  is bounded (``max_queued``); beyond it submissions are refused with
  :class:`~repro.service.jobs.QueueFullError` (HTTP 429).

* **One shared process pool.**  Up to ``max_running`` jobs execute
  concurrently, each in its own thread driving a
  :class:`~repro.runner.RunnerEngine` whose
  :class:`~repro.runner.ProcessPoolBackend` submits into the manager's
  single :class:`~concurrent.futures.ProcessPoolExecutor` -- submission
  stays windowed per job, fleet ``chips_per_unit`` dispatch is preserved,
  and N campaigns multiplex one set of worker processes instead of
  forking N pools.  ``pool_workers=0`` selects in-thread serial execution
  (the deterministic test mode).

* **Per-tenant run-dir namespaces + durable ledger.**  Job ``NNN`` of
  tenant ``t`` runs in ``<root>/<t>/job-NNNNNN/`` (collision-safe
  allocation: ids are never reused against the ledger *or* the
  filesystem).  Every state transition is appended to ``<root>/jobs.jsonl``
  and flushed, so a kill -9 at any point leaves a replayable record.

* **Resume-on-restart.**  On :meth:`start`, the ledger is replayed and
  every job in a resumable state (queued / running / interrupted) is
  re-queued with ``resume=True``; the manifest-guarded result store skips
  chips already measured, so the restarted job finishes exactly the
  remaining work and its summary is byte-identical to an uninterrupted
  run.

* **Cooperative cancel and graceful shutdown.**  Cancelling a running job
  (or shutting the manager down) flips the job's stop event; the engine
  drains in-flight units, persists their results and telemetry, and marks
  the run-dir manifest ``interrupted``.  Nothing finished is ever thrown
  away.
"""

from __future__ import annotations

import asyncio
import pathlib
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from ..errors import ConfigurationError
from ..jsonfiles import JsonlRows, read_json, write_json
from ..obs import Observability, TraceContext
from ..obs.live import LivePlane
from ..runner import (
    EVENTS_NAME,
    MANIFEST_NAME,
    RESULTS_NAME,
    STATUS_INTERRUPTED,
    ProcessPoolBackend,
    default_worker_count,
)
from .events import BroadcastEventSink
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    INTERRUPTED,
    QUEUED,
    RESUMABLE_STATES,
    RUNNING,
    CampaignJobSpec,
    JobRecord,
    QueueFullError,
    UnknownJobError,
    validate_tenant,
)
from .ledger import LEDGER_NAME, JobLedger

#: Byte-identical summary snapshot written into each completed job's run dir.
SUMMARY_NAME = "summary.json"

#: Per-tenant columnar lake directory under ``<root>/<tenant>/`` (job ids
#: are always ``job-NNNNNN``, so the name can never collide with a run dir).
LAKE_DIR_NAME = "lake"

#: Spec keys of retired execution knobs that older ``jobs.jsonl`` rows
#: still carry; ledger replay drops them (a live submission is refused).
_RETIRED_SPEC_KEYS = ("shared_population", "megakernel", "condition_tiles", "fast_path")


class Job:
    """Runtime state wrapped around one :class:`JobRecord`."""

    def __init__(self, record: JobRecord, spec: CampaignJobSpec) -> None:
        self.record = record
        self.spec = spec
        self.stop = threading.Event()
        self.cancel_requested = False
        self.sink: Optional[BroadcastEventSink] = None
        self.summary_json: Optional[Dict[str, Any]] = None
        self.trace: Optional[TraceContext] = None

    @property
    def job_id(self) -> str:
        return self.record.job_id

    @property
    def tenant(self) -> str:
        return self.record.tenant


class JobManager:
    """Async façade over the runner engine for many tenants' campaigns."""

    def __init__(
        self,
        root: Union[str, pathlib.Path],
        pool_workers: Optional[int] = None,
        max_running: int = 2,
        max_queued: int = 64,
        resume: bool = True,
        sample_interval_s: float = 1.0,
    ) -> None:
        if max_running <= 0:
            raise ConfigurationError("max_running must be positive")
        if max_queued <= 0:
            raise ConfigurationError("max_queued must be positive")
        if pool_workers is None:
            pool_workers = default_worker_count()
        if pool_workers < 0:
            raise ConfigurationError("pool_workers must be non-negative")
        if sample_interval_s <= 0:
            raise ConfigurationError("sample_interval_s must be positive")
        self.root = pathlib.Path(root)
        self.pool_workers = int(pool_workers)
        self.max_running = int(max_running)
        self.max_queued = int(max_queued)
        self.resume = bool(resume)
        self.sample_interval_s = float(sample_interval_s)
        self.ledger = JobLedger(self.root / LEDGER_NAME)
        #: The live observability plane: HTTP request telemetry, sampled
        #: service gauges, and every running job's metrics registry.
        self.plane = LivePlane()

        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._tenant_queues: Dict[str, Deque[str]] = {}
        self._tenant_rotation: List[str] = []
        self._rr_index = 0
        self._running: Dict[str, asyncio.Task] = {}
        self._seq = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._scheduler: Optional[asyncio.Task] = None
        self._sampler: Optional[asyncio.Task] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Open the ledger, re-adopt resumable jobs, start scheduling."""
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self.root.mkdir(parents=True, exist_ok=True)
        if self.pool_workers > 0:
            self._pool = ProcessPoolExecutor(max_workers=self.pool_workers)
        if self.resume:
            self._adopt_ledger()
        self._scheduler = asyncio.create_task(self._schedule_loop())
        self._sampler = asyncio.create_task(self._sample_loop())
        self._kick()

    async def shutdown(self) -> None:
        """Graceful stop: drain running jobs, persist, close everything.

        Running jobs get their stop event -- the engine drains in-flight
        units and marks manifests interrupted -- and are recorded as
        ``interrupted`` in the ledger so the next start re-adopts them.
        Queued jobs simply stay ``queued`` in the ledger.
        """
        self._closed = True
        if self._sampler is not None:
            self._sampler.cancel()
            try:
                await self._sampler
            except asyncio.CancelledError:
                pass
            self._sampler = None
        if self._scheduler is not None:
            self._scheduler.cancel()
            try:
                await self._scheduler
            except asyncio.CancelledError:
                pass
            self._scheduler = None
        for job_id in list(self._running):
            self._jobs[job_id].stop.set()
        if self._running:
            await asyncio.gather(*self._running.values(), return_exceptions=True)
        if self._pool is not None:
            pool = self._pool
            self._pool = None
            await asyncio.to_thread(pool.shutdown, True)
        self.ledger.close()

    def _adopt_ledger(self) -> None:
        for job_id, row in self.ledger.replay().items():
            spec_data = row.get("spec")
            if spec_data is None:
                continue  # pre-spec rows cannot be rebuilt; skip defensively
            # Ledgers written before these execution knobs were retired
            # still carry them; they never changed results, so drop them.
            spec = CampaignJobSpec.from_json_dict(
                {k: v for k, v in spec_data.items() if k not in _RETIRED_SPEC_KEYS}
            )
            tenant = str(row["tenant"])
            state = str(row["state"])
            trace_id = row.get("trace_id")
            record = JobRecord(
                job_id=job_id,
                tenant=tenant,
                spec=spec,
                state=state,
                created_ts=float(row.get("created_ts") or row.get("ts") or 0.0),
                error=row.get("error"),
                run_dir=str(self._run_dir(tenant, job_id)),
                trace_id=str(trace_id) if trace_id else None,
            )
            job = Job(record, spec)
            if record.trace_id:
                # A resumed run continues under the original trace id.
                job.trace = TraceContext(trace_id=record.trace_id)
            self._jobs[job_id] = job
            self._note_seq(job_id)
            if state in RESUMABLE_STATES:
                # running/interrupted jobs re-enter the queue; their run
                # dir's manifest-guarded store supplies the frontier.
                record.state = QUEUED
                record.started_ts = None
                job.sink = BroadcastEventSink(self._loop) if self._loop else None
                self.ledger.append(job_id, tenant, QUEUED, adopted=True)
                self._enqueue(job)

    def _note_seq(self, job_id: str) -> None:
        if job_id.startswith("job-"):
            try:
                self._seq = max(self._seq, int(job_id[4:]))
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # Submission / inspection / cancellation (loop-side API)
    # ------------------------------------------------------------------
    def _run_dir(self, tenant: str, job_id: str) -> pathlib.Path:
        return self.root / tenant / job_id

    def _allocate_job_id(self, tenant: str) -> str:
        """Next ``job-NNNNNN`` unused by the ledger *and* the filesystem."""
        while True:
            self._seq += 1
            job_id = f"job-{self._seq:06d}"
            if job_id in self._jobs:
                continue
            if self._run_dir(tenant, job_id).exists():
                continue
            return job_id

    def queued_count(self) -> int:
        return sum(len(q) for q in self._tenant_queues.values())

    async def submit(
        self,
        tenant: str,
        spec: CampaignJobSpec,
        trace: Optional[TraceContext] = None,
    ) -> JobRecord:
        if self._closed:
            raise ConfigurationError("the job manager is shutting down")
        validate_tenant(tenant)
        if self.queued_count() >= self.max_queued:
            raise QueueFullError(
                f"job queue is full ({self.max_queued} queued); retry later"
            )
        job_id = self._allocate_job_id(tenant)
        # Every job gets a trace root: either the caller's (propagated
        # from the HTTP request) or a fresh one, so the run's spans and
        # events all correlate under one trace id.
        if trace is None:
            trace = TraceContext.new()
        record = JobRecord(
            job_id=job_id,
            tenant=tenant,
            spec=spec,
            state=QUEUED,
            created_ts=time.time(),
            run_dir=str(self._run_dir(tenant, job_id)),
            trace_id=trace.trace_id,
        )
        job = Job(record, spec)
        job.trace = trace
        # The sink exists from submission so an events subscriber attached
        # while the job is still queued sees the run live once it starts.
        job.sink = BroadcastEventSink(self._loop) if self._loop else None
        self._jobs[job_id] = job
        self.ledger.append(
            job_id, tenant, QUEUED, spec=spec.to_json_dict(), trace_id=trace.trace_id
        )
        self._enqueue(job)
        self._kick()
        return record.snapshot()

    def job(self, job_id: str) -> JobRecord:
        return self._job(job_id).record.snapshot()

    def jobs(self, tenant: Optional[str] = None) -> List[JobRecord]:
        return [
            j.record.snapshot()
            for j in self._jobs.values()
            if tenant is None or j.tenant == tenant
        ]

    def _job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(f"unknown job {job_id!r}") from None

    def result(self, job_id: str) -> Dict[str, Any]:
        """The finished job's summary (from memory, else ``summary.json``)."""
        job = self._job(job_id)
        if job.record.state != DONE:
            raise ConfigurationError(
                f"job {job_id} is {job.record.state}, not {DONE}; no result yet"
            )
        if job.summary_json is None:
            summary_path = self._run_dir(job.tenant, job_id) / SUMMARY_NAME
            job.summary_json = read_json(summary_path)
        return job.summary_json

    async def cancel(self, job_id: str) -> JobRecord:
        """Cooperatively cancel: queued jobs die immediately; running jobs
        drain in-flight units and persist partial results first."""
        job = self._job(job_id)
        record = job.record
        if record.state == QUEUED:
            queue = self._tenant_queues.get(job.tenant)
            if queue is not None and job_id in queue:
                queue.remove(job_id)
            record.state = CANCELLED
            record.finished_ts = time.time()
            self.ledger.append(job_id, job.tenant, CANCELLED)
            if job.sink is not None:
                job.sink.close()
        elif record.state == RUNNING:
            job.cancel_requested = True
            job.stop.set()
        # terminal states: cancel is a no-op, return the record as-is
        return record.snapshot()

    def subscribe_events(self, job_id: str):
        """Live event queue for a job, or a replayed list for finished ones.

        Returns ``(queue, sink)`` while the job can still produce events,
        or ``(rows, None)`` replayed from the run directory's
        ``events.jsonl`` once it cannot.
        """
        job = self._job(job_id)
        if job.sink is not None and not job.record.terminal:
            return job.sink.subscribe(), job.sink
        return list(JsonlRows(self._run_dir(job.tenant, job_id) / EVENTS_NAME)), None

    # ------------------------------------------------------------------
    # Live observability (the plane's gauge/sampler feed + healthz)
    # ------------------------------------------------------------------
    def _pool_stats(self) -> Tuple[int, int]:
        """``(busy, total)`` pool workers.  *Busy* is each running job's
        submission-window share (the worker slots it can occupy), capped
        at the pool width -- the executor itself does not expose live
        occupancy, and the window is the scheduling-relevant bound."""
        total = self.pool_workers
        if total == 0:  # serial mode: one in-thread "worker" per job
            return len(self._running), 0
        busy = 0
        for job_id in self._running:
            job = self._jobs.get(job_id)
            share = job.spec.workers if job is not None and job.spec.workers else total
            busy += share
        return min(busy, total), total

    def sample(self) -> None:
        """One observation: push service gauges and per-job ring points.

        The sampler task calls this every ``sample_interval_s``; tests
        call it directly for deterministic snapshots.
        """
        busy, total = self._pool_stats()
        self.plane.set_service_gauges(
            queue_depth=self.queued_count(),
            jobs_running=len(self._running),
            pool_workers_busy=busy,
            pool_workers_total=total,
        )
        self.plane.sample_jobs()

    async def _sample_loop(self) -> None:
        while True:
            self.sample()
            await asyncio.sleep(self.sample_interval_s)

    def health(self) -> Dict[str, Any]:
        """The extended ``GET /v1/healthz`` body: liveness plus pool
        saturation, ledger lag, and job-state counts."""
        busy, total = self._pool_stats()
        states: Dict[str, int] = {}
        for job in self._jobs.values():
            states[job.record.state] = states.get(job.record.state, 0) + 1
        last_append = self.ledger.last_append_ts
        return {
            "status": "ok",
            "queued": self.queued_count(),
            "running": len(self._running),
            "pool": {"workers_busy": busy, "workers_total": total},
            "ledger_lag_s": (
                max(0.0, time.time() - last_append)
                if last_append is not None
                else None
            ),
            "jobs": states,
        }

    def job_metrics(self, job_id: str) -> Dict[str, Any]:
        """The ``GET /v1/jobs/{id}/metrics`` body.

        Running jobs return their live registry snapshot plus EWMA rates,
        latency percentiles, and sampled series (``live: true``); known
        but not-running jobs return an empty shell so pollers can probe
        before start and after finish without special-casing 4xx.
        """
        job = self._job(job_id)
        live = self.plane.job_metrics(job_id)
        if live is None:
            live = {
                "job_id": job_id,
                "tenant": job.tenant,
                "snapshot": [],
                "rates": {},
                "series": {},
            }
            live["live"] = False
        else:
            live["live"] = True
        live["state"] = job.record.state
        live["trace_id"] = job.record.trace_id
        return live

    # ------------------------------------------------------------------
    # Cross-run lake analytics
    # ------------------------------------------------------------------
    def tenant_lake_root(self, tenant: str) -> pathlib.Path:
        return self.root / tenant / LAKE_DIR_NAME

    async def lake_report(
        self,
        tenant: str,
        report: str = "runs",
        vendor: Optional[str] = None,
        kind: Optional[str] = None,
        runs: Optional[List[str]] = None,
    ) -> Dict[str, Any]:
        """Cross-run analytics over one tenant's finished jobs.

        Every terminal job with a persisted ``results.jsonl`` is
        (re)compacted into the tenant's columnar lake -- recompaction is
        idempotent and refreshes runs that were resumed since the last
        query -- and then one report from :data:`repro.lake.REPORTS`
        (or ``summary``, the canonical single-run summary that is
        byte-identical to the JSONL-derived one) runs over it.  Live jobs
        are excluded: their run dirs are still being appended to.

        The job list is snapshotted on the event loop; compaction and the
        columnar query run in a worker thread.
        """
        validate_tenant(tenant)
        eligible = [
            (job.job_id, self._run_dir(tenant, job.job_id))
            for job in list(self._jobs.values())
            if job.tenant == tenant and job.record.terminal
        ]
        return await asyncio.to_thread(
            self._lake_report_blocking, tenant, eligible, report, vendor, kind, runs
        )

    def _lake_report_blocking(
        self,
        tenant: str,
        eligible: List[Any],
        report: str,
        vendor: Optional[str],
        kind: Optional[str],
        runs: Optional[List[str]],
    ) -> Dict[str, Any]:
        from ..lake import REPORTS, ResultLake, summary_from_lake

        lake = ResultLake(self.tenant_lake_root(tenant))
        compacted: List[str] = []
        for job_id, run_dir in eligible:
            if not (run_dir / RESULTS_NAME).exists():
                continue
            lake.compact_run_dir(run_dir, run_id=job_id)
            compacted.append(job_id)
        if report == "summary":
            if not runs or len(runs) != 1:
                raise ConfigurationError(
                    "the summary report needs exactly one run id (runs=[job_id])"
                )
            return {
                "tenant": tenant,
                "compacted": compacted,
                "report": "summary",
                "summary": summary_from_lake(lake, runs[0]),
            }
        if report not in REPORTS:
            raise ConfigurationError(
                f"unknown lake report {report!r}; expected one of "
                f"{', '.join(sorted(REPORTS))}, summary"
            )
        kwargs: Dict[str, Any] = {"run_ids": runs}
        if report == "trend":
            kwargs.update(vendor=vendor, kind=kind or "interval")
        elif report == "contour":
            kwargs.update(kind=kind or "temperature")
        payload = REPORTS[report](lake, **kwargs)
        return {"tenant": tenant, "compacted": compacted, **payload}

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _enqueue(self, job: Job) -> None:
        tenant = job.tenant
        if tenant not in self._tenant_queues:
            self._tenant_queues[tenant] = deque()
            self._tenant_rotation.append(tenant)
        self._tenant_queues[tenant].append(job.job_id)

    def _next_queued(self) -> Optional[Job]:
        """Round-robin across tenants, FIFO within each tenant."""
        if not self._tenant_rotation:
            return None
        n = len(self._tenant_rotation)
        for offset in range(n):
            tenant = self._tenant_rotation[(self._rr_index + offset) % n]
            queue = self._tenant_queues[tenant]
            if queue:
                self._rr_index = (self._rr_index + offset + 1) % n
                return self._jobs[queue.popleft()]
        return None

    def _kick(self) -> None:
        if self._wake is not None:
            self._wake.set()

    async def _schedule_loop(self) -> None:
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            while len(self._running) < self.max_running:
                job = self._next_queued()
                if job is None:
                    break
                self._launch(job)

    def _launch(self, job: Job) -> None:
        assert self._loop is not None
        record = job.record
        record.state = RUNNING
        record.started_ts = time.time()
        self.ledger.append(job.job_id, job.tenant, RUNNING)
        if job.sink is None:
            job.sink = BroadcastEventSink(self._loop)
        task = asyncio.create_task(self._run_job(job))
        self._running[job.job_id] = task

    async def _run_job(self, job: Job) -> None:
        record = job.record
        error: Optional[str] = None
        try:
            summary_json = await asyncio.to_thread(self._execute_blocking, job)
            job.summary_json = summary_json
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            error = f"{type(exc).__name__}: {exc}"
        finally:
            record.finished_ts = time.time()
            if error is not None:
                record.state = FAILED
                record.error = error
            elif job.cancel_requested:
                record.state = CANCELLED
            elif job.stop.is_set() and self._manifest_interrupted(job):
                # Shutdown drained it mid-run: resumable on restart.
                record.state = INTERRUPTED
            else:
                record.state = DONE
            self.ledger.append(job.job_id, job.tenant, record.state, error=error)
            if job.sink is not None:
                job.sink.emit(
                    "job.state", job_id=job.job_id, state=record.state, error=error
                )
                job.sink.close()
            self._running.pop(job.job_id, None)
            self._kick()

    def _manifest_interrupted(self, job: Job) -> bool:
        """Did the run actually stop early?  The manifest status is the
        durable truth (a stop requested after the last unit finished still
        yields a complete run)."""
        try:
            manifest = read_json(self._run_dir(job.tenant, job.job_id) / MANIFEST_NAME)
        except ConfigurationError:
            return True
        return manifest.get("status") == STATUS_INTERRUPTED

    # ------------------------------------------------------------------
    # Blocking execution (worker thread)
    # ------------------------------------------------------------------
    def _execute_blocking(self, job: Job) -> Dict[str, Any]:
        spec = job.spec
        run_dir = self._run_dir(job.tenant, job.job_id)
        campaign = spec.build_campaign()
        if self._pool is not None:
            backend: Any = ProcessPoolBackend(
                workers=spec.workers or self.pool_workers, executor=self._pool
            )
        else:
            backend = "serial"
        layer = Observability(sink=job.sink)
        if job.trace is not None:
            # The engine roots its run span under this context, stamps it
            # onto every dispatched unit, and the workers adopt it -- one
            # correlated tree per job, from HTTP submit to pool worker.
            layer.tracer.context = job.trace
        self.plane.register_job(job.job_id, job.tenant, layer)

        def progress(result, tracker):
            job.record.progress = {
                "total": tracker.total,
                "completed": tracker.completed,
                "succeeded": tracker.succeeded,
                "failed": tracker.failed,
                "skipped": tracker.skipped,
                "throughput_units_per_s": tracker.throughput_units_per_s,
                "eta_s": tracker.eta_seconds,
                "elapsed_s": tracker.elapsed_seconds,
            }
            self.plane.note_unit(job.job_id, result.elapsed_s, result.status)

        try:
            summary = campaign.run(
                intervals_s=spec.intervals_s,
                temperatures_c=spec.temperatures_c,
                backend=backend,
                run_dir=str(run_dir),
                resume=True,
                max_retries=spec.max_retries,
                progress=progress,
                chips_per_unit=spec.chips_per_unit,
                should_stop=job.stop.is_set,
                observability=layer,
            )
        finally:
            # Fold the job's final registry into the plane's cumulative
            # completed pool so fleet counters never regress at job end.
            self.plane.unregister_job(job.job_id)
        summary_json = summary.to_json_dict()
        if not (job.stop.is_set() and self._manifest_interrupted(job)):
            write_json(run_dir / SUMMARY_NAME, summary_json)
        return summary_json
