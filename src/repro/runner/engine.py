"""The campaign execution engine: skip, dispatch, stream, aggregate.

:class:`RunnerEngine` ties the subsystem together.  Given a worker
function, a tuple of work units, and a run configuration, it

1. opens the result store (a durable JSONL directory, or an in-memory
   stand-in when no ``run_dir`` was requested) and validates the manifest
   fingerprint against any previous occupant,
2. partitions units into *satisfied* (an ``ok`` row already persisted --
   the checkpoint/resume path) and *pending*,
3. streams the pending units through the chosen backend, appending each
   result row as it completes and feeding the progress tracker/callback,
4. returns a :class:`RunReport` with every result keyed by unit id plus
   the run statistics.

Because units are self-contained and results are keyed, the report is
independent of completion order, worker placement, and how many times the
run was interrupted and resumed -- callers aggregate from the report and
get byte-identical answers every way the campaign can be executed.

Statistics are derived from the :class:`ProgressTracker`'s *observed*
completion stream, never from the planned unit count: if an exception
escapes the backend mid-run, every result that streamed in before the
failure is already persisted (each unit result's rows are appended and
flushed together, before any is reported) and
the exception propagates after the store is closed -- a relaunch with
``resume=True`` continues from exactly the observed frontier.

When the observability layer (:mod:`repro.obs`) is enabled -- or an
:class:`~repro.obs.Observability` instance is injected -- the engine
records per-unit wall time, retry, and queue-depth metrics and streams a
run event log to ``<run_dir>/events.jsonl`` alongside ``results.jsonl``.
Telemetry survives the process boundary: the backend captures each
unit's worker-side instrumentation (:func:`repro.obs.capture`) and ships
it back on the result, the engine merges the metric snapshots into the
active registry (counters sum, histograms merge exactly, gauges take the
latest observation) and replays the buffered worker events -- tagged
with their ``unit_id`` -- into the run event log.  At run end the merged
snapshot lands durably as ``<run_dir>/metrics.json``, the input to the
``python -m repro obs`` analyzer and exporters.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from .. import obs as obs_mod
from ..errors import ConfigurationError
from ..obs.export import write_metrics_json
from .executors import Backend, WorkerFn, backend_from_spec
from .progress import ProgressTracker
from .store import (
    EVENTS_NAME,
    METRICS_NAME,
    STATUS_COMPLETE,
    STATUS_INTERRUPTED,
    STATUS_RUNNING,
    NullStore,
    ResultStore,
)
from .units import UnitResult, WorkUnit, check_unique_ids

#: Called after every completed unit with (result, tracker).
ProgressCallback = Callable[[UnitResult, ProgressTracker], None]


@dataclass(frozen=True)
class UnitDispatch:
    """Chunk-aware transport: regroup pending units for the backend.

    The engine's currency -- planning, the result store, resume
    fingerprints, progress, aggregation -- stays the fine-grained unit
    (one chip).  A dispatch only changes how *pending* units travel to
    workers: ``group`` packs them into transport chunks (each a
    :class:`WorkUnit` of its own kind, e.g. ``fleet-measurement``),
    ``worker`` executes a chunk, and ``expand`` converts each chunk's
    :class:`UnitResult` back into per-member results before anything is
    stored or reported.  Chunk ids are transient: they never reach the
    result store, so a run directory written through any dispatch (or
    none) can be resumed by any other.

    ``expand`` receives ``(chunk_unit, chunk_result)`` and must return one
    result per member, ok or failed, in member order.
    """

    worker: WorkerFn
    group: Callable[[Tuple[WorkUnit, ...]], Tuple[WorkUnit, ...]]
    expand: Callable[[WorkUnit, UnitResult], Tuple[UnitResult, ...]]


@dataclass(frozen=True)
class RunStats:
    """How a run went, operationally.

    ``executed`` counts units whose results were actually observed from
    the backend this run (``succeeded + failed``); ``skipped`` counts
    units satisfied from the result store.  On an uninterrupted run
    ``executed + skipped == total``; after a mid-run crash the shortfall
    is exactly the work that never happened.
    """

    total: int
    executed: int
    succeeded: int
    skipped: int
    failed: int
    elapsed_s: float
    #: A cooperative stop (``should_stop``) drained the run before every
    #: pending unit executed; the persisted frontier resumes it.
    interrupted: bool = False


@dataclass(frozen=True)
class RunReport:
    """Everything a run produced."""

    results: Dict[str, UnitResult] = field(default_factory=dict)
    stats: RunStats = RunStats(0, 0, 0, 0, 0, 0.0)

    def ok_results(self) -> Dict[str, UnitResult]:
        return {uid: r for uid, r in self.results.items() if r.ok}

    def failed_results(self) -> Dict[str, UnitResult]:
        return {uid: r for uid, r in self.results.items() if not r.ok}


class RunnerEngine:
    """Executes work units through a backend with persistence and progress.

    Parameters
    ----------
    backend:
        ``"serial"``, ``"process"``, a backend instance, or ``None``
        (auto: process pool when ``workers > 1``, else serial).
    workers:
        Pool size for the process backend; ignored by the serial one.
    run_dir:
        Durable run directory; ``None`` keeps results in memory only.
    resume:
        Allow appending to a run directory that already has results.
    max_retries:
        Re-attempts per unit before a failure row is recorded.
    progress:
        Optional callback invoked after every completed unit.
    observability:
        Explicit :class:`repro.obs.Observability` instance to record
        into.  ``None`` (the default) uses the process-wide layer when
        :func:`repro.obs.enabled` says it is on, else records nothing.
    should_stop:
        Cooperative-cancellation probe (``() -> bool``).  Once it reads
        ``True`` the backend stops dispatching new units but *drains*
        the ones already in flight -- every drained result is persisted
        and reported, the manifest is marked ``interrupted``, and the run
        returns normally with ``stats.interrupted`` set.  This is the hook
        behind graceful SIGINT/SIGTERM shutdown and the service's
        ``DELETE /v1/jobs/{id}`` cancel: no torn tail, no lost work, and
        a straight ``resume=True`` relaunch finishes the remainder.
    """

    def __init__(
        self,
        backend: Union[str, Backend, None] = "serial",
        workers: Optional[int] = None,
        run_dir: Optional[str] = None,
        resume: bool = False,
        max_retries: int = 1,
        progress: Optional[ProgressCallback] = None,
        observability: Optional["obs_mod.Observability"] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> None:
        if max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        self.backend = backend_from_spec(backend, workers=workers)
        self.run_dir = run_dir
        self.resume = bool(resume)
        self.max_retries = int(max_retries)
        self.progress = progress
        self.observability = observability
        self.should_stop = should_stop

    def _active_obs(self) -> Optional["obs_mod.Observability"]:
        """The instance to record into, or ``None`` when instrumentation
        is off (explicit injection wins over the process-wide flag)."""
        if self.observability is not None:
            return self.observability
        return obs_mod.get() if obs_mod.enabled() else None

    # ------------------------------------------------------------------
    def run(
        self,
        worker: WorkerFn,
        units: Sequence[WorkUnit],
        manifest: Mapping[str, Any],
        dispatch: Optional[UnitDispatch] = None,
    ) -> RunReport:
        """Execute ``units`` through the backend; returns the full report.

        ``manifest`` must carry a ``"fingerprint"`` identifying the campaign
        configuration; it guards the run directory against cross-campaign
        contamination on resume.

        With ``dispatch``, pending units are regrouped into transport
        chunks executed by ``dispatch.worker`` and expanded back to
        per-unit results as each chunk completes -- ``worker`` is unused
        for execution but keeps the per-unit contract documented at the
        call site.  Everything persisted, tracked, and reported stays
        per-unit, so dispatched and plain runs of the same campaign share
        run directories freely.
        """
        units = tuple(units)
        check_unique_ids(units)
        store: Union[ResultStore, NullStore] = (
            ResultStore(self.run_dir) if self.run_dir is not None else NullStore()
        )
        store.open(manifest, resume=self.resume)
        # A crash (or kill -9) leaves the manifest saying "running" -- the
        # truthful signal that the directory holds a resumable frontier.
        store.mark_status(STATUS_RUNNING)
        active = self._active_obs()
        with contextlib.ExitStack() as stack:
            stack.callback(store.close)
            if active is not None and store.run_dir is not None:
                stack.enter_context(active.sink_to(store.run_dir / EVENTS_NAME))

            persisted = store.load_results()
            satisfied = {
                unit.unit_id: persisted[unit.unit_id]
                for unit in units
                if unit.unit_id in persisted and persisted[unit.unit_id].ok
            }
            pending = tuple(u for u in units if u.unit_id not in satisfied)

            # The tracker sees the *full plan*: resume-skipped units enter
            # via note_skipped, so the rendered denominator is stable
            # across relaunches while remaining/ETA cover only real work.
            tracker = ProgressTracker(total=len(units))
            tracker.note_skipped(len(satisfied))
            tracker.start()
            if active is not None:
                if satisfied:
                    active.counter("runner.units", len(satisfied), status="skipped")
                active.gauge("runner.queue_depth", len(pending))
                active.emit(
                    "runner.start",
                    backend=self.backend.name,
                    total=len(units),
                    pending=len(pending),
                    skipped=len(satisfied),
                    run_dir=str(store.run_dir) if store.run_dir is not None else None,
                )

            if dispatch is None:
                exec_worker, exec_units = worker, pending
                chunk_by_id: Dict[str, WorkUnit] = {}
            else:
                exec_worker = dispatch.worker
                exec_units = tuple(dispatch.group(pending))
                check_unique_ids(exec_units)
                chunk_by_id = {unit.unit_id: unit for unit in exec_units}

            results: Dict[str, UnitResult] = dict(satisfied)
            # Root a trace for this run when no caller (e.g. a service
            # request) handed one down, so spans correlate end-to-end on
            # plain CLI runs too.  A self-rooted context is removed again
            # at run end -- traces never bleed across runs sharing a layer.
            if active is not None and active.tracer.context is None:
                active.tracer.context = obs_mod.TraceContext.new()
                stack.callback(setattr, active.tracer, "context", None)
            span = (
                active.span("runner.run", backend=self.backend.name)
                if active is not None
                else contextlib.nullcontext()
            )
            # Custom backends predating cooperative cancellation may not
            # take ``should_stop``; only pass it when a probe is installed.
            backend_kwargs: Dict[str, Any] = {
                "capture_telemetry": active is not None
            }
            if self.should_stop is not None:
                backend_kwargs["should_stop"] = self.should_stop
            try:
                with span as run_span:
                    if run_span is not None and exec_units:
                        # Stamp every dispatched unit with the run span's
                        # context: worker-side spans parent to this run.
                        trace_wire = run_span.context().to_json_dict()
                        exec_units = tuple(
                            dataclasses.replace(u, trace=trace_wire)
                            for u in exec_units
                        )
                    for raw in self.backend.run(
                        exec_worker,
                        exec_units,
                        self.max_retries,
                        **backend_kwargs,
                    ):
                        if dispatch is None:
                            batch: Tuple[UnitResult, ...] = (raw,)
                        else:
                            # Telemetry was captured once for the whole
                            # chunk; merge it before expansion so worker
                            # events keep their chunk's unit id.
                            if active is not None:
                                self._merge_telemetry(active, raw)
                            batch = tuple(
                                dispatch.expand(chunk_by_id[raw.unit_id], raw)
                            )
                        # One flush per unit result: its rows land
                        # together, before any of them is reported.
                        with store.batch():
                            for result in batch:
                                results[result.unit_id] = result
                                store.append(result)
                        for result in batch:
                            tracker.update(result)
                            if active is not None:
                                if dispatch is None:
                                    self._merge_telemetry(active, result)
                                self._record_unit(active, result, tracker)
                            if self.progress is not None:
                                self.progress(result, tracker)
            except BaseException as exc:
                # Every result observed so far is already appended and
                # flushed; surface the abort, close the store (ExitStack),
                # and let the caller resume from the persisted frontier.
                if active is not None:
                    active.emit(
                        "runner.aborted",
                        error=type(exc).__name__,
                        executed=tracker.completed,
                        succeeded=tracker.succeeded,
                        failed=tracker.failed,
                        remaining=tracker.remaining,
                    )
                raise

            interrupted = (
                self.should_stop is not None
                and self.should_stop()
                and tracker.remaining > 0
            )
            stats = RunStats(
                total=len(units),
                executed=tracker.completed,
                succeeded=tracker.succeeded,
                skipped=tracker.skipped,
                failed=tracker.failed,
                elapsed_s=tracker.elapsed_seconds,
                interrupted=interrupted,
            )
            store.mark_status(
                STATUS_INTERRUPTED if interrupted else STATUS_COMPLETE
            )
            if active is not None:
                if interrupted:
                    active.emit(
                        "runner.interrupted",
                        executed=tracker.completed,
                        remaining=tracker.remaining,
                    )
                active.observe("runner.run_seconds", stats.elapsed_s)
                active.emit(
                    "runner.finish",
                    total=stats.total,
                    executed=stats.executed,
                    succeeded=stats.succeeded,
                    skipped=stats.skipped,
                    failed=stats.failed,
                    elapsed_s=stats.elapsed_s,
                )
                if store.run_dir is not None:
                    write_metrics_json(
                        active.snapshot(),
                        store.run_dir / METRICS_NAME,
                        meta={
                            "backend": self.backend.name,
                            "total": stats.total,
                            "executed": stats.executed,
                            "succeeded": stats.succeeded,
                            "skipped": stats.skipped,
                            "failed": stats.failed,
                            "elapsed_s": stats.elapsed_s,
                            "interrupted": stats.interrupted,
                        },
                    )
            return RunReport(results=results, stats=stats)

    @staticmethod
    def _merge_telemetry(
        active: "obs_mod.Observability", result: UnitResult
    ) -> None:
        """Fold one unit's worker-side capture into the parent layer.

        Metric snapshots merge with the registry's deterministic algebra;
        buffered worker events replay into the parent sink tagged with the
        unit id and the worker's ``pid`` -- ``worker_pid`` is what the
        Chrome-trace exporter keys its per-worker lanes on (their
        worker-side ``ts`` is preserved; the sink only stamps fields the
        replay does not provide).
        """
        telemetry = result.telemetry
        if not telemetry:
            return
        active.metrics.merge_snapshot(telemetry.get("metrics", []))
        worker_pid = telemetry.get("pid")
        for row in telemetry.get("events", []):
            fields = {k: v for k, v in row.items() if k not in ("event", "seq")}
            fields.setdefault("unit_id", result.unit_id)
            if worker_pid is not None:
                fields.setdefault("worker_pid", worker_pid)
            active.emit(str(row.get("event", "worker.event")), **fields)

    @staticmethod
    def _record_unit(
        active: "obs_mod.Observability", result: UnitResult, tracker: ProgressTracker
    ) -> None:
        active.counter("runner.units", status=result.status)
        active.observe("runner.unit_seconds", result.elapsed_s, status=result.status)
        if result.attempts > 1:
            active.counter("runner.retries", result.attempts - 1)
        active.gauge("runner.queue_depth", tracker.remaining)
        active.emit(
            "runner.unit",
            unit_id=result.unit_id,
            status=result.status,
            attempts=result.attempts,
            elapsed_s=result.elapsed_s,
        )
