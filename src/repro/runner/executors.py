"""Execution backends: where campaign work units actually run.

Two interchangeable backends share one contract -- take a picklable worker
function plus a tuple of :class:`~repro.runner.units.WorkUnit` and yield
:class:`~repro.runner.units.UnitResult` objects *in completion order*,
stopping early once the ``should_stop`` probe reads ``True``:

``SerialBackend``
    Runs every unit in-process, in submission order: one worker, zero
    overhead, and the reference behaviour the pool must reproduce
    byte-identically.

``ProcessPoolBackend``
    Fans units out across a :class:`concurrent.futures.ProcessPoolExecutor`
    (worker count defaults to the CPU affinity mask via
    :func:`default_worker_count`).  Because every unit is
    self-contained and seeded by key (:func:`repro.rng.derive`), placement
    and completion order cannot change any unit's value -- parallelism is
    pure wall-clock.

The worker count alone picks between them (:func:`backend_from_spec`):
more than one worker runs the pool, else the serial backend.  Either has
a ``workers`` width, which sizes the campaign's units.

Retries happen *inside* the worker via :func:`execute_unit`, so an
exception never crosses the pool boundary as an exception: after
``max_retries`` re-attempts it comes back as a structured ``failed`` row
and the run keeps going.

When the engine runs with observability on, it asks the backend for
``capture_telemetry``: each unit executes under :func:`repro.obs.capture`,
which records the unit's instrumentation (chip commands, profiler
iterations, spans, events) into an isolated per-unit layer, and the
snapshot rides back on ``UnitResult.telemetry`` for the parent to merge.
The same capture runs on the serial backend, so serial and pooled runs
produce merged reports with identical content.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import itertools
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, Iterator, Optional, Tuple, Union

from .. import obs as obs_mod
from ..errors import ConfigurationError
from .units import STATUS_FAILED, STATUS_OK, UnitFailure, UnitResult, WorkUnit

#: A worker takes the unit's payload mapping and returns a JSON value.
WorkerFn = Callable[[Any], Any]


def execute_unit(
    worker: WorkerFn,
    unit: WorkUnit,
    max_retries: int = 1,
    capture_telemetry: bool = False,
) -> UnitResult:
    """Run one unit with bounded retry, capturing failure as data.

    ``max_retries`` counts *re*-attempts: 1 means up to two executions.
    Runs in the worker process for pool backends, so a poisoned unit costs
    its own retries without a round-trip through the coordinator.

    With ``capture_telemetry`` the whole execution (retries included)
    records into an isolated observability layer whose snapshot is
    attached to the result as ``telemetry`` -- plain picklable dicts, so
    it crosses the pool boundary intact.  When the unit carries a trace
    context (stamped by the engine), the capture layer's tracer adopts
    it, executes the unit under a ``unit.execute`` span parented to the
    engine's run span, and the telemetry payload records this process's
    ``pid`` so the parent can lay worker spans out on per-worker lanes.
    """
    if not capture_telemetry:
        return _execute_unit(worker, unit, max_retries)
    with obs_mod.capture() as layer:
        context = (
            obs_mod.TraceContext.from_json_dict(unit.trace)
            if unit.trace is not None
            else None
        )
        if context is not None:
            # Traced dispatch: adopt the engine's context and bracket the
            # unit in a span so every unit contributes at least one
            # correlated worker-side span.  Untraced units record exactly
            # as before (no extra event), keeping legacy capture shapes.
            layer.tracer.context = context
            span = layer.span("unit.execute", unit_id=unit.unit_id, kind=unit.kind)
        else:
            span = contextlib.nullcontext()
        with span:
            result = _execute_unit(worker, unit, max_retries)
    return dataclasses.replace(
        result,
        telemetry={
            "metrics": layer.snapshot(),
            "events": list(layer.sink.events),
            "pid": os.getpid(),
        },
    )


def _execute_unit(worker: WorkerFn, unit: WorkUnit, max_retries: int) -> UnitResult:
    if max_retries < 0:
        raise ConfigurationError("max_retries must be non-negative")
    started = time.perf_counter()
    failure: Optional[UnitFailure] = None
    attempts = 0
    for attempt in range(max_retries + 1):
        attempts = attempt + 1
        try:
            value = worker(unit.payload)
        except Exception as exc:  # noqa: BLE001 - capture is the contract
            failure = UnitFailure.from_exception(exc, traceback.format_exc())
            continue
        return UnitResult(
            unit_id=unit.unit_id,
            status=STATUS_OK,
            value=value,
            attempts=attempts,
            elapsed_s=time.perf_counter() - started,
        )
    assert failure is not None
    return UnitResult(
        unit_id=unit.unit_id,
        status=STATUS_FAILED,
        error=failure,
        attempts=attempts,
        elapsed_s=time.perf_counter() - started,
    )


#: Cooperative-cancellation probe: ``True`` means "stop taking new work".
ShouldStop = Callable[[], bool]


class SerialBackend:
    """In-process, in-order execution; the reference backend."""

    name = "serial"
    workers = 1

    def run(
        self,
        worker: WorkerFn,
        units: Tuple[WorkUnit, ...],
        max_retries: int = 1,
        capture_telemetry: bool = False,
        should_stop: Optional[ShouldStop] = None,
    ) -> Iterator[UnitResult]:
        for unit in units:
            if should_stop is not None and should_stop():
                return
            yield execute_unit(worker, unit, max_retries, capture_telemetry)


def default_worker_count() -> int:
    """Worker count the pool backend uses when none is requested.

    Respects the process's CPU *affinity* where the platform exposes it
    (``len(os.sched_getaffinity(0))``) -- a containerized CI runner pinned
    to 2 of a host's 64 cores gets 2 workers, not 64 -- falling back to
    ``os.cpu_count()`` on platforms without the call (macOS, Windows), when
    it errors, or when it reports an empty mask.  Always returns a positive
    count: ``os.cpu_count()`` itself may return ``None`` on exotic
    platforms, and a 0/None here would blow up pool construction.
    """
    sched_getaffinity = getattr(os, "sched_getaffinity", None)
    if sched_getaffinity is not None:
        try:
            count = len(sched_getaffinity(0))
        except (OSError, ValueError):  # pragma: no cover - platform quirk
            count = 0
        if count > 0:
            return count
    return os.cpu_count() or 1


class ProcessPoolBackend:
    """Fan units out across worker processes.

    Parameters
    ----------
    workers:
        Pool size; defaults to :func:`default_worker_count` (CPU affinity
        aware).  The worker function and unit payloads must be picklable
        (module-level functions and plain JSON payloads are).

    executor:
        An externally owned :class:`~concurrent.futures.ProcessPoolExecutor`
        to submit into instead of creating (and tearing down) a private
        pool per run.  The caller keeps ownership: the backend never shuts
        a shared executor down, so one pool can serve many concurrent
        campaigns (the ``repro.service`` job manager does exactly this).
        ``workers`` then only sizes this run's submission window -- its
        fair share of the shared pool -- not the pool itself.

    A pool the backend creates starts each worker with :func:`gc.freeze`:
    a forked worker inherits the coordinator's heap, and freezing it keeps
    the worker's full collections from walking (and copying on write)
    every inherited object again.

    Submission is windowed: at most ``INFLIGHT_FACTOR * workers`` units are
    in flight at once, refilled as results drain, so a 10k-unit campaign
    never holds every payload and future in the coordinator at the same
    time while workers still never starve.

    ``should_stop`` makes cancellation cooperative and lossless: once it
    reads ``True`` the backend stops submitting, cancels queued futures
    that have not started, and *drains* the units already executing --
    their results are yielded (and therefore persisted by the engine)
    before iteration ends, so cancelling a campaign never throws away
    finished work.
    """

    name = "process"

    #: In-flight submission window per pool worker.
    INFLIGHT_FACTOR = 4

    def __init__(
        self,
        workers: Optional[int] = None,
        executor: Optional[ProcessPoolExecutor] = None,
    ) -> None:
        if workers is None:
            workers = default_worker_count()
        if workers <= 0:
            raise ConfigurationError(f"workers must be positive, got {workers!r}")
        self.workers = int(workers)
        self.executor = executor

    def run(
        self,
        worker: WorkerFn,
        units: Tuple[WorkUnit, ...],
        max_retries: int = 1,
        capture_telemetry: bool = False,
        should_stop: Optional[ShouldStop] = None,
    ) -> Iterator[UnitResult]:
        if not units:
            return
        if should_stop is not None and should_stop():
            return
        pool_size = min(self.workers, len(units))
        window = max(1, self.INFLIGHT_FACTOR * pool_size)
        with contextlib.ExitStack() as stack:
            if self.executor is None:
                pool = stack.enter_context(
                    ProcessPoolExecutor(max_workers=pool_size, initializer=gc.freeze)
                )
            else:
                pool = self.executor
            queue = iter(units)

            def submit(batch):
                return {
                    pool.submit(
                        execute_unit, worker, unit, max_retries, capture_telemetry
                    )
                    for unit in batch
                }

            pending = submit(itertools.islice(queue, window))
            # as_completed() holds every future to the end; draining with
            # wait() lets finished futures (and their result payloads) be
            # released incrementally, and the bounded window keeps the
            # not-yet-finished set small on large campaigns.
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                if should_stop is not None and should_stop():
                    # Stop refilling, shed what never started, drain the
                    # rest.  Successfully cancelled futures leave `pending`
                    # here and never reach a later `done` set, so every
                    # future yielded below carries a real result.
                    pending = {f for f in pending if not f.cancel()}
                else:
                    pending |= submit(itertools.islice(queue, len(done)))
                for future in done:
                    yield future.result()


Backend = Union[SerialBackend, ProcessPoolBackend]


def backend_from_spec(
    backend: Optional[Backend], workers: Optional[int] = None
) -> Backend:
    """The backend a run executes on: ``backend`` itself when given (the
    service's shared pool, a test double), else :class:`ProcessPoolBackend`
    when ``workers`` asks for more than one process and
    :class:`SerialBackend` otherwise."""
    if isinstance(backend, str):
        raise ConfigurationError(
            f"backend takes a backend instance or None, not the name {backend!r}; "
            "pass workers=N instead (N > 1 runs a process pool)"
        )
    if workers is not None and workers <= 0:
        raise ConfigurationError(f"workers must be positive, got {workers!r}")
    if backend is not None:
        return backend
    if workers is not None and workers > 1:
        return ProcessPoolBackend(workers)
    return SerialBackend()
