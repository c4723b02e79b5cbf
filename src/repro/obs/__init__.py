"""Run-level observability: metrics, spans, and an event log.

The instrumentation layer behind ``python -m repro campaign --metrics``.
Three cooperating pieces, bundled by :class:`Observability`:

``metrics``
    A :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges, and
    histograms with deterministic snapshot/reset.
``tracing``
    :class:`~repro.obs.tracing.Tracer` spans
    (``with obs.span("profiler.run", chip_id=...)``) that time operations
    in wall-clock terms and feed both the registry and the event log.
``events``
    JSONL event sinks; the runner engine attaches one at
    ``<run_dir>/events.jsonl`` next to ``results.jsonl`` for durable runs.

Design contract -- **zero perturbation, near-zero overhead**:

* Instrumentation only *observes*: it never draws randomness (all
  simulation randomness flows through :func:`repro.rng.derive`), never
  advances simulated time, and never branches simulation behaviour, so a
  campaign summary is byte-identical with observability on or off
  (asserted in ``tests/test_obs.py``).
* The layer is **off by default**.  Every module-level helper starts with
  one boolean check and returns immediately when disabled, and hot
  vectorized paths (``repro.dram.cell``) carry no instrumentation at all
  -- only command-, iteration-, and unit-granularity code does.
* State is **process-wide but injectable**: components call the module
  helpers (which hit the process default), while anything that wants an
  isolated instance -- tests, the runner engine -- constructs its own
  :class:`Observability` and passes it explicitly.  :func:`capture`
  redirects the helpers for its own thread only, so units executing in
  several threads at once record into their own layers.

Typical use::

    from repro import obs

    obs.enable()
    summary = CharacterizationCampaign(...).run(...)
    print(obs.report())
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Any, Dict, Iterator, List, Optional, Union

from .events import (
    BufferedEventSink,
    JsonlEventSink,
    ListEventSink,
    NullEventSink,
    TeeEventSink,
)
from .export import (
    load_metrics_json,
    to_chrome_trace,
    to_openmetrics,
    write_metrics_json,
)
from .context import TraceContext, new_span_id, new_trace_id
from .metrics import DEFAULT_BUCKET_BOUNDS, Counter, Gauge, Histogram, MetricsRegistry
from .report import render_report
from .tracing import SpanHandle, Tracer

__all__ = [
    "BufferedEventSink",
    "Counter",
    "DEFAULT_BUCKET_BOUNDS",
    "Gauge",
    "Histogram",
    "JsonlEventSink",
    "ListEventSink",
    "MetricsRegistry",
    "NullEventSink",
    "Observability",
    "SpanHandle",
    "TeeEventSink",
    "TraceContext",
    "Tracer",
    "capture",
    "new_span_id",
    "new_trace_id",
    "load_metrics_json",
    "to_chrome_trace",
    "to_openmetrics",
    "write_metrics_json",
    "counter",
    "disable",
    "emit",
    "enable",
    "enabled",
    "gauge",
    "get",
    "observe",
    "render_report",
    "report",
    "reset",
    "sink_to",
    "snapshot",
    "span",
]


class Observability:
    """One registry + tracer + event sink, usable standalone or as the
    process default."""

    def __init__(self, sink=None) -> None:
        self.metrics = MetricsRegistry()
        self.sink = sink if sink is not None else NullEventSink()
        self.tracer = Tracer(self.metrics, self.sink)

    # -- recording ------------------------------------------------------
    # The ``**labels`` mappings go to ``MetricsRegistry.series`` directly
    # instead of through the kwargs accessors: one dict build per call,
    # which matters at per-command instrumentation granularity.
    def counter(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        self.metrics.series(Counter, name, labels).inc(amount)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        self.metrics.series(Gauge, name, labels).set(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self.metrics.series(Histogram, name, labels).observe(value)

    def span(self, name: str, **attrs: Any):
        return self.tracer.span(name, **attrs)

    def emit(self, event: str, **fields: Any) -> None:
        self.sink.emit(event, **fields)

    # -- sinks ----------------------------------------------------------
    def set_sink(self, sink) -> None:
        """Swap the event sink, closing the one being replaced.

        The close prevents a leaked open file handle per swap (e.g. a
        double ``enable(events_path=...)``).  Re-installing the sink that
        is already active -- as :meth:`sink_to` does when restoring the
        previous sink -- is a no-op close-wise.
        """
        previous = self.sink
        self.sink = sink
        self.tracer.sink = sink
        if previous is not sink:
            previous.close()

    @contextlib.contextmanager
    def sink_to(self, path: Union[str, os.PathLike]) -> Iterator[JsonlEventSink]:
        """Route events to ``path`` (JSONL, append) for the with-block.

        A displaced sink that declares ``tee_through = True`` keeps
        receiving events alongside the file (via :class:`TeeEventSink`):
        the per-job scoping hook the campaign service uses to stream a
        run's events live while the durable ``events.jsonl`` is written.
        Ordinary sinks (the default ``NullEventSink``, a CLI-attached
        JSONL file) are displaced for the block, exactly as before.
        """
        sink = JsonlEventSink(path)
        previous = self.sink
        installed = (
            TeeEventSink(sink, previous)
            if getattr(previous, "tee_through", False)
            else sink
        )
        self.sink = installed
        self.tracer.sink = installed
        try:
            yield sink
        finally:
            # Restore without set_sink's auto-close: `previous` must come
            # back alive; the temporary sink is closed explicitly.
            self.sink = previous
            self.tracer.sink = previous
            sink.close()

    # -- reading --------------------------------------------------------
    def snapshot(self) -> List[Dict[str, Any]]:
        return self.metrics.snapshot()

    def report(self, title: str = "observability report") -> str:
        return render_report(self.snapshot(), title=title)

    def reset(self) -> None:
        self.metrics.reset()


class _ThreadLayer(threading.local):
    #: The :func:`capture` layer this thread records into, if any.
    layer: Optional[Observability] = None


#: Process-wide default instance: module-level helpers target it while
#: :func:`enable` is in force, except in threads inside :func:`capture`.
_DEFAULT = Observability()
_DEFAULT_ENABLED = False
_THREAD = _ThreadLayer()
#: Open :func:`capture` blocks, across all threads.
_CAPTURES = 0
_CAPTURES_LOCK = threading.Lock()
#: True while anything records (the default is enabled or some thread is
#: inside a capture): the one boolean check disabled instrumentation pays
#: per call site.
_ENABLED = False

#: Shared no-op context manager handed out by :func:`span` when disabled
#: (``contextlib.nullcontext`` is reusable and reentrant).
_NULL_SPAN = contextlib.nullcontext()

#: Shared no-op sink yielded by :func:`sink_to` when disabled, so
#: ``with obs.sink_to(p) as sink: sink.path`` works either way.
_NULL_SINK = NullEventSink()


def _active() -> Optional[Observability]:
    """The instance this thread records into, or ``None`` if it records
    nothing (call only once ``_ENABLED`` holds)."""
    layer = _THREAD.layer
    if layer is not None:
        return layer
    return _DEFAULT if _DEFAULT_ENABLED else None


def _set_default_enabled(on: bool) -> None:
    global _DEFAULT_ENABLED, _ENABLED
    with _CAPTURES_LOCK:
        _DEFAULT_ENABLED = on
        _ENABLED = on or _CAPTURES > 0


def enabled() -> bool:
    """Is instrumentation recording in the calling thread?"""
    return _ENABLED and _active() is not None


def enable(events_path: Optional[Union[str, os.PathLike]] = None) -> Observability:
    """Turn the layer on (idempotent); returns the instance.

    Outside :func:`capture` that is the process-wide default; inside, the
    calling thread's capture layer, which already records.
    ``events_path`` optionally routes events to a JSONL file immediately;
    the runner engine attaches its own per-run sink regardless.
    """
    layer = get()
    if layer is _DEFAULT:
        _set_default_enabled(True)
    if events_path is not None:
        sink = JsonlEventSink(events_path)
        previous = layer.sink
        if getattr(previous, "tee_through", False):
            # The displaced sink must keep receiving (a capture buffer, a
            # service broadcast): fan out instead of replacing.  No
            # set_sink here -- it would close `previous`, which stays live.
            installed = TeeEventSink(sink, previous)
            layer.sink = installed
            layer.tracer.sink = installed
        else:
            layer.set_sink(sink)
    return layer


def disable() -> None:
    """Stop the process-wide default recording.  Accumulated metrics stay
    readable via report(); open :func:`capture` blocks keep recording."""
    _set_default_enabled(False)
    _DEFAULT.set_sink(NullEventSink())  # closes whatever sink was attached


def get() -> Observability:
    """The calling thread's capture layer inside :func:`capture`, else the
    process-wide instance (whether or not it is enabled)."""
    layer = _THREAD.layer
    return _DEFAULT if layer is None else layer


@contextlib.contextmanager
def capture() -> Iterator[Observability]:
    """Record the calling thread into a fresh, isolated instance.

    The worker half of cross-process telemetry: for the duration of the
    with-block every module-level instrumentation call made *in this
    thread* targets a fresh :class:`Observability` with a
    :class:`BufferedEventSink`, and records whether or not the process
    default is enabled.  Other threads -- in or out of their own capture
    -- are unaffected, and on exit this thread targets whatever it did
    before, so the caller can snapshot the yielded instance
    (``layer.snapshot()``, ``layer.sink.events``) and ship it across the
    process boundary.

    Capture is pure observation -- it swaps observability state only, never
    simulation state -- so it preserves the zero-perturbation contract.

    Nested ``enable(events_path=...)`` inside the capture block targets
    the *fresh* instance and tees through the buffer, so events land in
    both the file and ``layer.sink.events``.  On exit the buffer is
    re-installed and any displaced file sink is closed, so the shipment
    read works and the pre-capture sink handle comes back untouched.
    """
    global _CAPTURES, _ENABLED
    previous = _THREAD.layer
    buffer = BufferedEventSink()
    fresh = Observability(sink=buffer)
    with _CAPTURES_LOCK:
        _CAPTURES += 1
        _ENABLED = True
    _THREAD.layer = fresh
    try:
        yield fresh
    finally:
        _THREAD.layer = previous
        with _CAPTURES_LOCK:
            _CAPTURES -= 1
            _ENABLED = _DEFAULT_ENABLED or _CAPTURES > 0
        displaced = fresh.sink
        if displaced is not buffer:
            # A nested enable/set_sink displaced the capture buffer; put
            # it back and close what was installed (tee members too --
            # TeeEventSink.close deliberately closes nothing itself).
            fresh.sink = buffer
            fresh.tracer.sink = buffer
            for member in getattr(displaced, "sinks", (displaced,)):
                if member is not buffer:
                    member.close()


# ----------------------------------------------------------------------
# Module-level recording helpers: the instrumentation call sites.  Each
# starts with the enabled check so a disabled layer is near-free.
# ----------------------------------------------------------------------
def counter(name: str, amount: float = 1.0, **labels: Any) -> None:
    if _ENABLED:
        layer = _active()
        if layer is not None:
            layer.metrics.series(Counter, name, labels).inc(amount)


def gauge(name: str, value: float, **labels: Any) -> None:
    if _ENABLED:
        layer = _active()
        if layer is not None:
            layer.metrics.series(Gauge, name, labels).set(value)


def observe(name: str, value: float, **labels: Any) -> None:
    if _ENABLED:
        layer = _active()
        if layer is not None:
            layer.metrics.series(Histogram, name, labels).observe(value)


def span(name: str, **attrs: Any):
    layer = _active() if _ENABLED else None
    if layer is None:
        return _NULL_SPAN
    return layer.span(name, **attrs)


def emit(event: str, **fields: Any) -> None:
    if _ENABLED:
        layer = _active()
        if layer is not None:
            layer.emit(event, **fields)


def sink_to(path: Union[str, os.PathLike]):
    """Route the calling thread's instance's events to ``path`` for a
    with-block.

    When the thread records nothing this is a no-op context that still
    yields a :class:`NullEventSink` (never ``None``), so callers can use
    the yielded sink identically on both paths.
    """
    layer = _active() if _ENABLED else None
    if layer is None:
        return contextlib.nullcontext(_NULL_SINK)
    return layer.sink_to(path)


# ----------------------------------------------------------------------
# Reading helpers (work whether or not recording is enabled).
# ----------------------------------------------------------------------
def snapshot() -> List[Dict[str, Any]]:
    return get().snapshot()


def report(title: str = "observability report") -> str:
    return get().report(title=title)


def reset() -> None:
    get().reset()
