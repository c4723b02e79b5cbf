"""Layer spans for the benchmark's traced runs.

A traced run times every call into a layer from outside the program:
:func:`install` replaces the module or class attribute each caller looks
up with a :func:`functools.wraps` wrapper that opens a span around the
call.  Wrapped functions keep their name and qualified name, so pickling
by reference still resolves them.  Spans stay in memory in a
:class:`Recorder` until the run ends; :func:`budget` then splits the wall
time of the run's operations into the layers directly below them, with
the time no layer claims on its own line, and :meth:`Recorder.write_chrome_trace`
writes the spans as a Chrome trace.

Only the traced run installs wrappers; timed runs call the program as is.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: One closed span: (span id, parent id or None, name, start s, end s, thread id).
Span = Tuple[int, Optional[int], str, float, float, int]


class Recorder:
    """In-memory spans and counters, safe to record from several threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (span_id, parent, name, start, end, threading.get_ident())
                )

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + float(amount)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for _, _, n, start, end, _ in self.spans if n == name)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[2] == name)

    def durations(self, name: str) -> List[float]:
        return [end - start for _, _, n, start, end, _ in self.spans if n == name]

    # -- persistence ----------------------------------------------------
    def dump(self, path: str) -> None:
        """Write spans and counters as JSON (a server process hands its
        spans to the benchmark this way when it exits)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": self.counters}, handle)

    def merge_file(self, path: str) -> None:
        """Fold another process's :meth:`dump` in, under fresh span ids."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        with self._lock:
            remap: Dict[int, int] = {}
            for span_id, *_ in data["spans"]:
                remap[span_id] = next(self._ids)
            for span_id, parent, name, start, end, tid in data["spans"]:
                self.spans.append(
                    (remap[span_id], remap.get(parent), name, start, end, tid)
                )
            for name, amount in data["counters"].items():
                self.counters[name] = self.counters.get(name, 0.0) + amount

    def write_chrome_trace(self, path: str) -> None:
        """Spans as Chrome trace ``X`` events, one lane per thread."""
        origin = min((span[3] for span in self.spans), default=0.0)
        lanes: Dict[int, int] = {}
        events = []
        for _span_id, _parent, name, start, end, tid in sorted(
            self.spans, key=lambda span: span[3]
        ):
            events.append(
                {
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": os.getpid(),
                    "tid": lanes.setdefault(tid, len(lanes)),
                }
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def wrap(
    owner: Any,
    attr: str,
    name: str,
    recorder: Recorder,
    after: Optional[Callable[[Any], Mapping[str, float]]] = None,
) -> None:
    """Time every call of ``owner.attr`` as a span called ``name``.

    ``after`` maps the call's return value to counters to add.  A
    classmethod is wrapped underneath its descriptor so it still binds.
    """
    static = inspect.getattr_static(owner, attr)
    is_classmethod = isinstance(static, classmethod)
    target = static.__func__ if is_classmethod else static

    @functools.wraps(target)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with recorder.span(name):
            result = target(*args, **kwargs)
        if after is not None:
            for counter, amount in after(result).items():
                recorder.add(counter, amount)
        return result

    setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)


def install(recorder: Recorder) -> None:
    """Wrap the layer boundaries that the program crosses internally.

    Each attribute is the one its caller looks up: ``analysis.campaign``
    imported ``build_population_samples`` and ``aggregate_chip_results``
    by name, so those are patched in its namespace; methods are patched on
    their class.  Calls the benchmark makes itself (lake queries, service
    requests) are spanned at the call site instead.
    """
    from repro.analysis import campaign as analysis_campaign
    from repro.dram import shm
    from repro.runner import engine, store

    wrap(analysis_campaign, "build_population_samples", "dram.shm.sample", recorder)
    wrap(
        shm.SharedPopulationStore,
        "create",
        "dram.shm.pack",
        recorder,
        after=lambda _store: {"dram.shm.bytes": shm.active_segment_stats()[1]},
    )
    wrap(engine.RunnerEngine, "run", "runner.engine.run", recorder)
    wrap(store.ResultStore, "append", "runner.store.append", recorder)
    wrap(
        analysis_campaign,
        "aggregate_chip_results",
        "analysis.campaign.aggregate",
        recorder,
    )


def budget(recorder: Recorder, op_names: Sequence[str]) -> Dict[str, Any]:
    """Split the operations' wall time into the layers directly below them.

    ``lines`` holds each top-level layer's summed duration (spans whose
    parent is an operation span), then ``unattributed``: the part of the
    wall no top-level span covers.  The lines add back up to ``wall_s``
    exactly.  ``children`` gives, per top-level layer, the summed spans
    nested directly inside it, and ``self_s`` each layer's self time: a
    top-level layer minus its children, and the children themselves.
    """
    ops = {span[0]: span for span in recorder.spans if span[2] in op_names}
    wall = sum(end - start for _, _, _, start, end, _ in ops.values())
    top: Dict[str, float] = {}
    top_ids: Dict[int, str] = {}
    for span_id, parent, name, start, end, _ in recorder.spans:
        if parent in ops:
            top[name] = top.get(name, 0.0) + (end - start)
            top_ids[span_id] = name
    children: Dict[str, Dict[str, float]] = {}
    for _, parent, name, start, end, _ in recorder.spans:
        if parent in top_ids:
            group = children.setdefault(top_ids[parent], {})
            group[name] = group.get(name, 0.0) + (end - start)
    lines = sorted(top.items(), key=lambda item: -item[1])
    unattributed = wall - sum(top.values())
    lines.append(("unattributed", unattributed))
    self_s = {
        name: seconds - sum(children.get(name, {}).values()) for name, seconds in top.items()
    }
    for group in children.values():
        for name, seconds in group.items():
            self_s[name] = self_s.get(name, 0.0) + seconds
    return {
        "ops": len(ops),
        "wall_s": wall,
        "unattributed_s": unattributed,
        "lines": lines,
        "children": children,
        "self_s": self_s,
    }


def render_budget(result: Mapping[str, Any], extra: Sequence[Tuple[str, float]] = ()) -> str:
    """Text table of a :func:`budget`; ``extra`` adds indented info lines
    (worker-side times, which run in parallel and are not summed)."""
    wall = result["wall_s"] or 1.0
    out = [f"  {'layer':<34} {'seconds':>10} {'share':>7}"]
    for name, seconds in result["lines"]:
        out.append(f"  {name:<34} {seconds:>10.4f} {seconds / wall:>7.1%}")
        for child, child_s in sorted(
            result["children"].get(name, {}).items(), key=lambda item: -item[1]
        ):
            out.append(f"    {child:<32} {child_s:>10.4f} {child_s / wall:>7.1%}")
    out.append(f"  {'= wall':<34} {result['wall_s']:>10.4f} {1.0:>7.1%}")
    for name, value in extra:
        out.append(f"    ({name}: {value:.4g})")
    return "\n".join(out)
