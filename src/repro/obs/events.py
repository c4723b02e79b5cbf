"""Event sinks: the streaming half of the observability layer.

Where metrics aggregate, events narrate: one JSON object per noteworthy
occurrence (a profiler iteration, a completed work unit, a span closing),
appended to a :class:`~repro.jsonfiles.JsonlLog`.  The runner engine
attaches a sink at ``<run_dir>/events.jsonl`` for the duration of a
durable run.

Event payloads must be JSON-serializable; the sink stamps each with a
wall-clock ``ts`` and a monotonically increasing ``seq``.  Timestamps make
the event log *non*-deterministic by design -- it records when things
really happened -- which is why campaign results are never derived from it.
"""

from __future__ import annotations

import os
import pathlib
import time
from typing import Any, Optional, Union

from ..jsonfiles import JsonlLog, JsonlRows


class NullEventSink:
    """Swallows events; the default when no event log was requested."""

    path: Optional[pathlib.Path] = None

    def emit(self, event: str, **fields: Any) -> None:
        pass

    def close(self) -> None:
        pass


class JsonlEventSink(JsonlLog):
    """Appends one JSON line per event to ``path``, flushed immediately.

    Reopening an existing file (the checkpoint/resume path) continues the
    ``seq`` sequence where the previous attach left off, so ordering-by-seq
    consumers see one monotone stream across resumes instead of duplicate
    sequence numbers.  Emitting after :meth:`close` does nothing.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        super().__init__(path, default=str)
        self.open()
        self._seq = self._next_seq(self.path)

    @staticmethod
    def _next_seq(path: pathlib.Path) -> int:
        """First unused ``seq`` in an existing event log (0 when fresh).

        One past the largest recorded ``seq``, and at least the number of
        lines, so lines without one -- skipped, or rows from elsewhere --
        still move the sequence strictly forward.
        """
        rows = JsonlRows(path)
        next_seq = lines = 0
        for row in rows:
            lines += 1
            seq = row.get("seq")
            if isinstance(seq, int):
                next_seq = max(next_seq, seq + 1)
        return max(next_seq, lines + rows.skipped)

    def emit(self, event: str, **fields: Any) -> None:
        if self._handle is None:
            return
        row = {"event": event, "ts": time.time(), "seq": self._seq}
        row.update(fields)
        self._seq += 1
        self.append(row)


class TeeEventSink:
    """Fans every event out to multiple member sinks.

    Installed by :meth:`repro.obs.Observability.sink_to` when the sink
    being displaced declares ``tee_through = True`` -- the run-dir JSONL
    log *and* the displaced sink (e.g. the service's per-job broadcast
    sink feeding live HTTP event streams) both see the stream.  The tee
    owns none of its members: closing it closes nothing, the installer
    remains responsible for each member's lifecycle.
    """

    path: Optional[pathlib.Path] = None

    def __init__(self, *sinks: Any) -> None:
        self.sinks = tuple(sinks)

    def emit(self, event: str, **fields: Any) -> None:
        for sink in self.sinks:
            sink.emit(event, **fields)

    def close(self) -> None:
        pass


class ListEventSink:
    """Collects events in memory; the test double."""

    path: Optional[pathlib.Path] = None

    def __init__(self) -> None:
        self.events = []

    def emit(self, event: str, **fields: Any) -> None:
        row = {"event": event}
        row.update(fields)
        self.events.append(row)

    def close(self) -> None:
        pass


class BufferedEventSink(ListEventSink):
    """In-memory sink that stamps wall-clock ``ts`` like the JSONL sink.

    Used for worker-side telemetry capture: a pool worker buffers its
    events here, ships the rows back attached to the unit result, and the
    parent replays them into its own sink -- the preserved ``ts`` keeps
    the merged event log truthful about when things really happened in
    the worker.

    ``tee_through`` marks the buffer as a sink that must keep receiving
    when displaced (by ``sink_to`` or a nested ``enable(events_path=...)``
    inside ``obs.capture``): the telemetry shipment reads the buffer at
    capture exit, so silently diverting its stream would lose events.
    """

    tee_through = True

    def emit(self, event: str, **fields: Any) -> None:
        row: dict = {"event": event, "ts": time.time()}
        row.update(fields)
        self.events.append(row)
