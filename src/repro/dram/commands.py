"""Command-level interface records for the simulated testing infrastructure.

The paper's infrastructure "provides precise control over DRAM commands,
which we verified via a logic analyzer by probing the DRAM command bus"
(Section 4).  Our equivalent: every operation a profiler performs on a
simulated chip is recorded as a :class:`CommandRecord` in a
:class:`CommandTrace`, and :meth:`CommandTrace.verify_protocol` plays the
logic analyzer's role -- asserting that the observed command sequence is a
legal retention-test sequence.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .. import obs


class Command(enum.Enum):
    """Operations visible on the simulated command bus."""

    WRITE_PATTERN = "write_pattern"
    READ_COMPARE = "read_compare"
    REFRESH_DISABLE = "refresh_disable"
    REFRESH_ENABLE = "refresh_enable"
    WAIT = "wait"
    SET_TEMPERATURE = "set_temperature"


@dataclass(frozen=True)
class CommandRecord:
    """One timestamped command observed on the bus."""

    time: float
    command: Command
    detail: str = ""


class ProtocolViolation(Exception):
    """Raised by :meth:`CommandTrace.verify_protocol` on an illegal sequence."""


class CommandTrace:
    """An append-only log of commands issued to a chip.

    Records the chip appends one at a time go into a list the trace owns.
    A run of records many traces share -- the schedule a fleet kernel
    replays once for all its chips (:meth:`extend_shared`) -- is kept by
    reference, one entry per run, not copied into every chip's list.
    :attr:`records` joins the parts, in order, when it is read.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, records: Iterable[CommandRecord] = ()) -> None:
        #: The trace's records in order: runs shared by reference and
        #: lists the trace owns; the last part is always an owned list.
        self._parts: List[Sequence[CommandRecord]] = [list(records)]
        #: Memoized (registry, generation, {command: (counter, histogram)}).
        #: This is the hottest instrumentation site in the simulator (every
        #: command on every chip), so series handles are resolved once per
        #: command kind and reused until the active registry changes (a
        #: worker-side ``obs.capture()``) or is reset (generation bump).
        self._obs_series: Optional[tuple] = None

    @property
    def records(self) -> List[CommandRecord]:
        """Every record, in order: a list the trace owns, so appending to
        it appends to the trace."""
        if len(self._parts) > 1:
            self._parts = [list(itertools.chain.from_iterable(self._parts))]
        return self._parts[0]

    def extend_shared(self, records: Tuple[CommandRecord, ...]) -> None:
        """Append ``records``, a run other traces share, by reference."""
        if records:
            if not self._parts[-1]:
                self._parts.pop()
            self._parts += [records, []]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommandTrace):
            return NotImplemented
        return self.records == other.records

    def __repr__(self) -> str:
        return f"CommandTrace(records={self.records!r})"

    def _last(self) -> Optional[CommandRecord]:
        for part in reversed(self._parts):
            if part:
                return part[-1]
        return None

    def _series_for(self, command: Command):
        registry = obs.get().metrics
        cache = self._obs_series
        if cache is None or cache[0] is not registry or cache[1] != registry.generation:
            cache = (registry, registry.generation, {})
            self._obs_series = cache
        pair = cache[2].get(command)
        if pair is None:
            pair = (
                registry.series(obs.Counter, "chip.commands", {"command": command.value}),
                registry.series(obs.Histogram, "chip.sim_seconds", {"command": command.value}),
            )
            cache[2][command] = pair
        return pair

    def append(self, time: float, command: Command, detail: str = "") -> None:
        # Observability piggybacks on the trace: each record's timestamp is
        # the simulated clock *after* the command completed, so the delta to
        # the previous record is the simulated time this command consumed.
        # The first record has no predecessor on this trace and contributes
        # only to the command count.  Pure observation -- recording reads
        # the trace, never alters it.
        if obs.enabled():
            command_counter, sim_seconds = self._series_for(command)
            command_counter.inc()
            previous = self._last()
            if previous is not None:
                sim_seconds.observe(time - previous.time)
        self._parts[-1].append(CommandRecord(time=time, command=command, detail=detail))

    def observe_durations(self, start: int) -> None:
        """Record the ``chip.sim_seconds`` observations :meth:`append` makes,
        in its order, for ``records[start:]`` appended in bulk (whoever
        appended them counts them)."""
        if obs.enabled():
            first = max(start, 1)
            for previous, record in zip(self.records[first - 1 :], self.records[first:]):
                self._series_for(record.command)[1].observe(record.time - previous.time)

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)

    def __iter__(self) -> Iterator[CommandRecord]:
        return itertools.chain.from_iterable(self._parts)

    def of_type(self, command: Command) -> List[CommandRecord]:
        """All records of one command type, in order."""
        return [r for r in self if r.command is command]

    def exposures(self) -> List[Tuple[float, float]]:
        """(start, end) pairs of refresh-disabled windows, as a logic analyzer
        would reconstruct them from the bus."""
        windows: List[Tuple[float, float]] = []
        start: Optional[float] = None
        for record in self:
            if record.command is Command.REFRESH_DISABLE:
                start = record.time
            elif record.command is Command.REFRESH_ENABLE and start is not None:
                windows.append((start, record.time))
                start = None
        return windows

    def verify_protocol(self) -> None:
        """Assert the trace is a legal retention-testing sequence.

        Rules enforced (mirroring what the real command bus allows):

        * timestamps are non-decreasing;
        * REFRESH_DISABLE / REFRESH_ENABLE strictly alternate;
        * every READ_COMPARE is preceded by a WRITE_PATTERN.
        """
        last_time = float("-inf")
        refresh_disabled = False
        pattern_written = False
        for i, record in enumerate(self):
            if record.time < last_time:
                raise ProtocolViolation(
                    f"record {i}: time {record.time} precedes previous {last_time}"
                )
            last_time = record.time
            if record.command is Command.REFRESH_DISABLE:
                if refresh_disabled:
                    raise ProtocolViolation(f"record {i}: refresh disabled twice in a row")
                refresh_disabled = True
            elif record.command is Command.REFRESH_ENABLE:
                if not refresh_disabled:
                    raise ProtocolViolation(f"record {i}: refresh enabled while already enabled")
                refresh_disabled = False
            elif record.command is Command.WRITE_PATTERN:
                pattern_written = True
            elif record.command is Command.READ_COMPARE:
                if not pattern_written:
                    raise ProtocolViolation(f"record {i}: read-compare before any pattern write")
