"""Brute-force retention failure profiling (Algorithm 1 of the paper).

The state-of-the-art baseline: for each of ``iterations`` rounds, write each
data pattern into DRAM, disable refresh for the target refresh interval,
re-enable refresh, and read back to collect retention failures.  The
profiler faithfully pays all the simulated costs a real run would: pattern
IO time per pass and the full refresh-interval wait per pattern.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..clock import ClockStopwatch
from ..conditions import Conditions
from ..dram.chip import SimulatedDRAMChip
from ..dram.fleet import ChipFleet
from ..errors import ConfigurationError, ProfilingError
from ..patterns import STANDARD_PATTERNS, DataPattern
from .device import ObservedCellAccumulator, ProfilableDevice
from .fleetprof import FleetProfiler, random_family
from .profile import IterationRecord, RetentionProfile

#: What a profiling route yields after each read: the clock, and the
#: failing cells the read reported.
_Read = Tuple[float, np.ndarray]


class BruteForceProfiler:
    """Algorithm 1: iterate (write pattern, wait t_REFI, check errors).

    Parameters
    ----------
    patterns:
        Data patterns tested each iteration; defaults to the paper's six
        base patterns plus inverses.
    iterations:
        Number of rounds; the paper's tradeoff analysis uses 16.
    idle_between_iterations_s:
        Optional idle gap inserted strictly *between* consecutive
        iterations, modelling test infrastructure overhead between rounds
        (used by the six-day characterization campaigns, where 800
        iterations span six days).  An N-iteration run charges exactly
        N - 1 gaps: no gap trails the final iteration or a quiet-streak
        stop, so ``runtime_seconds`` matches the Eq-9 accounting.
    stop_after_quiet_iterations:
        Adaptive early stopping: end the run once this many consecutive
        iterations discover no new failing cells (0 disables).  A cheap
        runtime optimization for online profiling -- most discoveries land
        in the first iterations, so a quiet streak signals convergence.
    """

    mechanism_name = "brute-force"

    def __init__(
        self,
        patterns: Sequence[DataPattern] = STANDARD_PATTERNS,
        iterations: int = 16,
        idle_between_iterations_s: float = 0.0,
        stop_after_quiet_iterations: int = 0,
    ) -> None:
        if iterations <= 0:
            raise ConfigurationError(f"iterations must be positive, got {iterations!r}")
        if not patterns:
            raise ConfigurationError("at least one data pattern is required")
        if idle_between_iterations_s < 0.0:
            raise ConfigurationError("idle gap must be non-negative")
        if stop_after_quiet_iterations < 0:
            raise ConfigurationError("quiet-iteration threshold must be non-negative")
        self.patterns = tuple(patterns)
        self.iterations = iterations
        self.idle_between_iterations_s = idle_between_iterations_s
        self.stop_after_quiet_iterations = stop_after_quiet_iterations

    def run(
        self,
        device: ProfilableDevice,
        conditions: Conditions,
        target_conditions: Optional[Conditions] = None,
    ) -> RetentionProfile:
        """Profile ``device`` at ``conditions``.

        ``target_conditions`` defaults to the profiling conditions (plain
        brute force); reach profiling passes the real target so the profile
        records both.

        A fixed schedule (no quiet-streak stop, stochastic patterns only
        from the random family) on a :class:`SimulatedDRAMChip` with the
        production evaluator runs on the grid kernel, as a one-condition
        :meth:`~repro.core.fleetprof.FleetProfiler.run_grid` on a one-chip
        fleet; every other input runs :meth:`walk`.  Both give the same
        profile, chip end state and telemetry, except that a kernel run
        raises before any command executes.
        """
        if (
            isinstance(device, SimulatedDRAMChip)
            and device.population.fast_path
            and not self.stop_after_quiet_iterations
            and all(random_family(p) for p in self.patterns if p.stochastic)
        ):
            reads = self._kernel(device, conditions)
            return self._profile(device, conditions, target_conditions, reads)
        return self.walk(device, conditions, target_conditions)

    def walk(
        self,
        device: ProfilableDevice,
        conditions: Conditions,
        target_conditions: Optional[Conditions] = None,
    ) -> RetentionProfile:
        """Profile ``device`` at ``conditions`` command by command.

        Serves any device and quiet-streak stops; it is also the reference
        :meth:`run`'s kernel route is checked against."""
        reads = self._commands(device, conditions)
        return self._profile(device, conditions, target_conditions, reads)

    def _commands(self, device: ProfilableDevice, conditions: Conditions) -> Iterator[_Read]:
        """Algorithm 1's command loop, one read at a time."""
        for iteration in range(self.iterations):
            # The idle gap models inter-round infrastructure overhead, so
            # it is charged strictly between iterations: never before the
            # first, never after the last or after a quiet-streak stop
            # (the consumer stops pulling, so no command follows).
            if iteration and self.idle_between_iterations_s:
                device.wait(self.idle_between_iterations_s)
            for pattern in self.patterns:
                device.write_pattern(pattern)
                device.disable_refresh()
                device.wait(conditions.trefi)
                device.enable_refresh()
                errors = device.read_errors()
                yield device.clock.now, errors

    def _kernel(self, chip: SimulatedDRAMChip, conditions: Conditions) -> Iterator[_Read]:
        """The same reads from the grid kernel, run as one one-chip,
        one-condition grid with this profiler's idle gap.  The kernel
        appends and counts the records in bulk; their simulated durations
        are observed here, as ``CommandTrace.append`` would have."""
        first = len(chip.trace)
        _results, reads = FleetProfiler(self.patterns, self.iterations)._run(
            ChipFleet([chip]), (conditions,), idle_s=self.idle_between_iterations_s, per_read=True
        )
        chip.trace.observe_durations(first)
        space = chip.error_index_space()
        for t_read, cells, vrt in reads:
            errors = space[cells]
            for _chip_index, vrt_cells in vrt:
                errors = np.union1d(errors, vrt_cells)
            yield t_read, errors

    def _profile(
        self,
        device: ProfilableDevice,
        conditions: Conditions,
        target_conditions: Optional[Conditions],
        reads: Iterator[_Read],
    ) -> RetentionProfile:
        """Run ``reads`` and fold each read into the profile and the
        per-iteration telemetry, ending the run on a quiet streak."""
        if conditions.trefi > device.max_trefi_s:
            raise ProfilingError(
                f"profiling interval {conditions.trefi!r}s exceeds the device's "
                f"supported maximum of {device.max_trefi_s!r}s"
            )
        target = target_conditions if target_conditions is not None else conditions
        watch = ClockStopwatch(device.clock)
        started_at = device.clock.now
        index_space = getattr(device, "error_index_space", None)
        accumulator = ObservedCellAccumulator(
            index_space() if callable(index_space) else None
        )
        # (iteration, pattern_key, new-cells handle, observed, clock_time):
        # frozensets are materialized once at the end of the run, not per
        # read -- the hot loop stays in numpy index space.
        pending = []
        new_this_iteration = 0
        quiet_streak = 0
        iterations_run = 0
        with obs.span(
            "profiler.run",
            mechanism=self.mechanism_name,
            chip_id=getattr(device, "chip_id", None),
            trefi=conditions.trefi,
        ):
            for r, (clock_time, errors) in enumerate(reads):
                iteration, j = divmod(r, len(self.patterns))
                new_cells, observed_count = accumulator.observe(errors)
                new_this_iteration += len(new_cells)
                pending.append(
                    (iteration, self.patterns[j].key, new_cells, observed_count, clock_time)
                )
                if j < len(self.patterns) - 1:
                    continue
                iterations_run = iteration + 1
                if obs.enabled():
                    obs.counter("profiler.iterations", mechanism=self.mechanism_name)
                    obs.counter(
                        "profiler.new_cells", new_this_iteration, mechanism=self.mechanism_name
                    )
                    obs.observe(
                        "profiler.new_cells_per_iteration",
                        new_this_iteration,
                        mechanism=self.mechanism_name,
                    )
                    obs.emit(
                        "profiler.iteration",
                        mechanism=self.mechanism_name,
                        chip_id=getattr(device, "chip_id", None),
                        iteration=iteration,
                        new_cells=new_this_iteration,
                        discovered=len(accumulator),
                    )
                if self.stop_after_quiet_iterations:
                    quiet_streak = quiet_streak + 1 if new_this_iteration == 0 else 0
                    if quiet_streak >= self.stop_after_quiet_iterations:
                        break
                new_this_iteration = 0
        records = tuple(
            IterationRecord(
                iteration=it,
                pattern_key=key,
                new_cells=ObservedCellAccumulator.materialize(new_cells),
                observed_count=observed_count,
                clock_time=clock_time,
            )
            for it, key, new_cells, observed_count, clock_time in pending
        )
        return RetentionProfile(
            failing=accumulator.discovered(),
            profiling_conditions=conditions,
            target_conditions=target,
            patterns=tuple(p.key for p in self.patterns),
            iterations=iterations_run,
            runtime_seconds=watch.elapsed,
            started_at=started_at,
            records=records,
            mechanism=self.mechanism_name,
        )
