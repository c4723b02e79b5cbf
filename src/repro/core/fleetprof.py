"""Fleet-batched brute-force profiling (Algorithm 1 across many chips).

:class:`FleetProfiler` runs the same write/expose/read schedule as
:class:`~repro.core.bruteforce.BruteForceProfiler` on a whole
:class:`~repro.dram.fleet.ChipFleet` at once, over a whole condition grid
per call: the command schedule is replayed once on scalars (every chip
shares the clock trajectory), while per-chip RNG streams are consumed in
exactly the order the per-chip walk would consume them and the failure
evaluation runs as fused numpy passes over the stacked weak tails.
Observed-cell accumulation is likewise batched -- one boolean
``(conditions x cells)`` "discovered" array over the concatenated cell
space (the fleet analogue of
:class:`~repro.core.device.ObservedCellAccumulator`) plus small
per-(condition, chip) overflow sets for VRT episodes striking outside the
weak tail.

The per-chip failing sets it reports are byte-identical to what a
:class:`~repro.core.bruteforce.BruteForceProfiler` run over each chip
standalone would have discovered under the same schedule -- the contract
``tests/test_differential.py`` checks against both the fast and the
reference per-chip evaluator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Set, Tuple

import numpy as np
from scipy.special import ndtr

from .. import obs
from ..conditions import Conditions
from ..dram.commands import Command, CommandRecord
from ..dram.cell import chernoff_hits
from ..dram.dpd import median_of_three
from ..dram.fleet import ChipFleet, FleetPopulation, ReachSet
from ..dram.vrt import ScheduleGaps, schedule_gaps
from ..errors import CommandSequenceError, ConfigurationError, ProfilingError
from ..patterns import STANDARD_PATTERNS, DataPattern

#: Byte budget of the kernel's transient per-block arrays: a read block
#: holds the uniforms of as many whole conditions as fit, or, when one
#: condition's reads alone exceed it, of one iteration's reads (of as many
#: rows as fit, at least one, when those exceed it too); a random-pattern
#: excitation block holds the raw draws of as many writes as fit (at
#: least one).  Blocks partition each chip's streams exactly like the
#: per-read and per-write draws they replace, so the budget bounds memory
#: without changing a value.
_BLOCK_BUDGET_BYTES = 8 * 1024 * 1024

#: Byte budget of one fused compare pass's stacked temporaries: a pass
#: holds as many of a condition's read groups as fit (at least one), at
#: :data:`_FUSED_CELL_BYTES` per (read, reach cell).  Passes partition the
#: groups, and every value is elementwise, so the budget bounds memory
#: without changing a value.
_FUSED_BUDGET_BYTES = 1024 * 1024

#: Most bytes one (read, reach cell) of a fused pass holds at once: about
#: eight float64-sized temporaries (gather index, uniform, alignment,
#: stress, z, bound and the boolean masks).
_FUSED_CELL_BYTES = 64

#: The five commands of one write/expose/read step, in bus order.
_STEP_COMMANDS = (
    Command.WRITE_PATTERN,
    Command.REFRESH_DISABLE,
    Command.WAIT,
    Command.REFRESH_ENABLE,
    Command.READ_COMPARE,
)


@dataclass(frozen=True)
class _ReadStep:
    """One planned write/expose/read cycle of a condition grid; ``syncs``
    are its VRT sync times in bus order (the idle gap before its write, if
    one precedes it, then the write, the wait and the read)."""

    cond: int
    pattern: DataPattern
    exposure_s: float
    t_read: float
    syncs: Tuple[float, ...]


@dataclass(frozen=True)
class FleetChipResult:
    """One chip's accumulated discoveries from a fleet profiling run."""

    chip_id: int
    failing: frozenset

    def __len__(self) -> int:
        return len(self.failing)


#: Most schedule replays a process keeps (:func:`_replay`).  A campaign
#: worker needs one per stage of each campaign it serves.
_REPLAY_CACHE_SIZE = 8


@dataclass(frozen=True)
class _Replay:
    """A condition grid's command schedule, replayed on scalars.

    ``steps`` holds every write/expose/read cycle in schedule order,
    ``records`` the trace records every chip appends, ``t_final`` the
    clock after the last read, ``e_max[c]`` condition ``c``'s largest
    exposure.  ``schedule`` holds every VRT sync time in bus order,
    ``t_reads``, ``exposures`` and ``read_sync`` every step's read time,
    exposure and the read's position in ``schedule`` (read-only arrays),
    and ``gaps`` the schedule's gaps from the replay's start time.
    """

    steps: Tuple[_ReadStep, ...]
    records: Tuple[CommandRecord, ...]
    t_final: float
    e_max: Tuple[float, ...]
    schedule: np.ndarray
    t_reads: np.ndarray
    exposures: np.ndarray
    read_sync: np.ndarray
    gaps: ScheduleGaps


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=_REPLAY_CACHE_SIZE)
def _replay(
    start: float,
    trefis: Tuple[float, ...],
    iterations: int,
    patterns: Tuple[DataPattern, ...],
    io: float,
    max_trefi: float,
    idle_s: float,
) -> _Replay:
    """Replay a grid's command schedule from clock ``start``: every step's
    clock values, exposure, and the shared trace records -- exactly the
    floating-point expressions the per-chip command methods evaluate, in
    the same order, so every value is bit-equal.

    The replay reads only its arguments, and every chip of a fleet (and
    every unit of a campaign, whose chambers settle along one trajectory
    per seed) starts a stage from the same clock, so a process replays
    each stage once and shares the result, whose parts are immutable.
    ``idle_s`` inserts the walk's idle gap before every iteration after
    the first, per condition.  An exposure over ``max_trefi`` raises
    :class:`~repro.errors.ConfigurationError`, on every call (a call that
    raises stores nothing).
    """
    t = start
    steps: List[_ReadStep] = []
    records: List[CommandRecord] = []
    e_max = [0.0] * len(trefis)
    for ci, trefi in enumerate(trefis):
        for iteration in range(iterations):
            idle: Tuple[float, ...] = ()
            if iteration and idle_s:
                # The walk's device.wait(idle_s) between iterations.
                t = t + idle_s
                idle = (t,)
                records.append(CommandRecord(time=t, command=Command.WAIT, detail=f"{idle_s:.6f}s"))
            for pattern in patterns:
                t = t + io
                t_write = t
                t = t + trefi
                t_wait = t
                exposure = t_wait - t_write
                # Tolerate float accumulation error at the exact boundary.
                if exposure > max_trefi * (1.0 + 1e-9):
                    raise ConfigurationError(
                        f"exposure {exposure:.3f}s exceeds max_trefi_s={max_trefi!r}; "
                        "construct the chip with a larger max_trefi_s"
                    )
                t = t + io
                t_read = t
                steps.append(
                    _ReadStep(
                        cond=ci,
                        pattern=pattern,
                        exposure_s=exposure,
                        t_read=t_read,
                        syncs=idle + (t_write, t_wait, t_read),
                    )
                )
                idle = ()
                e_max[ci] = max(e_max[ci], exposure)
                records.append(
                    CommandRecord(time=t_write, command=Command.WRITE_PATTERN, detail=pattern.key)
                )
                records.append(CommandRecord(time=t_write, command=Command.REFRESH_DISABLE))
                records.append(
                    CommandRecord(time=t_wait, command=Command.WAIT, detail=f"{trefi:.6f}s")
                )
                records.append(CommandRecord(time=t_wait, command=Command.REFRESH_ENABLE))
                records.append(
                    CommandRecord(
                        time=t_read,
                        command=Command.READ_COMPARE,
                        detail=f"exposure={exposure:.6f}s",
                    )
                )
    syncs = (t_sync for step in steps for t_sync in step.syncs)
    schedule = _read_only(np.fromiter(syncs, np.float64))
    return _Replay(
        steps=tuple(steps),
        records=tuple(records),
        t_final=t,
        e_max=tuple(e_max),
        schedule=schedule,
        t_reads=_read_only(np.fromiter((step.t_read for step in steps), np.float64)),
        exposures=_read_only(np.fromiter((step.exposure_s for step in steps), np.float64)),
        read_sync=_read_only(np.cumsum([len(step.syncs) for step in steps]) - 1),
        gaps=schedule_gaps(schedule, start),
    )


def _vrt_reads(vrt, replay: _Replay, gaps: ScheduleGaps, temperature_c: float):
    """Each ``(read, cells)`` with VRT cells failing, for one chip's
    process advancing through ``replay``'s schedule from ``gaps``: what
    stepping :meth:`~repro.dram.vrt.VRTProcess.advance_to` through every
    read's sync times and asking
    :meth:`~repro.dram.vrt.VRTProcess.failing_cells` after each read
    yields, bit for bit.

    ``advance_gaps`` passes the gaps up to the next arrival, and the
    episode set is constant from one arrival to the next, so the reads
    in between are answered at once (``failing_cells_at``) against the
    episodes held; ``advance_to`` then draws the arrival at its own sync
    (a read there sees it), and the rest of the schedule is advanced the
    same way.
    """
    schedule = replay.schedule
    offset = 0  # the schedule position ``gaps`` start from
    first = 0  # the first read not answered yet
    while True:
        passed = vrt.advance_gaps(gaps, temperature_c)
        arrival, last = len(schedule), len(replay.read_sync)
        if passed < len(gaps.seconds):
            arrival = offset + int(gaps.index[passed])
            last = int(np.searchsorted(replay.read_sync, arrival))
        if last > first and vrt.episode_count:
            found = vrt.failing_cells_at(replay.t_reads[first:last], replay.exposures[first:last])
            for r, cells in found.items():
                yield first + r, cells
        first = last
        if arrival == len(schedule):
            return
        vrt.advance_to(float(schedule[arrival]), temperature_c)
        offset = arrival + 1
        gaps = schedule_gaps(schedule[offset:], vrt.time_s)


class FleetProfiler:
    """Algorithm 1, evaluated fleet-fused.

    Parameters
    ----------
    patterns:
        Data patterns tested each iteration; defaults to the paper's six
        base patterns plus inverses.  A stochastic pattern must belong to
        the random family (``name == "random"``, Beta(2, 2) alignment, as
        :data:`~repro.patterns.RANDOM` and its inverse do): the kernel
        draws its writes in blocks (:class:`_RandomRun`), which
        models no other stochastic pattern.
    iterations:
        Number of rounds (the campaign worker uses the campaign's
        ``iterations``).

    Idle gaps between iterations only move the shared clock, so the
    scalar schedule replay carries them:
    :meth:`~repro.core.bruteforce.BruteForceProfiler.run` profiles one
    chip here with its ``idle_between_iterations_s``.  Quiet-streak
    stopping is not supported: it would couple the schedule to per-chip
    discovery dynamics, breaking the "every chip sees the same
    command/clock trajectory" invariant fleet reads are built on.
    """

    mechanism_name = "fleet-brute-force"

    def __init__(
        self,
        patterns: Sequence[DataPattern] = STANDARD_PATTERNS,
        iterations: int = 16,
    ) -> None:
        if iterations <= 0:
            raise ConfigurationError(f"iterations must be positive, got {iterations!r}")
        if not patterns:
            raise ConfigurationError("at least one data pattern is required")
        for pattern in patterns:
            if pattern.stochastic and not random_family(pattern):
                raise ConfigurationError(
                    f"stochastic pattern {pattern.key!r} is outside the random "
                    "Beta(2, 2) family the fleet kernel draws in blocks"
                )
        self.patterns = tuple(patterns)
        self.iterations = iterations

    def run_grid(
        self, fleet: ChipFleet, conditions_grid: Sequence[Conditions]
    ) -> Tuple[Tuple[FleetChipResult, ...], ...]:
        """Profile every chip at every condition of a grid, fused.

        Returns one result tuple per grid entry, in grid order, holding one
        :class:`FleetChipResult` per chip in fleet order.  Each is
        byte-identical (results, traces, clocks, generator states, chip
        state) to running a
        :class:`~repro.core.bruteforce.BruteForceProfiler` over every
        condition in turn on each chip standalone.

        The whole grid collapses into one pass: the command schedule is
        replayed once on scalars, and once per process for every fleet
        that starts it at the same clock (every chip traverses the
        identical clock trajectory, so the per-step times, exposures, and
        trace records are shared), DPD excitation draws run only where the
        sequential per-chip walk actually draws (each run of random-pattern
        writes as one block draw per chip, each deterministic pattern's
        stress mask once for the whole fleet), VRT arrivals are decided
        with one uniform per gap per chip over gaps the chips share (a
        chip that draws an episode advances to it exactly and answers the
        reads between arrivals together), and every read's uniforms land
        in chip-major block draws, compared once per condition and pass:
        every group of repeated deterministic reads (pattern, exposure)
        and every stochastic read is a row of one stacked compare over the
        condition's reach set only (the cells its largest exposure can
        fail under worst-case alignment, plus any an exact-zero uniform
        landed on), through a Chernoff cut that leaves ``ndtr`` only the
        candidate cells.  DPD excitation and reads run one block at a time
        under a fixed byte budget (whole conditions, or rows of one
        condition whose reads alone exceed it), and each compare pass
        under a smaller one, so a unit's transient memory does not grow
        with the grid.
        Each transformation is draw-for-draw equivalent to the sequential
        walk, which is what keeps the output bit-equal.

        With observability enabled, the fused pass records phase-level
        ``kernel.*`` spans (schedule replay, DPD excitation, VRT, read
        compare, commit) -- wall-clock observation only, so results stay
        bit-equal with instrumentation on or off -- and adds the exact
        totals of the ``chip.commands``, ``profiler.iterations`` and
        ``profiler.new_cells`` counters the sequential walk would reach,
        plus ``kernel.reach_cells`` (cells compared, summed over
        conditions) and ``kernel.tail_cells`` (tail cells x conditions).
        The ``chip.sim_seconds`` and ``profiler.new_cells_per_iteration``
        histograms and ``profiler.iteration`` events stay with
        :class:`~repro.core.bruteforce.BruteForceProfiler`, which records
        them for the runs it routes here too: a grid run keeps no per-read
        breakdown.

        The only observable deviation is error *timing*: every condition's
        interval is validated up front, so an invalid grid entry raises
        before any command executes instead of after the preceding entries
        ran (no partial state, same exception and message).
        """
        return self._grid(fleet, conditions_grid).results(fleet)

    def count_grid(
        self, fleet: ChipFleet, conditions_grid: Sequence[Conditions]
    ) -> List[List[int]]:
        """:meth:`run_grid`'s failure counts: ``counts[c][i]`` is
        ``len(run_grid(fleet, conditions_grid)[c][i])``, from the same
        pass (same chip end state and telemetry), without building a set
        per chip and condition."""
        return self._grid(fleet, conditions_grid).counts(fleet.population)

    def _grid(self, fleet: ChipFleet, conditions_grid: Sequence[Conditions]) -> "_Finds":
        """Validate the grid, run it, and add the ``profiler.*`` counters."""
        conditions_grid = tuple(conditions_grid)
        for conditions in conditions_grid:
            if conditions.trefi > fleet.max_trefi_s:
                raise ProfilingError(
                    f"profiling interval {conditions.trefi!r}s exceeds the fleet's "
                    f"supported maximum of {fleet.max_trefi_s!r}s"
                )
        if not conditions_grid:
            return _Finds(np.zeros((0, len(fleet.population)), dtype=bool), {})
        found, _reads = self._run(fleet, conditions_grid)
        if obs.enabled():
            # A chip's new cells summed over a condition's iterations are
            # exactly its discovered set there.
            obs.counter(
                "profiler.iterations",
                self.iterations * len(conditions_grid) * len(fleet),
                mechanism=self.mechanism_name,
            )
            obs.counter("profiler.new_cells", found.total(), mechanism=self.mechanism_name)
        return found

    def _run(
        self,
        fleet: ChipFleet,
        conditions_grid: Tuple[Conditions, ...],
        idle_s: float = 0.0,
        per_read: bool = False,
    ) -> Tuple["_Finds", list]:
        """:meth:`run_grid`'s fused pass, with two extras for
        :meth:`~repro.core.bruteforce.BruteForceProfiler.run`.

        Returns what the grid discovered (:class:`_Finds`) and the reads.
        ``idle_s`` inserts the walk's idle gap before every iteration after
        the first, per condition.  With ``per_read`` the second return
        value holds one ``(clock after the read, ascending stacked-tail
        positions it failed, ((chip index, VRT cells it failed), ...))``
        per read, in schedule order; otherwise it is empty.  The
        ``profiler.*`` counters are the caller's: :meth:`run_grid` and
        :meth:`count_grid` add them in bulk, the per-chip route per
        iteration under its own mechanism.
        """
        chips = fleet.chips
        population = fleet.population
        n_chips = len(chips)
        n_total = len(population)
        io = fleet._io_seconds
        max_trefi = fleet._max_trefi_s

        # Entry invariants the sequential walk would enforce on its first
        # commands (same exceptions, before any state changes).
        t = fleet._now_all()
        for chip in chips:
            if not chip._refresh_enabled:
                raise CommandSequenceError("refresh is already disabled")

        with obs.span("kernel.schedule_replay", chips=n_chips, conditions=len(conditions_grid)):
            replay = _replay(
                t,
                tuple(conditions.trefi for conditions in conditions_grid),
                self.iterations,
                self.patterns,
                io,
                max_trefi,
                float(idle_s),
            )
        steps = replay.steps
        n_rows = len(steps)

        # ------------------------------------------------------------------
        # VRT: one arrival check per chip covers the whole grid, one
        # uniform per gap (VRTProcess.advance_gaps).  The chips share the
        # clock, so their processes share the schedule's gaps, computed
        # once per distinct VRT time (the replay's own start time almost
        # always).  Between arrivals a chip's episode set is constant, so
        # the reads there are answered together (_vrt_reads).  VRT owns
        # its own stream, so running it before the DPD and read blocks
        # leaves every draw unchanged.
        # ------------------------------------------------------------------
        with obs.span("kernel.vrt", chips=n_chips):
            gaps_from: Dict[float, ScheduleGaps] = {t: replay.gaps}
            vrt_hits: Dict[int, List[Tuple[int, np.ndarray]]] = {}
            for i, chip in enumerate(chips):
                vrt = chip.vrt
                gaps = gaps_from.get(vrt.time_s)
                if gaps is None:
                    gaps = gaps_from[vrt.time_s] = schedule_gaps(replay.schedule, vrt.time_s)
                for r, cells in _vrt_reads(vrt, replay, gaps, chip._temperature_c):
                    vrt_hits.setdefault(r, []).append((i, cells))

        # ------------------------------------------------------------------
        # DPD excitation and fused read evaluation, one block at a time, so
        # the transient arrays stay under _BLOCK_BUDGET_BYTES however large
        # the grid: a block holds as many whole conditions as fit, or, when
        # one condition's reads alone exceed the budget, one iteration's
        # reads.  DPD and read draws come from separate per-chip streams,
        # each consumed in row order block after block, which partitions
        # every stream exactly like the per-write and per-read draws of the
        # sequential walk.  Per block: the writes' fleet-stacked DPD states
        # (_DPDReplay), then one (rows x segment) uniform draw per chip
        # into its own contiguous slice of one chip-major buffer, and one
        # fused compare per condition (_fused_hits) over the condition's
        # reach set, cut through repro.dram.cell.chernoff_hits.  A
        # condition split over several blocks is evaluated block by block:
        # the cells some read fails are the union of the cells each
        # block's reads fail.  Zero exposures never fail (the sequential
        # path short-circuits there while still consuming the uniforms, as
        # the block draw does).
        # ------------------------------------------------------------------
        segments = [population.segment(i) for i in range(n_chips)]
        offsets = population.offsets
        dpd = _DPDReplay(fleet, segments, steps)
        scales = tuple(
            float(chip.population.retention_scale(chip._temperature_c))
            for chip in chips
        )
        # Reach cut: each condition's reads compare only the cells its
        # largest exposure can fail under worst-case alignment
        # (ReachSet.reaching).  The tail and its worst-case retention are
        # built once per grid; a condition's set is built by its first
        # block and dropped after its last, so the sets go with the
        # blocks' uniforms.  A cell outside a set fails only on a uniform
        # of exactly 0.0, so each block puts back every cell such a
        # uniform landed on.
        tail = population.reach(scales)
        e_max = replay.e_max
        rows_per_condition = self.iterations * len(self.patterns)
        row_bytes = max(1, n_total * 8)
        conditions_per_block = _BLOCK_BUDGET_BYTES // (rows_per_condition * row_bytes)
        if conditions_per_block:
            rows_per_block = rows_per_condition * conditions_per_block
        else:
            # One condition's reads alone exceed the budget: split it into
            # blocks of one iteration (of as many rows as fit, when one
            # iteration's reads exceed it too).
            rows_per_block = min(len(self.patterns), max(1, _BLOCK_BUDGET_BYTES // row_bytes))
        discovered = np.zeros((len(conditions_grid), n_total), dtype=bool)
        row_hits: List[np.ndarray] = [np.empty(0, dtype=np.intp)] * n_rows
        reaching: Dict[int, ReachSet] = {}
        reach_cells = 0
        for b0 in range(0, n_rows, rows_per_block):
            block = steps[b0 : b0 + rows_per_block]
            nb = len(block)
            with obs.span("kernel.dpd_excite", chips=n_chips, rows=nb):
                states = dpd.excite(b0, block)
            with obs.span("kernel.read_compare", chips=n_chips, rows=nb):
                # Chip i's (nb, end - start) draw fills u[nb*start : nb*end]
                # in row order: the generator fills any shape from one
                # double sequence, so these are the per-read draws' values.
                u = np.empty(nb * n_total, dtype=np.float64)
                for chip, (start, end) in zip(chips, segments):
                    if end > start:
                        chip.read_rng.random(out=u[nb * start : nb * end])
                # Each condition's reads by the write they read (a
                # deterministic pattern, or one random write), then by
                # exposure: a pattern's reads at bit-equal exposures share
                # one probability vector, so they fail exactly where their
                # minimum uniform does.
                reads: Dict[int, Dict[object, Dict[float, List[int]]]] = {}
                for k, step in enumerate(block):
                    if step.exposure_s == 0.0:
                        continue
                    write = k if step.pattern.stochastic else step.pattern.key
                    by_write = reads.setdefault(step.cond, {})
                    by_write.setdefault(write, {}).setdefault(step.exposure_s, []).append(k)
                for cond in sorted({step.cond for step in block}):
                    if cond not in reaching:
                        reaching[cond] = tail.reaching(e_max[cond])
                        reach_cells += len(reaching[cond].cells)
                cuts = dict(reaching)
                if n_total and u.min() == 0.0:
                    zeros = _zero_cells(u, nb, offsets)
                    for cond, cut in cuts.items():
                        cuts[cond] = tail.subset(np.union1d(cut.cells, zeros))
                        reach_cells += len(cuts[cond].cells) - len(cut.cells)
                for cond, by_write in reads.items():
                    writes = [list(groups.values()) for groups in by_write.values()]
                    for k, hits in _fused_hits(
                        cuts[cond], writes, block, states, u, nb, offsets, per_read
                    ):
                        discovered[cond, hits] = True
                        if per_read:
                            row_hits[b0 + k] = hits
            del states, u, cuts
            # Only a condition that continues into the next block keeps
            # its reach set.
            if b0 + nb < n_rows:
                following = steps[b0 + nb].cond
                reaching = {c: cut for c, cut in reaching.items() if c == following}

        # Fold VRT hits into their step's condition; cells outside the
        # chip's weak tail land in per-(condition, chip) overflow sets.
        overflow: Dict[Tuple[int, int], Set[int]] = {}
        for r, hits in vrt_hits.items():
            ci = steps[r].cond
            for chip_index, cells in hits:
                outside = self._fold_vrt(population, discovered[ci], chip_index, cells)
                if outside.size:
                    overflow.setdefault((ci, chip_index), set()).update(outside.tolist())

        # ------------------------------------------------------------------
        # Commit per-chip end state: exactly what the sequential walk leaves
        # behind -- clock at the final read, the shared records appended in
        # order, the last write's pattern/DPD arrays, refresh re-enabled
        # with the exposure restarted by the final read's restore.
        # ------------------------------------------------------------------
        with obs.span("kernel.commit", chips=n_chips):
            # Every chip's DPD cache holds each pattern's last write
            # -- for the final pattern, the arrays of the final write.
            last = steps[-1].pattern
            for chip in chips:
                model = chip.population.dpd
                chip.clock._now = replay.t_final
                chip.trace.extend_shared(replay.records)
                chip._pattern = last
                chip._alignment = model.alignment(last)
                chip._stressed = model.stress_mask(last)
                chip._refresh_enabled = True
                chip._disable_time = None
                chip._frozen_exposure = 0.0
            if obs.enabled():
                # The records bypassed CommandTrace.append, so count them
                # here in bulk: the exact integer totals the sequential
                # walk's per-command counters reach (idle gaps add waits).
                n_idle = len(replay.records) - len(_STEP_COMMANDS) * n_rows
                for command in _STEP_COMMANDS:
                    n = n_rows + n_idle if command is Command.WAIT else n_rows
                    obs.counter("chip.commands", n * n_chips, command=command.value)
                # The reach cut's share of the tail: cells compared, and
                # cells a full-tail compare would have taken, over the grid.
                obs.counter("kernel.reach_cells", reach_cells)
                obs.counter("kernel.tail_cells", n_total * len(conditions_grid))
        reads = []
        if per_read:
            reads = [
                (step.t_read, row_hits[r], tuple(vrt_hits.get(r, ())))
                for r, step in enumerate(steps)
            ]
        return _Finds(discovered, overflow), reads

    @staticmethod
    def _fold_vrt(
        population,
        discovered: np.ndarray,
        chip_index: int,
        cells: np.ndarray,
    ) -> np.ndarray:
        """Fold one chip's VRT failing cells into the fleet bookkeeping.

        Cells inside the chip's weak tail mark the shared mask (they are
        indistinguishable from static discoveries there, matching
        :class:`~repro.core.device.ObservedCellAccumulator`); the rest are
        returned for the chip's overflow set.
        """
        space = population.member_indices(chip_index)
        start, _end = population.segment(chip_index)
        if not space.size:
            return cells
        pos = np.searchsorted(space, cells)
        in_space = space[np.minimum(pos, space.size - 1)] == cells
        discovered[start + pos[in_space]] = True
        return cells[~in_space]


@dataclass(frozen=True)
class _Finds:
    """What a grid pass discovered: ``discovered[c]`` marks the
    stacked-tail cells some read of condition ``c`` failed, and
    ``overflow[(c, i)]`` holds chip ``i``'s VRT cells outside its weak
    tail that failed there (outside the tail, so never also marked)."""

    discovered: np.ndarray
    overflow: Dict[Tuple[int, int], Set[int]]

    def total(self) -> int:
        """Every chip's failures summed over every condition."""
        return int(np.count_nonzero(self.discovered)) + sum(
            len(cells) for cells in self.overflow.values()
        )

    def counts(self, population: FleetPopulation) -> List[List[int]]:
        """``counts[c][i]``: chip ``i``'s failures at condition ``c``, its
        segment's sum of ``discovered`` (cumulative-sum differences, so an
        empty segment reads 0) plus its overflow set's size."""
        n_conditions, n_total = self.discovered.shape
        csum = np.zeros((n_conditions, n_total + 1), dtype=np.int64)
        np.cumsum(self.discovered, axis=1, out=csum[:, 1:])
        offsets = population.offsets
        counts = csum[:, offsets[1:]] - csum[:, offsets[:-1]]
        for (c, i), cells in self.overflow.items():
            counts[c, i] += len(cells)
        return counts.tolist()

    def results(self, fleet: ChipFleet) -> Tuple[Tuple[FleetChipResult, ...], ...]:
        """Each chip's failing cells per condition, as in :meth:`FleetProfiler.run_grid`."""
        population = fleet.population
        chip_ids = [chip.chip_id for chip in fleet.chips]
        empty = frozenset()
        overflow_conditions = {c for c, _i in self.overflow}
        out = []
        for c, mask in enumerate(self.discovered):
            if c not in overflow_conditions and not mask.any():
                # Nothing discovered at this condition (typical for the
                # short-interval end of a sweep): skip the per-chip
                # boolean indexing entirely.
                out.append(tuple(FleetChipResult(chip_id=cid, failing=empty) for cid in chip_ids))
                continue
            results = []
            for i, chip_id in enumerate(chip_ids):
                start, end = population.segment(i)
                failing = frozenset(population.member_indices(i)[mask[start:end]].tolist())
                extra = self.overflow.get((c, i))
                if extra:
                    failing = failing | frozenset(extra)
                results.append(FleetChipResult(chip_id=chip_id, failing=failing))
            out.append(tuple(results))
        return tuple(out)


def _zero_cells(u: np.ndarray, rows: int, offsets: np.ndarray) -> np.ndarray:
    """The stacked-tail cells some uniform of exactly 0.0 landed on, in a
    chip-major block of ``rows`` reads (:func:`_chip_major`): position
    ``p`` lies in the segment of chip ``i`` where ``start_i <= p // rows <
    end_i``, at cell ``start_i + (p - rows*start_i) % len_i``."""
    positions = np.flatnonzero(u == 0.0)
    _chip, start, length = _segments_of(positions // rows, offsets)
    return np.unique(start + (positions - rows * start) % length)


def _segments_of(cells: np.ndarray, offsets: np.ndarray):
    """Each of ascending ``cells``' chip index, segment start and segment
    length: chip ``i`` holds the ``cells`` between its offsets, a run
    found by one search per chip."""
    counts = np.diff(np.searchsorted(cells, offsets))
    lengths = np.diff(offsets)
    return (
        np.repeat(np.arange(len(lengths)), counts),
        np.repeat(offsets[:-1], counts),
        np.repeat(lengths, counts),
    )


def _chip_major(
    buffer: np.ndarray, rows: int, row_ids: Sequence[int], cells: np.ndarray, start, length
) -> np.ndarray:
    """Rows ``row_ids`` of a chip-major block, at ``cells``.

    A chip-major block of ``rows`` rows holds chip ``i``'s ``(rows,
    len_i)`` draw in ``buffer[rows*start_i : rows*end_i]``, so row ``r``
    of stacked-tail cell ``c`` sits at ``c + (rows - 1)*start(c) +
    r*len(c)`` (``start`` and ``length`` from :func:`_segments_of`); the
    index is built at ``cells`` only.  Returns a ``(len(row_ids),
    len(cells))`` array.
    """
    index = np.multiply.outer(np.asarray(row_ids), length)
    index += cells + (rows - 1) * start
    return np.take(buffer, index)


def _fused_hits(
    cut: ReachSet,
    writes: Sequence[Sequence[List[int]]],
    block: Sequence[_ReadStep],
    states: Sequence[tuple],
    u: np.ndarray,
    rows: int,
    offsets: np.ndarray,
    per_read: bool,
) -> Iterator[Tuple[int, np.ndarray]]:
    """One condition's reads of a block, compared in stacked passes.

    ``writes`` holds, per write state the condition's reads read (a
    deterministic pattern, or one random write), its read groups as block
    row indices: the reads at one bit-equal exposure.  ``u`` is the
    block's chip-major uniforms (:func:`_chip_major`).  A group is one row
    of the stacked compare, carried by its reads' elementwise minimum
    uniform: ``any_k(u_k < p)`` holds exactly when ``min_k(u_k) < p``.  A
    write's groups share its alignment, stress mask and ``scaled_mu``,
    gathered (a random write's post-processed, :meth:`_RandomRun.at`) and
    computed once at the ``cut`` cells; the z-score and
    :func:`~repro.dram.cell.chernoff_hits` then run once over the stack of
    a pass (the groups of as many writes as :data:`_FUSED_BUDGET_BYTES`
    allows, at least one).  Every step is elementwise, so each (row,
    cell) is bit-equal to the per-read compare.  The stress stack is
    boolean: multiplying a probability by ``True`` or ``False`` is
    multiplying it by exactly 1.0 or 0.0.

    Yields, per pass, ``(-1, cells)``: the cells some read fails (possibly
    repeated); with ``per_read``, ``(k, cells)`` per read ``k`` instead,
    the ascending cells that read fails -- a group's hits where the read's
    own uniform is below ``p``, the cut's own expression evaluated there.
    """
    cells = cut.cells
    m = len(cells)
    if not m:
        if per_read:
            for groups in writes:
                for group in groups:
                    for k in group:
                        yield k, cells
        return
    chip, start, length = _segments_of(cells, offsets)
    n_reads = [sum(len(group) for group in groups) for groups in writes]
    per_pass = max(1, _FUSED_BUDGET_BYTES // (_FUSED_CELL_BYTES * m))
    w0 = 0
    while w0 < len(writes):
        w1, taken = w0 + 1, n_reads[w0]
        while w1 < len(writes) and taken + n_reads[w1] <= per_pass:
            taken += n_reads[w1]
            w1 += 1
        part = writes[w0:w1]
        w0 = w1
        part_groups = [group for groups in part for group in groups]
        ks = [k for group in part_groups for k in group]
        u_reads = _chip_major(u, rows, ks, cells, start, length)
        u_min = u_reads
        if len(ks) > len(part_groups):
            # One minimum per group (np.minimum.reduceat along the rows is
            # many times slower).
            u_min = np.empty((len(part_groups), m), dtype=np.float64)
            r = 0
            for g, group in enumerate(part_groups):
                np.minimum.reduce(u_reads[r : r + len(group)], axis=0, out=u_min[g])
                r += len(group)
        alignment = np.empty((len(part), m), dtype=np.float64)
        stressed = np.empty((len(part), m), dtype=bool)
        runs: Dict[int, Tuple[_RandomRun, List[int], List[int]]] = {}
        for w, groups in enumerate(part):
            first, second = states[groups[0][0]]
            if isinstance(first, _RandomRun):
                _run, ws, js = runs.setdefault(id(first), (first, [], []))
                ws.append(w)
                js.append(second)
            else:
                alignment[w] = np.take(first, cells)
                stressed[w] = np.take(second, cells)
        for run, ws, js in runs.values():
            alignment[ws], stressed[ws] = run.at(js, cells, chip, start, length)
        z = cut.scaled_mu(alignment)
        del alignment
        if len(part_groups) > len(part):
            of_write = [w for w, groups in enumerate(part) for _group in groups]
            z, stressed = z[of_write], stressed[of_write]
        exposures = np.array([block[group[0]].exposure_s for group in part_groups])
        np.subtract(exposures[:, None], z, out=z)
        np.divide(z, cut.sigma_eff, out=z)
        z = z.reshape(-1)
        stressed = stressed.reshape(-1)
        hits = chernoff_hits(z, u_min.reshape(-1), stressed)
        if not per_read:
            yield -1, cells[hits % m]
            continue
        row, col = np.divmod(hits, m)
        bounds = np.searchsorted(row, np.arange(len(part_groups) + 1))
        r = 0
        for g, group in enumerate(part_groups):
            got = hits[bounds[g] : bounds[g + 1]]
            found = cells[col[bounds[g] : bounds[g + 1]]]
            if len(group) == 1:
                yield group[0], found
                r += 1
                continue
            p = ndtr(z[got])
            p *= stressed[got]
            for k in group:
                yield k, found[u_reads[r, col[bounds[g] : bounds[g + 1]]] < p]
                r += 1


def random_family(pattern: DataPattern) -> bool:
    """Is ``pattern`` a random-data pattern with Beta(2, 2) alignment?"""
    return pattern.name == "random" and pattern.alignment_beta == (2.0, 2.0)


class _DPDReplay:
    """Each write's fleet-stacked DPD state, drawn in the sequential
    walk's order, one block of rows at a time.

    The sequential walk excites every chip at every write, but a
    deterministic pattern only *draws* on its first excitation (later
    calls return the cached arrays untouched), so writing its alignment
    once per (chip, deterministic pattern) and reusing the returned
    arrays consumes each chip's DPD stream identically -- including the
    object identities the chips' caches pin on.  Its stress mask draws
    nothing: :meth:`~repro.dram.fleet.ChipFleet.stress_mask` is every
    chip's :meth:`~repro.dram.dpd.DPDModel.stress_mask` at once, built
    once per fleet, so across a unit's stages.  Stochastic
    patterns (the random family, :class:`FleetProfiler` admits no other)
    redraw every write, batched across the fleet and across writes: each
    run of random-pattern writes within a block becomes one draw per chip
    (:class:`_RandomRun`).  A first-time deterministic excitation is the
    stream's only other consumer, so the pending run is flushed before it
    -- each chip's stream is then consumed in exactly the sequential
    walk's order.

    A deterministic write's state is ``(alignment, stress)``, fleet-wide
    arrays; a random write's is ``(run, j)``, write ``j`` of a
    :class:`_RandomRun`, except its pattern's last write, whose
    post-processed arrays the chips' caches keep: ``(alignment,
    stress)`` too.
    """

    def __init__(
        self,
        fleet: ChipFleet,
        segments: Sequence[Tuple[int, int]],
        steps: Sequence[_ReadStep],
    ) -> None:
        self.fleet = fleet
        self.population = fleet.population
        self.segments = segments
        self.dpds = tuple(chip.population.dpd for chip in fleet.chips)
        self.caps = np.array([d._random_cap for d in self.dpds])
        #: Most writes one run draws: its raw doubles stay under the
        #: block budget (at least one write).
        self.writes_per_run = max(1, _BLOCK_BUDGET_BYTES // max(1, 32 * len(self.population)))
        #: pattern key -> fleet-stacked (alignment, boolean stress mask).
        self.deterministic: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        #: Batched rows bypass excite()'s cache stores; only the last row
        #: per random pattern is observable (later writes overwrite
        #: earlier ones in the sequential walk, and nothing reads a random
        #: pattern's cache entry in between), so each such row is
        #: post-processed whole and stored in every chip's DPD cache as
        #: soon as it is drawn -- the chips' caches never pin a run.
        self.last_batched: Dict[str, int] = {}
        for r, step in enumerate(steps):
            if step.pattern.stochastic:
                self.last_batched[step.pattern.key] = r

    def excite(self, first_row: int, block: Sequence[_ReadStep]) -> List[tuple]:
        """The state of every write in ``block``, whose first step is row
        ``first_row`` of the grid."""
        states: List = [None] * len(block)
        pending: List[int] = []

        def flush() -> None:
            for k0 in range(0, len(pending), self.writes_per_run):
                ks = pending[k0 : k0 + self.writes_per_run]
                run = _RandomRun(self, [block[k].pattern.inverted for k in ks])
                for j, k in enumerate(ks):
                    states[k] = (run, j)
                    pattern = block[k].pattern
                    if self.last_batched[pattern.key] == first_row + k:
                        states[k] = alignment, stress = run.full(j)
                        for dpd, (start, end) in zip(self.dpds, self.segments):
                            dpd.commit_random_write(pattern, alignment[start:end], stress[start:end])
            pending.clear()

        for k, step in enumerate(block):
            pattern = step.pattern
            if pattern.stochastic:
                pending.append(k)
                continue
            entry = self.deterministic.get(pattern.key)
            if entry is None:
                flush()
                aligns = self.population.stack([dpd.excite_alignment(pattern) for dpd in self.dpds])
                entry = (aligns, self.fleet.stress_mask(pattern))
                self.deterministic[pattern.key] = entry
            states[k] = entry
        flush()
        return states


class _RandomRun:
    """Consecutive random-pattern writes on every chip, drawn but not yet
    post-processed.

    Each chip draws the whole run in one
    :meth:`~repro.dram.dpd.DPDModel.excite_random_raw` call, chip-major:
    chip ``i``'s ``(writes, 4, len_i)`` doubles fill ``raw[4*writes*start_i
    : 4*writes*end_i]`` -- the same doubles, in the same order, as one
    excite() per write (per write, three median rows and one bit row).
    The median of three, cap multiply, bit threshold and orientation
    compare are elementwise, so :meth:`at` runs them only at the cells a
    read compares, and :meth:`full` over the whole tail for the write the
    chips' DPD caches keep; each is bit-equal to post-processing the
    whole write.
    """

    def __init__(self, replay: _DPDReplay, inverted: Sequence[bool]) -> None:
        self.replay = replay
        self.inverted = np.array(inverted, dtype=bool)
        self.rows = 4 * len(inverted)
        self.raw = np.empty(self.rows * len(replay.population), dtype=np.float64)
        for dpd, (start, end) in zip(replay.dpds, replay.segments):
            if end > start:
                dpd.excite_random_raw(self.raw[self.rows * start : self.rows * end])

    def at(
        self, writes: Sequence[int], cells: np.ndarray, chip, start, length
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Alignment and boolean stress of each of ``writes`` at ``cells``
        (``chip``, ``start`` and ``length`` from :func:`_segments_of`): the
        random branch of excite() on the gathered raw planes.  The
        inverted pattern stores ``1 - data``, and ``(1 - data) ==
        orientation`` is exactly ``data != orientation``: XOR the
        orientation match with the write's inversion flag."""
        rows = [4 * j + plane for j in writes for plane in range(4)]
        planes = _chip_major(self.raw, self.rows, rows, cells, start, length)
        planes = planes.reshape(len(writes), 4, -1)
        draw = median_of_three(planes[:, 0], planes[:, 1], planes[:, 2])
        np.multiply(draw, self.replay.caps[chip], out=draw)
        stress = np.equal(np.less(planes[:, 3], 0.5), np.take(self.replay.fleet.orientation, cells))
        np.not_equal(stress, self.inverted[writes][:, None], out=stress)
        return draw, stress

    def full(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Write ``j``'s fleet-wide alignment and float stress mask, the
        arrays :meth:`~repro.dram.dpd.DPDModel.excite` would store."""
        cells = np.arange(len(self.replay.population))
        alignment, stress = self.at(
            [j], cells, *_segments_of(cells, self.replay.population.offsets)
        )
        return alignment[0], stress[0].astype(np.float64)
