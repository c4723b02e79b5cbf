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

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from .. import obs
from ..conditions import Conditions
from ..dram.commands import Command, CommandRecord
from ..dram.dpd import DPDModel, median_of_three
from ..dram.fleet import ChipFleet, ReachSet
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


class FleetProfiler:
    """Algorithm 1, evaluated fleet-fused.

    Parameters
    ----------
    patterns:
        Data patterns tested each iteration; defaults to the paper's six
        base patterns plus inverses.  A stochastic pattern must belong to
        the random family (``name == "random"``, Beta(2, 2) alignment, as
        :data:`~repro.patterns.RANDOM` and its inverse do): the kernel
        draws its writes in blocks (:func:`_excite_random_writes`), which
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
        replayed once on scalars (every chip traverses the identical clock
        trajectory, so the per-step times, exposures, and trace records
        are shared), DPD excitation draws run only where the sequential
        per-chip walk actually draws (each run of random-pattern writes as
        one block draw per chip), VRT arrival checks batch into one
        vectorized Poisson per chip (falling back to the exact interleaved
        replay for the rare chip that draws an episode), and every read's
        uniforms stack into per-chip block draws, evaluated once per
        (pattern, condition, exposure) group of repeated deterministic
        reads and once per stochastic read, over the condition's reach set
        only (the cells its largest exposure can fail under worst-case
        alignment, plus any an exact-zero uniform landed on), through a
        Chernoff cut that leaves ``ndtr`` only the candidate cells.  DPD
        excitation and reads run one block at a time under a fixed byte
        budget (whole conditions, or rows of one condition whose reads
        alone exceed it), so a unit's transient memory does not grow with
        the grid.
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
        conditions_grid = tuple(conditions_grid)
        for conditions in conditions_grid:
            if conditions.trefi > fleet.max_trefi_s:
                raise ProfilingError(
                    f"profiling interval {conditions.trefi!r}s exceeds the fleet's "
                    f"supported maximum of {fleet.max_trefi_s!r}s"
                )
        if not conditions_grid:
            return ()
        results, _reads = self._run(fleet, conditions_grid)
        if obs.enabled():
            # A chip's new cells summed over a condition's iterations are
            # exactly its discovered set there.
            obs.counter(
                "profiler.iterations",
                self.iterations * len(conditions_grid) * len(fleet),
                mechanism=self.mechanism_name,
            )
            obs.counter(
                "profiler.new_cells",
                sum(len(result) for per_chip in results for result in per_chip),
                mechanism=self.mechanism_name,
            )
        return results

    def _run(
        self,
        fleet: ChipFleet,
        conditions_grid: Tuple[Conditions, ...],
        idle_s: float = 0.0,
        per_read: bool = False,
    ) -> Tuple[Tuple[Tuple[FleetChipResult, ...], ...], list]:
        """:meth:`run_grid`'s fused pass, with two extras for
        :meth:`~repro.core.bruteforce.BruteForceProfiler.run`.

        ``idle_s`` inserts the walk's idle gap before every iteration after
        the first, per condition.  With ``per_read`` the second return
        value holds one ``(clock after the read, ascending stacked-tail
        positions it failed, ((chip index, VRT cells it failed), ...))``
        per read, in schedule order; otherwise it is empty.  The
        ``profiler.*`` counters are the caller's: :meth:`run_grid` adds
        them in bulk, the per-chip route per iteration under its own
        mechanism.
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

        # ------------------------------------------------------------------
        # Scalar schedule replay: one pass computes every step's clock
        # values, exposure, and the shared trace records -- exactly the
        # floating-point expressions the per-chip command methods
        # evaluate, in the same order, so every value is bit-equal.
        # ------------------------------------------------------------------
        with obs.span("kernel.schedule_replay", chips=n_chips, conditions=len(conditions_grid)):
            steps: List[_ReadStep] = []
            records: List[CommandRecord] = []
            for ci, conditions in enumerate(conditions_grid):
                trefi = conditions.trefi
                for iteration in range(self.iterations):
                    idle: Tuple[float, ...] = ()
                    if iteration and idle_s:
                        # The walk's device.wait(idle_s) between iterations.
                        t = t + float(idle_s)
                        idle = (t,)
                        records.append(
                            CommandRecord(time=t, command=Command.WAIT, detail=f"{idle_s:.6f}s")
                        )
                    for pattern in self.patterns:
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
                        records.append(
                            CommandRecord(
                                time=t_write,
                                command=Command.WRITE_PATTERN,
                                detail=pattern.key,
                            )
                        )
                        records.append(
                            CommandRecord(time=t_write, command=Command.REFRESH_DISABLE)
                        )
                        records.append(
                            CommandRecord(
                                time=t_wait, command=Command.WAIT, detail=f"{trefi:.6f}s"
                            )
                        )
                        records.append(
                            CommandRecord(time=t_wait, command=Command.REFRESH_ENABLE)
                        )
                        records.append(
                            CommandRecord(
                                time=t_read,
                                command=Command.READ_COMPARE,
                                detail=f"exposure={exposure:.6f}s",
                            )
                        )
        t_final = t
        n_rows = len(steps)

        # ------------------------------------------------------------------
        # VRT: one vectorized arrival check per chip covers the whole grid.
        # Chips with no arrival (the overwhelming majority) still answer
        # read queries against any pre-existing episodes -- post-hoc is
        # exact there because the episode set is constant over the grid.
        # A chip that would draw an episode replays the schedule with the
        # sequential advance/query interleaving, bit for bit.  VRT owns its
        # own stream, so running it before the DPD and read blocks leaves
        # every draw unchanged.
        # ------------------------------------------------------------------
        with obs.span("kernel.vrt", chips=n_chips):
            schedule = np.fromiter(
                (t_sync for step in steps for t_sync in step.syncs), dtype=np.float64
            )
            vrt_hits: Dict[int, List[Tuple[int, np.ndarray]]] = {}
            for i, chip in enumerate(chips):
                if chip.vrt.advance_schedule(schedule, chip._temperature_c):
                    if chip.vrt.episode_count:
                        for r, step in enumerate(steps):
                            cells = chip.vrt.failing_cells(step.t_read, step.exposure_s)
                            if len(cells):
                                vrt_hits.setdefault(r, []).append((i, cells))
                else:
                    for r, step in enumerate(steps):
                        for t_sync in step.syncs:
                            chip.vrt.advance_to(t_sync, chip._temperature_c)
                        cells = chip.vrt.failing_cells(step.t_read, step.exposure_s)
                        if len(cells):
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
        # (_DPDReplay), then one (rows x tail) uniform draw per chip into
        # one chip-ordered, row-major matrix.  Deterministic rows group by
        # (pattern, condition) -- each group one Chernoff-cut evaluation
        # per distinct exposure (FleetPopulation.deterministic_failures) --
        # and stochastic rows one each (FleetPopulation.stochastic_failures);
        # both compare only the condition's reach set and cut through
        # repro.dram.cell.chernoff_hits.  A condition split over several
        # blocks is evaluated block by block: the cells some row of a group
        # fails are the union of the cells each block's rows fail.  Zero
        # exposures never fail (the sequential path short-circuits there
        # while still consuming the uniforms, as the block draw does).
        # ------------------------------------------------------------------
        segments = [population.segment(i) for i in range(n_chips)]
        dpd = _DPDReplay(chips, population, segments, steps)
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
        e_max = [0.0] * len(conditions_grid)
        for step in steps:
            e_max[step.cond] = max(e_max[step.cond], step.exposure_s)
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
                if n_chips == 1:
                    u_all = chips[0].read_rng.random((nb, n_total))
                else:
                    u_all = np.empty((nb, n_total), dtype=np.float64)
                    for chip, (start, end) in zip(chips, segments):
                        if end > start:
                            u_all[:, start:end] = chip.read_rng.random((nb, end - start))
                conds = sorted({step.cond for step in block})
                for cond in conds:
                    if cond not in reaching:
                        reaching[cond] = tail.reaching(e_max[cond])
                        reach_cells += len(reaching[cond].cells)
                cuts = dict(reaching)
                if n_total and u_all.min() == 0.0:
                    zeros = np.flatnonzero((u_all == 0.0).any(axis=0))
                    for cond, cut in cuts.items():
                        cuts[cond] = tail.subset(np.union1d(cut.cells, zeros))
                        reach_cells += len(cuts[cond].cells) - len(cut.cells)
                groups: Dict[Tuple[str, int], List[int]] = {}
                for k, step in enumerate(block):
                    if step.exposure_s == 0.0:
                        continue
                    if step.pattern.stochastic:
                        alignment, stressed = states[k]
                        row_hits[b0 + k] = hits = population.stochastic_failures(
                            step.exposure_s, alignment, stressed, u_all[k], cuts[step.cond]
                        )
                        discovered[step.cond, hits] = True
                    else:
                        groups.setdefault((step.pattern.key, step.cond), []).append(k)
                for (_key, cond), ks in groups.items():
                    alignment, stressed = states[ks[0]]
                    found = population.deterministic_failures(
                        [block[k].exposure_s for k in ks],
                        [u_all[k] for k in ks],
                        alignment,
                        stressed,
                        cuts[cond],
                        per_read=per_read,
                    )
                    if per_read:
                        for k, hits in zip(ks, found):
                            row_hits[b0 + k] = hits
                            discovered[cond, hits] = True
                    else:
                        discovered[cond, found] = True
            del states, u_all, cuts
            # Only a condition that continues into the next block keeps
            # its reach set.
            if b0 + nb < n_rows:
                following = steps[b0 + nb].cond
                reaching = {c: cut for c, cut in reaching.items() if c == following}

        # Fold VRT hits into their step's condition; cells outside the
        # chip's weak tail land in per-(condition, chip) overflow sets.
        extras: Dict[Tuple[int, int], Set[int]] = {}
        for r, hits in vrt_hits.items():
            ci = steps[r].cond
            for chip_index, cells in hits:
                outside = self._fold_vrt(population, discovered[ci], chip_index, cells)
                if outside.size:
                    extras.setdefault((ci, chip_index), set()).update(
                        outside.tolist()
                    )

        out = []
        chip_ids = [chip.chip_id for chip in chips]
        empty = frozenset()
        extra_conds = {ci for ci, _chip_index in extras}
        for ci in range(len(conditions_grid)):
            mask = discovered[ci]
            if ci not in extra_conds and not mask.any():
                # Nothing discovered at this condition (typical for the
                # short-interval end of a sweep): skip the per-chip
                # boolean indexing entirely.
                out.append(
                    tuple(
                        FleetChipResult(chip_id=cid, failing=empty)
                        for cid in chip_ids
                    )
                )
                continue
            results = []
            for i in range(n_chips):
                start, end = segments[i]
                failing = frozenset(
                    population.member_indices(i)[mask[start:end]].tolist()
                )
                extra = extras.get((ci, i))
                if extra:
                    failing = failing | frozenset(extra)
                results.append(
                    FleetChipResult(chip_id=chip_ids[i], failing=failing)
                )
            out.append(tuple(results))

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
                chip.clock._now = t_final
                chip.trace.records.extend(records)
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
                n_idle = len(records) - len(_STEP_COMMANDS) * n_rows
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
        return tuple(out), reads

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


def random_family(pattern: DataPattern) -> bool:
    """Is ``pattern`` a random-data pattern with Beta(2, 2) alignment?"""
    return pattern.name == "random" and pattern.alignment_beta == (2.0, 2.0)


class _DPDReplay:
    """Each write's fleet-stacked DPD state, drawn in the sequential
    walk's order, one block of rows at a time.

    The sequential walk excites every chip at every write, but a
    deterministic pattern only *draws* on its first excitation (later
    calls return the cached arrays untouched), so exciting once per
    (chip, deterministic pattern) and reusing the returned arrays
    consumes each chip's DPD stream identically -- including the object
    identities the chips' caches pin on.  Stochastic patterns (the random
    family, :class:`FleetProfiler` admits no other) redraw every write,
    batched across the fleet and across writes: each run of
    random-pattern writes within a block becomes one block draw per chip
    (see :func:`_excite_random_writes`).  A first-time deterministic
    excitation is the stream's only other consumer, so the pending run is
    flushed before it -- each chip's stream is then consumed in exactly
    the sequential walk's order.
    """

    def __init__(
        self,
        chips: Sequence,
        population,
        segments: Sequence[Tuple[int, int]],
        steps: Sequence[_ReadStep],
    ) -> None:
        self.population = population
        self.segments = segments
        self.dpds = tuple(chip.population.dpd for chip in chips)
        self.caps_cells = np.repeat(
            [d._random_cap for d in self.dpds],
            [end - start for start, end in segments],
        )
        self.orientation_cells = population.stack([d._orientation for d in self.dpds])
        #: pattern key -> fleet-stacked (alignment, stress mask).
        self.deterministic: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        #: Batched rows bypass excite()'s cache stores; only the last row
        #: per random pattern is observable (later writes overwrite
        #: earlier ones in the sequential walk, and nothing reads a random
        #: pattern's cache entry in between), so each such row is stored
        #: in every chip's DPD cache as soon as it is drawn, as a copy --
        #: the chips' caches never pin an excitation block.
        self.last_batched: Dict[str, int] = {}
        for r, step in enumerate(steps):
            if step.pattern.stochastic:
                self.last_batched[step.pattern.key] = r

    def excite(
        self, first_row: int, block: Sequence[_ReadStep]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The fleet-stacked ``(alignment, stress)`` of every write in
        ``block``, whose first step is row ``first_row`` of the grid."""
        stack = self.population.stack
        states: List = [None] * len(block)
        pending: List[int] = []

        def flush() -> None:
            if not pending:
                return
            writes = _excite_random_writes(
                [block[k].pattern.inverted for k in pending],
                self.dpds,
                self.segments,
                self.caps_cells,
                self.orientation_cells,
            )
            for k, (draw, stress) in zip(pending, writes):
                states[k] = (draw, stress)
                pattern = block[k].pattern
                if self.last_batched[pattern.key] == first_row + k:
                    draw, stress = draw.copy(), stress.copy()
                    for dpd, (start, end) in zip(self.dpds, self.segments):
                        dpd.commit_random_write(pattern, draw[start:end], stress[start:end])
            pending.clear()

        for k, step in enumerate(block):
            pattern = step.pattern
            if pattern.stochastic:
                pending.append(k)
                continue
            entry = self.deterministic.get(pattern.key)
            if entry is None:
                flush()
                aligns, stresses = zip(*[dpd.excite(pattern) for dpd in self.dpds])
                entry = (stack(aligns), stack(stresses))
                self.deterministic[pattern.key] = entry
            states[k] = entry
        flush()
        return states


def _excite_random_writes(
    inverted: Sequence[bool],
    dpds: Sequence[DPDModel],
    segments: Sequence[Tuple[int, int]],
    caps_cells: np.ndarray,
    orientation_cells: np.ndarray,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """DPD state of consecutive random-pattern writes on every chip.

    ``inverted[k]`` says whether write ``k`` stores the inverse pattern.
    Each chip draws the whole run (at most a block budget's worth of
    writes at a time) in one :meth:`~repro.dram.dpd.DPDModel.excite_random_raw`
    call -- the same doubles, in the same order, as one excite() per
    write.  The median of three, cap multiply, bit threshold and
    orientation compare then run once over the stacked ``(writes, cells)``
    block; every step is elementwise, so each chip's slice of write
    ``k``'s arrays is bit-equal to its own excite() on that write.
    Returns one fleet-wide ``(alignment, stress)`` pair per write, as
    row views of the block.
    """
    n_total = len(caps_cells)
    per_block = max(1, int(_BLOCK_BUDGET_BYTES // max(1, 32 * n_total)))
    writes: List[Tuple[np.ndarray, np.ndarray]] = []
    for k0 in range(0, len(inverted), per_block):
        flags = np.array(inverted[k0 : k0 + per_block], dtype=bool)
        k = len(flags)
        if len(dpds) == 1:
            raw = dpds[0].excite_random_raw(k).reshape(k, 4, n_total)
        else:
            raw = np.empty((k, 4, n_total), dtype=np.float64)
            for dpd, (start, end) in zip(dpds, segments):
                raw[:, :, start:end] = dpd.excite_random_raw(k).reshape(k, 4, end - start)
        draw = median_of_three(raw[:, 0], raw[:, 1], raw[:, 2])
        np.multiply(draw, caps_cells, out=draw)
        # The inverted pattern stores ``1 - data``, and ``(1 - data) ==
        # orientation`` is exactly ``data != orientation``: XOR the
        # orientation match with the write's inversion flag.  Comparing
        # straight into float64 yields the 1.0/0.0 values excite() stores.
        matches = np.equal(np.less(raw[:, 3], 0.5), orientation_cells)
        del raw
        stress = np.empty((k, n_total), dtype=np.float64)
        np.not_equal(matches, flags[:, None], out=stress)
        writes.extend(zip(draw, stress))
    return writes
