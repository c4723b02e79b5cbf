"""Fleet-batched brute-force profiling (Algorithm 1 across many chips).

:class:`FleetProfiler` runs the same write/expose/read schedule as
:class:`~repro.core.bruteforce.BruteForceProfiler` on a whole
:class:`~repro.dram.fleet.ChipFleet` at once, over a whole condition grid
per call: the command schedule is replayed once on scalars (every chip
shares the clock trajectory), while per-chip RNG streams are consumed in
exactly the order the per-chip walk would consume them and the failure
evaluation of every read runs as fused numpy passes over the stacked weak
tails.  Observed-cell accumulation is likewise batched -- one boolean
"discovered" mask per condition over the concatenated cell space (the
fleet analogue of :class:`~repro.core.device.ObservedCellAccumulator`)
plus a small per-chip overflow set for VRT episodes striking outside the
weak tail.

The per-chip failing sets it reports are byte-identical to what a
:class:`~repro.core.bruteforce.BruteForceProfiler` run over each chip
standalone would have discovered under the same schedule -- the contract
``tests/test_fleet.py`` and ``tests/test_shm_megakernel.py`` pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from .. import obs
from ..conditions import Conditions
from ..dram.commands import Command, CommandRecord
from ..dram.fleet import ChipFleet
from ..errors import CommandSequenceError, ConfigurationError, ProfilingError
from ..patterns import STANDARD_PATTERNS, DataPattern

#: Upper bound on the bytes of read uniforms a megakernel pass holds at
#: once (across all chips).  Grids whose uniform block would exceed it are
#: processed in row blocks -- value-identical, since per-chip block draws
#: partition the stream exactly like the per-read draws they replace.
_MEGAKERNEL_UNIFORM_CAP_BYTES = 128 * 1024 * 1024


@dataclass(frozen=True)
class _ReadStep:
    """One planned write/expose/read cycle of a condition grid."""

    cond: int
    pattern: DataPattern
    exposure_s: float
    t_write: float
    t_wait: float
    t_read: float


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
        base patterns plus inverses.
    iterations:
        Number of rounds (the campaign worker uses the campaign's
        ``iterations``).

    The adaptive knobs of the per-chip profiler (idle gaps, quiet-streak
    stopping) are deliberately absent: they would couple the schedule to
    per-chip discovery dynamics, breaking the "every chip sees the same
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
        per-chip walk actually draws, VRT arrival
        checks batch into one vectorized Poisson per chip (falling back
        to the exact interleaved replay for the rare chip that draws an
        episode), and every read's uniforms and probability rows stack
        into per-chip block compares.  Each transformation is draw-for-draw
        equivalent to the sequential walk, which is what keeps the output
        bit-equal.

        With observability enabled, the fused pass records phase-level
        ``kernel.*`` spans (schedule replay, DPD excitation, VRT, read
        compare, commit) -- wall-clock observation only, so results stay
        bit-equal with instrumentation on or off.  Per-*command* counters
        and events come from the per-chip path
        (:class:`~repro.core.bruteforce.BruteForceProfiler`).

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
        return self._run_grid_fused(fleet, conditions_grid)

    def _run_grid_fused(
        self, fleet: ChipFleet, conditions_grid: Tuple[Conditions, ...]
    ) -> Tuple[Tuple[FleetChipResult, ...], ...]:
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
        # values, exposure, and the five shared trace records -- exactly
        # the floating-point expressions the per-chip command methods
        # evaluate, in the same order, so every value is bit-equal.
        # ------------------------------------------------------------------
        with obs.span("kernel.schedule_replay", chips=n_chips, conditions=len(conditions_grid)):
            steps: List[_ReadStep] = []
            records: List[CommandRecord] = []
            vrt_times: List[float] = []
            for ci, conditions in enumerate(conditions_grid):
                trefi = conditions.trefi
                for _ in range(self.iterations):
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
                                t_write=t_write,
                                t_wait=t_wait,
                                t_read=t_read,
                            )
                        )
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
                        vrt_times.extend((t_write, t_wait, t_read))
        t_final = t
        n_rows = len(steps)

        # ------------------------------------------------------------------
        # DPD excitation replay.  The sequential walk excites every chip at
        # every write, but a deterministic pattern only *draws* on its first
        # excitation (later calls return the cached arrays untouched), so
        # exciting once per (chip, deterministic pattern) and reusing the
        # returned arrays consumes each chip's DPD stream identically --
        # including the object identities the fleet caches pin on.
        # Stochastic patterns redraw every write, exactly like the walk.
        # ------------------------------------------------------------------
        with obs.span("kernel.dpd_excite", chips=n_chips, rows=n_rows):
            align_rows: List[object] = [None] * n_rows
            stress_rows: List[object] = [None] * n_rows
            det_cache: Dict[str, Tuple[tuple, tuple]] = {}
            segments = [population.segment(i) for i in range(n_chips)]
            spaces = [population.member_indices(i) for i in range(n_chips)]
            dpds = tuple(chip.population.dpd for chip in chips)
            excites = tuple(d.excite for d in dpds)
            # The standard random pattern family batches across the fleet: one
            # raw-uniform draw per chip (``random(4n)`` fills the identical
            # doubles the per-chip ``(3, n)`` median draw plus ``(n,)`` bit
            # draw would), then the column median, cap multiply, bit threshold,
            # and orientation compare run once over the stacked tails --
            # elementwise per cell, so each chip's slice is bit-equal to its
            # own excite() call.  Exotic stochastic patterns (non-Beta(2,2) or
            # non-random families) keep the per-chip path.
            batch_ok = all(d.models_orientation for d in dpds)
            if batch_ok:
                caps_cells = np.repeat(
                    [d._random_cap for d in dpds],
                    [end - start for start, end in segments],
                )
                orientation_cells = np.concatenate([d._orientation for d in dpds])
                raw_bufs = [
                    np.empty(4 * (end - start)) for start, end in segments
                ]
                u3 = np.empty((3, n_total), dtype=np.float64)
                bits_u = np.empty(n_total, dtype=np.float64)
                data_bits = np.empty(n_total, dtype=bool)
            batched_last: Dict[str, int] = {}
            for r, step in enumerate(steps):
                pattern = step.pattern
                if pattern.stochastic:
                    if (
                        batch_ok
                        and pattern.name == "random"
                        and pattern.alignment_beta == (2.0, 2.0)
                    ):
                        for i in range(n_chips):
                            start, end = segments[i]
                            n = end - start
                            raw = dpds[i].excite_random_raw(out=raw_bufs[i])
                            u3[:, start:end] = raw[: 3 * n].reshape(3, n)
                            bits_u[start:end] = raw[3 * n :]
                        u3.sort(axis=0)
                        draw = np.multiply(u3[1], caps_cells)
                        np.less(bits_u, 0.5, out=data_bits)
                        mask = np.empty(n_total, dtype=np.float64)
                        if pattern.inverted:
                            np.not_equal(data_bits, orientation_cells, out=mask)
                        else:
                            np.equal(data_bits, orientation_cells, out=mask)
                        align_rows[r] = draw
                        stress_rows[r] = mask
                        batched_last[pattern.key] = r
                    else:
                        align_rows[r], stress_rows[r] = zip(
                            *[excite(pattern) for excite in excites]
                        )
                else:
                    entry = det_cache.get(pattern.key)
                    if entry is None:
                        entry = tuple(zip(*[excite(pattern) for excite in excites]))
                        det_cache[pattern.key] = entry
                    align_rows[r], stress_rows[r] = entry

        # ------------------------------------------------------------------
        # VRT: one vectorized arrival check per chip covers the whole grid.
        # Chips with no arrival (the overwhelming majority) still answer
        # read queries against any pre-existing episodes -- post-hoc is
        # exact there because the episode set is constant over the grid.
        # A chip that would draw an episode replays the schedule with the
        # sequential advance/query interleaving, bit for bit.
        # ------------------------------------------------------------------
        with obs.span("kernel.vrt", chips=n_chips):
            schedule = np.asarray(vrt_times, dtype=np.float64)
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
                        chip.vrt.advance_to(step.t_write, chip._temperature_c)
                        chip.vrt.advance_to(step.t_wait, chip._temperature_c)
                        chip.vrt.advance_to(step.t_read, chip._temperature_c)
                        cells = chip.vrt.failing_cells(step.t_read, step.exposure_s)
                        if len(cells):
                            vrt_hits.setdefault(r, []).append((i, cells))

        # ------------------------------------------------------------------
        # Fused read evaluation, blocked to cap uniform memory.  Per block:
        # one (rows x tail) uniform draw per chip (the block draw partitions
        # each read stream exactly like the per-read draws), one stacked
        # probability matrix computed pattern-by-pattern (all of a pattern's
        # exposures through a single ndtr), one compare + per-condition
        # any() reduction per chip.  Stochastic rows gather their
        # chip-ordered uniforms out of the same blocks and go through the
        # fleet's Chernoff-banded sampler unchanged.
        # ------------------------------------------------------------------
        with obs.span("kernel.read_compare", chips=n_chips, rows=n_rows):
            scales = tuple(
                float(chip.population.retention_scale(chip._temperature_c))
                for chip in chips
            )
            rows_per_block = max(
                1, int(_MEGAKERNEL_UNIFORM_CAP_BYTES // max(1, n_total * 8))
            )
            discovered = [np.zeros(n_total, dtype=bool) for _ in conditions_grid]
            for b0 in range(0, n_rows, rows_per_block):
                b1 = min(b0 + rows_per_block, n_rows)
                nb = b1 - b0
                block = steps[b0:b1]
                # Column-major: each chip's segment of the uniform matrix (and
                # the matching probability columns) is then one contiguous run,
                # so the per-chip draws land with plain memcpys instead of
                # row-strided scatter writes, and the any(axis=0) reduction
                # walks contiguous columns.  Values are order-independent.
                P = np.empty((nb, n_total), dtype=np.float64, order="F")
                stoch_local: List[int] = []
                det_local: Dict[str, List[int]] = {}
                for j, step in enumerate(block):
                    if step.pattern.stochastic:
                        stoch_local.append(j)
                        P[j] = 0.0
                    elif step.exposure_s > 0.0:
                        det_local.setdefault(step.pattern.key, []).append(j)
                    else:
                        # Zero exposures keep an all-zero row: the sequential
                        # path short-circuits to "no failures" there (while
                        # still consuming the uniforms, as the block draw does).
                        P[j] = 0.0
                has_det = bool(det_local)
                for key, rows in det_local.items():
                    # All of a deterministic pattern's rows share one cached
                    # alignment/stress draw, so the whole group stacks into one
                    # ndtr pass (row-for-row bit-equal to per-read evaluation).
                    aligns, stresses = det_cache[key]
                    P[np.asarray(rows, dtype=np.intp)] = population.deterministic_p_grid(
                        [block[j].exposure_s for j in rows],
                        scales,
                        key,
                        aligns,
                        stresses,
                    )
                # One chip-ordered uniform matrix covers the block: each chip's
                # (rows x tail) draw partitions its read stream exactly like the
                # per-read draws, and stacking the segments side by side lets
                # the deterministic compare and the stochastic row gathers run
                # on views instead of per-chip loops.
                u_all = np.empty((nb, n_total), dtype=np.float64, order="F")
                for i, chip in enumerate(chips):
                    start, end = segments[i]
                    if end > start:
                        u_all[:, start:end] = chip.read_rng.random((nb, end - start))
                if has_det:
                    cmp = u_all < P
                    # Rows arrive grouped by condition (the schedule walks the
                    # grid in order), so each condition owns a contiguous row
                    # range.  Stochastic and zero-exposure rows keep their
                    # all-zero P row -- they contribute nothing to the compare
                    # -- which lets the reduction run on plain slices.
                    lo = 0
                    for hi in range(1, nb + 1):
                        if hi == nb or block[hi].cond != block[lo].cond:
                            discovered[block[lo].cond] |= cmp[lo:hi].any(axis=0)
                            lo = hi
                for j in stoch_local:
                    step = block[j]
                    if step.exposure_s == 0.0:
                        continue
                    mask = population._sample_banded(
                        step.exposure_s,
                        scales,
                        align_rows[b0 + j],
                        stress_rows[b0 + j],
                        # Rows of the column-major matrix are strided; the
                        # banded sampler runs several elementwise passes over
                        # u, so one contiguous copy up front is cheaper.
                        u=np.ascontiguousarray(u_all[j]),
                    )
                    discovered[step.cond] |= mask

        # Fold VRT hits into their step's condition.
        extras: List[List[Set[int]]] = [
            [set() for _ in chips] for _ in conditions_grid
        ]
        for r, hits in vrt_hits.items():
            ci = steps[r].cond
            for chip_index, cells in hits:
                self._fold_vrt(
                    population, discovered[ci], extras[ci], chip_index, cells
                )

        # ------------------------------------------------------------------
        # Commit per-chip end state: exactly what the sequential walk leaves
        # behind -- clock at the final read, the shared records appended in
        # order, the last write's pattern/DPD arrays, refresh re-enabled
        # with the exposure restarted by the final read's restore.
        # ------------------------------------------------------------------
        # Batched rows bypassed excite()'s cache stores; replay the final
        # store per stochastic pattern (earlier writes' entries are
        # overwritten by later ones in the sequential walk, so only the
        # last row per key is observable).
        with obs.span("kernel.commit", chips=n_chips):
            for key, r in batched_last.items():
                pattern = steps[r].pattern
                draw = align_rows[r]
                mask = stress_rows[r]
                for i in range(n_chips):
                    start, end = segments[i]
                    dpds[i].commit_random_write(
                        pattern, draw[start:end], mask[start:end]
                    )

            last = steps[-1]
            last_aligns = align_rows[-1]
            last_stresses = stress_rows[-1]
            last_stacked = isinstance(last_aligns, np.ndarray)
            for i, chip in enumerate(chips):
                chip.clock._now = t_final
                chip.trace.records.extend(records)
                chip._pattern = last.pattern
                if last_stacked:
                    start, end = segments[i]
                    chip._alignment = last_aligns[start:end]
                    chip._stressed = last_stresses[start:end]
                else:
                    chip._alignment = last_aligns[i]
                    chip._stressed = last_stresses[i]
                chip._refresh_enabled = True
                chip._disable_time = None
                chip._frozen_exposure = 0.0

        out = []
        chip_ids = [chip.chip_id for chip in chips]
        empty = frozenset()
        for ci in range(len(conditions_grid)):
            mask = discovered[ci]
            cond_extras = extras[ci]
            if not mask.any() and not any(cond_extras):
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
                in_space = spaces[i][mask[start:end]]
                failing = frozenset(in_space.tolist()) | frozenset(cond_extras[i])
                results.append(
                    FleetChipResult(chip_id=chip_ids[i], failing=failing)
                )
            out.append(tuple(results))
        return tuple(out)

    @staticmethod
    def _fold_vrt(
        population,
        discovered: np.ndarray,
        extras: List[Set[int]],
        chip_index: int,
        cells: np.ndarray,
    ) -> None:
        """Fold one chip's VRT failing cells into the fleet bookkeeping.

        Cells inside the chip's weak tail mark the shared mask (they are
        indistinguishable from static discoveries there, matching
        :class:`~repro.core.device.ObservedCellAccumulator`); the rest land
        in the chip's overflow set.
        """
        space = population.member_indices(chip_index)
        start, _end = population.segment(chip_index)
        if space.size:
            pos = np.searchsorted(space, cells)
            in_space = space[np.minimum(pos, space.size - 1)] == cells
            discovered[start + pos[in_space]] = True
            outside = cells[~in_space]
        else:
            outside = cells
        if outside.size:
            extras[chip_index].update(int(c) for c in outside)
