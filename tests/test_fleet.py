"""Tests for the fleet-batched campaign kernel.

That the kernel reproduces the per-chip reference walk -- failing sets,
traces, clocks, generator end states, stored rows and summaries, at any
unit size, serial or pooled, resumed either way -- is the contract
``tests/test_differential.py`` checks on drawn cases; this module pins
named cases of it (run_grid on a 3-chip fleet, ``measure_fleet`` values,
serial, pooled and cross-resumed campaigns) and the pieces:

* :class:`repro.dram.fleet.FleetPopulation` segments and the grouped
  deterministic evaluator at its exact boundary;
* the reach cut: each condition's reach set against every read of the
  reference walk, and exact-zero uniforms planted on the cells it leaves
  out, on every route;
* :class:`repro.dram.fleet.ChipFleet` validation, and a
  :meth:`repro.infra.testbed.TestBed.build_members` bed settling its chips
  exactly as one-chip beds settle theirs;
* :func:`repro.runner.measure_fleet` validation and its one-chip memory
  peak; fleet transport chunks and their expansion to per-chip rows;
* the per-process schedule replay memo: its key, bound and read-only
  parts, and consecutive units sharing it;
* the computed unit size, and tile-era run directories resuming;
* the process-pool backend keeps its submission window bounded, starts
  its workers with their heap frozen out of GC, and derives its default
  worker count from the CPU affinity mask.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.analysis import campaign as analysis_campaign
from repro.analysis.campaign import CharacterizationCampaign
from repro.conditions import Conditions
from repro.core.bruteforce import BruteForceProfiler
from repro.core import fleetprof
from repro.core.fleetprof import FleetProfiler
from repro.dram import shm
from repro.dram.cell import Z_REACH
from repro.dram.fleet import ChipFleet, FleetPopulation
from repro.dram.geometry import ChipGeometry
from repro.dram import vrt as vrt_mod
from repro.dram.vendor import VENDOR_A, VENDOR_B, VENDOR_C
from repro.errors import CommandSequenceError, ConfigurationError, ProfilingError
from repro.infra.testbed import TestBed
from repro.patterns import CHECKERBOARD, RANDOM, STANDARD_PATTERNS, DataPattern
from repro.runner import (
    CHIP_UNIT_KIND,
    FLEET_UNIT_KIND,
    UnitResult,
    WorkUnit,
    build_chip_units,
    build_fleet_units,
    default_chips_per_unit,
    expand_fleet_result,
    fleet_dispatch,
    measure_chip,
    measure_fleet,
)
from repro.runner import executors as executors_mod
from repro.runner.executors import ProcessPoolBackend, default_worker_count
from repro.runner.units import STATUS_FAILED, STATUS_OK, UnitFailure

from conftest import (
    PER_CHIP,
    TEST_SEED,
    assert_campaign_matches_reference,
    assert_routes_agree,
    chip_end_state,
    measure_reference,
    profile_routes,
)

MICRO = ChipGeometry.from_capacity_gigabits(1.0 / 64.0)

MEMBERS = [(0, VENDOR_B), (1, VENDOR_B), (2, VENDOR_A)]


def build_fleet_bed(**kwargs):
    kwargs.setdefault("members", MEMBERS)
    kwargs.setdefault("geometry", MICRO)
    kwargs.setdefault("seed", TEST_SEED)
    return TestBed.build_members(**kwargs)


def build_one_chip_beds(**kwargs):
    kwargs.setdefault("geometry", MICRO)
    kwargs.setdefault("seed", TEST_SEED)
    return [TestBed.build_members([member], **kwargs) for member in MEMBERS]


class TestFleetPopulation:
    def test_segments_partition_the_stacked_tail(self):
        bed = build_fleet_bed()
        population = FleetPopulation([chip.population for chip in bed.chips])
        assert population.n_chips == len(MEMBERS)
        total = 0
        for i, chip in enumerate(bed.chips):
            start, end = population.segment(i)
            assert end - start == len(chip.population)
            assert np.array_equal(
                population.member_indices(i), chip.population.indices
            )
            total += end - start
        assert len(population) == total
        assert population.offsets[-1] == total

    def test_rejects_empty_and_mismatched_inputs(self):
        with pytest.raises(ConfigurationError):
            FleetPopulation([])


class TestDeterministicFailures:
    """The fused compare's read groups against the per-read reference
    compare."""

    def test_matches_per_read_compare_at_the_boundary(self):
        bed = build_fleet_bed()
        bed.set_ambient(45.0)
        chips = bed.chips
        population = FleetPopulation([chip.population for chip in chips])
        pattern = CHECKERBOARD
        aligns, stresses = zip(*[chip.population.dpd.excite(pattern) for chip in chips])
        scales = tuple(chip.population.retention_scale(45.0) for chip in chips)
        e1, e2 = 1.024, 2.048

        def reference_p(exposure):
            return np.concatenate(
                [
                    chip.population.failure_probabilities(exposure, 45.0, a, m)
                    for chip, a, m in zip(chips, aligns, stresses)
                ]
            )

        p1 = reference_p(e1)
        cells = np.arange(len(population))
        # Uniforms sit exactly at p(e1), one ulp below it, or at 1.0 (never
        # fails), so mixing up the exposures, comparing with <=, or
        # dropping a row of a group each changes the answer.
        u_rows = [
            p1.copy(),  # e1, exactly at p: never fails
            np.where(cells % 2 == 1, p1, 1.0),  # e2: fails where p1 < p2
            np.where(cells % 4 == 2, np.nextafter(p1, 0.0), 1.0),  # e1 again
        ]
        exposures = [e1, e2, e1]
        reads = [u < reference_p(exposure) for exposure, u in zip(exposures, u_rows)]
        want = np.logical_or.reduce(reads)
        assert want[cells % 2 == 1].any() and want[cells % 4 == 2].any()
        assert not want[cells % 4 == 0].any()

        # The kernel's chip-major block: each chip's rows, one after another.
        rows = np.stack(u_rows)
        u = np.concatenate(
            [rows[:, slice(*population.segment(i))].ravel() for i in range(len(chips))]
        )
        block = [SimpleNamespace(exposure_s=exposure) for exposure in exposures]
        states = [(population.stack(aligns), population.stack(stresses))] * len(block)
        # The two exposure groups of one write (sharing its gathers), or as
        # two writes; one byte of budget gives each write a pass of its own.
        for writes in ([[[0, 2], [1]]], [[[0, 2]], [[1]]]):
            for budget in (fleetprof._FUSED_BUDGET_BYTES, 1):
                args = (population.reach(scales), writes, block, states, u, len(block),
                        population.offsets)
                with mock.patch.object(fleetprof, "_FUSED_BUDGET_BYTES", budget):
                    got = np.zeros(len(population), dtype=bool)
                    for _k, hits in fleetprof._fused_hits(*args, per_read=False):
                        got[hits] = True
                    assert np.array_equal(got, want)
                    per_read = dict(fleetprof._fused_hits(*args, per_read=True))
                assert sorted(per_read) == [0, 1, 2]
                for k, read in enumerate(reads):
                    assert np.array_equal(per_read[k], np.flatnonzero(read))


class _ZeroedReads:
    """A read generator whose chosen stream positions read exactly 0.0.

    Every draw is the wrapped generator's, except that the doubles at
    ``positions`` (counted from this wrapper's first draw, across calls
    and array shapes) are replaced by 0.0 -- a value the generator can
    return, with probability ``2**-53`` per draw."""

    def __init__(self, rng, positions):
        self._rng = rng
        self._positions = np.unique(np.asarray(positions, dtype=np.int64))
        self._drawn = 0

    @property
    def bit_generator(self):
        return self._rng.bit_generator

    def random(self, size=None, out=None):
        u = self._rng.random(size, out=out)
        flat = u.reshape(-1)
        start, self._drawn = self._drawn, self._drawn + flat.size
        lo, hi = np.searchsorted(self._positions, [start, self._drawn])
        flat[self._positions[lo:hi] - start] = 0.0
        return u


REACH_INTERVALS = [0.512, 1.024, 2.048]


def reference_reads(temperature, intervals=REACH_INTERVALS, iterations=2):
    """Each member chip of :data:`MEMBERS` with the ``(exposure, p)`` of
    every read the reference walk makes over one grid, in stream order:
    ``p`` is the probability vector the read's uniforms are compared to."""
    out = []
    for bed in build_one_chip_beds(fast_path=False):
        chip = bed.chips[0]
        rows = []

        def record(exposure_s, *args, _evaluate=chip.population.failure_probabilities, _rows=rows):
            p = _evaluate(exposure_s, *args)
            _rows.append((exposure_s, p))
            return p

        chip.population.failure_probabilities = record
        bed.set_ambient(temperature)
        walk = BruteForceProfiler(patterns=STANDARD_PATTERNS, iterations=iterations)
        for trefi in intervals:
            walk.run(chip, Conditions(trefi, temperature))
        assert len(rows) == len(intervals) * iterations * len(STANDARD_PATTERNS)
        out.append((chip, rows))
    return out


def outside_reach(chip, e_max):
    """Cells whose worst-case z-score at exposure ``e_max`` is at most
    Z_REACH: the kernel's reach-cut expression, written out per chip."""
    population = chip.population
    scale = population.retention_scale(chip.temperature_c)
    s = population.dpd.susceptibility
    mu_floor = population.mu_wc_s * (1.0 - s * 1.0) / (1.0 - s) * scale
    return (e_max - mu_floor) / (population.sigma_s * scale) <= Z_REACH


def condition_rows(rows, n_conditions):
    """``rows`` split into consecutive equal runs, one per condition."""
    per = len(rows) // n_conditions
    return [rows[c * per : (c + 1) * per] for c in range(n_conditions)]


class TestReachCut:
    """The reach cut leaves out of each condition's compare only cells no
    nonzero uniform can fail, and puts back exact-zero uniforms."""

    @pytest.mark.parametrize("temperature", [45.0, 55.0])
    def test_cells_outside_the_reach_set_stay_below_every_uniform(self, temperature):
        reads = reference_reads(temperature)
        scales = tuple(chip.population.retention_scale(chip.temperature_c) for chip, _ in reads)
        fleet = FleetPopulation([chip.population for chip, _ in reads])
        per_chip = [condition_rows(rows, len(REACH_INTERVALS)) for _chip, rows in reads]
        e_max = [
            max(exposure for rows in per_chip for exposure, _p in rows[c])
            for c in range(len(REACH_INTERVALS))
        ]
        cut_somewhere = False
        tail = fleet.reach(scales)
        for c, reach in enumerate(tail.reaching(exposure) for exposure in e_max):
            kept = []
            for i, (chip, _rows) in enumerate(reads):
                outside = outside_reach(chip, e_max[c])
                kept.append(np.flatnonzero(~outside) + fleet.segment(i)[0])
                for _exposure, p in per_chip[i][c]:
                    assert np.all(p[outside] < 2.0**-53)
                    cut_somewhere |= bool(np.any(p[outside] > 0.0))
            assert np.array_equal(reach.cells, np.concatenate(kept))
        # Some left-out cell has a nonzero probability: only the fact that
        # it is below every nonzero uniform makes leaving it out exact.
        assert cut_somewhere

    @pytest.mark.parametrize("block_rows", [None, 1])
    def test_exact_zero_uniforms_outside_the_reach_set_still_fail(self, block_rows):
        """Zeros placed on left-out cells with ``ndtr(z) * stressed > 0``
        fail them on every route, with the whole grid in one read block or
        each condition in its own; a kernel that did not put such cells
        back into its compare would miss them."""
        reads = reference_reads(45.0)
        zeros = {}
        planted = []
        for chip, rows in reads:
            n = len(chip.population)
            positions = []
            failing = []
            for c, crows in enumerate(condition_rows(rows, len(REACH_INTERVALS))):
                outside = outside_reach(chip, max(exposure for exposure, _p in crows))
                cells = set()
                for k, (_exposure, p) in enumerate(crows):
                    row = c * len(crows) + k
                    chosen = np.flatnonzero(outside & (p > 0.0))[:2]
                    positions.extend((row * n + chosen).tolist())
                    cells.update(chip.population.indices[chosen].tolist())
                failing.append(cells)
            assert positions
            zeros[chip.chip_id] = positions
            planted.append(failing)

        def plant(chip):
            chip._read_rng = _ZeroedReads(chip._read_rng, zeros[chip.chip_id])

        routes = profile_routes(
            MEMBERS, MICRO, TEST_SEED, [45.0], REACH_INTERVALS, iterations=2,
            block_rows=block_rows, reads=plant,
        )
        assert_routes_agree(routes)
        for c, results in enumerate(routes.kernel.failing):
            for i, failing in enumerate(results):
                assert planted[i][c] <= failing


class TestChipFleet:
    def test_rejects_heterogeneous_members(self):
        small = TestBed.build_members([(0, VENDOR_B)], geometry=MICRO, seed=1)
        other_geometry = TestBed.build_members(
            [(1, VENDOR_B)], geometry=ChipGeometry.from_capacity_gigabits(1.0 / 32.0), seed=1
        )
        with pytest.raises(ConfigurationError):
            ChipFleet([small.chips[0], other_geometry.chips[0]])
        other_trefi = TestBed.build_members(
            [(1, VENDOR_B)], geometry=MICRO, seed=1, max_trefi_s=5.0
        )
        with pytest.raises(ConfigurationError):
            ChipFleet([small.chips[0], other_trefi.chips[0]])
        with pytest.raises(ConfigurationError):
            ChipFleet([])

    def test_run_grid_guards_clock_divergence(self):
        # Chips racked in one bed share its clock, so build the fleet
        # from one-chip beds, whose clocks can diverge.
        beds = build_one_chip_beds()
        for bed in beds:
            bed.set_ambient(45.0)
        fleet = ChipFleet([bed.chips[0] for bed in beds])
        # Advance one member's clock behind the fleet's back: the shared
        # schedule would be wrong for it, so the run refuses to start.
        beds[1].chips[0].wait(0.128)
        with pytest.raises(ProfilingError):
            FleetProfiler(iterations=1).run_grid(
                fleet, [Conditions(trefi=0.512, temperature=45.0)]
            )

    def test_run_grid_refuses_disabled_refresh(self):
        bed = build_fleet_bed()
        fleet = ChipFleet(bed.chips)
        bed.set_ambient(45.0)
        for chip in bed.chips:
            chip.disable_refresh()
        with pytest.raises(CommandSequenceError):
            FleetProfiler(iterations=1).run_grid(
                fleet, [Conditions(trefi=0.512, temperature=45.0)]
            )


class TestFleetBed:
    def test_set_ambient_replays_the_lead_settle(self):
        """One multi-chip bed settles its one chamber exactly as each
        chip's own one-chip bed settles: chambers of one seed follow the
        same trajectory, so elapsed time, ambient, clocks and chip
        temperatures all agree."""
        shared = build_fleet_bed()
        single_beds = build_one_chip_beds()
        assert len(shared.chips) == len(MEMBERS)
        assert all(chip.clock is shared.clock for chip in shared.chips)

        for temperature in (45.0, 55.0, 45.0):
            elapsed = shared.set_ambient(temperature)
            for bed in single_beds:
                assert bed.set_ambient(temperature) == elapsed
                assert bed.chamber.ambient_c == shared.chamber.ambient_c
                assert bed.clock.now == shared.clock.now
            assert [chip.temperature_c for chip in shared.chips] == [
                bed.chips[0].temperature_c for bed in single_beds
            ]


class TestFleetProfilerEquivalence:
    """The core contract, fleet-fused == per-chip bit for bit, on named
    cases of the differential check; then FleetProfiler's own guards."""

    def test_failing_sets_identical_to_per_chip_runs(self):
        routes = profile_routes(MEMBERS, MICRO, TEST_SEED, [45.0], [1.024], iterations=2)
        assert all(route.failing == routes.kernel.failing for route in routes)

    def test_rng_streams_end_in_identical_state(self):
        """Clocks, read, VRT and DPD generators and traces end alike."""
        routes = profile_routes(MEMBERS, MICRO, TEST_SEED, [45.0], [1.024], iterations=2)
        assert all(route.end_state == routes.kernel.end_state for route in routes)

    def test_repeated_runs_continue_identically(self):
        """A second profiling pass (as the campaign's temperature sweep
        does) stays byte-identical -- RNG and clock state carry over."""
        assert_routes_agree(
            profile_routes(MEMBERS, MICRO, TEST_SEED, [45.0, 55.0], [0.512, 1.024], iterations=1)
        )

    def test_vrt_processes_behind_the_clock_advance_from_their_own_time(self):
        """Members whose VRT processes stand at different times share no
        gaps: each advances from its own time, as the per-chip walk does.
        The clock moves ten hours with only chip 0's process caught up,
        so the others draw that gap's episodes during the grid."""
        grid = [Conditions(t, temperature=45.0) for t in (0.512, 1.024)]
        bed = build_fleet_bed()
        bed.set_ambient(45.0)
        bed.clock.advance(36000.0)
        bed.chips[0].sync()
        assert len({chip.vrt.time_s for chip in bed.chips}) == 2
        results = FleetProfiler(iterations=2).run_grid(ChipFleet(bed.chips), grid)
        assert all(chip.vrt.episode_count for chip in bed.chips[1:])

        beds = build_one_chip_beds()
        for single in beds:
            single.set_ambient(45.0)
            single.clock.advance(36000.0)
        beds[0].chips[0].sync()
        chips = [single.chips[0] for single in beds]
        walker = BruteForceProfiler(iterations=2)
        walked = [[walker.walk(chip, conditions).failing for chip in chips] for conditions in grid]
        assert [[result.failing for result in per] for per in results] == walked
        assert chip_end_state(bed.chips) == chip_end_state(chips)

    def test_trefi_above_fleet_maximum_rejected(self):
        bed = build_fleet_bed(max_trefi_s=1.1)
        fleet = ChipFleet(bed.chips)
        with pytest.raises(ProfilingError):
            FleetProfiler(iterations=1).run_grid(
                fleet, [Conditions(trefi=2.048, temperature=45.0)]
            )

    def test_profiler_validation(self):
        with pytest.raises(ConfigurationError):
            FleetProfiler(iterations=0)
        with pytest.raises(ConfigurationError):
            FleetProfiler(patterns=())

    def test_rejects_stochastic_patterns_outside_the_random_family(self):
        """The kernel block-draws random Beta(2, 2) writes only; any other
        stochastic pattern is refused up front, the random pattern and its
        inverse are not."""
        FleetProfiler(patterns=(RANDOM, RANDOM.inverse))
        exotic = (
            DataPattern("random", stochastic=True, alignment_beta=(2.0, 3.0)),
            DataPattern("checkerboard", stochastic=True),
        )
        for pattern in exotic:
            with pytest.raises(ConfigurationError, match="random"):
                FleetProfiler(patterns=(CHECKERBOARD, pattern))


class TestReplayMemo:
    """The schedule replay runs once per process and key
    (``fleetprof._replay``): the key is everything it reads."""

    KEY = dict(
        start=12.5,
        trefis=(0.256, 0.512),
        iterations=2,
        patterns=STANDARD_PATTERNS,
        io=1e-4,
        max_trefi=1.0,
        idle_s=0.0,
    )

    @pytest.fixture(autouse=True)
    def _empty_cache(self):
        fleetprof._replay.cache_clear()
        yield
        fleetprof._replay.cache_clear()

    def replay(self, **changes):
        return fleetprof._replay(**{**self.KEY, **changes})

    def test_equal_keys_reuse_the_entry(self):
        first = self.replay()
        assert self.replay() is first
        assert fleetprof._replay.cache_info().hits == 1

    @pytest.mark.parametrize(
        "changes",
        [
            {"start": 13.0},
            {"trefis": (0.256, 0.768)},
            {"iterations": 3},
            {"patterns": STANDARD_PATTERNS[:4]},
            {"idle_s": 5.0},
            {"io": 2e-4},
            {"max_trefi": 2.0},
        ],
    )
    def test_a_different_input_misses(self, changes):
        first = self.replay()
        other = self.replay(**changes)
        assert other is not first
        assert fleetprof._replay.cache_info().misses == 2

    def test_bounded_and_read_only(self):
        for k in range(fleetprof._REPLAY_CACHE_SIZE + 5):
            entry = self.replay(start=float(k))
        assert fleetprof._replay.cache_info().currsize == fleetprof._REPLAY_CACHE_SIZE
        for array in (entry.schedule, entry.t_reads, entry.exposures, entry.gaps.seconds):
            with pytest.raises(ValueError):
                array[0] = 0.0
        assert isinstance(entry.steps, tuple) and isinstance(entry.records, tuple)

    def test_exposure_over_max_trefi_raises_every_call_and_is_never_stored(self):
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="exceeds max_trefi_s"):
                self.replay(max_trefi=0.3)
        assert fleetprof._replay.cache_info().currsize == 0

    def test_consecutive_units_share_the_replay_and_match_the_walk(self):
        """Two units of one seed in one process: the second reuses the
        first's replay, and both leave the per-chip walk's traces."""
        grid = [Conditions(t, temperature=45.0) for t in (0.512, 1.024)]
        for members in (MEMBERS[:2], MEMBERS[2:]):
            bed = build_fleet_bed(members=members)
            bed.set_ambient(45.0)
            FleetProfiler(iterations=2).run_grid(ChipFleet(bed.chips), grid)
            singles = [TestBed.build_members([m], geometry=MICRO, seed=TEST_SEED) for m in members]
            walker = BruteForceProfiler(iterations=2)
            for single in singles:
                single.set_ambient(45.0)
                for conditions in grid:
                    walker.walk(single.chips[0], conditions)
            assert chip_end_state(bed.chips) == chip_end_state([b.chips[0] for b in singles])
        info = fleetprof._replay.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestCountGrid:
    #: Chips of 64 Kbit hold a weak tail of a few cells at most; at seed 2
    #: the fifth of these six has none.
    GEOMETRY = ChipGeometry(banks=1, rows_per_bank=4, bits_per_row=16384)
    MEMBERS = list(enumerate([VENDOR_A, VENDOR_B, VENDOR_C] * 2))

    def bed(self):
        bed = TestBed.build_members(self.MEMBERS, geometry=self.GEOMETRY, seed=2, max_trefi_s=2.2)
        # Pre-existing VRT episodes active through both stages, failing any
        # exposure above 10 ms: on chip 0 at a cell outside its weak tail
        # (an overflow cell), on chip 1 at its first tail cell.
        for chip, cell in ((bed.chips[0], self.GEOMETRY.capacity_bits - 1),
                           (bed.chips[1], int(bed.chips[1].population.indices[0]))):
            chip.vrt._blocks.append(vrt_mod._EpisodeBlock(
                cell_index=np.array([cell]), mu_low_s=np.array([0.01]),
                start_s=np.array([0.0]), end_s=np.array([1e12]),
            ))
        return bed

    def test_counts_are_the_run_grid_set_sizes(self):
        """``count_grid`` over two stages counts what ``run_grid`` collects
        and leaves the chips in the same state, on a fleet with an
        empty-tail chip and a VRT cell outside one chip's tail."""
        outcomes, failing = [], None
        for route in ("run_grid", "count_grid"):
            bed = self.bed()
            tails = [len(chip.population) for chip in bed.chips]
            assert 0 in tails and max(tails) > 0
            assert self.GEOMETRY.capacity_bits - 1 not in set(bed.chips[0].population.indices)
            fleet = ChipFleet(bed.chips)
            profiler = FleetProfiler(iterations=2)
            counts = []
            for temperature, intervals in ((45.0, [0.512, 1.024, 2.048]), (55.0, [2.048])):
                bed.set_ambient(temperature)
                grid = [Conditions(t, temperature) for t in intervals]
                if route == "run_grid":
                    results = profiler.run_grid(fleet, grid)
                    failing = (failing or []) + [[r.failing for r in per] for per in results]
                    counts.append([[len(r) for r in per] for per in results])
                else:
                    counts.append(profiler.count_grid(fleet, grid))
            outcomes.append((counts, chip_end_state(bed.chips)))
        assert outcomes[0] == outcomes[1]
        overflow = self.GEOMETRY.capacity_bits - 1
        assert all(overflow in per[0] for per in failing)
        assert any(len(per[i]) > 1 for per in failing for i in range(len(per)))


class TestMeasureFleetWorker:
    UNIT_KW = dict(
        chips_per_vendor=1,
        geometry=MICRO,
        iterations=1,
        seed=TEST_SEED,
        intervals_s=(0.512, 1.024),
        temperatures_c=(45.0, 55.0),
    )

    def test_values_identical_to_measure_chip(self):
        units = build_chip_units(**self.UNIT_KW)
        (chunk,) = build_fleet_units(units, chips_per_unit=len(units))
        fleet = measure_fleet(chunk.payload)
        assert [c["unit_id"] for c in fleet["chips"]] == [u.unit_id for u in units]
        assert [c["value"] for c in fleet["chips"]] == [
            measure_reference(unit.payload) for unit in units
        ]

    def test_chunking_does_not_change_values(self):
        units = build_chip_units(**self.UNIT_KW)
        values = []
        for chunk in build_fleet_units(units, chips_per_unit=2):
            values.extend(c["value"] for c in measure_fleet(chunk.payload)["chips"])
        assert values == [measure_reference(unit.payload) for unit in units]

    def test_rejects_heterogeneous_chunks(self):
        units = build_chip_units(**self.UNIT_KW)
        other = build_chip_units(**{**self.UNIT_KW, "seed": TEST_SEED + 1})
        (chunk,) = build_fleet_units((units[0], other[1]), chips_per_unit=2)
        with pytest.raises(ConfigurationError):
            measure_fleet(chunk.payload)

    def test_rejects_empty_chunks(self):
        with pytest.raises(ConfigurationError):
            measure_fleet({"members": []})

    def test_one_chip_unit_peaks_no_higher_than_the_per_chip_walk(self):
        """A one-chip kernel unit on a 1 Gbit chip (52 k weak cells, whose
        conditions split into one-iteration read blocks) holds at most one
        block budget more than ``measure_chip``, the per-chip walk, on the
        same chip: read and DPD blocks stay under the budget and nothing
        is memoized per pattern.  The walk reads one uniform vector at a
        time and memoizes nothing, so it is the floor a blocked kernel is
        measured against."""
        grid = dict(
            geometry=ChipGeometry.from_capacity_gigabits(1.0),
            iterations=2,
            seed=368,
            intervals_s=(0.512, 1.024, 2.048),
            temperatures_c=(45.0, 55.0),
        )
        unit = build_chip_units(chips_per_vendor=20, **grid)[1]
        (chunk,) = build_fleet_units([unit], chips_per_unit=1)
        # Warm both paths on a small chip so lazy imports and one-time
        # tables are not charged to either peak.
        (warm,) = build_chip_units(**self.UNIT_KW)[:1]
        measure_chip(warm.payload)
        measure_fleet(build_fleet_units([warm], chips_per_unit=1)[0].payload)

        peaks, values = {}, {}
        for name, worker, payload in (
            ("walk", measure_chip, unit.payload),
            ("kernel", measure_fleet, chunk.payload),
        ):
            tracemalloc.start()
            try:
                values[name] = worker(payload)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert values["kernel"]["chips"][0]["value"] == values["walk"]
        assert peaks["kernel"] <= peaks["walk"] + fleetprof._BLOCK_BUDGET_BYTES, peaks


class TestFleetUnits:
    def make_units(self, n=5):
        return tuple(
            WorkUnit(unit_id=f"chip-{i:05d}", kind=CHIP_UNIT_KIND, payload={"i": i})
            for i in range(n)
        )

    def test_build_fleet_units_chunks_consecutively(self):
        units = self.make_units(5)
        chunks = build_fleet_units(units, chips_per_unit=2)
        assert [c.unit_id for c in chunks] == [
            "fleet-chip-00000-chip-00001",
            "fleet-chip-00002-chip-00003",
            "fleet-chip-00004-chip-00004",
        ]
        assert all(c.kind == FLEET_UNIT_KIND for c in chunks)
        member_ids = [
            m["unit_id"] for c in chunks for m in c.payload["members"]
        ]
        assert member_ids == [u.unit_id for u in units]

    def test_build_fleet_units_validation(self):
        units = self.make_units(2)
        with pytest.raises(ConfigurationError):
            build_fleet_units(units, chips_per_unit=0)
        alien = WorkUnit(unit_id="x", kind="toy", payload={})
        with pytest.raises(ConfigurationError):
            build_fleet_units((alien,), chips_per_unit=1)

    def test_expand_ok_result_restores_per_chip_rows(self):
        (chunk,) = build_fleet_units(self.make_units(3), chips_per_unit=3)
        result = UnitResult(
            unit_id=chunk.unit_id,
            status=STATUS_OK,
            value={
                "chips": [
                    {"unit_id": m["unit_id"], "value": {"n": i}}
                    for i, m in enumerate(chunk.payload["members"])
                ]
            },
            attempts=1,
            elapsed_s=3.0,
        )
        expanded = expand_fleet_result(chunk, result)
        assert [r.unit_id for r in expanded] == [
            "chip-00000",
            "chip-00001",
            "chip-00002",
        ]
        assert all(r.ok for r in expanded)
        assert [r.value for r in expanded] == [{"n": 0}, {"n": 1}, {"n": 2}]
        assert all(r.elapsed_s == pytest.approx(1.0) for r in expanded)

    def test_expand_failed_result_fails_every_member(self):
        (chunk,) = build_fleet_units(self.make_units(2), chips_per_unit=2)
        failure = UnitFailure(type="RuntimeError", message="boom", traceback="tb")
        result = UnitResult(
            unit_id=chunk.unit_id,
            status=STATUS_FAILED,
            error=failure,
            attempts=2,
            elapsed_s=1.0,
        )
        expanded = expand_fleet_result(chunk, result)
        assert [r.unit_id for r in expanded] == ["chip-00000", "chip-00001"]
        assert all(not r.ok for r in expanded)
        assert all(r.error == failure for r in expanded)
        assert all(r.attempts == 2 for r in expanded)

    def test_expand_rejects_member_mismatch(self):
        (chunk,) = build_fleet_units(self.make_units(2), chips_per_unit=2)
        result = UnitResult(
            unit_id=chunk.unit_id,
            status=STATUS_OK,
            value={"chips": [{"unit_id": "chip-00000", "value": {}}]},
            attempts=1,
            elapsed_s=1.0,
        )
        with pytest.raises(ConfigurationError):
            expand_fleet_result(chunk, result)


@pytest.fixture(scope="module")
def fleet_campaign():
    return CharacterizationCampaign(
        chips_per_vendor=2, geometry=MICRO, iterations=1, seed=TEST_SEED
    )


FLEET_CAMPAIGN_KW = dict(intervals_s=(0.512, 1.024), temperatures_c=(45.0, 55.0))


class TestFleetCampaign:
    def test_fleet_serial_and_pooled_match_per_chip(self, fleet_campaign):
        for route in (
            dict(),
            dict(chips_per_unit=2),
            dict(backend="process", workers=2, chips_per_unit=4),
        ):
            assert_campaign_matches_reference(fleet_campaign, **FLEET_CAMPAIGN_KW, **route)

    def test_chips_per_unit_one_matches_the_per_chip_walk(self, fleet_campaign):
        """``chips_per_unit=1`` runs one-chip kernel units; every row they
        store equals the per-chip walk on its chip."""
        assert_campaign_matches_reference(fleet_campaign, **FLEET_CAMPAIGN_KW, chips_per_unit=1)

    def test_chips_per_unit_validation(self, fleet_campaign):
        with pytest.raises(ConfigurationError):
            fleet_campaign.run(chips_per_unit=0, **FLEET_CAMPAIGN_KW)

    def test_fleet_run_resumes_per_chip_run_directory(self, fleet_campaign):
        """A run dir the per-chip walk wrote (what older versions left
        behind) resumes under an explicit unit size and under the default,
        measuring the missing chips under per-chip ids."""
        for chips_per_unit in (3, None):
            assert_campaign_matches_reference(
                fleet_campaign, **FLEET_CAMPAIGN_KW,
                chips_per_unit=PER_CHIP, stop_after=2, resume_with=chips_per_unit,
            )

    def test_per_chip_run_resumes_fleet_run_directory(self, fleet_campaign):
        """The per-chip walk resumes a kernel-written run dir; the mixed
        rows give the reference summary."""
        assert_campaign_matches_reference(
            fleet_campaign, **FLEET_CAMPAIGN_KW,
            chips_per_unit=2, stop_after=3, resume_with=PER_CHIP,
        )

    def test_chunk_run_resumes_tile_era_run_directory(self, fleet_campaign, tmp_path):
        """Run dirs written while condition tiles existed carry a
        ``condition_tiles`` manifest key; chunk dispatch resumes them."""
        fresh = fleet_campaign.run(chips_per_unit=2, **FLEET_CAMPAIGN_KW)
        run_dir = tmp_path / "run"
        fleet_campaign.run(run_dir=str(run_dir), chips_per_unit=2, **FLEET_CAMPAIGN_KW)
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["condition_tiles"] = 3
        manifest["status"] = "interrupted"
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        results_path = run_dir / "results.jsonl"
        rows = results_path.read_text().splitlines()
        results_path.write_text("\n".join(rows[:4]) + "\n")

        resumed = fleet_campaign.run(
            run_dir=str(run_dir), resume=True, chips_per_unit=2, **FLEET_CAMPAIGN_KW
        )
        assert json.dumps(resumed.to_json_dict(), sort_keys=True) == json.dumps(
            fresh.to_json_dict(), sort_keys=True
        )


class TestComputedUnitSize:
    @pytest.mark.parametrize(
        "capacity_gbit, n_chips, workers, expected",
        [
            (1.0, 60, 2, 1),  # the CLI's 1 Gbit chips travel alone
            (1.0 / 16.0, 6, 2, 3),  # a service job: never fewer units than workers
            (1.0 / 64.0, 369, 2, 16),  # paper-scale small chips: capacity-bound
            (1.0 / 64.0, 369, 1, 16),
            (1.0 / 1024.0, 10, 4, 3),
            (4.0, 5, 1, 1),
        ],
    )
    def test_rule(self, capacity_gbit, n_chips, workers, expected):
        bits = ChipGeometry.from_capacity_gigabits(capacity_gbit).capacity_bits
        assert default_chips_per_unit(bits, n_chips, workers) == expected

    def test_rejects_non_positive_inputs(self):
        for args in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            with pytest.raises(ConfigurationError):
                default_chips_per_unit(*args)

    @pytest.mark.parametrize(
        "backend_kw, expected",
        [
            (dict(backend="serial"), 6),
            (dict(backend="process", workers=2), 3),
            (dict(backend=None, workers=4), 2),
        ],
    )
    def test_campaign_sizes_units_from_the_backend(
        self, fleet_campaign, monkeypatch, backend_kw, expected
    ):
        """Serial runs count one worker, pooled runs the pool width."""
        sizes = []

        def spy(chips_per_unit):
            sizes.append(chips_per_unit)
            return fleet_dispatch(chips_per_unit)

        monkeypatch.setattr(analysis_campaign, "fleet_dispatch", spy)
        fleet_campaign.run(**backend_kw, **FLEET_CAMPAIGN_KW)
        assert sizes == [expected]

    def test_one_chip_units_draw_populations_in_the_worker(
        self, fleet_campaign, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a campaign must not build a shared population")

        monkeypatch.setattr(analysis_campaign, "build_population_samples", refuse)
        monkeypatch.setattr(shm.SharedPopulationStore, "create", refuse)
        for chips_per_unit in (1, 2, None):
            summary = fleet_campaign.run(chips_per_unit=chips_per_unit, **FLEET_CAMPAIGN_KW)
            assert summary.n_chips == 6


class _RecordingFuture:
    def __init__(self, value):
        self._value = value

    def result(self):
        return self._value

    def __hash__(self):
        return id(self)


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: runs inline, counts submissions."""

    instances = []

    def __init__(self, max_workers, initializer=None):
        self.max_workers = max_workers
        self.submitted = 0
        type(self).instances.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted += 1
        return _RecordingFuture(fn(*args))


def _fake_wait(pending, return_when=None):
    # Resolve exactly one future per drain cycle, mimicking FIRST_COMPLETED.
    done = {next(iter(pending))}
    return done, pending - done


class TestBoundedSubmissionWindow:
    def test_inflight_never_exceeds_window(self, monkeypatch):
        monkeypatch.setattr(executors_mod, "ProcessPoolExecutor", _RecordingExecutor)
        monkeypatch.setattr(executors_mod, "wait", _fake_wait)
        _RecordingExecutor.instances.clear()

        units = tuple(
            WorkUnit(unit_id=f"u-{i:03d}", kind="toy", payload={"i": i})
            for i in range(40)
        )
        backend = ProcessPoolBackend(workers=2)
        window = backend.INFLIGHT_FACTOR * 2

        seen = []
        submitted_at_first_yield = None
        for result in backend.run(_identity_worker, units):
            if submitted_at_first_yield is None:
                submitted_at_first_yield = _RecordingExecutor.instances[0].submitted
            seen.append(result.unit_id)

        # All units completed, but the initial submission burst was the
        # window, not the whole campaign.
        assert sorted(seen) == [u.unit_id for u in units]
        assert submitted_at_first_yield <= window + 1
        assert _RecordingExecutor.instances[0].submitted == len(units)

    def test_pool_not_oversized_for_tiny_unit_counts(self, monkeypatch):
        monkeypatch.setattr(executors_mod, "ProcessPoolExecutor", _RecordingExecutor)
        monkeypatch.setattr(executors_mod, "wait", _fake_wait)
        _RecordingExecutor.instances.clear()

        units = (WorkUnit(unit_id="only", kind="toy", payload={"i": 0}),)
        list(ProcessPoolBackend(workers=8).run(_identity_worker, units))
        assert _RecordingExecutor.instances[0].max_workers == 1


def _identity_worker(payload):
    return payload


def _freeze_count_worker(payload):
    return gc.get_freeze_count()


class TestPoolWorkersStartFrozen:
    def test_backend_pool_workers_freeze_the_forked_heap(self):
        units = tuple(
            WorkUnit(unit_id=f"u-{i}", kind="toy", payload={"i": i}) for i in range(4)
        )
        results = list(ProcessPoolBackend(workers=2).run(_freeze_count_worker, units))
        assert [r.status for r in results] == [STATUS_OK] * len(units)
        assert all(r.value > 0 for r in results)


class TestDefaultWorkerCount:
    def test_uses_affinity_mask_when_available(self, monkeypatch):
        monkeypatch.setattr(
            executors_mod.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False
        )
        assert default_worker_count() == 2

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(executors_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(executors_mod.os, "cpu_count", lambda: 7)
        assert default_worker_count() == 7

    def test_never_returns_zero(self, monkeypatch):
        # An empty affinity mask and an unknown core count must still
        # floor at one worker, whatever host the test runs on.
        monkeypatch.setattr(
            executors_mod.os, "sched_getaffinity", lambda pid: set(), raising=False
        )
        monkeypatch.setattr(executors_mod.os, "cpu_count", lambda: None)
        assert default_worker_count() == 1
        monkeypatch.delattr(executors_mod.os, "sched_getaffinity", raising=False)
        assert default_worker_count() == 1

    def test_pool_backend_defaults_from_worker_count(self, monkeypatch):
        monkeypatch.setattr(
            executors_mod, "default_worker_count", lambda: 5
        )
        assert ProcessPoolBackend().workers == 5
