"""Equivalence contract for the profiling fast path.

The vectorized fast path (memoized per-(pattern, temperature) retention
arrays + marginal-band ndtr cut in ``repro.dram.cell``, numpy observed-cell
accumulation in ``repro.core.device``) must be *byte-identical* to the
reference implementation: same failing sets, same per-read records, same
runtimes, same campaign summaries, same RNG stream consumption.  These
tests pin that contract across deterministic and stochastic patterns,
temperature changes, quiet-iteration early stops, and device reset/reuse.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

from repro.analysis.campaign import CharacterizationCampaign
from repro.conditions import Conditions
from repro.core import BruteForceProfiler
from repro.core.device import ObservedCellAccumulator
from repro.dram.cell import Z_PIN_ONE, Z_PIN_ZERO
from repro.dram.chip import SimulatedDRAMChip
from repro.dram.geometry import ChipGeometry
from repro.errors import CommandSequenceError
from repro.patterns import CHECKERBOARD, RANDOM, STANDARD_PATTERNS
from repro.runner import ResultStore, build_chip_units, measure_chip

from conftest import TINY_GEOMETRY, TEST_SEED, per_chip_summary

MICRO = ChipGeometry.from_capacity_gigabits(1.0 / 64.0)


def chip_pair(geometry=TINY_GEOMETRY, seed=TEST_SEED, **kwargs):
    """(reference, fast) chips that are identical in every other respect."""
    ref = SimulatedDRAMChip(geometry=geometry, seed=seed, fast_path=False, **kwargs)
    fast = SimulatedDRAMChip(geometry=geometry, seed=seed, fast_path=True, **kwargs)
    return ref, fast


def _canon(value):
    return json.dumps(value, sort_keys=True)


def assert_profiles_identical(a, b):
    assert a.failing == b.failing
    assert a.records == b.records
    assert a.runtime_seconds == b.runtime_seconds
    assert a.iterations == b.iterations
    assert a.to_json() == b.to_json()


class TestPinConstants:
    def test_ndtr_saturates_at_pin_constants(self):
        """The whole band-cut scheme rests on exact double saturation."""
        assert ndtr(Z_PIN_ONE) == 1.0
        assert ndtr(Z_PIN_ZERO) == 0.0
        # And the constants leave margin to the actual saturation points.
        assert ndtr(Z_PIN_ONE - 0.5) == 1.0
        assert ndtr(Z_PIN_ZERO + 0.5) == 0.0


class TestProfileEquivalence:
    def test_standard_patterns_byte_identical(self):
        """Deterministic + stochastic patterns, multi-iteration run."""
        ref, fast = chip_pair()
        profiler = BruteForceProfiler(patterns=STANDARD_PATTERNS, iterations=3)
        conditions = Conditions(trefi=1.024, temperature=45.0)
        assert_profiles_identical(profiler.run(ref, conditions), profiler.run(fast, conditions))

    def test_identical_across_temperature_change(self):
        """Caches re-key by temperature; results stay byte-identical."""
        ref, fast = chip_pair()
        profiler = BruteForceProfiler(patterns=STANDARD_PATTERNS[:4], iterations=2)
        for temperature in (45.0, 55.0, 45.0):
            ref.set_temperature(temperature)
            fast.set_temperature(temperature)
            conditions = Conditions(trefi=1.024, temperature=temperature)
            assert_profiles_identical(
                profiler.run(ref, conditions), profiler.run(fast, conditions)
            )

    def test_identical_with_quiet_streak_stop_and_idle_gap(self):
        ref, fast = chip_pair()
        profiler = BruteForceProfiler(
            patterns=(CHECKERBOARD, RANDOM),
            iterations=12,
            idle_between_iterations_s=10.0,
            stop_after_quiet_iterations=2,
        )
        conditions = Conditions(trefi=0.768, temperature=45.0)
        a, b = profiler.run(ref, conditions), profiler.run(fast, conditions)
        assert_profiles_identical(a, b)

    def test_rng_streams_stay_aligned_after_run(self):
        """Both paths consume identical uniforms, so the *next* read after a
        full profiling run still matches draw for draw."""
        ref, fast = chip_pair()
        profiler = BruteForceProfiler(patterns=STANDARD_PATTERNS, iterations=2)
        conditions = Conditions(trefi=1.024, temperature=45.0)
        profiler.run(ref, conditions)
        profiler.run(fast, conditions)
        for chip in (ref, fast):
            chip.write_pattern(RANDOM)
            chip.disable_refresh()
            chip.wait(1.5)
            chip.enable_refresh()
        assert np.array_equal(ref.read_errors(), fast.read_errors())

    @given(
        st.fixed_dictionaries(
            {
                "trefi": st.sampled_from([0.256, 0.768, 1.536]),
                "iterations": st.integers(min_value=1, max_value=3),
                "n_patterns": st.integers(min_value=1, max_value=12),
                "temperature": st.sampled_from([45.0, 50.0, 55.0]),
                "seed": st.integers(min_value=0, max_value=2**16),
                "quiet_stop": st.sampled_from([0, 1]),
            }
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_property_profiles_byte_identical(self, config):
        ref, fast = chip_pair(geometry=MICRO, seed=config["seed"])
        ref.set_temperature(config["temperature"])
        fast.set_temperature(config["temperature"])
        profiler = BruteForceProfiler(
            patterns=STANDARD_PATTERNS[: config["n_patterns"]],
            iterations=config["iterations"],
            stop_after_quiet_iterations=config["quiet_stop"],
        )
        conditions = Conditions(trefi=config["trefi"], temperature=config["temperature"])
        assert_profiles_identical(profiler.run(ref, conditions), profiler.run(fast, conditions))


ORACLE_GRID = dict(intervals_s=(0.512, 1.024), temperatures_c=(45.0, 55.0))


def reference_rows(campaign):
    """Every chip of ``campaign`` re-measured on the reference evaluator
    (``measure_chip`` with ``"fast_path": False``), keyed by unit id."""
    units = build_chip_units(
        chips_per_vendor=campaign.chips_per_vendor,
        geometry=campaign.geometry,
        iterations=campaign.iterations,
        seed=campaign.seed,
        **ORACLE_GRID,
    )
    return {
        unit.unit_id: _canon(measure_chip(dict(unit.payload, fast_path=False)))
        for unit in units
    }


def stored_rows(campaign, run_dir, chips_per_unit):
    summary = campaign.run(run_dir=str(run_dir), chips_per_unit=chips_per_unit, **ORACLE_GRID)
    stored = ResultStore(run_dir).load_results()
    return summary, {uid: _canon(r.value) for uid, r in stored.items()}


class TestCampaignEquivalence:
    def test_campaign_summaries_byte_identical(self, tmp_path):
        """Every row a default campaign stores equals its chip re-measured
        on the reference evaluator, so the summary built from those rows is
        the reference summary."""
        campaign = CharacterizationCampaign(chips_per_vendor=2, geometry=MICRO, iterations=1)
        summary, rows = stored_rows(campaign, tmp_path, None)
        assert rows == reference_rows(campaign)
        assert _canon(campaign.run(**ORACLE_GRID).to_json_dict()) == _canon(
            summary.to_json_dict()
        )


class TestFleetEquivalence:
    """Fleet-batched evaluation extends the same contract: stacking B
    chips into one fused numpy call must not change a single byte."""

    def test_fleet_campaign_summaries_byte_identical(self, tmp_path):
        campaign = CharacterizationCampaign(chips_per_vendor=1, geometry=MICRO, iterations=1)

        def summarize(chips_per_unit):
            return campaign.run(chips_per_unit=chips_per_unit, **ORACLE_GRID)

        reference = per_chip_summary(campaign, tmp_path / "per-chip", **ORACLE_GRID)
        assert summarize(None) == reference
        assert summarize(3) == reference
        assert summarize(2) == reference

    def test_fleet_composes_with_both_fast_path_modes(self, tmp_path):
        """Fleet batching runs on the fast path; every row a fleet campaign
        stores equals its chip re-measured on the reference evaluator, and
        the fleet summary equals the per-chip one."""
        campaign = CharacterizationCampaign(chips_per_vendor=2, geometry=MICRO, iterations=1)
        fleet_summary, rows = stored_rows(campaign, tmp_path, 4)
        assert rows == reference_rows(campaign)
        assert fleet_summary == campaign.run(**ORACLE_GRID)


class TestChipReset:
    def test_reset_replays_fresh_chip(self):
        conditions = Conditions(trefi=1.024, temperature=45.0)
        profiler = BruteForceProfiler(patterns=STANDARD_PATTERNS[:6], iterations=2)
        chip = SimulatedDRAMChip(geometry=TINY_GEOMETRY, seed=TEST_SEED)
        first = profiler.run(chip, conditions)
        chip.set_temperature(55.0)  # dirty some state
        profiler.run(chip, Conditions(trefi=0.512, temperature=55.0))
        chip.reset()
        assert chip.temperature_c == pytest.approx(45.0)
        assert chip.clock.now == 0.0
        replay = profiler.run(chip, conditions)
        assert_profiles_identical(first, replay)
        fresh = profiler.run(
            SimulatedDRAMChip(geometry=TINY_GEOMETRY, seed=TEST_SEED), conditions
        )
        assert_profiles_identical(first, fresh)

    def test_reset_refused_on_shared_clock(self):
        from repro.clock import SimClock

        chip = SimulatedDRAMChip(geometry=TINY_GEOMETRY, seed=TEST_SEED, clock=SimClock())
        with pytest.raises(CommandSequenceError):
            chip.reset()


class TestObservedCellAccumulator:
    def test_matches_reference_set_bookkeeping(self):
        space = np.array([3, 7, 10, 42, 99], dtype=np.int64)
        reads = [
            np.array([7, 42], dtype=np.int64),
            np.array([3, 7, 120], dtype=np.int64),  # 120 is outside the space
            np.array([], dtype=np.int64),
            np.array([42, 99, 120], dtype=np.int64),
        ]
        acc = ObservedCellAccumulator(space)
        seen: set = set()
        for read in reads:
            new, count = acc.observe(read)
            observed = set(read.tolist())
            assert count == len(observed)
            assert ObservedCellAccumulator.materialize(new) == frozenset(observed - seen)
            seen |= observed
        assert acc.discovered() == frozenset(seen)
        assert len(acc) == len(seen)

    def test_without_space_everything_is_extras(self):
        acc = ObservedCellAccumulator()
        new, count = acc.observe(np.array([5, 1, 5], dtype=np.int64))
        assert count == 2
        assert ObservedCellAccumulator.materialize(new) == frozenset({1, 5})
        new, _ = acc.observe(np.array([1, 9], dtype=np.int64))
        assert ObservedCellAccumulator.materialize(new) == frozenset({9})
        assert acc.discovered() == frozenset({1, 5, 9})

    def test_degrades_to_sets_for_tuple_observations(self):
        """Module-style (chip, flat) tuples keep working, history intact."""
        space = np.array([1, 2, 3], dtype=np.int64)
        acc = ObservedCellAccumulator(space)
        acc.observe(np.array([2, 50], dtype=np.int64))
        new, count = acc.observe([(0, 2), (1, 7)])
        assert count == 2
        assert new == frozenset({(0, 2), (1, 7)})
        # Previously discovered ints survive the degrade.
        assert acc.discovered() == frozenset({2, 50, (0, 2), (1, 7)})
        # And later int-array reads keep flowing through the set path.
        new, _ = acc.observe(np.array([2, 3], dtype=np.int64))
        assert new == frozenset({3})
        assert len(acc) == 5

    def test_discovered_values_are_python_ints(self):
        acc = ObservedCellAccumulator(np.array([4, 8], dtype=np.int64))
        acc.observe(np.array([4, 100], dtype=np.int64))
        for cell in acc.discovered():
            assert type(cell) is int
