"""Unit tests for Algorithm 1 (brute-force profiling)."""

import tracemalloc

import pytest

from repro import obs
from repro.conditions import Conditions
from repro.core import fleetprof
from repro.core.bruteforce import BruteForceProfiler
from repro.core.metrics import evaluate
from repro.dram.chip import SimulatedDRAMChip
from repro.dram.commands import Command
from repro.dram.geometry import ChipGeometry
from repro.dram.module import DRAMModule
from repro.errors import ConfigurationError, ProfilingError
from repro.patterns import CHECKERBOARD, SOLID_ZERO, STANDARD_PATTERNS, DataPattern

from conftest import TINY_GEOMETRY


class TestConfiguration:
    def test_default_patterns_are_standard(self):
        assert BruteForceProfiler().patterns == STANDARD_PATTERNS

    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigurationError):
            BruteForceProfiler(iterations=0)

    def test_empty_patterns_rejected(self):
        with pytest.raises(ConfigurationError):
            BruteForceProfiler(patterns=())

    def test_negative_idle_rejected(self):
        with pytest.raises(ConfigurationError):
            BruteForceProfiler(idle_between_iterations_s=-1.0)


class TestAlgorithm1:
    def test_profile_records_all_passes(self, chip, target_conditions):
        profiler = BruteForceProfiler(iterations=2)
        profile = profiler.run(chip, target_conditions)
        assert len(profile.records) == 2 * len(STANDARD_PATTERNS)
        assert profile.iterations == 2
        assert profile.patterns == tuple(p.key for p in STANDARD_PATTERNS)

    def test_command_sequence_matches_algorithm_1(self, chip, target_conditions):
        """write -> disable -> wait -> enable -> read, per pattern per iteration."""
        BruteForceProfiler(patterns=(CHECKERBOARD,), iterations=2).run(chip, target_conditions)
        kinds = [r.command for r in chip.trace]
        expected_pass = [
            Command.WRITE_PATTERN,
            Command.REFRESH_DISABLE,
            Command.WAIT,
            Command.REFRESH_ENABLE,
            Command.READ_COMPARE,
        ]
        assert kinds == expected_pass * 2
        chip.trace.verify_protocol()

    def test_runtime_matches_eq9_structure(self, chip, target_conditions):
        """Runtime = (t_REFI + T_wr + T_rd) * N_dp * N_it (Eq 9)."""
        profiler = BruteForceProfiler(patterns=(CHECKERBOARD, SOLID_ZERO), iterations=3)
        profile = profiler.run(chip, target_conditions)
        per_pass = target_conditions.trefi + 2 * chip.pattern_io_seconds
        assert profile.runtime_seconds == pytest.approx(per_pass * 2 * 3)

    def test_idle_gap_extends_runtime(self, chip_factory, target_conditions):
        """N iterations charge exactly N - 1 idle gaps, none trailing.

        Regression test for the runtime-accounting bug where the gap was
        also charged after the final iteration, inflating runtime_seconds
        by one gap per run and skewing the Eq-9 comparisons.
        """
        fast = BruteForceProfiler(patterns=(CHECKERBOARD,), iterations=2)
        slow = BruteForceProfiler(
            patterns=(CHECKERBOARD,), iterations=2, idle_between_iterations_s=100.0
        )
        t_fast = fast.run(chip_factory(), target_conditions).runtime_seconds
        t_slow = slow.run(chip_factory(), target_conditions).runtime_seconds
        assert t_slow == pytest.approx(t_fast + 100.0)

    def test_two_iteration_runtime_pinned_with_idle_gap(self, chip_factory, target_conditions):
        """runtime_seconds for 2 iterations is exactly 2 passes + 1 gap."""
        chip = chip_factory()
        idle = 37.5
        profiler = BruteForceProfiler(
            patterns=(CHECKERBOARD,), iterations=2, idle_between_iterations_s=idle
        )
        profile = profiler.run(chip, target_conditions)
        per_pass = target_conditions.trefi + 2 * chip.pattern_io_seconds
        assert profile.runtime_seconds == pytest.approx(2 * per_pass + idle)

    def test_no_idle_gap_after_quiet_streak_stop(self, chip_factory, target_conditions):
        """A quiet-streak stop ends the run without charging another gap."""
        chip = chip_factory()
        idle = 50.0
        profiler = BruteForceProfiler(
            patterns=(CHECKERBOARD,),
            iterations=10,
            idle_between_iterations_s=idle,
            stop_after_quiet_iterations=2,
        )
        profile = profiler.run(chip, target_conditions)
        assert profile.iterations < 10
        per_pass = target_conditions.trefi + 2 * chip.pattern_io_seconds
        expected = profile.iterations * per_pass + (profile.iterations - 1) * idle
        assert profile.runtime_seconds == pytest.approx(expected)

    def test_profile_target_defaults_to_profiling_conditions(self, chip, target_conditions):
        profile = BruteForceProfiler(iterations=1).run(chip, target_conditions)
        assert profile.target_conditions == target_conditions
        assert not profile.is_reach_profile

    def test_interval_beyond_device_rejected(self, chip):
        with pytest.raises(ProfilingError):
            BruteForceProfiler(iterations=1).run(chip, Conditions(trefi=50.0))

    def test_more_iterations_discover_more(self, chip_factory, target_conditions):
        few = BruteForceProfiler(iterations=1).run(chip_factory(), target_conditions)
        many = BruteForceProfiler(iterations=8).run(chip_factory(), target_conditions)
        assert len(many) >= len(few)

    def test_coverage_improves_with_iterations(self, chip_factory, target_conditions):
        """Observation: brute force needs many iterations for high coverage."""
        chip = chip_factory()
        oracle = set(chip.oracle_failing_set(target_conditions).tolist())
        profile = BruteForceProfiler(iterations=8).run(chip, target_conditions)
        after_1 = evaluate(profile.cells_after_iterations(1), oracle)
        after_8 = evaluate(profile.cells_after_iterations(8), oracle)
        assert after_8.coverage >= after_1.coverage
        assert after_8.coverage > 0.8

    def test_records_observed_counts_include_repeats(self, chip, target_conditions):
        profile = BruteForceProfiler(iterations=3).run(chip, target_conditions)
        for rec in profile.records:
            assert rec.observed_count >= rec.new_count

    def test_mechanism_label(self, chip, target_conditions):
        profile = BruteForceProfiler(iterations=1).run(chip, target_conditions)
        assert profile.mechanism == "brute-force"


class TestKernelRoute:
    """``run`` hands a fixed schedule on a production chip to the grid
    kernel and walks everything else; the kernel route leaves the walk's
    telemetry and stays within one block budget of the walk's memory.
    Its profiles equal the walk's on drawn schedules in
    ``tests/test_differential.py``."""

    #: The series both routes record, compared snapshot row by row.
    SERIES = (
        "chip.commands",
        "chip.sim_seconds",
        "profiler.iterations",
        "profiler.new_cells",
        "profiler.new_cells_per_iteration",
        "span.profiler.run",
    )

    @staticmethod
    def kernel_entries(monkeypatch):
        entered = []
        original = fleetprof.FleetProfiler._run

        def spy(self, fleet, *args, **kwargs):
            entered.append(len(fleet))
            return original(self, fleet, *args, **kwargs)

        monkeypatch.setattr(fleetprof.FleetProfiler, "_run", spy)
        return entered

    def test_kernel_runs_exactly_the_routed_inputs(self, monkeypatch, chip_factory):
        entered = self.kernel_entries(monkeypatch)
        conditions = Conditions(trefi=1.024, temperature=45.0)
        BruteForceProfiler(iterations=2, idle_between_iterations_s=5.0).run(
            chip_factory(), conditions
        )
        assert entered == [1]
        walked = [
            (BruteForceProfiler(iterations=3, stop_after_quiet_iterations=1), chip_factory()),
            (BruteForceProfiler(iterations=1), DRAMModule.build(n_chips=2, geometry=TINY_GEOMETRY)),
            (
                BruteForceProfiler(
                    patterns=(CHECKERBOARD, DataPattern("random", stochastic=True, alignment_beta=(2.0, 3.0))),
                    iterations=1,
                ),
                chip_factory(),
            ),
            (BruteForceProfiler(iterations=1), chip_factory(fast_path=False)),
        ]
        for profiler, device in walked:
            profiler.run(device, conditions)
        assert entered == [1]

    def test_telemetry_equals_the_walks(self, chip_factory):
        """Two consecutive runs on one chip, with an idle gap: the routed
        runs leave the walk's rows for every series the walk records (the
        span's count; its seconds are wall clock) and the walk's
        ``profiler.iteration`` events."""
        profiler = BruteForceProfiler(iterations=3, idle_between_iterations_s=30.0)
        seen = {}
        for route in ("run", "walk"):
            chip = chip_factory()
            with obs.capture() as layer:
                for trefi in (1.024, 2.048):
                    getattr(profiler, route)(chip, Conditions(trefi=trefi, temperature=45.0))
            rows = [row for row in layer.snapshot() if row["name"] in self.SERIES]
            seen[route] = (
                [
                    {"name": r["name"], "count": r["count"]} if r["name"].startswith("span.") else r
                    for r in rows
                ],
                [
                    {k: v for k, v in event.items() if k != "ts"}
                    for event in layer.sink.events
                    if event["event"] == "profiler.iteration"
                ],
            )
        assert {row["name"] for row in seen["walk"][0]} == set(self.SERIES)
        assert len(seen["walk"][1]) == 6
        assert seen["run"] == seen["walk"]

    def test_peak_memory_within_a_block_budget_of_the_walk(self):
        """A routed 2 Gbit, 16-iteration profile (40 k weak cells; its
        reads split into one-iteration blocks) holds at most one block
        budget more than the walk, which reads one uniform vector at a
        time and memoizes nothing.  Whole, its uniforms alone would take
        62 MB."""
        geometry = ChipGeometry.from_capacity_gigabits(2.0)
        conditions = Conditions(trefi=1.024, temperature=45.0)
        profiler = BruteForceProfiler(iterations=16)
        # Warm both routes so lazy imports and one-time tables are not
        # charged to either peak.
        for route in (profiler.run, profiler.walk):
            route(SimulatedDRAMChip(geometry=TINY_GEOMETRY, seed=7), conditions)
        peaks, profiles = {}, {}
        for name in ("run", "walk"):
            chip = SimulatedDRAMChip(geometry=geometry, seed=7)
            tracemalloc.start()
            try:
                profiles[name] = getattr(profiler, name)(chip, conditions).to_json()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert profiles["run"] == profiles["walk"]
        assert peaks["run"] <= peaks["walk"] + fleetprof._BLOCK_BUDGET_BYTES, peaks
