"""Tests for temperature-based reach profiling via the thermal chamber."""

import pytest

from repro.conditions import Conditions
from repro.core.bruteforce import BruteForceProfiler
from repro.core.metrics import coverage
from repro.errors import ConfigurationError
from repro.infra import TestBed
from repro.infra.thermal_profiling import profile_with_thermal_reach

from conftest import TINY_GEOMETRY, TEST_SEED

TARGET = Conditions(trefi=1.024, temperature=45.0)


def make_bed():
    bed = TestBed.build(chips_per_vendor=1, geometry=TINY_GEOMETRY, seed=TEST_SEED)
    bed.set_ambient(45.0)
    return bed


class TestThermalReach:
    @pytest.fixture(scope="class")
    def report(self):
        return profile_with_thermal_reach(
            make_bed(), TARGET, delta_temperature_c=8.0, iterations=3
        )

    def test_profiles_for_every_chip(self, report):
        assert len(report.profiles) == 3
        for profile in report.profiles.values():
            assert profile.mechanism == "reach-thermal"
            assert profile.target_conditions == TARGET
            assert profile.profiling_conditions.temperature > 50.0

    def test_chamber_restored_afterwards(self):
        bed = make_bed()
        profile_with_thermal_reach(bed, TARGET, delta_temperature_c=8.0, iterations=1)
        assert bed.chamber.setpoint_c == pytest.approx(45.0)
        assert bed.chamber.ambient_c == pytest.approx(45.0, abs=0.5)

    def test_thermal_transitions_cost_time(self, report):
        assert report.heat_up_seconds > 0.0
        assert report.cool_down_seconds > 0.0
        assert 0.0 < report.thermal_overhead_fraction < 1.0

    def test_thermal_reach_achieves_high_coverage(self):
        """The Figure-8 equivalence operationally: heat beats extra wait."""
        bed = make_bed()
        chip = bed.chips_by_vendor()["B"][0]
        truth = BruteForceProfiler(iterations=16).run(chip, TARGET)
        fresh = make_bed()
        report = profile_with_thermal_reach(
            fresh, TARGET, delta_temperature_c=8.0, iterations=5
        )
        hot_profile = report.profiles[fresh.chips_by_vendor()["B"][0].chip_id]
        assert coverage(hot_profile.failing, truth.failing) > 0.97

    def test_zero_delta_rejected(self):
        with pytest.raises(ConfigurationError):
            profile_with_thermal_reach(make_bed(), TARGET, delta_temperature_c=0.0)

    def test_empty_bed_rejected(self):
        with pytest.raises(ConfigurationError):
            profile_with_thermal_reach(TestBed(), TARGET, delta_temperature_c=5.0)