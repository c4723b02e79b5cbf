"""Unit tests for the PID controller, thermal chamber, and testbed."""

import numpy as np
import pytest

from repro.clock import SimClock
from repro.conditions import Conditions
from repro.core.bruteforce import BruteForceProfiler
from repro.dram.chip import SimulatedDRAMChip
from repro.dram.vendor import VENDORS
from repro.errors import ConfigurationError
from repro.infra.chamber import CHAMBER_ACCURACY_C, ThermalChamber
from repro.infra.pid import PIDController
from repro.infra.testbed import TestBed

from conftest import TINY_GEOMETRY, TEST_SEED


class TestPid:
    def test_proportional_response(self):
        pid = PIDController(kp=1.0, ki=0.0, kd=0.0, setpoint=10.0, output_limits=(-100, 100))
        assert pid.step(8.0, dt=1.0) == pytest.approx(2.0)

    def test_output_clamped(self):
        pid = PIDController(kp=10.0, ki=0.0, kd=0.0, setpoint=10.0, output_limits=(0.0, 1.0))
        assert pid.step(0.0, dt=1.0) == 1.0
        assert pid.step(20.0, dt=1.0) == 0.0

    def test_integral_accumulates(self):
        pid = PIDController(kp=0.0, ki=1.0, kd=0.0, setpoint=1.0, output_limits=(-100, 100))
        first = pid.step(0.0, dt=1.0)
        second = pid.step(0.0, dt=1.0)
        assert second > first

    def test_integral_antiwindup(self):
        pid = PIDController(kp=0.0, ki=1.0, kd=0.0, setpoint=100.0, output_limits=(0.0, 1.0))
        for _ in range(50):
            pid.step(0.0, dt=1.0)
        # After returning to setpoint the output should not stay pinned by a
        # wound-up integral.
        assert pid.step(100.0, dt=1.0) <= 1.0

    def test_derivative_damps(self):
        pid = PIDController(kp=0.0, ki=0.0, kd=1.0, setpoint=0.0, output_limits=(-100, 100))
        pid.step(0.0, dt=1.0)
        assert pid.step(-1.0, dt=1.0) == pytest.approx(1.0)

    def test_reset_clears_state(self):
        pid = PIDController(kp=0.0, ki=1.0, kd=0.0, setpoint=1.0, output_limits=(-100, 100))
        pid.step(0.0, dt=1.0)
        pid.reset(setpoint=5.0)
        assert pid.setpoint == 5.0
        assert pid.step(5.0, dt=1.0) == pytest.approx(0.0)

    def test_bad_limits_rejected(self):
        with pytest.raises(ConfigurationError):
            PIDController(kp=1.0, ki=0.0, kd=0.0, setpoint=0.0, output_limits=(1.0, 0.0))

    def test_bad_dt_rejected(self):
        pid = PIDController(kp=1.0, ki=0.0, kd=0.0, setpoint=0.0)
        with pytest.raises(ConfigurationError):
            pid.step(0.0, dt=0.0)


class TestChamber:
    def test_settles_within_spec(self):
        """Section 4: the chamber holds ambient to within 0.25 degC."""
        chamber = ThermalChamber()
        chamber.set_target(50.0)
        chamber.settle()
        errors = []
        for _ in range(120):
            chamber.step()
            errors.append(abs(chamber.ambient_c - 50.0))
        assert sum(e <= CHAMBER_ACCURACY_C for e in errors) / len(errors) > 0.9

    def test_dram_runs_15c_above_ambient(self):
        chamber = ThermalChamber()
        assert chamber.dram_temperature_c == pytest.approx(chamber.ambient_c + 15.0)

    def test_target_outside_range_rejected(self):
        chamber = ThermalChamber()
        with pytest.raises(ConfigurationError):
            chamber.set_target(80.0)
        with pytest.raises(ConfigurationError):
            chamber.set_target(20.0)

    def test_settling_advances_clock(self):
        chamber = ThermalChamber()
        chamber.set_target(47.0)
        elapsed = chamber.settle()
        assert elapsed > 0.0
        assert chamber.clock.now >= elapsed

    def test_retarget_and_resettle(self):
        chamber = ThermalChamber()
        chamber.set_target(45.0)
        chamber.settle()
        chamber.set_target(55.0)
        chamber.settle()
        assert chamber.ambient_c == pytest.approx(55.0, abs=0.5)


class TestTestBedBehaviour:
    def test_build_populates_all_vendors(self):
        bed = TestBed.build(chips_per_vendor=1, geometry=TINY_GEOMETRY)
        assert len(bed.chips) == 3
        assert set(bed.chips_by_vendor()) == {"A", "B", "C"}

    def test_set_ambient_propagates_to_chips(self):
        bed = TestBed.build(chips_per_vendor=1, geometry=TINY_GEOMETRY)
        bed.set_ambient(50.0)
        for chip in bed.chips:
            assert chip.temperature_c == pytest.approx(50.0, abs=0.6)

    def test_chips_see_slightly_different_temperatures(self):
        """Placement offsets: the physical noise behind imperfect contours."""
        bed = TestBed.build(chips_per_vendor=2, geometry=TINY_GEOMETRY)
        bed.set_ambient(45.0)
        temps = [chip.temperature_c for chip in bed.chips]
        assert len(set(round(t, 3) for t in temps)) > 1

    def test_build_chip_sees_its_campaign_twin_temperature(self):
        """A full bed and a campaign unit's one-chip bed place a chip alike."""
        bed = TestBed.build(chips_per_vendor=2, geometry=TINY_GEOMETRY, seed=368)
        bed.set_ambient(45.0)
        for chip in bed.chips:
            alone = TestBed.build_members(
                [(chip.chip_id, VENDORS[chip.vendor.name])], geometry=TINY_GEOMETRY, seed=368
            )
            alone.set_ambient(45.0)
            assert alone.chips[0].temperature_c == chip.temperature_c

    def test_racked_chips_equal_standalone_chips(self):
        """A bed racks its chips together (``SimulatedDRAMChip.rack``);
        each equals the chip the constructor builds alone, deriving its
        own streams: vendor jitter, population, DPD layout and every
        stream's state."""
        members = [(chip_id, VENDORS["ABC"[chip_id % 3]]) for chip_id in range(7)]
        bed = TestBed.build_members(members, geometry=TINY_GEOMETRY, seed=TEST_SEED, max_trefi_s=2.2)
        for (chip_id, vendor), racked in zip(members, bed.chips):
            alone = SimulatedDRAMChip(
                vendor=vendor, geometry=TINY_GEOMETRY, seed=TEST_SEED, chip_id=chip_id,
                clock=SimClock(), max_trefi_s=2.2,
            )
            assert racked.vendor == alone.vendor
            for name in ("indices", "mu_wc_s", "sigma_s", "vrt_flag"):
                got, want = getattr(racked.population, name), getattr(alone.population, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            for name in ("_susceptibility", "_rows", "_cols", "_orientation"):
                got = getattr(racked.population.dpd, name)
                want = getattr(alone.population.dpd, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            for stream in (
                lambda chip: chip.population.dpd._rng,
                lambda chip: chip.vrt._rng,
                lambda chip: chip.read_rng,
            ):
                assert stream(racked).bit_generator.state == stream(alone).bit_generator.state
            assert racked.pattern_io_seconds == alone.pattern_io_seconds

    def test_foreign_clock_chip_rejected(self):
        bed = TestBed.build(chips_per_vendor=1, geometry=TINY_GEOMETRY)
        foreign = SimulatedDRAMChip(geometry=TINY_GEOMETRY, clock=SimClock())
        with pytest.raises(ConfigurationError):
            bed.add_chip(foreign)

    def test_profile_all_returns_per_chip_profiles(self):
        bed = TestBed.build(chips_per_vendor=1, geometry=TINY_GEOMETRY, seed=TEST_SEED)
        profiles = bed.profile_all(
            BruteForceProfiler(iterations=1), Conditions(trefi=1.024, temperature=45.0)
        )
        assert len(profiles) == 3
        for profile in profiles.values():
            assert profile.iterations == 1
