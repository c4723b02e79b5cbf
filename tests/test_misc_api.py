"""Coverage of small public APIs not exercised elsewhere."""

import pytest

from repro.clock import SimClock
from repro.conditions import Conditions, ReachDelta
from repro.dram.chip import SimulatedDRAMChip
from repro.dram.module import DRAMModule
from repro.dram.vendor import VENDOR_B
from repro.errors import ConfigurationError
from repro.infra import TestBed
from repro.infra.chamber import ThermalChamber

from conftest import TINY_GEOMETRY, TEST_SEED


class TestConditionsOrdering:
    def test_ordering_by_interval_first(self):
        assert Conditions(0.5, 55.0) < Conditions(1.0, 40.0)

    def test_ordering_by_temperature_second(self):
        assert Conditions(1.0, 45.0) < Conditions(1.0, 50.0)

    def test_sortable(self):
        points = [Conditions(1.0, 50.0), Conditions(0.5, 45.0), Conditions(1.0, 45.0)]
        ordered = sorted(points)
        assert ordered[0].trefi == 0.5
        assert ordered[-1].temperature == 50.0


class TestModuleProperties:
    def test_max_trefi_is_min_across_chips(self):
        clock = SimClock()
        chips = [
            SimulatedDRAMChip(
                geometry=TINY_GEOMETRY, seed=TEST_SEED, chip_id=i,
                clock=clock, max_trefi_s=max_t,
            )
            for i, max_t in enumerate((2.6, 1.5))
        ]
        module = DRAMModule(chips)
        assert module.max_trefi_s == pytest.approx(1.5)

    def test_temperature_reads_first_chip(self):
        module = DRAMModule.build(n_chips=2, geometry=TINY_GEOMETRY, seed=TEST_SEED)
        module.set_temperature(50.0)
        assert module.temperature_c == pytest.approx(50.0)

    def test_repr_mentions_capacity(self):
        module = DRAMModule.build(n_chips=2, geometry=TINY_GEOMETRY, seed=TEST_SEED)
        assert "chips=2" in repr(module)


class TestChipIntrospection:
    def test_repr(self, chip):
        text = repr(chip)
        assert "vendor=B" in text

    def test_refresh_enabled_flag_tracks_state(self, chip):
        assert chip.refresh_enabled
        chip.disable_refresh()
        assert not chip.refresh_enabled
        chip.enable_refresh()
        assert chip.refresh_enabled

    def test_sync_is_idempotent(self, chip):
        chip.clock.advance(100.0)
        chip.sync()
        count = chip.vrt.episode_count
        chip.sync()
        assert chip.vrt.episode_count == count


class TestVendorHelpers:
    def test_expected_failures_scales_with_bits(self):
        conditions = Conditions(trefi=1.024, temperature=45.0)
        one = VENDOR_B.expected_failures(conditions, 1 << 30)
        four = VENDOR_B.expected_failures(conditions, 4 << 30)
        assert four == pytest.approx(4 * one)

    def test_retention_temp_coeff_positive_small(self):
        assert 0.0 < VENDOR_B.retention_temp_coeff < 0.2


class TestInfraConstruction:
    def test_testbed_rejects_foreign_chamber_clock(self):
        chamber = ThermalChamber(clock=SimClock())
        with pytest.raises(ConfigurationError):
            TestBed(chamber=chamber, clock=SimClock())

    def test_chamber_custom_step(self):
        chamber = ThermalChamber()
        t0 = chamber.clock.now
        chamber.step(dt_s=2.5)
        assert chamber.clock.now - t0 == pytest.approx(2.5)

    def test_chamber_bad_period_rejected(self):
        with pytest.raises(ConfigurationError):
            ThermalChamber(control_period_s=0.0)


class TestReachDeltaStr:
    def test_renders_both_axes(self):
        text = str(ReachDelta(delta_trefi=0.25, delta_temperature=5.0))
        assert "250" in text and "5.0" in text
