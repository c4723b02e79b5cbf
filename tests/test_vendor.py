"""Unit tests for the vendor retention models, including paper anchors."""

import dataclasses
import math

import pytest

from repro.conditions import Conditions
from repro.dram.vendor import VENDOR_A, VENDOR_B, VENDOR_C, VENDORS, VendorModel, vendor_by_name
from repro.errors import ConfigurationError


class TestJitteredCopy:
    @pytest.mark.parametrize("vendor", [VENDOR_A, VENDOR_B, VENDOR_C], ids=lambda v: v.name)
    def test_equals_dataclasses_replace(self, vendor):
        value = vendor.retention_ln_median + 0.0731
        copy = vendor.with_retention_ln_median(value)
        replaced = dataclasses.replace(vendor, retention_ln_median=value)
        assert copy == replaced and type(copy) is type(replaced)
        assert copy.retention_temp_coeff == replaced.retention_temp_coeff
        assert vendor.retention_ln_median != value  # the original is untouched


class TestRegistry:
    def test_three_vendors(self):
        assert sorted(VENDORS) == ["A", "B", "C"]

    def test_lookup_by_name(self):
        assert vendor_by_name("B") is VENDOR_B

    def test_unknown_vendor_rejected(self):
        with pytest.raises(ConfigurationError):
            vendor_by_name("Z")


class TestEq1TemperatureCoefficients:
    """Eq 1 of the paper: R_A ~ e^{0.22dT}, R_B ~ e^{0.20dT}, R_C ~ e^{0.26dT}."""

    def test_vendor_coefficients(self):
        assert VENDOR_A.failure_rate_temp_coeff == pytest.approx(0.22)
        assert VENDOR_B.failure_rate_temp_coeff == pytest.approx(0.20)
        assert VENDOR_C.failure_rate_temp_coeff == pytest.approx(0.26)

    def test_failure_rate_scale_is_exponential(self):
        assert VENDOR_B.failure_rate_scale(10.0) == pytest.approx(math.exp(2.0))

    @pytest.mark.parametrize("vendor", list(VENDORS.values()), ids=lambda v: v.name)
    def test_ber_scales_close_to_eq1_near_anchor(self, vendor):
        """+10 degC multiplies the failure rate by ~e^{10k} near ~1 s."""
        base = vendor.ber(Conditions(trefi=1.024, temperature=45.0))
        hot = vendor.ber(Conditions(trefi=1.024, temperature=55.0))
        expected = vendor.failure_rate_scale(10.0)
        assert hot / base == pytest.approx(expected, rel=0.35)

    def test_roughly_10x_per_10_degrees(self):
        """Section 5.1: ~10x failures per +10 degC."""
        base = VENDOR_B.ber(Conditions(trefi=1.024, temperature=45.0))
        hot = VENDOR_B.ber(Conditions(trefi=1.024, temperature=55.0))
        assert 3.0 < hot / base < 30.0


class TestBerModel:
    def test_ber_increases_with_interval(self):
        lo = VENDOR_B.ber(Conditions(trefi=0.512))
        hi = VENDOR_B.ber(Conditions(trefi=2.048))
        assert hi > lo

    def test_ber_increases_with_temperature(self):
        cool = VENDOR_B.ber(Conditions(trefi=1.024, temperature=40.0))
        hot = VENDOR_B.ber(Conditions(trefi=1.024, temperature=50.0))
        assert hot > cool

    def test_ber_negligible_at_jedec_default(self):
        """Essentially no cells fail at the 64 ms JEDEC interval."""
        assert VENDOR_B.ber(Conditions(trefi=0.064)) < 1e-10

    def test_paper_anchor_2464_failures_at_1024ms_2gb(self):
        """Section 6.2.3: ~2464 failures in a 2 GB device at 1024 ms / 45 degC."""
        expected = VENDOR_B.expected_failures(Conditions(trefi=1.024), 16 * (1 << 30))
        assert expected == pytest.approx(2464, rel=0.15)

    def test_fpr_headroom_at_plus_250ms(self):
        """Section 6.1.2: +250 ms reach keeps FPR below ~50%.

        The model-level equivalent: the BER at target+250ms is less than 2x
        the BER at the target, so at most half the reach failures are new.
        """
        base = VENDOR_B.ber(Conditions(trefi=1.024))
        reach = VENDOR_B.ber(Conditions(trefi=1.274))
        assert reach / base < 2.0

    def test_weak_cell_probability_matches_ber(self):
        assert VENDOR_B.weak_cell_probability(1.024, 45.0) == pytest.approx(
            VENDOR_B.ber(Conditions(trefi=1.024, temperature=45.0))
        )


class TestVrtAccumulation:
    def test_anchor_0_73_per_hour_at_1024ms(self):
        """Section 6.2.3: A = 0.73 cells/hour at 1024 ms on a 16 Gbit device."""
        rate = VENDOR_B.vrt_arrival_rate_per_hour(1.024, 16.0, 45.0)
        assert rate == pytest.approx(0.73, rel=0.05)

    def test_anchor_one_cell_per_20s_at_2048ms(self):
        """Figure 3: ~1 new cell / 20 s at 2048 ms on a 16 Gbit device."""
        rate = VENDOR_B.vrt_arrival_rate_per_hour(2.048, 16.0, 45.0)
        assert 3600.0 / rate == pytest.approx(20.0, rel=0.10)

    def test_rate_is_power_law_in_interval(self):
        r1 = VENDOR_B.vrt_arrival_rate_per_hour(1.0, 16.0)
        r2 = VENDOR_B.vrt_arrival_rate_per_hour(2.0, 16.0)
        assert r2 / r1 == pytest.approx(2.0**VENDOR_B.vrt_arrival_exponent)

    def test_rate_scales_linearly_with_capacity(self):
        r1 = VENDOR_B.vrt_arrival_rate_per_hour(1.024, 1.0)
        r16 = VENDOR_B.vrt_arrival_rate_per_hour(1.024, 16.0)
        assert r16 / r1 == pytest.approx(16.0)

    def test_rate_scales_with_temperature(self):
        cool = VENDOR_B.vrt_arrival_rate_per_hour(1.024, 16.0, 45.0)
        hot = VENDOR_B.vrt_arrival_rate_per_hour(1.024, 16.0, 55.0)
        assert hot / cool == pytest.approx(math.exp(2.0))

    def test_zero_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            VENDOR_B.vrt_arrival_rate_per_hour(0.0, 16.0)


class TestValidation:
    def test_bad_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            VendorModel(
                name="X",
                failure_rate_temp_coeff=0.2,
                retention_ln_median=9.0,
                retention_ln_sigma=0.0,
                cell_sigma_ln_median_s=0.06,
                cell_sigma_ln_sigma=0.6,
                vrt_arrival_scale_per_gbit_hour=0.04,
                vrt_arrival_exponent=8.0,
            )

    def test_bad_random_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            VendorModel(
                name="X",
                failure_rate_temp_coeff=0.2,
                retention_ln_median=9.0,
                retention_ln_sigma=1.8,
                cell_sigma_ln_median_s=0.06,
                cell_sigma_ln_sigma=0.6,
                vrt_arrival_scale_per_gbit_hour=0.04,
                vrt_arrival_exponent=8.0,
                random_alignment_cap=1.0,
            )

    def test_retention_scale_at_reference_is_one(self):
        assert VENDOR_B.retention_scale(45.0) == pytest.approx(1.0)

    def test_retention_scale_shrinks_when_hot(self):
        assert VENDOR_B.retention_scale(55.0) < 1.0
        assert VENDOR_B.retention_scale(35.0) > 1.0
