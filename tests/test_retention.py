"""Unit tests for weak-tail retention sampling."""

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.dram import retention
from repro.dram.retention import RetentionSampler, WeakCellSample
from repro.dram.vendor import VENDOR_B
from repro.errors import ConfigurationError

GBIT = 1 << 30


def make_sample(capacity_bits=GBIT, horizon=4.0, seed=7):
    sampler = RetentionSampler(VENDOR_B, rng_mod.derive(seed, "retention-test"))
    return sampler.sample(capacity_bits, horizon)


class TestSampling:
    def test_count_matches_expected_tail(self):
        sample = make_sample()
        expected = GBIT * VENDOR_B.weak_cell_probability(4.0, 45.0)
        assert len(sample) == pytest.approx(expected, rel=0.1)

    def test_all_retention_below_horizon(self):
        sample = make_sample()
        assert np.all(sample.mu_wc_s <= 4.0)
        assert np.all(sample.mu_wc_s > 0.0)

    def test_indices_sorted_unique_in_range(self):
        sample = make_sample()
        assert np.all(np.diff(sample.indices) > 0)
        assert sample.indices[0] >= 0
        assert sample.indices[-1] < GBIT

    def test_sigma_positive_and_bounded(self):
        sample = make_sample()
        assert np.all(sample.sigma_s > 0.0)
        assert np.all(sample.sigma_s <= sample.mu_wc_s / 4.0 + 1e-12)

    def test_susceptibility_in_range(self):
        sample = make_sample()
        assert np.all(sample.susceptibility >= 0.0)
        assert np.all(sample.susceptibility < VENDOR_B.dpd_susceptibility_max)

    def test_vrt_fraction_near_configured(self):
        sample = make_sample()
        assert sample.vrt_flag.mean() == pytest.approx(VENDOR_B.vrt_cell_fraction, abs=0.01)

    def test_deterministic_given_rng(self):
        a = make_sample(seed=11)
        b = make_sample(seed=11)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.mu_wc_s, b.mu_wc_s)

    def test_different_seed_different_sample(self):
        a = make_sample(seed=11)
        b = make_sample(seed=12)
        assert not np.array_equal(a.indices, b.indices)

    def test_larger_horizon_more_cells(self):
        small = make_sample(horizon=2.0)
        large = make_sample(horizon=6.0)
        assert len(large) > len(small)

    def test_dedupe_matches_np_unique_on_repeated_addresses(self, monkeypatch):
        """A capacity this small makes the address draw repeat, so the
        dedupe shapes every field; each must equal the np.unique version."""
        drawn = []

        def record(dedupe):
            def wrapped(values):
                drawn.append(len(values))
                return dedupe(values)

            return wrapped

        monkeypatch.setattr(retention, "_sorted_unique", record(retention._sorted_unique))
        sample = make_sample(capacity_bits=4096, horizon=1000.0)
        monkeypatch.setattr(retention, "_sorted_unique", record(np.unique))
        reference = make_sample(capacity_bits=4096, horizon=1000.0)
        assert drawn[0] == drawn[1] > len(sample) > 0
        for name in ("indices", "mu_wc_s", "sigma_s", "susceptibility", "vrt_flag", "orientation"):
            got, want = getattr(sample, name), getattr(reference, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

    def test_tiny_capacity_can_be_empty(self):
        sample = make_sample(capacity_bits=1024, horizon=0.5)
        assert len(sample) == 0
        assert sample.indices.dtype == np.int64

    def test_invalid_capacity_rejected(self):
        sampler = RetentionSampler(VENDOR_B, rng_mod.derive(1, "x"))
        with pytest.raises(ConfigurationError):
            sampler.sample(0, 4.0)

    def test_invalid_horizon_rejected(self):
        sampler = RetentionSampler(VENDOR_B, rng_mod.derive(1, "x"))
        with pytest.raises(ConfigurationError):
            sampler.sample(GBIT, 0.0)

    def test_lognormal_tail_shape(self):
        """Doubling the horizon multiplies the tail mass per the lognormal CDF."""
        sample2 = make_sample(horizon=2.0)
        sample4 = make_sample(horizon=4.0)
        ratio = len(sample4) / max(len(sample2), 1)
        expected = VENDOR_B.weak_cell_probability(4.0, 45.0) / VENDOR_B.weak_cell_probability(2.0, 45.0)
        assert ratio == pytest.approx(expected, rel=0.25)


class TestWeakCellSampleValidation:
    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ConfigurationError):
            WeakCellSample(
                indices=np.arange(3),
                mu_wc_s=np.ones(2),
                sigma_s=np.ones(3),
                susceptibility=np.zeros(3),
                vrt_flag=np.zeros(3, dtype=bool),
                orientation=np.ones(3, dtype=np.uint8),
            )

    def test_len(self):
        sample = make_sample(capacity_bits=GBIT, horizon=2.0)
        assert len(sample) == len(sample.indices)
