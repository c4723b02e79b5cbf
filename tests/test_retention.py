"""Unit tests for weak-tail retention sampling."""

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.dram import retention
from repro.dram.retention import RetentionSampler, WeakCellSample, sample_many
from repro.dram.vendor import VENDOR_A, VENDOR_B, VENDOR_C
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


def reference_sample(vendor, rng, capacity_bits, horizon_s):
    """One chip's weak tail the way the sampler drew it one chip at a time,
    every step on that chip's own arrays: the reference ``sample_many``
    must reproduce bit for bit."""
    from scipy.special import ndtri

    p_tail = vendor.weak_cell_probability(horizon_s, temperature_c=45.0)
    count = int(rng.poisson(capacity_bits * p_tail))
    if count == 0:
        empty = np.empty(0, dtype=np.float64)
        return (np.empty(0, dtype=np.int64), empty, empty, empty,
                np.empty(0, dtype=bool), np.empty(0, dtype=np.uint8))
    indices = np.unique(rng.integers(0, capacity_bits, size=count, dtype=np.int64))
    count = len(indices)
    z = ndtri(rng.uniform(0.0, p_tail, size=count))
    mu_wc = np.exp(vendor.retention_ln_median + vendor.retention_ln_sigma * z)
    sigma = rng.lognormal(
        mean=np.log(vendor.cell_sigma_ln_median_s), sigma=vendor.cell_sigma_ln_sigma, size=count
    )
    sigma = np.minimum(sigma, mu_wc / 4.0)
    susceptibility = rng.uniform(0.0, vendor.dpd_susceptibility_max, size=count)
    vrt_flag = rng.random(count) < vendor.vrt_cell_fraction
    orientation = rng.integers(0, 2, size=count, dtype=np.uint8)
    order = rng.permutation(count)
    return (indices, mu_wc[order], sigma[order], susceptibility[order], vrt_flag[order],
            orientation[order])


FIELDS = ("indices", "mu_wc_s", "sigma_s", "susceptibility", "vrt_flag", "orientation")


class TestSampleMany:
    @pytest.mark.parametrize("capacity_bits", [1024, 4096, 1 << 20])
    def test_matches_the_per_chip_reference(self, capacity_bits):
        """Chips of every vendor, jittered medians, mixed horizons, empty
        tails and (at 4 Kbit) repeated addresses: each sample and each
        generator's end state equal one chip's own draw."""
        vendors = [
            vendor.with_retention_ln_median(vendor.retention_ln_median + 0.05 * k)
            for k, vendor in enumerate([VENDOR_A, VENDOR_B, VENDOR_C] * 3)
        ]
        horizons = [0.5, 2.0, 40.0] * 3
        streams = [rng_mod.derive(11, "many", k) for k in range(len(vendors))]
        samples = sample_many(vendors, streams, capacity_bits, horizons)
        for k, (vendor, horizon, sample) in enumerate(zip(vendors, horizons, samples)):
            reference = rng_mod.derive(11, "many", k)
            want = reference_sample(vendor, reference, capacity_bits, horizon)
            for name, expected in zip(FIELDS, want):
                got = getattr(sample, name)
                assert got.dtype == expected.dtype, name
                assert np.array_equal(got, expected), name
            assert streams[k].bit_generator.state == reference.bit_generator.state
        assert {len(s) == 0 for s in samples} == {True, False}

    def test_no_chips(self):
        assert sample_many([], [], GBIT, []) == []


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
