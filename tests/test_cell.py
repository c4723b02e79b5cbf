"""Unit tests for the vectorized weak-cell failure model."""

import numpy as np
import pytest
from scipy.special import ndtr

from repro import rng as rng_mod
from repro.conditions import Conditions
from repro.dram.cell import WeakCellPopulation, chernoff_hits
from repro.dram.dpd import DPDModel
from repro.dram.retention import WeakCellSample
from repro.dram.vendor import VENDOR_B
from repro.errors import ConfigurationError


def make_population(mu=(0.5, 1.0, 2.0), sigma=(0.05, 0.05, 0.05), susceptibility=(0.1, 0.1, 0.1)):
    n = len(mu)
    sample = WeakCellSample(
        indices=np.arange(n, dtype=np.int64) * 100,
        mu_wc_s=np.asarray(mu, dtype=float),
        sigma_s=np.asarray(sigma, dtype=float),
        susceptibility=np.asarray(susceptibility, dtype=float),
        vrt_flag=np.zeros(n, dtype=bool),
        orientation=np.ones(n, dtype=np.uint8),
    )
    dpd = DPDModel(sample.susceptibility, rng_mod.derive(1, "cell-test"), 0.97)
    return WeakCellPopulation(sample, VENDOR_B, dpd)


class TestFailureProbabilities:
    def test_far_below_mu_never_fails(self):
        population = make_population()
        p = population.worst_case_probabilities(0.1, 45.0)
        assert np.all(p < 1e-6)

    def test_far_above_mu_always_fails(self):
        population = make_population()
        p = population.worst_case_probabilities(2.6, 45.0)
        assert p[0] > 0.999  # mu = 0.5

    def test_at_mu_half_fails(self):
        population = make_population(mu=(1.0,), sigma=(0.1,), susceptibility=(0.0,))
        p = population.worst_case_probabilities(1.0, 45.0)
        assert p[0] == pytest.approx(0.5, abs=0.01)

    def test_probability_monotone_in_exposure(self):
        population = make_population()
        p1 = population.worst_case_probabilities(0.8, 45.0)
        p2 = population.worst_case_probabilities(1.2, 45.0)
        assert np.all(p2 >= p1)

    def test_probability_monotone_in_temperature(self):
        population = make_population()
        cool = population.worst_case_probabilities(1.0, 40.0)
        hot = population.worst_case_probabilities(1.0, 50.0)
        assert np.all(hot >= cool)

    def test_zero_exposure_zero_probability(self):
        population = make_population()
        assert np.all(population.failure_probabilities(0.0, 45.0, np.ones(3)) == 0.0)

    def test_negative_exposure_rejected(self):
        population = make_population()
        with pytest.raises(ConfigurationError):
            population.failure_probabilities(-1.0, 45.0, np.ones(3))

    def test_alignment_lowers_effective_retention(self):
        population = make_population(susceptibility=(0.25, 0.25, 0.25))
        full = population.failure_probabilities(1.0, 45.0, np.ones(3))
        none = population.failure_probabilities(1.0, 45.0, np.zeros(3))
        assert np.all(full >= none)


class TestSampling:
    def test_sample_failures_statistics(self):
        population = make_population(mu=(1.0,), sigma=(0.1,), susceptibility=(0.0,))
        rng = rng_mod.derive(2, "sample")
        hits = sum(
            len(population.sample_failures(1.0, 45.0, np.ones(1), rng)) for _ in range(400)
        )
        assert hits == pytest.approx(200, rel=0.2)

    def test_sampled_indices_belong_to_population(self):
        population = make_population()
        rng = rng_mod.derive(3, "sample")
        failed = population.sample_failures(2.5, 45.0, np.ones(3), rng)
        assert set(failed.tolist()) <= set(population.indices.tolist())


class TestOracle:
    def test_oracle_includes_weak_excludes_strong(self):
        population = make_population(mu=(0.5, 2.0, 10.0))
        failing = population.oracle_failing(Conditions(trefi=1.0), p_min=0.05)
        assert 0 in failing.tolist()       # mu=0.5 cell index 0
        assert 200 not in failing.tolist()  # mu=10 cell at index 200

    def test_oracle_pmin_bounds(self):
        population = make_population()
        with pytest.raises(ConfigurationError):
            population.oracle_failing(Conditions(trefi=1.0), p_min=0.0)

    def test_scaled_parameters_shift_with_temperature(self):
        population = make_population()
        mu45, sigma45 = population.scaled_parameters(45.0)
        mu55, sigma55 = population.scaled_parameters(55.0)
        assert np.all(mu55 < mu45)
        assert np.all(sigma55 < sigma45)

    def test_mismatched_dpd_rejected(self):
        sample = WeakCellSample(
            indices=np.arange(2, dtype=np.int64),
            mu_wc_s=np.ones(2),
            sigma_s=np.full(2, 0.1),
            susceptibility=np.zeros(2),
            vrt_flag=np.zeros(2, dtype=bool),
            orientation=np.ones(2, dtype=np.uint8),
        )
        dpd = DPDModel(np.zeros(3), rng_mod.derive(1, "x"), 0.9)
        with pytest.raises(ConfigurationError):
            WeakCellPopulation(sample, VENDOR_B, dpd)


class TestChernoffHits:
    """The cut against the brute-force compare ``u < ndtr(z) * stressed``."""

    #: z from deep underflow to saturation, with the pin, reach and
    #: Chernoff thresholds themselves.
    Z = np.concatenate([np.linspace(-45.0, 10.0, 111), [-39.0, -8.5, -0.5]])

    @staticmethod
    def uniforms_around(z):
        """Per z: exactly 0.0, the smallest nonzero uniform, one ulp under
        and over ``ndtr(z)`` and ``ndtr(z)`` itself, the same around the
        Chernoff bound, and the largest uniform."""
        p = ndtr(z)
        bound = 0.5 * np.exp(np.maximum(-0.5 * z * z, -60.0))
        columns = [np.zeros_like(z), np.full_like(z, 2.0**-53), np.full_like(z, 1.0 - 2.0**-53)]
        for edge in (p, bound):
            columns += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
        return np.stack(columns, axis=1)

    @pytest.mark.parametrize("stressed", [0.0, 1.0, None, "every third"])
    def test_matches_the_brute_force_compare(self, stressed):
        u = self.uniforms_around(self.Z)
        z = np.repeat(self.Z, u.shape[1])
        u = u.ravel()
        if stressed == "every third":
            mask = (np.arange(len(z)) % 3 == 0).astype(float)
        else:
            mask = None if stressed is None else np.full_like(z, stressed)
        want = u < (ndtr(z) if mask is None else ndtr(z) * mask)
        assert np.array_equal(chernoff_hits(z, u, mask), np.flatnonzero(want))
        # Some reads fail and some do not, so a cut that always or never
        # fires would not pass.
        assert want.any() != (stressed == 0.0) and not want.all()
