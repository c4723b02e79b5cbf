"""Unit tests for the data-pattern-dependence model."""

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.dram.dpd import DPDModel
from repro.errors import ConfigurationError, ProfilingError
from repro.patterns import CHECKERBOARD, RANDOM, SOLID_ZERO


def make_model(n_cells=500, cap=0.97, seed=3):
    rng = rng_mod.derive(seed, "dpd-test")
    susceptibility = rng.uniform(0.0, 0.3, size=n_cells)
    return DPDModel(susceptibility, rng_mod.derive(seed, "dpd-align"), cap)


class TestAlignment:
    def test_alignment_in_unit_interval(self):
        model = make_model()
        a = model.excite(CHECKERBOARD)[0]
        assert np.all(a >= 0.0) and np.all(a <= 1.0)

    def test_deterministic_pattern_alignment_cached(self):
        model = make_model()
        a1 = model.excite(CHECKERBOARD)[0]
        a2 = model.alignment(CHECKERBOARD)
        assert np.array_equal(a1, a2)

    def test_deterministic_pattern_stable_across_writes(self):
        model = make_model()
        a1 = model.excite(CHECKERBOARD)[0]
        a2 = model.excite(CHECKERBOARD)[0]
        assert np.array_equal(a1, a2)

    def test_inverse_pattern_has_own_alignment(self):
        model = make_model()
        a = model.excite(CHECKERBOARD)[0]
        inv = model.excite(CHECKERBOARD.inverse)[0]
        assert not np.array_equal(a, inv)

    def test_random_pattern_redraws_on_fresh(self):
        model = make_model()
        a1 = model.excite(RANDOM)[0].copy()
        a2 = model.excite(RANDOM)[0]
        assert not np.array_equal(a1, a2)

    def test_random_pattern_stable_without_fresh(self):
        model = make_model()
        a1 = model.excite(RANDOM)[0]
        a2 = model.alignment(RANDOM)
        assert np.array_equal(a1, a2)

    def test_random_alignment_capped(self):
        model = make_model(cap=0.8)
        for _ in range(5):
            a = model.excite(RANDOM)[0]
            assert np.all(a <= 0.8)

    def test_deterministic_patterns_can_exceed_random_cap(self):
        model = make_model(n_cells=20000, cap=0.5)
        a = model.excite(SOLID_ZERO)[0]
        assert np.any(a > 0.5)


class TestQueryPurity:
    """Read-only DPD queries must not draw RNG state (the determinism bug)."""

    def test_unwritten_alignment_query_raises(self):
        model = make_model()
        with pytest.raises(ProfilingError):
            model.alignment(CHECKERBOARD)

    def test_unwritten_stochastic_query_raises(self):
        model = make_model()
        with pytest.raises(ProfilingError):
            model.alignment(RANDOM)

    def test_failed_query_does_not_perturb_rng_stream(self):
        """Inspecting an unwritten pattern leaves future draws unchanged."""
        pristine = make_model()
        inspected = make_model()
        with pytest.raises(ProfilingError):
            inspected.alignment(CHECKERBOARD)
        with pytest.raises(ProfilingError):
            inspected.alignment(RANDOM)
        a1 = pristine.excite(RANDOM)[0]
        a2 = inspected.excite(RANDOM)[0]
        assert np.array_equal(a1, a2)

    def test_queries_of_written_patterns_leave_the_stream_unchanged(self):
        """alignment()/stress_mask() of written patterns read, never draw."""
        n_cells = 256
        rng = rng_mod.derive(5, "dpd-align")
        model = DPDModel(
            rng_mod.derive(5, "dpd-test").uniform(0.0, 0.3, size=n_cells),
            rng,
            0.97,
            rows=np.arange(n_cells) // 32,
            cols=np.arange(n_cells) % 32,
            orientation=rng_mod.derive(5, "orientation").integers(0, 2, size=n_cells),
            bits_per_row=32,
        )
        written = {pattern: model.excite(pattern) for pattern in (RANDOM, CHECKERBOARD)}
        state = rng.bit_generator.state
        for pattern, (alignment, stress) in written.items():
            assert model.alignment(pattern) is alignment
            assert model.stress_mask(pattern) is stress
        assert rng.bit_generator.state == state

    def test_reset_replays_construction_draws(self):
        model = make_model(seed=9)
        first = model.excite(RANDOM)[0].copy()
        model.excite(RANDOM)  # advance the stream
        model.reset(rng_mod.derive(9, "dpd-align"))
        with pytest.raises(ProfilingError):
            model.alignment(RANDOM)  # caches were dropped
        assert np.array_equal(model.excite(RANDOM)[0], first)


class TestEffectiveRetention:
    def test_full_alignment_recovers_worst_case(self):
        model = make_model()
        mu = np.full(500, 2.0)
        out = model.effective_retention(mu, np.ones(500))
        assert np.allclose(out, mu)

    def test_zero_alignment_gives_benign_case(self):
        model = make_model()
        mu = np.full(500, 2.0)
        out = model.effective_retention(mu, np.zeros(500))
        expected = mu / (1.0 - model.susceptibility)
        assert np.allclose(out, expected)
        assert np.all(out >= mu)

    def test_monotone_in_alignment(self):
        """Higher alignment (more adversarial data) means shorter retention."""
        model = make_model()
        mu = np.full(500, 2.0)
        weak = model.effective_retention(mu, np.full(500, 0.9))
        mild = model.effective_retention(mu, np.full(500, 0.1))
        assert np.all(weak <= mild)


class TestValidation:
    def test_bad_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            make_model(cap=1.5)

    def test_bad_susceptibility_rejected(self):
        rng = rng_mod.derive(1, "x")
        with pytest.raises(ConfigurationError):
            DPDModel(np.array([1.0]), rng, 0.9)

    def test_n_cells(self):
        assert make_model(n_cells=42).n_cells == 42
