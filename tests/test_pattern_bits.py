"""Consistency tests between pattern data generation and stress bits."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import rng as rng_mod
from repro.dram.dpd import DPDModel
from repro.errors import ConfigurationError
from repro.patterns import (
    CHECKERBOARD,
    COLUMN_STRIPE,
    RANDOM,
    ROW_STRIPE,
    SOLID_ZERO,
    WALKING_ONE,
)

DETERMINISTIC = (
    SOLID_ZERO,
    SOLID_ZERO.inverse,
    CHECKERBOARD,
    CHECKERBOARD.inverse,
    ROW_STRIPE,
    COLUMN_STRIPE,
    WALKING_ONE,
    WALKING_ONE.inverse,
)


class TestBitsAtConsistency:
    """bits_at must agree with fill_row at every position."""

    @given(
        st.sampled_from(DETERMINISTIC),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=120)
    def test_matches_fill_row(self, pattern, row, col):
        bits_per_row = 64
        from_fill = pattern.fill_row(row, bits_per_row)[col]
        from_bits = pattern.bits_at(
            np.array([row]), np.array([col]), bits_per_row
        )[0]
        assert from_fill == from_bits

    def test_vectorized_shape(self):
        rows = np.arange(100)
        cols = np.arange(100) % 16
        bits = CHECKERBOARD.bits_at(rows, cols, 16)
        assert bits.shape == (100,)
        assert set(np.unique(bits)) <= {0, 1}

    def test_random_requires_rng(self):
        with pytest.raises(ConfigurationError):
            RANDOM.bits_at(np.array([0]), np.array([0]), 16)

    def test_inverse_flips_bits(self):
        rows = np.arange(64)
        cols = np.arange(64) % 32
        assert np.array_equal(
            CHECKERBOARD.bits_at(rows, cols, 32),
            1 - CHECKERBOARD.inverse.bits_at(rows, cols, 32),
        )


class TestOrientationStress:
    def make_model(self, orientation):
        n = len(orientation)
        rng = rng_mod.derive(4, "stress-test")
        return DPDModel(
            susceptibility=np.full(n, 0.1),
            rng=rng,
            random_alignment_cap=0.97,
            rows=np.zeros(n, dtype=np.int64),
            cols=np.arange(n, dtype=np.int64),
            orientation=np.asarray(orientation, dtype=np.uint8),
            bits_per_row=max(n, 8),
        )

    def test_solid_stresses_anti_cells_only(self):
        """Solid 0s charge only the cells whose charged value is 0."""
        model = self.make_model([0, 1, 0, 1])
        mask = model.stress_mask(SOLID_ZERO)
        assert list(mask) == [1.0, 0.0, 1.0, 0.0]

    def test_inverse_pattern_complements_stress(self):
        model = self.make_model([0, 1, 0, 1, 1, 0])
        direct = model.stress_mask(SOLID_ZERO)
        inverse = model.stress_mask(SOLID_ZERO.inverse)
        assert np.array_equal(direct + inverse, np.ones(6))

    def test_pair_covers_every_cell(self):
        """Every cell is stressed by a pattern or its inverse (Section 3.2)."""
        rng = rng_mod.derive(9, "orientation")
        orientation = rng.integers(0, 2, size=200)
        model = self.make_model(orientation)
        for pattern in (SOLID_ZERO, CHECKERBOARD, ROW_STRIPE, COLUMN_STRIPE):
            union = model.stress_mask(pattern) + model.stress_mask(pattern.inverse)
            assert np.array_equal(union, np.ones(200))

    def test_random_stress_redraws_per_write(self):
        model = self.make_model([0, 1] * 50)
        first = model.excite(RANDOM)[1].copy()
        second = model.excite(RANDOM)[1]
        assert not np.array_equal(first, second)

    def test_no_orientation_means_always_stressed(self):
        model = DPDModel(
            susceptibility=np.full(4, 0.1),
            rng=rng_mod.derive(1, "x"),
            random_alignment_cap=0.9,
        )
        assert np.array_equal(model.stress_mask(SOLID_ZERO), np.ones(4))
        assert not model.models_orientation

    def test_partial_position_info_rejected(self):
        with pytest.raises(ConfigurationError):
            DPDModel(
                susceptibility=np.full(4, 0.1),
                rng=rng_mod.derive(1, "x"),
                random_alignment_cap=0.9,
                rows=np.zeros(4, dtype=np.int64),
            )
