"""Shared fixtures: small, fast chips for unit testing.

A 1/16 Gbit chip carries a weak tail of a few hundred cells -- large enough
for statistically meaningful profiling assertions, small enough that the
whole suite stays fast.
"""

from __future__ import annotations

import pytest

from repro.clock import SimClock
from repro.conditions import Conditions
from repro.dram.chip import SimulatedDRAMChip
from repro.dram.geometry import ChipGeometry
from repro.dram.vendor import VENDOR_B
from repro.errors import ProfilingError
from repro.patterns import STANDARD_PATTERNS

TINY_GEOMETRY = ChipGeometry.from_capacity_gigabits(1.0 / 16.0)
TEST_SEED = 1234


@pytest.fixture
def tiny_geometry() -> ChipGeometry:
    return TINY_GEOMETRY


@pytest.fixture
def chip() -> SimulatedDRAMChip:
    """A small vendor-B chip with its own clock."""
    return SimulatedDRAMChip(geometry=TINY_GEOMETRY, seed=TEST_SEED)


@pytest.fixture
def chip_factory():
    """Factory for statistically identical small chips."""

    def build(chip_id: int = 0, **kwargs) -> SimulatedDRAMChip:
        kwargs.setdefault("geometry", TINY_GEOMETRY)
        kwargs.setdefault("seed", TEST_SEED)
        kwargs.setdefault("vendor", VENDOR_B)
        return SimulatedDRAMChip(chip_id=chip_id, **kwargs)

    return build


@pytest.fixture
def target_conditions() -> Conditions:
    return Conditions(trefi=1.024, temperature=45.0)


def dpd_end_state(chip: SimulatedDRAMChip) -> tuple:
    """A chip's DPD state as comparable bytes: the DPD generator state,
    every written pattern's committed alignment (and, for stochastic
    patterns, stress mask), and the last write's arrays the chip holds."""
    dpd = chip.population.dpd
    committed = []
    for pattern in STANDARD_PATTERNS:
        try:
            alignment = dpd.alignment(pattern).tobytes()
        except ProfilingError:  # never written to this chip
            continue
        stress = dpd.stress_mask(pattern).tobytes() if pattern.stochastic else None
        committed.append((pattern.key, alignment, stress))
    last = None
    if chip._pattern is not None:
        last = (chip._pattern.key, chip._alignment.tobytes(), chip._stressed.tobytes())
    return dpd._rng.bit_generator.state, tuple(committed), last
