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
from repro.dram.vendor import VENDOR_B, VENDORS
from repro.errors import ProfilingError
from repro.patterns import STANDARD_PATTERNS
from repro.runner import (
    RunnerEngine,
    build_chip_units,
    campaign_fingerprint,
    measure_chip,
)

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


def write_per_chip_run_dir(
    campaign, run_dir, intervals_s, temperatures_c, resume=False
) -> None:
    """Write ``run_dir`` the way the per-chip walk did: every chip of
    ``campaign`` measured by ``measure_chip`` through a plain
    :class:`RunnerEngine` run, under the campaign's fingerprint.  With
    ``resume`` only the chips the directory lacks are measured."""
    grid = dict(
        chips_per_vendor=campaign.chips_per_vendor,
        geometry=campaign.geometry,
        iterations=campaign.iterations,
        seed=campaign.seed,
        intervals_s=intervals_s,
        temperatures_c=temperatures_c,
    )
    manifest = {"fingerprint": campaign_fingerprint(vendor_names=tuple(VENDORS), **grid)}
    RunnerEngine(run_dir=str(run_dir), resume=resume).run(
        measure_chip, build_chip_units(**grid), manifest
    )


def per_chip_summary(campaign, run_dir, intervals_s, temperatures_c):
    """``campaign``'s summary built from per-chip reference rows only: a
    run dir written by :func:`write_per_chip_run_dir`, resumed by
    ``campaign.run``, which finds every chip stored and measures none."""
    write_per_chip_run_dir(campaign, run_dir, intervals_s, temperatures_c)
    executed = []
    summary = campaign.run(
        intervals_s=intervals_s,
        temperatures_c=temperatures_c,
        run_dir=str(run_dir),
        resume=True,
        progress=lambda result, tracker: executed.append(result.unit_id),
    )
    assert not executed
    return summary
