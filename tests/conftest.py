"""Shared fixtures: small, fast chips for unit testing.

A 1/16 Gbit chip carries a weak tail of a few hundred cells -- large enough
for statistically meaningful profiling assertions, small enough that the
whole suite stays fast.

Also the checks of the differential harness (``tests/test_differential.py``
draws their arguments; other modules pin named cases of them):
:func:`profile_routes` with :func:`assert_routes_agree`, and
:func:`assert_campaign_matches_reference`.
"""

from __future__ import annotations

import json
import tempfile
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Optional
from unittest import mock

import pytest

from repro import obs
from repro.conditions import Conditions
from repro.core import fleetprof
from repro.core.bruteforce import BruteForceProfiler
from repro.core.fleetprof import FleetProfiler
from repro.dram.chip import SimulatedDRAMChip
from repro.dram.fleet import ChipFleet
from repro.dram.geometry import ChipGeometry
from repro.dram.vendor import VENDOR_B, VENDORS
from repro.errors import ProfilingError
from repro.infra.testbed import TestBed
from repro.patterns import STANDARD_PATTERNS
from repro.runner import (
    ResultStore,
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


def chip_end_state(chips) -> list:
    """Everything a profiling run leaves on each chip, as comparable
    values: clock, read and VRT generator states, trace records and the
    DPD end state."""
    return [
        (
            chip.clock.now,
            chip.read_rng.bit_generator.state,
            chip.vrt._rng.bit_generator.state,
            tuple(chip.trace.records),
            dpd_end_state(chip),
        )
        for chip in chips
    ]


def measure_reference(payload) -> dict:
    """``measure_chip`` on the reference failure evaluator: the oracle
    every stored campaign row must equal."""
    return measure_chip({**payload, "fast_path": False})


def write_per_chip_run_dir(
    campaign, run_dir, intervals_s, temperatures_c, resume=False, worker=measure_chip,
    progress=None,
) -> None:
    """Write ``run_dir`` the way the per-chip walk did: every chip of
    ``campaign`` measured by ``worker`` (``measure_chip``) through a plain
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
    RunnerEngine(run_dir=str(run_dir), resume=resume, progress=progress).run(
        worker, build_chip_units(**grid), manifest
    )


def per_chip_summary(campaign, run_dir, intervals_s, temperatures_c, worker=measure_chip):
    """``campaign``'s summary built from per-chip rows only: a run dir
    written by :func:`write_per_chip_run_dir`, resumed by ``campaign.run``,
    which finds every chip stored and measures none."""
    write_per_chip_run_dir(campaign, run_dir, intervals_s, temperatures_c, worker=worker)
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


# ----------------------------------------------------------------------
# Differential harness: every route against the per-chip reference walk
# ----------------------------------------------------------------------
class ProfileOutcome(NamedTuple):
    """What one route's profiling left: failing sets per condition and
    chip, :func:`chip_end_state` of its chips, and -- for the per-chip
    routes -- every profile's ``RetentionProfile.to_json()``."""

    failing: list
    end_state: list
    profiles: Optional[list] = None


class ProfileRoutes(NamedTuple):
    """The four routes :func:`profile_routes` profiles along."""

    kernel: ProfileOutcome
    run: ProfileOutcome
    walk: ProfileOutcome
    reference: ProfileOutcome


def profile_routes(
    members, geometry, seed, temperatures, intervals, patterns=STANDARD_PATTERNS,
    iterations=1, block_rows=None, reads=None, idle_s=0.0, fused_bytes=None,
):
    """Profile the chips ``members`` ((chip_id, vendor) pairs) at every
    refresh interval, at each of ``temperatures`` in turn, along four
    routes: :meth:`FleetProfiler.run_grid` on one fleet, and, on the same
    chips racked standalone, :meth:`BruteForceProfiler.run` (which hands
    them to the kernel one chip and one condition at a time),
    :meth:`BruteForceProfiler.walk` on the production evaluator, and the
    walk on the reference evaluator.  :func:`assert_routes_agree` checks
    the outcome.

    ``idle_s`` is the profilers' idle gap between iterations (the grid
    kernel's internal equivalent on the fleet route).  ``block_rows``
    shrinks the kernel's block budget to a few rows, which puts every
    condition in a read block of its own, splits a condition's reads over
    several blocks once they exceed it, and splits runs of random writes
    across several excitation blocks.  ``fused_bytes`` sets the kernel's
    fused-compare budget, so a small one splits a condition's read groups
    over several compare passes.  ``reads`` (optional) is called on
    every chip of every route before it profiles, to replace the chip's
    read generator the same way on each route."""
    runs = [
        [Conditions(t, temperature=temperature) for t in intervals] for temperature in temperatures
    ]

    bed = TestBed.build_members(members, geometry=geometry, seed=seed)
    fleet = ChipFleet(bed.chips)
    if reads is not None:
        for chip in fleet.chips:
            reads(chip)
    kernel = FleetProfiler(patterns=patterns, iterations=iterations)
    budget = fleetprof._BLOCK_BUDGET_BYTES
    if block_rows is not None:
        budget = block_rows * 8 * len(fleet.population)
    fused = fleetprof._FUSED_BUDGET_BYTES if fused_bytes is None else fused_bytes
    failing = []
    with mock.patch.object(fleetprof, "_BLOCK_BUDGET_BYTES", budget), mock.patch.object(
        fleetprof, "_FUSED_BUDGET_BYTES", fused
    ):
        for temperature, grid in zip(temperatures, runs):
            bed.set_ambient(temperature)
            if idle_s:
                results = kernel._run(fleet, tuple(grid), idle_s=idle_s)[0].results(fleet)
            else:
                results = kernel.run_grid(fleet, grid)
            for per_chip in results:
                failing.append([result.failing for result in per_chip])
        outcomes = [ProfileOutcome(failing, chip_end_state(fleet.chips))]

        profiler = BruteForceProfiler(
            patterns=patterns, iterations=iterations, idle_between_iterations_s=idle_s
        )
        for fast_path, route in ((True, profiler.run), (True, profiler.walk), (False, profiler.run)):
            beds = [
                TestBed.build_members(
                    [(chip_id, vendor)], geometry=geometry, seed=seed, fast_path=fast_path
                )
                for chip_id, vendor in members
            ]
            chips = [single.chips[0] for single in beds]
            if reads is not None:
                for chip in chips:
                    reads(chip)
            failing, profiles = [], []
            for temperature, grid in zip(temperatures, runs):
                for single in beds:
                    single.set_ambient(temperature)
                for conditions in grid:
                    done = [route(chip, conditions) for chip in chips]
                    failing.append([profile.failing for profile in done])
                    profiles.append([profile.to_json() for profile in done])
            outcomes.append(ProfileOutcome(failing, chip_end_state(chips), profiles))
    return ProfileRoutes(*outcomes)


def assert_routes_agree(routes: ProfileRoutes) -> None:
    """Every route of :func:`profile_routes` found the same failing sets
    and left the same traces, clocks and generator end states; the three
    per-chip routes also built byte-identical profiles."""
    for route in routes[1:]:
        assert route.failing == routes.kernel.failing
        assert route.end_state == routes.kernel.end_state
        assert route.profiles == routes.reference.profiles


#: A route that measures with the per-chip walk instead of the kernel.
PER_CHIP = "per-chip walk"


def stored_rows(run_dir) -> dict:
    return {uid: row.value for uid, row in ResultStore(run_dir).load_results().items()}


def canonical(summary_dict) -> str:
    return json.dumps(summary_dict, sort_keys=True)


def assert_campaign_matches_reference(
    campaign, intervals_s, temperatures_c, *, chips_per_unit=None, backend="serial",
    workers=None, observed=False, stop_after=None, resume_with=None,
):
    """Run ``campaign`` along one route and check it against the reference.

    The run writes a fresh run dir, measured in units of ``chips_per_unit``
    (``None`` for the computed size, or :data:`PER_CHIP`) on ``backend``,
    with observability on if ``observed``.  With ``stop_after`` the store is
    then cut back to its first k rows, as a kill would leave it, and resumed
    in units of ``resume_with`` (the same choices).  Checks:

    * every stored row equals ``measure_chip`` on the reference evaluator;
    * each run measures exactly the chips the store lacks, reported under
      their per-chip ids;
    * the summary is the one those reference rows give, byte for byte,
      counting each chip once, per vendor and in all."""
    grid = dict(intervals_s=tuple(intervals_s), temperatures_c=tuple(temperatures_c))
    measured = []

    def record(result, tracker):
        measured.append(result.unit_id)

    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp, "run")

        def run(unit_size, resume):
            if unit_size == PER_CHIP:
                write_per_chip_run_dir(campaign, run_dir, resume=resume, progress=record, **grid)
                unit_size, resume = None, True  # the run below finds every chip stored
            return campaign.run(
                run_dir=str(run_dir), resume=resume, backend=backend, workers=workers,
                chips_per_unit=unit_size, progress=record, **grid,
            )

        reference = per_chip_summary(
            campaign, Path(tmp, "reference"), worker=measure_reference, **grid
        )
        reference_rows = stored_rows(Path(tmp, "reference"))
        if observed:
            obs.enable()
        try:
            summary = run(chips_per_unit, resume=False)
            assert sorted(measured) == sorted(reference_rows)
            if stop_after is not None:
                results = run_dir / "results.jsonl"
                results.write_text(
                    "".join(results.read_text().splitlines(keepends=True)[:stop_after])
                )
                kept = stored_rows(run_dir)
                measured.clear()
                summary = run(resume_with, resume=True)
                assert sorted(measured) == sorted(set(reference_rows) - set(kept))
            rows = stored_rows(run_dir)
        finally:
            if observed:
                obs.disable()
                obs.reset()
    assert rows == reference_rows
    assert canonical(summary.to_json_dict()) == canonical(reference.to_json_dict())
    assert summary.to_text() == reference.to_text()
    assert summary.n_chips == len(rows)
    per_vendor = Counter(str(value["vendor"]) for value in rows.values())
    assert {name: stats.n_chips for name, stats in summary.vendors.items()} == per_vendor
