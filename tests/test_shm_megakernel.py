"""Shared-memory populations and the condition-grid kernel.

That the kernel reproduces the per-chip reference walk -- serial or
pooled, at any unit size, resumed under any other -- is checked by
``tests/test_differential.py`` on drawn cases.  The tests here pin

* :class:`repro.dram.shm.SharedPopulationStore` round-trips weak-cell
  samples through a segment bit-for-bit, including chunk-narrowed
  descriptors (whose field offsets must come from the segment-wide
  ``total``, not the chunk's chip subset), and its sidecar reclaims a
  stale segment -- though no campaign uses the store any more;
* completion, cooperative cancel, kill -9 and a cancelled service job
  leave no segment and no ``shm.json`` sidecar, and a killed run resumes
  byte-identically;
* :meth:`repro.core.fleetprof.FleetProfiler.run_grid` sweeps a whole
  condition grid, and a schedule the standard pattern order never
  produces, to the per-chip walks' results and end states, and leaves the
  chips untouched on an empty grid and on a grid it rejects;
* pooled multi-chip campaigns, and fleet chunking edges
  (``chips_per_unit`` larger than the population, a trailing 1-chip chunk
  resumed under another size), match the per-chip reference;
* an oversized unit size packs every chip into one chunk.

The leak tests watch ``/dev/shm``; on a host without it they skip, since
a leak there could not be seen.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.campaign import CharacterizationCampaign
from repro.conditions import Conditions
from repro.core.fleetprof import FleetProfiler
from repro.dram.fleet import ChipFleet
from repro.dram.geometry import ChipGeometry
from repro.dram.shm import (
    SIDECAR_NAME,
    SharedPopulationStore,
    build_population_samples,
    cleanup_stale_segment,
    new_segment_name,
    remove_sidecar,
    unlink_segment,
    write_sidecar,
)
from repro.dram.vendor import VENDOR_A, VENDOR_B
from repro.errors import ConfigurationError, ProfilingError
from repro.infra import testbed
from repro.patterns import CHECKERBOARD, RANDOM, SOLID_ZERO
from repro.runner import build_chip_units, build_fleet_units

from conftest import (
    TEST_SEED,
    assert_campaign_matches_reference,
    assert_routes_agree,
    chip_end_state,
    per_chip_summary,
    profile_routes,
)

MICRO = ChipGeometry.from_capacity_gigabits(1.0 / 64.0)
MEMBERS = [(0, VENDOR_B), (1, VENDOR_B), (2, VENDOR_A)]

CAMPAIGN_KW = dict(intervals_s=(0.512, 1.024), temperatures_c=(45.0, 55.0))


SHM_ROOT = Path("/dev/shm")

#: Leak checks compare the segments in /dev/shm before and after; without
#: it they would pass without checking anything.
needs_dev_shm = pytest.mark.skipif(
    not SHM_ROOT.is_dir(), reason="no /dev/shm: segment leaks cannot be observed"
)


def segment_names() -> set:
    """Names of our live shared-memory segments (files in /dev/shm)."""
    return {p.name for p in SHM_ROOT.glob("*repro-fleet-*")}


def sample_specs(n_chips: int = 3):
    units = build_chip_units(
        chips_per_vendor=1,
        geometry=MICRO,
        iterations=1,
        seed=TEST_SEED,
        intervals_s=(0.512,),
        temperatures_c=(45.0,),
        vendor_names=("A", "B", "C"),
    )[:n_chips]
    from repro.dram.shm import chip_sample_spec

    return [chip_sample_spec(u.payload, max_trefi_s=4.0) for u in units]


@pytest.fixture
def samples():
    return build_population_samples(sample_specs())


class TestSharedPopulationStore:
    def test_round_trip_is_bit_identical(self, samples):
        store = SharedPopulationStore.create(samples)
        try:
            attached = SharedPopulationStore.attach(store.descriptor())
            try:
                for chip_id, sample in samples.items():
                    view = attached.sample(chip_id)
                    for field in (
                        "indices",
                        "mu_wc_s",
                        "sigma_s",
                        "susceptibility",
                        "vrt_flag",
                        "orientation",
                    ):
                        got = getattr(view, field)
                        want = getattr(sample, field)
                        assert got.dtype == want.dtype
                        assert np.array_equal(got, want)
                        assert not got.flags.writeable
            finally:
                attached.close()
        finally:
            store.unlink()

    def test_chunk_descriptor_keeps_segment_wide_offsets(self, samples):
        """A descriptor narrowed to a chunk must still carry the segment
        total: the field layout depends on every chip in the segment."""
        store = SharedPopulationStore.create(samples)
        try:
            last_chip = max(samples)
            narrowed = store.descriptor(chip_ids=[last_chip])
            assert narrowed["total"] == sum(len(s) for s in samples.values())
            assert list(narrowed["chips"]) == [str(last_chip)]
            attached = SharedPopulationStore.attach(narrowed)
            try:
                view = attached.sample(last_chip)
                want = samples[last_chip]
                assert np.array_equal(view.mu_wc_s, want.mu_wc_s)
                assert np.array_equal(view.indices, want.indices)
                # Chips outside the narrowed descriptor are unknown.
                other = min(samples)
                with pytest.raises(ConfigurationError):
                    attached.sample(other)
            finally:
                attached.close()
        finally:
            store.unlink()

    def test_fleet_backing_contiguous_and_sparse(self, samples):
        store = SharedPopulationStore.create(samples)
        try:
            ordered = sorted(samples)
            backing = store.fleet_backing(ordered)
            assert backing is not None
            want = np.concatenate([samples[c].mu_wc_s for c in ordered])
            assert np.array_equal(backing["mu_wc_s"], want)
            # Non-adjacent chips cannot be served as one slice.
            assert store.fleet_backing([ordered[0], ordered[2]]) is None
            assert store.fleet_backing([]) is None
        finally:
            store.unlink()

    def test_attach_leaves_the_resource_tracker_alone(self, samples, monkeypatch):
        """Pool workers share one tracker, which keeps a set: two workers
        attaching concurrently and each unregistering again would remove
        one entry twice (a KeyError traceback in the tracker).  Attaching
        must neither register nor unregister."""
        store = SharedPopulationStore.create(samples)
        try:
            calls = []
            for name in ("register", "unregister"):
                monkeypatch.setattr(
                    resource_tracker,
                    name,
                    lambda seg, rtype, name=name: calls.append((name, seg, rtype)),
                )
            attached = SharedPopulationStore.attach(store.descriptor())
            assert np.array_equal(
                attached.sample(min(samples)).mu_wc_s, samples[min(samples)].mu_wc_s
            )
            attached.close()
            monkeypatch.undo()
            assert calls == []
        finally:
            store.unlink()

    def test_create_requires_chips(self):
        with pytest.raises(ConfigurationError):
            SharedPopulationStore.create({})

    def test_unlink_removes_segment(self, samples):
        store = SharedPopulationStore.create(samples)
        descriptor = store.descriptor()
        store.unlink()
        with pytest.raises(FileNotFoundError):
            SharedPopulationStore.attach(descriptor)
        # Idempotent, and unlink_segment on a missing name reports False.
        store.unlink()
        assert unlink_segment(descriptor["segment"]) is False

    def test_sidecar_reclaims_stale_segment(self, samples, tmp_path):
        store = SharedPopulationStore.create(samples)
        name = store.segment_name
        write_sidecar(tmp_path, name)
        # Simulate kill -9: the creating process never unlinks.  Drop our
        # mapping only, then reclaim through the sidecar.
        store.close()
        assert cleanup_stale_segment(tmp_path) == name
        assert not (tmp_path / SIDECAR_NAME).exists()
        assert unlink_segment(name) is False  # already reclaimed
        # Nothing to do on a clean directory (idempotent).
        assert cleanup_stale_segment(tmp_path) is None
        # A sidecar pointing at a vanished segment is swallowed too.
        write_sidecar(tmp_path, new_segment_name())
        assert cleanup_stale_segment(tmp_path) is None
        assert not (tmp_path / SIDECAR_NAME).exists()
        remove_sidecar(tmp_path)  # no-op on a missing file


def fresh_fleet():
    bed = testbed.TestBed.build_members(MEMBERS, geometry=MICRO, seed=TEST_SEED)
    bed.set_ambient(45.0)
    return ChipFleet(bed.chips)


class TestRunGridEquivalence:
    GRID = (
        Conditions(0.512, temperature=45.0),
        Conditions(1.024, temperature=45.0),
        Conditions(2.048, temperature=45.0),
    )

    def test_grid_matches_per_chip_profiles(self):
        """run_grid over a grid leaves the per-chip walks' failing sets,
        traces, clocks and RNG end states, fast path or reference."""
        assert_routes_agree(
            profile_routes(
                MEMBERS, MICRO, TEST_SEED, [45.0], [c.trefi for c in self.GRID], iterations=2
            )
        )

    def test_empty_grid_is_a_no_op(self):
        profiler = FleetProfiler(iterations=1)
        fleet = fresh_fleet()
        before = chip_end_state(fleet.chips)
        assert profiler.run_grid(fleet, ()) == ()
        assert chip_end_state(fleet.chips) == before

    def test_trefi_prechecked_before_any_state_changes(self):
        profiler = FleetProfiler(iterations=1)
        fleet = fresh_fleet()
        before = chip_end_state(fleet.chips)
        bad = self.GRID + (Conditions(fleet.max_trefi_s * 4.0, temperature=45.0),)
        with pytest.raises(ProfilingError):
            profiler.run_grid(fleet, bad)
        # The bad condition is rejected up front: no partial grid ran.
        assert chip_end_state(fleet.chips) == before


class TestRunGridDifferential:
    """run_grid against per-chip BruteForceProfiler runs on a schedule the
    campaign's standard pattern order never produces (drawn ones are in
    tests/test_differential.py)."""

    def test_grid_matches_oracle(self):
        # Random writes before a first-time deterministic one and between
        # two, a repeated interval, and read blocks of one row.
        assert_routes_agree(
            profile_routes(
                MEMBERS, MICRO, TEST_SEED, [55.0], [2.048, 0.256, 2.048],
                patterns=(RANDOM, SOLID_ZERO.inverse, RANDOM.inverse, CHECKERBOARD),
                iterations=2, block_rows=1,
            )
        )


@pytest.fixture(scope="module")
def campaign():
    return CharacterizationCampaign(
        chips_per_vendor=2, geometry=MICRO, iterations=1, seed=TEST_SEED
    )


class TestCampaignSegment:
    def test_pooled_shm_matches_serial(self, campaign):
        for route in (dict(), dict(backend="process", workers=2, chips_per_unit=2)):
            assert_campaign_matches_reference(campaign, **CAMPAIGN_KW, **route)

    @needs_dev_shm
    def test_no_segment_or_sidecar_survives_a_run(self, campaign, tmp_path):
        before = segment_names()
        run_dir = tmp_path / "run"
        campaign.run(run_dir=str(run_dir), chips_per_unit=3, **CAMPAIGN_KW)
        assert segment_names() == before
        assert not (run_dir / SIDECAR_NAME).exists()

    @needs_dev_shm
    def test_cooperative_cancel_unlinks_the_segment(self, campaign, tmp_path):
        before = segment_names()
        seen = []

        def stop_after_first():
            return len(seen) >= 1

        campaign.run(
            run_dir=str(tmp_path / "run"),
            chips_per_unit=2,
            progress=lambda result, tracker: seen.append(result.unit_id),
            should_stop=stop_after_first,
            **CAMPAIGN_KW,
        )
        assert seen, "cancel must land after at least one drained unit"
        assert segment_names() == before
        assert not (tmp_path / "run" / SIDECAR_NAME).exists()


class TestFleetChunkingEdges:
    def test_chips_per_unit_larger_than_population(self, campaign):
        assert_campaign_matches_reference(campaign, **CAMPAIGN_KW, chips_per_unit=64)

    def test_build_fleet_units_oversized_makes_one_chunk(self):
        units = build_chip_units(
            chips_per_vendor=1,
            geometry=MICRO,
            iterations=1,
            seed=TEST_SEED,
            intervals_s=(0.512,),
            temperatures_c=(45.0,),
            vendor_names=("A", "B", "C"),
        )
        chunks = build_fleet_units(units, chips_per_unit=99)
        assert len(chunks) == 1
        assert [m["unit_id"] for m in chunks[0].payload["members"]] == [
            u.unit_id for u in units
        ]

    def test_trailing_single_chip_chunk_round_trips_resume(self, campaign):
        """6 chips at chips_per_unit=5 leaves a 1-chip trailing chunk; the
        run directory it writes must resume under any other chunking (the
        fingerprint covers the workload, not the dispatch)."""
        assert_campaign_matches_reference(
            campaign, **CAMPAIGN_KW, chips_per_unit=5, stop_after=5, resume_with=2
        )


KILL9_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.analysis.campaign import CharacterizationCampaign
    from repro.dram.geometry import ChipGeometry

    run_dir = sys.argv[1]
    campaign = CharacterizationCampaign(
        chips_per_vendor=2,
        geometry=ChipGeometry.from_capacity_gigabits(1.0 / 64.0),
        iterations=1,
        seed=1234,
    )

    def progress(result, tracker):
        print("UNIT", result.unit_id, flush=True)

    campaign.run(
        intervals_s=(0.512, 1.024),
        temperatures_c=(45.0, 55.0),
        run_dir=run_dir,
        chips_per_unit=2,
        progress=progress,
    )
    print("DONE", flush=True)
    """
)


@needs_dev_shm
@pytest.mark.slow
def test_kill9_leaves_no_tracked_leak_and_resumes_identically(campaign, tmp_path):
    """SIGKILL mid-run of a multi-chip-unit campaign leaves no segment and
    no sidecar, and the resumed campaign is byte-identical to the per-chip
    reference."""
    reference = per_chip_summary(campaign, tmp_path / "per-chip", **CAMPAIGN_KW)

    before = segment_names()
    run_dir = tmp_path / "run"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", KILL9_SCRIPT, str(run_dir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    # Kill as soon as the first unit lands: mid-run.
    deadline = time.monotonic() + 120.0
    saw_unit = False
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if line.startswith("UNIT"):
            saw_unit = True
            break
        if line == "" and proc.poll() is not None:
            break
    assert saw_unit, "child never made progress"
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)
    stderr = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()

    # The kill left no segment, no sidecar and no resource_tracker noise.
    assert not (run_dir / SIDECAR_NAME).exists()
    assert "leaked shared_memory" not in stderr
    assert segment_names() == before

    resumed = campaign.run(
        run_dir=str(run_dir), resume=True, chips_per_unit=2, **CAMPAIGN_KW
    )
    assert resumed == reference


@needs_dev_shm
@pytest.mark.slow
def test_service_cancel_unlinks_segments(tmp_path):
    """A cancelled multi-chip-unit job leaves no segment and no sidecar
    behind for the tenants sharing the service."""
    import asyncio

    from repro.service import CANCELLED, CampaignJobSpec, JobManager

    before = segment_names()

    async def scenario():
        manager = JobManager(tmp_path, pool_workers=0, max_running=1)
        await manager.start()
        try:
            # 24 two-chip chunks: the cancel lands with most still pending.
            spec = CampaignJobSpec(
                chips_per_vendor=16,
                capacity_gbit=0.25,
                iterations=2,
                intervals_s=(0.512, 1.024, 2.048),
                temperatures_c=(45.0, 55.0),
                chips_per_unit=2,
            )
            record = await manager.submit("acme", spec)
            deadline = time.monotonic() + 60.0
            while True:
                snap = manager.job(record.job_id)
                if snap.progress.get("completed", 0) >= 1:
                    break
                assert time.monotonic() < deadline, "job never made progress"
                await asyncio.sleep(0.01)
            await manager.cancel(record.job_id)
            deadline = time.monotonic() + 60.0
            while manager.job(record.job_id).state != CANCELLED:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.01)
            return manager.job(record.job_id)
        finally:
            await manager.shutdown()

    record = asyncio.run(scenario())
    assert record.state == CANCELLED
    assert segment_names() == before
    assert not (Path(record.run_dir) / SIDECAR_NAME).exists()
