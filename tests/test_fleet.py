"""Tests for the fleet-batched campaign kernel.

The fleet path's whole value proposition is "byte-identical, just
faster", so nearly every test here is an equality pin against the
per-chip reference:

* :meth:`repro.core.fleetprof.FleetProfiler.run_grid` over a
  :class:`repro.dram.fleet.ChipFleet` discovers exactly the cells a
  standalone :class:`~repro.core.bruteforce.BruteForceProfiler` run per
  chip would, and leaves every chip's read-RNG stream in the exact same
  end state;
* :class:`repro.infra.testbed.FleetBed` settles to the same ambient, the
  same clock time, and the same chip temperatures as independent
  single-chip beds;
* :func:`repro.runner.measure_fleet` returns, member for member, the
  same JSON :func:`repro.runner.measure_chip` would;
* a campaign -- any unit size, serial or pooled -- produces the
  :class:`CampaignSummary` of per-chip ``measure_chip`` rows, and kernel
  and per-chip runs resume each other's run directories (the store only
  ever holds per-chip rows);
* the process-pool backend keeps its submission window bounded and
  derives its default worker count from the CPU affinity mask.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from repro.analysis import campaign as analysis_campaign
from repro.analysis.campaign import CharacterizationCampaign
from repro.conditions import Conditions
from repro.core.bruteforce import BruteForceProfiler
from repro.core.fleetprof import FleetProfiler
from repro.dram.fleet import ChipFleet, FleetPopulation
from repro.dram.geometry import ChipGeometry
from repro.dram.vendor import VENDOR_A, VENDOR_B, vendor_by_name
from repro.errors import CommandSequenceError, ConfigurationError, ProfilingError
from repro.infra.testbed import FleetBed, TestBed
from repro.patterns import CHECKERBOARD
from repro.runner import (
    CHIP_UNIT_KIND,
    FLEET_UNIT_KIND,
    ResultStore,
    UnitResult,
    WorkUnit,
    build_chip_units,
    build_fleet_units,
    default_chips_per_unit,
    expand_fleet_result,
    fleet_dispatch,
    measure_chip,
    measure_fleet,
)
from repro.runner import executors as executors_mod
from repro.runner.executors import ProcessPoolBackend, default_worker_count
from repro.runner.units import STATUS_FAILED, STATUS_OK, UnitFailure

from conftest import (
    TEST_SEED,
    dpd_end_state,
    per_chip_summary,
    write_per_chip_run_dir,
)

# Small enough that a handful of fleet-vs-serial comparisons stays fast,
# large enough for a weak tail worth comparing.
MICRO = ChipGeometry.from_capacity_gigabits(1.0 / 64.0)

MEMBERS = [(0, VENDOR_B), (1, VENDOR_B), (2, VENDOR_A)]


def build_fleet_bed(**kwargs):
    kwargs.setdefault("members", MEMBERS)
    kwargs.setdefault("geometry", MICRO)
    kwargs.setdefault("seed", TEST_SEED)
    return FleetBed.build(**kwargs)


def build_single_beds(**kwargs):
    kwargs.setdefault("geometry", MICRO)
    kwargs.setdefault("seed", TEST_SEED)
    return [
        TestBed.build_single(chip_id=chip_id, vendor=vendor, **kwargs)
        for chip_id, vendor in MEMBERS
    ]


class TestFleetPopulation:
    def test_segments_partition_the_stacked_tail(self):
        bed = build_fleet_bed()
        population = FleetPopulation([chip.population for chip in bed.chips])
        assert population.n_chips == len(MEMBERS)
        total = 0
        for i, chip in enumerate(bed.chips):
            start, end = population.segment(i)
            assert end - start == len(chip.population)
            assert np.array_equal(
                population.member_indices(i), chip.population.indices
            )
            total += end - start
        assert len(population) == total
        assert population.offsets[-1] == total

    def test_rejects_empty_and_mismatched_inputs(self):
        with pytest.raises(ConfigurationError):
            FleetPopulation([])
        bed = build_fleet_bed()
        populations = [chip.population for chip in bed.chips]
        # Backing arrays that do not cover every member's tail.
        short = {
            key: np.zeros(len(populations[0]))
            for key in ("mu_wc_s", "sigma_s", "susceptibility")
        }
        with pytest.raises(ConfigurationError):
            FleetPopulation(populations, backing=short)


class TestDeterministicFailures:
    """The grouped evaluator against the per-read reference compare."""

    def test_matches_per_read_compare_at_the_boundary(self):
        bed = build_fleet_bed()
        bed.set_ambient(45.0)
        chips = bed.chips
        population = FleetPopulation([chip.population for chip in chips])
        pattern = CHECKERBOARD
        aligns, stresses = zip(*[chip.population.dpd.excite(pattern) for chip in chips])
        scales = tuple(chip.population.retention_scale(45.0) for chip in chips)
        e1, e2 = 1.024, 2.048

        def reference_p(exposure):
            return np.concatenate(
                [
                    chip.population.failure_probabilities(exposure, 45.0, a, m)
                    for chip, a, m in zip(chips, aligns, stresses)
                ]
            )

        p1 = reference_p(e1)
        cells = np.arange(len(population))
        # Uniforms sit exactly at p(e1), one ulp below it, or at 1.0 (never
        # fails), so mixing up the exposures, comparing with <=, or
        # dropping a row of a group each changes the answer.
        u_rows = [
            p1.copy(),  # e1, exactly at p: never fails
            np.where(cells % 2 == 1, p1, 1.0),  # e2: fails where p1 < p2
            np.where(cells % 4 == 2, np.nextafter(p1, 0.0), 1.0),  # e1 again
        ]
        exposures = [e1, e2, e1]
        want = np.zeros(len(population), dtype=bool)
        for exposure, u in zip(exposures, u_rows):
            want |= u < reference_p(exposure)
        assert want[cells % 2 == 1].any() and want[cells % 4 == 2].any()
        assert not want[cells % 4 == 0].any()

        hits = population.deterministic_failures(
            exposures,
            u_rows,
            scales,
            population.stack(aligns),
            population.stack(stresses),
        )
        got = np.zeros(len(population), dtype=bool)
        got[hits] = True
        assert np.array_equal(got, want)


class TestChipFleet:
    def test_rejects_heterogeneous_members(self):
        small = TestBed.build_single(chip_id=0, vendor=VENDOR_B, geometry=MICRO, seed=1)
        other_geometry = TestBed.build_single(
            chip_id=1,
            vendor=VENDOR_B,
            geometry=ChipGeometry.from_capacity_gigabits(1.0 / 32.0),
            seed=1,
        )
        with pytest.raises(ConfigurationError):
            ChipFleet([small.chips[0], other_geometry.chips[0]])
        other_trefi = TestBed.build_single(
            chip_id=1, vendor=VENDOR_B, geometry=MICRO, seed=1, max_trefi_s=5.0
        )
        with pytest.raises(ConfigurationError):
            ChipFleet([small.chips[0], other_trefi.chips[0]])
        with pytest.raises(ConfigurationError):
            ChipFleet([])

    def test_run_grid_guards_clock_divergence(self):
        bed = build_fleet_bed()
        fleet = ChipFleet(bed.chips)
        bed.set_ambient(45.0)
        # Advance one member's clock behind the fleet's back: the shared
        # schedule would be wrong for it, so the run refuses to start.
        bed.beds[1].chips[0].wait(0.128)
        with pytest.raises(ProfilingError):
            FleetProfiler(iterations=1).run_grid(
                fleet, [Conditions(trefi=0.512, temperature=45.0)]
            )

    def test_run_grid_refuses_disabled_refresh(self):
        bed = build_fleet_bed()
        fleet = ChipFleet(bed.chips)
        bed.set_ambient(45.0)
        for chip in bed.chips:
            chip.disable_refresh()
        with pytest.raises(CommandSequenceError):
            FleetProfiler(iterations=1).run_grid(
                fleet, [Conditions(trefi=0.512, temperature=45.0)]
            )


class TestFleetBed:
    def test_set_ambient_replays_the_lead_settle(self):
        fleet_bed = build_fleet_bed()
        single_beds = build_single_beds()

        for temperature in (45.0, 55.0, 45.0):
            fleet_elapsed = fleet_bed.set_ambient(temperature)
            single_elapsed = [
                bed.set_ambient(temperature) for bed in single_beds
            ]
            assert all(e == fleet_elapsed for e in single_elapsed)
            # The lead chamber is the one actually settled; member beds
            # replay its trajectory onto their clocks and chips.
            assert (
                fleet_bed.beds[0].chamber.ambient_c
                == single_beds[0].chamber.ambient_c
            )
            for fbed, sbed in zip(fleet_bed.beds, single_beds):
                assert fbed.clock.now == sbed.clock.now
                assert fbed.chips[0].temperature_c == sbed.chips[0].temperature_c

    def test_rejects_multi_chip_member_beds(self):
        shared = TestBed.build(chips_per_vendor=1, geometry=MICRO, seed=TEST_SEED)
        with pytest.raises(ConfigurationError):
            FleetBed([shared])
        with pytest.raises(ConfigurationError):
            FleetBed([])


class TestFleetProfilerEquivalence:
    """The core contract: fleet-fused == per-chip, bit for bit."""

    def run_both(self, iterations=2, trefi=1.024, temperature=45.0):
        fleet_bed = build_fleet_bed()
        fleet_bed.set_ambient(temperature)
        fleet = ChipFleet(fleet_bed.chips)
        (fleet_results,) = FleetProfiler(iterations=iterations).run_grid(
            fleet, [Conditions(trefi=trefi, temperature=temperature)]
        )

        single_profiles = []
        single_chips = []
        for bed in build_single_beds():
            bed.set_ambient(temperature)
            chip = bed.chips[0]
            profile = BruteForceProfiler(iterations=iterations).run(
                chip, Conditions(trefi=trefi, temperature=temperature)
            )
            single_profiles.append(profile)
            single_chips.append(chip)
        return fleet_bed, fleet_results, single_chips, single_profiles

    def test_failing_sets_identical_to_per_chip_runs(self):
        _, fleet_results, _, single_profiles = self.run_both()
        for fleet_result, profile in zip(fleet_results, single_profiles):
            assert fleet_result.failing == profile.failing
            assert len(fleet_result) == len(profile)

    def test_rng_streams_end_in_identical_state(self):
        fleet_bed, _, single_chips, _ = self.run_both()
        for fleet_chip, single_chip in zip(fleet_bed.chips, single_chips):
            assert (
                fleet_chip.read_rng.bit_generator.state
                == single_chip.read_rng.bit_generator.state
            )
            assert fleet_chip.clock.now == single_chip.clock.now
            assert dpd_end_state(fleet_chip) == dpd_end_state(single_chip)

    def test_repeated_runs_continue_identically(self):
        """A second profiling pass (as the campaign's temperature sweep
        does) stays byte-identical -- RNG and clock state carry over."""
        fleet_bed = build_fleet_bed()
        fleet_bed.set_ambient(45.0)
        fleet = ChipFleet(fleet_bed.chips)
        profiler = FleetProfiler(iterations=1)
        profiler.run_grid(fleet, [Conditions(trefi=0.512, temperature=45.0)])
        fleet_bed.set_ambient(55.0)
        (second,) = profiler.run_grid(
            fleet, [Conditions(trefi=1.024, temperature=55.0)]
        )

        singles = []
        for bed in build_single_beds():
            bed.set_ambient(45.0)
            chip = bed.chips[0]
            single_profiler = BruteForceProfiler(iterations=1)
            single_profiler.run(chip, Conditions(trefi=0.512, temperature=45.0))
            bed.set_ambient(55.0)
            singles.append(
                single_profiler.run(chip, Conditions(trefi=1.024, temperature=55.0))
            )
        for fleet_result, profile in zip(second, singles):
            assert fleet_result.failing == profile.failing

    def test_trefi_above_fleet_maximum_rejected(self):
        bed = build_fleet_bed(max_trefi_s=1.1)
        fleet = ChipFleet(bed.chips)
        with pytest.raises(ProfilingError):
            FleetProfiler(iterations=1).run_grid(
                fleet, [Conditions(trefi=2.048, temperature=45.0)]
            )

    def test_profiler_validation(self):
        with pytest.raises(ConfigurationError):
            FleetProfiler(iterations=0)
        with pytest.raises(ConfigurationError):
            FleetProfiler(patterns=())


class TestMeasureFleetWorker:
    UNIT_KW = dict(
        chips_per_vendor=1,
        geometry=MICRO,
        iterations=1,
        seed=TEST_SEED,
        intervals_s=(0.512, 1.024),
        temperatures_c=(45.0, 55.0),
    )

    def test_values_identical_to_measure_chip(self):
        units = build_chip_units(**self.UNIT_KW)
        serial = [measure_chip(unit.payload) for unit in units]
        (chunk,) = build_fleet_units(units, chips_per_unit=len(units))
        fleet = measure_fleet(chunk.payload)
        assert [c["unit_id"] for c in fleet["chips"]] == [u.unit_id for u in units]
        assert [c["value"] for c in fleet["chips"]] == serial

    def test_chunking_does_not_change_values(self):
        units = build_chip_units(**self.UNIT_KW)
        serial = [measure_chip(unit.payload) for unit in units]
        values = []
        for chunk in build_fleet_units(units, chips_per_unit=2):
            values.extend(c["value"] for c in measure_fleet(chunk.payload)["chips"])
        assert values == serial

    def test_rejects_heterogeneous_chunks(self):
        units = build_chip_units(**self.UNIT_KW)
        other = build_chip_units(**{**self.UNIT_KW, "seed": TEST_SEED + 1})
        (chunk,) = build_fleet_units((units[0], other[1]), chips_per_unit=2)
        with pytest.raises(ConfigurationError):
            measure_fleet(chunk.payload)

    def test_rejects_empty_chunks(self):
        with pytest.raises(ConfigurationError):
            measure_fleet({"members": []})

    def test_one_chip_unit_peaks_no_higher_than_the_per_chip_walk(self):
        """A one-chip kernel unit on a 1 Gbit chip (52 k weak cells) holds
        no more transient memory than ``measure_chip`` on the same chip:
        read and DPD blocks stay under the block budget and nothing is
        memoized per pattern."""
        grid = dict(
            geometry=ChipGeometry.from_capacity_gigabits(1.0),
            iterations=2,
            seed=368,
            intervals_s=(0.512, 1.024, 2.048),
            temperatures_c=(45.0, 55.0),
        )
        unit = build_chip_units(chips_per_vendor=20, **grid)[1]
        (chunk,) = build_fleet_units([unit], chips_per_unit=1)
        # Warm both paths on a small chip so lazy imports and one-time
        # tables are not charged to either peak.
        (warm,) = build_chip_units(**self.UNIT_KW)[:1]
        measure_chip(warm.payload)
        measure_fleet(build_fleet_units([warm], chips_per_unit=1)[0].payload)

        peaks, values = {}, {}
        for name, worker, payload in (
            ("walk", measure_chip, unit.payload),
            ("kernel", measure_fleet, chunk.payload),
        ):
            tracemalloc.start()
            try:
                values[name] = worker(payload)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert values["kernel"]["chips"][0]["value"] == values["walk"]
        assert peaks["kernel"] <= peaks["walk"], peaks


class TestFleetUnits:
    def make_units(self, n=5):
        return tuple(
            WorkUnit(unit_id=f"chip-{i:05d}", kind=CHIP_UNIT_KIND, payload={"i": i})
            for i in range(n)
        )

    def test_build_fleet_units_chunks_consecutively(self):
        units = self.make_units(5)
        chunks = build_fleet_units(units, chips_per_unit=2)
        assert [c.unit_id for c in chunks] == [
            "fleet-chip-00000-chip-00001",
            "fleet-chip-00002-chip-00003",
            "fleet-chip-00004-chip-00004",
        ]
        assert all(c.kind == FLEET_UNIT_KIND for c in chunks)
        member_ids = [
            m["unit_id"] for c in chunks for m in c.payload["members"]
        ]
        assert member_ids == [u.unit_id for u in units]

    def test_build_fleet_units_validation(self):
        units = self.make_units(2)
        with pytest.raises(ConfigurationError):
            build_fleet_units(units, chips_per_unit=0)
        alien = WorkUnit(unit_id="x", kind="toy", payload={})
        with pytest.raises(ConfigurationError):
            build_fleet_units((alien,), chips_per_unit=1)

    def test_expand_ok_result_restores_per_chip_rows(self):
        (chunk,) = build_fleet_units(self.make_units(3), chips_per_unit=3)
        result = UnitResult(
            unit_id=chunk.unit_id,
            status=STATUS_OK,
            value={
                "chips": [
                    {"unit_id": m["unit_id"], "value": {"n": i}}
                    for i, m in enumerate(chunk.payload["members"])
                ]
            },
            attempts=1,
            elapsed_s=3.0,
        )
        expanded = expand_fleet_result(chunk, result)
        assert [r.unit_id for r in expanded] == [
            "chip-00000",
            "chip-00001",
            "chip-00002",
        ]
        assert all(r.ok for r in expanded)
        assert [r.value for r in expanded] == [{"n": 0}, {"n": 1}, {"n": 2}]
        assert all(r.elapsed_s == pytest.approx(1.0) for r in expanded)

    def test_expand_failed_result_fails_every_member(self):
        (chunk,) = build_fleet_units(self.make_units(2), chips_per_unit=2)
        failure = UnitFailure(type="RuntimeError", message="boom", traceback="tb")
        result = UnitResult(
            unit_id=chunk.unit_id,
            status=STATUS_FAILED,
            error=failure,
            attempts=2,
            elapsed_s=1.0,
        )
        expanded = expand_fleet_result(chunk, result)
        assert [r.unit_id for r in expanded] == ["chip-00000", "chip-00001"]
        assert all(not r.ok for r in expanded)
        assert all(r.error == failure for r in expanded)
        assert all(r.attempts == 2 for r in expanded)

    def test_expand_rejects_member_mismatch(self):
        (chunk,) = build_fleet_units(self.make_units(2), chips_per_unit=2)
        result = UnitResult(
            unit_id=chunk.unit_id,
            status=STATUS_OK,
            value={"chips": [{"unit_id": "chip-00000", "value": {}}]},
            attempts=1,
            elapsed_s=1.0,
        )
        with pytest.raises(ConfigurationError):
            expand_fleet_result(chunk, result)


@pytest.fixture(scope="module")
def fleet_campaign():
    return CharacterizationCampaign(
        chips_per_vendor=2, geometry=MICRO, iterations=1, seed=TEST_SEED
    )


FLEET_CAMPAIGN_KW = dict(intervals_s=(0.512, 1.024), temperatures_c=(45.0, 55.0))


class TestFleetCampaign:
    def test_fleet_serial_and_pooled_match_per_chip(self, fleet_campaign, tmp_path):
        reference = per_chip_summary(fleet_campaign, tmp_path / "per-chip", **FLEET_CAMPAIGN_KW)
        default = fleet_campaign.run(**FLEET_CAMPAIGN_KW)
        fleet = fleet_campaign.run(chips_per_unit=2, **FLEET_CAMPAIGN_KW)
        pooled = fleet_campaign.run(
            backend="process", workers=2, chips_per_unit=4, **FLEET_CAMPAIGN_KW
        )
        assert default == reference
        assert fleet == reference
        assert pooled == reference
        assert fleet.to_text() == reference.to_text()

    def test_chips_per_unit_one_matches_the_per_chip_walk(self, fleet_campaign, tmp_path):
        """``chips_per_unit=1`` runs one-chip kernel units; every row they
        store equals ``measure_chip`` on its chip."""
        run_dir = tmp_path / "run"
        summary = fleet_campaign.run(
            run_dir=str(run_dir), chips_per_unit=1, **FLEET_CAMPAIGN_KW
        )
        stored = ResultStore(run_dir).load_results()
        units = build_chip_units(
            chips_per_vendor=fleet_campaign.chips_per_vendor,
            geometry=fleet_campaign.geometry,
            iterations=fleet_campaign.iterations,
            seed=fleet_campaign.seed,
            **FLEET_CAMPAIGN_KW,
        )
        assert {uid: row.value for uid, row in stored.items()} == {
            unit.unit_id: measure_chip(unit.payload) for unit in units
        }
        assert summary == per_chip_summary(
            fleet_campaign, tmp_path / "per-chip", **FLEET_CAMPAIGN_KW
        )

    def test_chips_per_unit_validation(self, fleet_campaign):
        with pytest.raises(ConfigurationError):
            fleet_campaign.run(chips_per_unit=0, **FLEET_CAMPAIGN_KW)

    def test_fleet_run_resumes_per_chip_run_directory(self, fleet_campaign, tmp_path):
        """A run dir the per-chip walk wrote (what older versions left
        behind) resumes under an explicit unit size and under the default
        to the summary its per-chip rows give."""
        run_dir = tmp_path / "run"
        full = per_chip_summary(fleet_campaign, run_dir, **FLEET_CAMPAIGN_KW)
        results_path = run_dir / "results.jsonl"
        kept = results_path.read_text().splitlines()[:2]

        for chips_per_unit in (3, None):
            results_path.write_text("\n".join(kept) + "\n")
            executed = []
            resumed = fleet_campaign.run(
                run_dir=str(run_dir),
                resume=True,
                chips_per_unit=chips_per_unit,
                progress=lambda result, tracker: executed.append(result.unit_id),
                **FLEET_CAMPAIGN_KW,
            )
            assert json.dumps(resumed.to_json_dict(), sort_keys=True) == json.dumps(
                full.to_json_dict(), sort_keys=True
            )
            # Per-chip rows, per-chip progress: chunk ids never surface.
            assert len(executed) == 4
            assert all(unit_id.startswith("chip-") for unit_id in executed)

    def test_per_chip_run_resumes_fleet_run_directory(self, fleet_campaign, tmp_path):
        """The per-chip walk resumes a kernel-written run dir; the mixed
        rows give the kernel run's summary."""
        run_dir = tmp_path / "run"
        full = fleet_campaign.run(
            run_dir=str(run_dir), chips_per_unit=2, **FLEET_CAMPAIGN_KW
        )
        results_path = run_dir / "results.jsonl"
        rows = results_path.read_text().splitlines()
        # The store holds one per-chip row per chip regardless of chunking.
        assert len(rows) == 6
        results_path.write_text("\n".join(rows[:3]) + "\n")
        write_per_chip_run_dir(fleet_campaign, run_dir, resume=True, **FLEET_CAMPAIGN_KW)
        assert len(results_path.read_text().splitlines()) == 6
        executed = []
        resumed = fleet_campaign.run(
            run_dir=str(run_dir),
            resume=True,
            progress=lambda result, tracker: executed.append(result.unit_id),
            **FLEET_CAMPAIGN_KW,
        )
        assert not executed
        assert resumed == full

    def test_chunk_run_resumes_tile_era_run_directory(self, fleet_campaign, tmp_path):
        """Run dirs written while condition tiles existed carry a
        ``condition_tiles`` manifest key; chunk dispatch resumes them."""
        fresh = fleet_campaign.run(chips_per_unit=2, **FLEET_CAMPAIGN_KW)
        run_dir = tmp_path / "run"
        fleet_campaign.run(run_dir=str(run_dir), chips_per_unit=2, **FLEET_CAMPAIGN_KW)
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["condition_tiles"] = 3
        manifest["status"] = "interrupted"
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        results_path = run_dir / "results.jsonl"
        rows = results_path.read_text().splitlines()
        results_path.write_text("\n".join(rows[:4]) + "\n")

        resumed = fleet_campaign.run(
            run_dir=str(run_dir), resume=True, chips_per_unit=2, **FLEET_CAMPAIGN_KW
        )
        assert json.dumps(resumed.to_json_dict(), sort_keys=True) == json.dumps(
            fresh.to_json_dict(), sort_keys=True
        )


class TestComputedUnitSize:
    @pytest.mark.parametrize(
        "capacity_gbit, n_chips, workers, expected",
        [
            (1.0, 60, 2, 1),  # the CLI's 1 Gbit chips travel alone
            (1.0 / 16.0, 6, 2, 3),  # a service job: never fewer units than workers
            (1.0 / 64.0, 369, 2, 16),  # paper-scale small chips: capacity-bound
            (1.0 / 64.0, 369, 1, 16),
            (1.0 / 1024.0, 10, 4, 3),
            (4.0, 5, 1, 1),
        ],
    )
    def test_rule(self, capacity_gbit, n_chips, workers, expected):
        bits = ChipGeometry.from_capacity_gigabits(capacity_gbit).capacity_bits
        assert default_chips_per_unit(bits, n_chips, workers) == expected

    def test_rejects_non_positive_inputs(self):
        for args in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            with pytest.raises(ConfigurationError):
                default_chips_per_unit(*args)

    @pytest.mark.parametrize(
        "backend_kw, expected",
        [
            (dict(backend="serial"), 6),
            (dict(backend="process", workers=2), 3),
            (dict(backend=None, workers=4), 2),
        ],
    )
    def test_campaign_sizes_units_from_the_backend(
        self, fleet_campaign, monkeypatch, backend_kw, expected
    ):
        """Serial runs count one worker, pooled runs the pool width."""
        sizes = []

        def spy(chips_per_unit, shm=None):
            sizes.append((chips_per_unit, shm is not None))
            return fleet_dispatch(chips_per_unit, shm=shm)

        monkeypatch.setattr(analysis_campaign, "fleet_dispatch", spy)
        fleet_campaign.run(**backend_kw, **FLEET_CAMPAIGN_KW)
        assert sizes == [(expected, True)]

    def test_one_chip_units_draw_populations_in_the_worker(
        self, fleet_campaign, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("one-chip units must not build a shared population")

        monkeypatch.setattr(analysis_campaign, "build_population_samples", refuse)
        summary = fleet_campaign.run(chips_per_unit=1, **FLEET_CAMPAIGN_KW)
        assert summary.n_chips == 6


class _RecordingFuture:
    def __init__(self, value):
        self._value = value

    def result(self):
        return self._value

    def __hash__(self):
        return id(self)


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: runs inline, counts submissions."""

    instances = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.submitted = 0
        type(self).instances.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted += 1
        return _RecordingFuture(fn(*args))


def _fake_wait(pending, return_when=None):
    # Resolve exactly one future per drain cycle, mimicking FIRST_COMPLETED.
    done = {next(iter(pending))}
    return done, pending - done


class TestBoundedSubmissionWindow:
    def test_inflight_never_exceeds_window(self, monkeypatch):
        monkeypatch.setattr(executors_mod, "ProcessPoolExecutor", _RecordingExecutor)
        monkeypatch.setattr(executors_mod, "wait", _fake_wait)
        _RecordingExecutor.instances.clear()

        units = tuple(
            WorkUnit(unit_id=f"u-{i:03d}", kind="toy", payload={"i": i})
            for i in range(40)
        )
        backend = ProcessPoolBackend(workers=2)
        window = backend.INFLIGHT_FACTOR * 2

        seen = []
        submitted_at_first_yield = None
        for result in backend.run(_identity_worker, units):
            if submitted_at_first_yield is None:
                submitted_at_first_yield = _RecordingExecutor.instances[0].submitted
            seen.append(result.unit_id)

        # All units completed, but the initial submission burst was the
        # window, not the whole campaign.
        assert sorted(seen) == [u.unit_id for u in units]
        assert submitted_at_first_yield <= window + 1
        assert _RecordingExecutor.instances[0].submitted == len(units)

    def test_pool_not_oversized_for_tiny_unit_counts(self, monkeypatch):
        monkeypatch.setattr(executors_mod, "ProcessPoolExecutor", _RecordingExecutor)
        monkeypatch.setattr(executors_mod, "wait", _fake_wait)
        _RecordingExecutor.instances.clear()

        units = (WorkUnit(unit_id="only", kind="toy", payload={"i": 0}),)
        list(ProcessPoolBackend(workers=8).run(_identity_worker, units))
        assert _RecordingExecutor.instances[0].max_workers == 1


def _identity_worker(payload):
    return payload


class TestDefaultWorkerCount:
    def test_uses_affinity_mask_when_available(self, monkeypatch):
        monkeypatch.setattr(
            executors_mod.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False
        )
        assert default_worker_count() == 2

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(executors_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(executors_mod.os, "cpu_count", lambda: 7)
        assert default_worker_count() == 7

    def test_never_returns_zero(self, monkeypatch):
        # An empty affinity mask and an unknown core count must still
        # floor at one worker, whatever host the test runs on.
        monkeypatch.setattr(
            executors_mod.os, "sched_getaffinity", lambda pid: set(), raising=False
        )
        monkeypatch.setattr(executors_mod.os, "cpu_count", lambda: None)
        assert default_worker_count() == 1
        monkeypatch.delattr(executors_mod.os, "sched_getaffinity", raising=False)
        assert default_worker_count() == 1

    def test_pool_backend_defaults_from_worker_count(self, monkeypatch):
        monkeypatch.setattr(
            executors_mod, "default_worker_count", lambda: 5
        )
        assert ProcessPoolBackend().workers == 5
