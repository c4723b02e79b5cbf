"""Tests for the observability layer (`repro.obs`).

Covers the layer's contracts:

* metric primitives -- counters/gauges/histograms, kind conflicts,
  deterministic snapshots, reset;
* tracing -- nested spans feed name-keyed histograms and attributed
  events;
* gating -- disabled instrumentation records nothing, enabling is
  reversible, injection into the engine works without the global flag;
* **zero perturbation** -- a campaign summary with observability enabled
  is byte-identical to the per-chip reference summary (a named case of
  the check ``tests/test_differential.py`` draws), and the run directory
  gains an ``events.jsonl`` without any change to ``results.jsonl``
  semantics.
"""

import json

import pytest

from repro import obs
from repro.analysis.campaign import CharacterizationCampaign
from repro.conditions import Conditions, ReachDelta
from repro.core.bruteforce import BruteForceProfiler
from repro.core.fleetprof import FleetProfiler
from repro.core.reaper import REAPER
from repro.dram.chip import SimulatedDRAMChip
from repro.dram.fleet import ChipFleet, ReachSet
from repro.dram.vendor import VENDOR_A, VENDOR_B, VENDOR_C
from repro.errors import ConfigurationError
from repro.infra import testbed
from repro.mitigation.rowmapout import RowMapOut
from repro.obs import (
    JsonlEventSink,
    ListEventSink,
    MetricsRegistry,
    Observability,
    Tracer,
    render_report,
)
from repro.runner import (
    EVENTS_NAME,
    RunnerEngine,
    WorkUnit,
    build_chip_units,
    measure_chip,
)

from conftest import TINY_GEOMETRY, TEST_SEED, assert_campaign_matches_reference

MANIFEST = {"fingerprint": "f" * 32}


@pytest.fixture
def enabled_obs():
    """Enable the process-wide layer for one test, restored afterwards."""
    obs.reset()
    obs.enable()
    yield obs.get()
    obs.disable()
    obs.reset()


def ok_worker(payload):
    return {"i": payload["i"]}


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.0)
        reg.gauge("g").set(5.0)
        reg.gauge("g").dec()
        for v in (1.0, 3.0):
            reg.histogram("h").observe(v)
        assert reg.counter("c").value == 3.0
        assert reg.gauge("g").value == 4.0
        hist = reg.histogram("h")
        assert (hist.count, hist.total, hist.min, hist.max) == (2, 4.0, 1.0, 3.0)
        assert hist.mean == pytest.approx(2.0)
        assert hist.stddev == pytest.approx(1.0)

    def test_labels_key_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("units", status="ok").inc(3)
        reg.counter("units", status="failed").inc()
        assert reg.counter("units", status="ok").value == 3
        assert reg.counter("units", status="failed").value == 1
        assert len(reg) == 2

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.gauge("x")

    def test_counters_cannot_decrease(self):
        with pytest.raises(ConfigurationError, match="only increase"):
            MetricsRegistry().counter("c").inc(-1.0)

    def test_snapshot_deterministic_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        # Same series created in opposite orders must snapshot identically.
        a.counter("z").inc()
        a.counter("a", k="1").inc()
        b.counter("a", k="1").inc()
        b.counter("z").inc()
        assert a.snapshot() == b.snapshot()
        assert json.dumps(a.snapshot()) == json.dumps(b.snapshot())

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot() == []


class TestTracing:
    def test_span_records_histogram_and_event(self):
        reg, sink = MetricsRegistry(), ListEventSink()
        tracer = Tracer(reg, sink)
        with tracer.span("outer", job=1):
            with tracer.span("inner"):
                pass
        assert reg.histogram("span.outer").count == 1
        assert reg.histogram("span.inner").count == 1
        inner, outer = sink.events  # inner closes first
        assert inner["name"] == "inner" and inner["depth"] == 1
        assert outer["name"] == "outer" and outer["depth"] == 0
        assert outer["job"] == 1
        assert outer["elapsed_s"] >= inner["elapsed_s"] >= 0.0

    def test_span_attrs_stay_out_of_metric_labels(self):
        reg = MetricsRegistry()
        tracer = Tracer(reg)
        for chip_id in range(10):
            with tracer.span("profiler.run", chip_id=chip_id):
                pass
        # One aggregated series, not one per chip.
        assert len(reg) == 1
        assert reg.histogram("span.profiler.run").count == 10


class TestEventSinks:
    def test_jsonl_sink_appends_flushed_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlEventSink(path) as sink:
            sink.emit("alpha", x=1)
            sink.emit("beta")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["event"] for r in rows] == ["alpha", "beta"]
        assert [r["seq"] for r in rows] == [0, 1]
        assert rows[0]["x"] == 1 and "ts" in rows[0]

    def test_jsonl_seq_continues_across_reopen(self, tmp_path):
        # Regression: reopening (the checkpoint/resume path) used to
        # restart seq at 0, handing consumers duplicate sequence numbers.
        path = tmp_path / "events.jsonl"
        with JsonlEventSink(path) as sink:
            sink.emit("a")
            sink.emit("b")
        with JsonlEventSink(path) as sink:
            sink.emit("c")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["seq"] for r in rows] == [0, 1, 2]

    def test_jsonl_seq_survives_torn_tail(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlEventSink(path) as sink:
            sink.emit("a")
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"event": "torn", "seq": 1, "x\n')  # crash artifact
        with JsonlEventSink(path) as sink:
            sink.emit("b")
        last = json.loads(path.read_text().splitlines()[-1])
        # The unparseable line still advances the sequence (line-count
        # fallback), so seq stays strictly monotone across the corruption.
        assert last["event"] == "b" and last["seq"] == 2

    def test_jsonl_seq_counts_non_object_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlEventSink(path) as sink:
            sink.emit("a")
        with path.open("a", encoding="utf-8") as handle:
            handle.write("[1, 2]\n")  # valid JSON, but no event object
        with JsonlEventSink(path) as sink:
            sink.emit("b")
        last = json.loads(path.read_text().splitlines()[-1])
        assert last["event"] == "b" and last["seq"] == 2

    def test_jsonl_supplied_ts_overrides_stamp_seq_stays_local(self, tmp_path):
        # Worker event replay passes the worker's wall-clock ts through;
        # the sink must honour it while keeping seq ownership local.
        path = tmp_path / "events.jsonl"
        with JsonlEventSink(path) as sink:
            sink.emit("replayed", ts=5.0)
        (row,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert row["ts"] == 5.0 and row["seq"] == 0


class TestSinkLifecycle:
    def test_set_sink_closes_replaced_sink(self, tmp_path):
        # Regression: swapping sinks used to leak the old open handle.
        layer = Observability()
        first = JsonlEventSink(tmp_path / "a.jsonl")
        second = JsonlEventSink(tmp_path / "b.jsonl")
        layer.set_sink(first)
        layer.set_sink(second)
        assert first._handle is None  # closed, not leaked
        assert second._handle is not None
        layer.emit("hello")
        second.close()
        assert "hello" in (tmp_path / "b.jsonl").read_text()

    def test_set_sink_same_instance_is_not_closed(self, tmp_path):
        layer = Observability()
        sink = JsonlEventSink(tmp_path / "a.jsonl")
        layer.set_sink(sink)
        layer.set_sink(sink)  # re-install: must stay open
        assert sink._handle is not None
        sink.close()

    def test_double_enable_closes_first_events_path(self, tmp_path):
        obs.reset()
        try:
            obs.enable(events_path=tmp_path / "first.jsonl")
            first_sink = obs.get().sink
            obs.enable(events_path=tmp_path / "second.jsonl")
            assert first_sink._handle is None
            obs.emit("hello")
        finally:
            obs.disable()
            obs.reset()
        assert "hello" in (tmp_path / "second.jsonl").read_text()

    def test_sink_to_restores_previous_sink_alive(self, tmp_path):
        layer = Observability()
        outer = JsonlEventSink(tmp_path / "outer.jsonl")
        layer.set_sink(outer)
        with layer.sink_to(tmp_path / "inner.jsonl") as inner:
            layer.emit("inside")
        # The outer sink must come back *usable* (sink_to must not let
        # set_sink's auto-close kill it), the temporary one closed.
        layer.emit("outside")
        assert inner._handle is None
        outer.close()
        assert "inside" in (tmp_path / "inner.jsonl").read_text()
        assert "outside" in (tmp_path / "outer.jsonl").read_text()

    def test_module_sink_to_disabled_yields_null_sink(self, tmp_path):
        # Regression: the disabled path used to yield None, crashing any
        # `with obs.sink_to(p) as sink: sink.emit(...)` caller.
        assert not obs.enabled()
        path = tmp_path / "events.jsonl"
        with obs.sink_to(path) as sink:
            assert sink is not None
            sink.emit("ignored")  # NullEventSink: a no-op, not a crash
            assert sink.path is None
        assert not path.exists()

    def test_module_sink_to_enabled_yields_jsonl_sink(self, enabled_obs, tmp_path):
        path = tmp_path / "events.jsonl"
        with obs.sink_to(path) as sink:
            obs.emit("recorded")
            assert sink.path == path
        assert "recorded" in path.read_text()


class TestGating:
    def test_disabled_records_nothing(self):
        obs.disable()
        obs.reset()
        obs.counter("nope")
        obs.observe("nope.h", 1.0)
        with obs.span("nope.span"):
            pass
        assert obs.snapshot() == []

    def test_enable_disable_roundtrip(self, tmp_path):
        obs.reset()
        try:
            obs.enable(events_path=tmp_path / "ev.jsonl")
            obs.counter("c")
            obs.emit("hello")
            assert obs.enabled()
        finally:
            obs.disable()
        assert not obs.enabled()
        assert obs.snapshot()[0]["value"] == 1.0
        assert "hello" in (tmp_path / "ev.jsonl").read_text()
        obs.reset()

    def test_report_on_empty_registry(self):
        assert "no metrics recorded" in render_report([])

    def test_engine_accepts_injected_observability(self):
        # Explicit injection records even though the global layer is off.
        assert not obs.enabled()
        layer = Observability(sink=ListEventSink())
        engine = RunnerEngine(observability=layer)
        units = tuple(WorkUnit(f"u-{i}", "toy", {"i": i}) for i in range(3))
        engine.run(ok_worker, units, MANIFEST)
        counters = {
            (r["name"], tuple(sorted(r["labels"].items()))): r["value"]
            for r in layer.snapshot()
            if r["kind"] == "counter"
        }
        assert counters[("runner.units", (("status", "ok"),))] == 3
        events = [e["event"] for e in layer.sink.events]
        assert events[0] == "runner.start" and events[-1] == "runner.finish"
        assert events.count("runner.unit") == 3


class TestInstrumentationPoints:
    def test_chip_commands_counted(self, enabled_obs):
        chip = SimulatedDRAMChip(geometry=TINY_GEOMETRY, seed=TEST_SEED)
        BruteForceProfiler(iterations=1).run(
            chip, Conditions(trefi=0.512, temperature=45.0)
        )
        reg = enabled_obs.metrics
        n_patterns = len(BruteForceProfiler().patterns)
        assert reg.counter("chip.commands", command="write_pattern").value == n_patterns
        assert reg.counter("chip.commands", command="read_compare").value == n_patterns
        # Simulated wait time per pass equals the profiled interval.
        wait_hist = reg.histogram("chip.sim_seconds", command="wait")
        assert wait_hist.max == pytest.approx(0.512)
        assert reg.counter("profiler.iterations", mechanism="brute-force").value == 1

    def test_reaper_pause_accounting(self, enabled_obs):
        chip = SimulatedDRAMChip(geometry=TINY_GEOMETRY, seed=TEST_SEED)
        reaper = REAPER(
            device=chip,
            mitigation=RowMapOut(
                total_rows=TINY_GEOMETRY.total_rows,
                bits_per_row=TINY_GEOMETRY.bits_per_row,
            ),
            target=Conditions(trefi=1.024, temperature=45.0),
            reach=ReachDelta(delta_trefi=0.25),
            iterations=1,
        )
        record = reaper.profile_and_update()
        reg = enabled_obs.metrics
        assert reg.counter("reaper.rounds").value == 1
        pause = reg.histogram("reaper.pause_sim_seconds")
        assert pause.count == 1
        assert pause.total == pytest.approx(record.runtime_seconds)
        assert reg.histogram("span.reaper.round").count == 1


@pytest.fixture(scope="module")
def campaign():
    return CharacterizationCampaign(
        chips_per_vendor=1, geometry=TINY_GEOMETRY, iterations=1, seed=42
    )


CAMPAIGN_KW = dict(intervals_s=(0.512, 1.024), temperatures_c=(45.0, 55.0))


class TestZeroPerturbation:
    def test_summary_byte_identical_with_obs_on_vs_off(self, campaign):
        assert_campaign_matches_reference(campaign, **CAMPAIGN_KW, observed=True)

    def test_fleet_run_reports_kernel_spans(self, campaign, enabled_obs):
        campaign.run(chips_per_unit=2, **CAMPAIGN_KW)
        names = {row["name"] for row in obs.get().snapshot()}
        # The fleet path reports per-phase kernel spans.
        assert "span.kernel.read_compare" in names

    def test_events_jsonl_lands_in_run_dir(self, campaign, tmp_path):
        run_dir = tmp_path / "run"
        try:
            obs.enable()
            campaign.run(run_dir=str(run_dir), **CAMPAIGN_KW)
        finally:
            obs.disable()
            obs.reset()
        events_path = run_dir / EVENTS_NAME
        assert events_path.exists()
        rows = [json.loads(line) for line in events_path.read_text().splitlines()]
        kinds = [r["event"] for r in rows]
        assert kinds[0] == "runner.start" and "runner.finish" in kinds
        assert kinds.count("runner.unit") == 3
        assert any(
            r["event"] == "span" and r.get("name") == "kernel.read_compare"
            for r in rows
        )
        # The results store is untouched by the event log.
        assert (run_dir / "results.jsonl").exists()

    def test_report_renders_campaign_counters(self, campaign, enabled_obs):
        campaign.run(**CAMPAIGN_KW)
        text = obs.report(title="campaign metrics")
        assert "campaign metrics" in text
        assert "chip.commands" in text
        assert "profiler.iterations" in text
        assert "profiler.new_cells" in text
        assert "runner.units" in text
        assert "span.kernel.read_compare" in text


def _counter_totals(snapshot):
    """Counter totals comparable across profilers: ``chip.commands`` per
    command kind, the ``profiler.*`` counters summed over their
    ``mechanism`` label."""
    totals = {}
    for row in snapshot:
        if row["kind"] != "counter":
            continue
        if row["name"] == "chip.commands":
            key = (row["name"], row["labels"]["command"])
        elif row["name"].startswith("profiler."):
            key = (row["name"], None)
        else:
            continue
        totals[key] = totals.get(key, 0.0) + row["value"]
    return totals


class TestKernelCounters:
    @pytest.mark.parametrize("chips_per_unit", [1, 3])
    def test_kernel_counters_equal_the_per_chip_walk(
        self, campaign, enabled_obs, chips_per_unit
    ):
        """The kernel adds in bulk exactly the per-command and
        per-iteration counts the per-chip walk records one by one."""
        campaign.run(chips_per_unit=chips_per_unit, **CAMPAIGN_KW)
        kernel = _counter_totals(obs.snapshot())
        obs.reset()
        for unit in build_chip_units(
            chips_per_vendor=campaign.chips_per_vendor,
            geometry=campaign.geometry,
            iterations=campaign.iterations,
            seed=campaign.seed,
            **CAMPAIGN_KW,
        ):
            measure_chip(unit.payload)
        walk = _counter_totals(obs.snapshot())
        assert walk[("chip.commands", "read_compare")] > 0
        assert walk[("profiler.new_cells", None)] > 0
        assert kernel == walk

    def test_reach_counters_sum_the_cut_over_conditions(self, enabled_obs, monkeypatch):
        """``kernel.reach_cells`` adds each condition's reach set size and
        ``kernel.tail_cells`` the full tail once per condition."""
        sizes = []
        reaching = ReachSet.reaching

        def spy(tail, exposure_s):
            cut = reaching(tail, exposure_s)
            sizes.append(len(cut.cells))
            return cut

        monkeypatch.setattr(ReachSet, "reaching", spy)
        bed = testbed.TestBed.build_members(
            [(0, VENDOR_A), (1, VENDOR_B), (2, VENDOR_C)], geometry=TINY_GEOMETRY, seed=TEST_SEED
        )
        fleet = ChipFleet(bed.chips)
        profiler = FleetProfiler(iterations=1)
        grids = [(45.0, [0.512, 1.024, 2.048]), (55.0, [2.048])]
        for temperature, intervals in grids:
            bed.set_ambient(temperature)
            profiler.run_grid(fleet, [Conditions(t, temperature) for t in intervals])
        reach = enabled_obs.metrics.counter("kernel.reach_cells").value
        tail = enabled_obs.metrics.counter("kernel.tail_cells").value
        assert len(sizes) == 4
        assert tail == 4 * len(fleet.population)
        assert reach == sum(sizes)
        # The cut removes most of the tail at these conditions, not all.
        assert 0 < reach < tail / 2
