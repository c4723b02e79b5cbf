"""Fault injection: damage run-directory files the way a crash leaves
them, then run on, and check that every later run still reproduces the
uninterrupted bytes.

The torn-tail cases restart *twice*: the first restart appends after the
damage and the second reads what that append left behind -- a row glued
onto a torn fragment would be a corrupt line there (DESIGN.md,
"Run-directory files").  The last case cuts a request body short.
"""

from __future__ import annotations

import asyncio
import json
import time

from repro.analysis.campaign import CharacterizationCampaign
from repro.dram.geometry import ChipGeometry
from repro.jsonfiles import JsonlLog, JsonlRows
from repro.obs import JsonlEventSink
from repro.runner import RESULTS_NAME, ResultStore, RunnerEngine, WorkUnit
from repro.service import DONE, LEDGER_NAME, QUEUED, CampaignJobSpec, JobLedger, JobManager
from repro.service import ServiceClient, ServiceConfig, ServiceThread

from conftest import canonical
from test_differential import GOLDEN_CASES, GOLDEN_PATH
from test_service import _post_raw

GOLDEN_CASE = "three-temperatures"


def tear_last_row(path) -> None:
    """Cut the file's last row in half, as a kill mid-append leaves it."""
    data = path.read_bytes()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    path.write_bytes(data[: start + (len(data) - start) // 2])


def test_torn_result_row_then_two_resumes_reproduce_the_golden_summary(tmp_path):
    chips, capacity_gbit, iterations, seed, intervals_s, temperatures_c = (
        GOLDEN_CASES[GOLDEN_CASE]
    )
    campaign = CharacterizationCampaign(
        chips, ChipGeometry.from_capacity_gigabits(capacity_gbit), iterations, seed
    )
    run_dir = tmp_path / "run"
    campaign.run(intervals_s, temperatures_c, run_dir=str(run_dir))
    uninterrupted = {
        uid: result.to_json_dict()["value"]
        for uid, result in ResultStore(run_dir).load_results().items()
    }
    tear_last_row(run_dir / RESULTS_NAME)
    assert len(ResultStore(run_dir).load_results()) == len(uninterrupted) - 1

    golden = json.loads(GOLDEN_PATH.read_text())["summaries"][GOLDEN_CASE]
    for _ in range(2):
        summary = campaign.run(intervals_s, temperatures_c, run_dir=str(run_dir), resume=True)
        assert canonical(summary.to_json_dict()) == canonical(golden)
        resumed = {
            uid: result.to_json_dict()["value"]
            for uid, result in ResultStore(run_dir).load_results().items()
        }
        assert resumed == uninterrupted


TINY_SPEC = CampaignJobSpec(
    chips_per_vendor=1,
    capacity_gbit=1.0 / 16.0,
    iterations=1,
    intervals_s=(0.512,),
    temperatures_c=(45.0,),
)


async def _run_manager(root, job_id):
    """Start a manager on ``root``, let ``job_id`` reach done, shut down."""
    manager = JobManager(root, pool_workers=0, max_running=1)
    await manager.start()
    try:
        deadline = time.monotonic() + 120.0
        while manager.job(job_id).state != DONE:
            assert time.monotonic() < deadline, f"{job_id} stuck"
            await asyncio.sleep(0.01)
        return manager.result(job_id)
    finally:
        await manager.shutdown()


def test_torn_ledger_tail_then_two_service_starts(tmp_path):
    ledger = JobLedger(tmp_path / LEDGER_NAME)
    ledger.append("job-000001", "acme", QUEUED, spec=TINY_SPEC.to_json_dict())
    ledger.append("job-000001", "acme", "running")
    ledger.close()
    tear_last_row(tmp_path / LEDGER_NAME)

    expected = TINY_SPEC.build_campaign().run(
        intervals_s=TINY_SPEC.intervals_s, temperatures_c=TINY_SPEC.temperatures_c
    ).to_json_dict()
    first = asyncio.run(_run_manager(tmp_path, "job-000001"))
    second = asyncio.run(_run_manager(tmp_path, "job-000001"))
    assert canonical(first) == canonical(second) == canonical(expected)
    summary_path = tmp_path / "acme" / "job-000001" / "summary.json"
    assert canonical(json.loads(summary_path.read_text())) == canonical(expected)


def test_torn_event_then_append_keeps_every_complete_event(tmp_path):
    path = tmp_path / "events.jsonl"
    with JsonlEventSink(path) as sink:
        for index in range(3):
            sink.emit("unit", index=index)
    tear_last_row(path)
    for name in ("after", "later"):
        with JsonlEventSink(path) as sink:
            sink.emit(name)

    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["event"] for row in rows] == ["unit", "unit", "after", "later"]
    seqs = [row["seq"] for row in rows]
    assert all(a < b for a, b in zip(seqs, seqs[1:]))


_EXECUTED = []


def recording_worker(payload):
    _EXECUTED.append(payload["i"])
    return {"i": payload["i"]}


def test_final_row_without_newline_is_kept_not_truncated(tmp_path):
    manifest = {"fingerprint": "f" * 32}
    units = tuple(WorkUnit(unit_id=f"u-{i}", kind="toy", payload={"i": i}) for i in range(5))
    run_dir = tmp_path / "run"
    RunnerEngine(run_dir=str(run_dir)).run(recording_worker, units[:4], manifest)
    results = run_dir / RESULTS_NAME
    results.write_bytes(results.read_bytes().rstrip(b"\n"))  # killed before "\n"

    _EXECUTED.clear()
    for _ in range(2):
        RunnerEngine(run_dir=str(run_dir), resume=True).run(
            recording_worker, units, manifest
        )
    assert _EXECUTED == [4]
    lines = results.read_text().splitlines()
    assert [json.loads(line)["unit_id"] for line in lines] == [u.unit_id for u in units]


def test_torn_row_longer_than_one_read_chunk_is_cut_at_its_start(tmp_path):
    path = tmp_path / "log.jsonl"
    with JsonlLog(path) as log:
        log.append({"n": 0})
        log.append({"blob": "x" * 200_000})
    tear_last_row(path)
    with JsonlLog(path) as log:
        log.append({"n": 1})
    assert path.read_text() == '{"n": 0}\n{"n": 1}\n'
    rows = JsonlRows(path, "test")
    assert list(rows) == [{"n": 0}, {"n": 1}] and rows.skipped == 0


def test_malformed_http_body_shorter_than_its_content_length_is_400(tmp_path):
    config = ServiceConfig(root=tmp_path / "svc", port=0, pool_workers=0, max_running=1)
    with ServiceThread(config) as service:
        body = json.dumps({"tenant": "acme", "spec": TINY_SPEC.to_json_dict()})
        status, payload = _post_raw(service, body[:17], content_length="100")
        assert status == 400
        assert "ended after 17 of 100 bytes" in payload["error"]["message"]
        assert ServiceClient(service.host, service.port).jobs() == []
