"""Fault injection: damage run-directory files the way a crash leaves
them, then run on, and check that every later run still reproduces the
uninterrupted bytes.

The torn-tail cases restart *twice*: the first restart appends after the
damage and the second reads what that append left behind -- a row glued
onto a torn fragment would be a corrupt line there (DESIGN.md,
"Run-directory files").  A campaign SIGKILLed with its process pool
mid-unit resumes the same way.  The last cases cut a request body short, send
a header line past the server's line limit, and check that requests
refused while being read are still counted in ``/metrics``.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import socket
import subprocess
import sys
import textwrap
import time
from collections import Counter
from pathlib import Path

import pytest

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


KILL9_SCRIPT = textwrap.dedent(
    """
    import json, sys
    from repro.analysis.campaign import CharacterizationCampaign
    from repro.dram.geometry import ChipGeometry

    run_dir, case = sys.argv[1], json.loads(sys.argv[2])
    chips, capacity_gbit, iterations, seed, intervals_s, temperatures_c = case
    CharacterizationCampaign(
        chips, ChipGeometry.from_capacity_gigabits(capacity_gbit), iterations, seed
    ).run(
        intervals_s, temperatures_c, workers=2, chips_per_unit=1, run_dir=run_dir,
        progress=lambda result, tracker: print("UNIT", result.unit_id, flush=True),
    )
    """
)


@pytest.mark.slow
def test_kill9_on_the_pool_then_two_resumes_reproduce_the_golden_summary(tmp_path):
    """SIGKILL a pooled one-chip-unit campaign, workers included, as soon
    as its first unit is stored; two pooled resumes reproduce the golden
    summary, and the store ends with one ok row per chip."""
    case = GOLDEN_CASES[GOLDEN_CASE]
    chips, capacity_gbit, iterations, seed, intervals_s, temperatures_c = case
    run_dir = tmp_path / "run"
    src = Path(__file__).resolve().parents[1] / "src"
    # A session of its own: killing its process group kills the pool
    # workers too, so none outlives the test.
    proc = subprocess.Popen(
        [sys.executable, "-c", KILL9_SCRIPT, str(run_dir), json.dumps(case)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        start_new_session=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 120.0)
        first = proc.stdout.readline() if ready else ""
    finally:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        proc.stdout.close()
    assert first.startswith("UNIT"), "the campaign never stored a unit"

    campaign = CharacterizationCampaign(
        chips, ChipGeometry.from_capacity_gigabits(capacity_gbit), iterations, seed
    )
    golden = json.loads(GOLDEN_PATH.read_text())["summaries"][GOLDEN_CASE]
    for _ in range(2):
        summary = campaign.run(
            intervals_s, temperatures_c, workers=2, run_dir=str(run_dir), resume=True
        )
        assert canonical(summary.to_json_dict()) == canonical(golden)
    rows = list(JsonlRows(run_dir / RESULTS_NAME, "result"))
    assert all(row["status"] == "ok" for row in rows)
    assert Counter(row["unit_id"] for row in rows) == Counter(
        f"chip-{chip:05d}" for chip in range(3 * chips)
    )


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


def test_a_batch_of_rows_reaches_the_file_when_it_ends(tmp_path):
    """Rows appended inside ``JsonlLog.batch`` flush together at its end,
    also when the block raises; outside one each row flushes at once."""
    path = tmp_path / "log.jsonl"
    with JsonlLog(path) as log:
        log.append({"n": 0})
        assert path.read_text() == '{"n": 0}\n'
        with log.batch():
            log.append({"n": 1})
            log.append({"n": 2})
            assert path.read_text() == '{"n": 0}\n'
        assert path.read_text() == '{"n": 0}\n{"n": 1}\n{"n": 2}\n'
        try:
            with log.batch():
                log.append({"n": 3})
                raise KeyboardInterrupt
        except KeyboardInterrupt:
            pass
        assert path.read_text().endswith('{"n": 3}\n')


def test_malformed_http_body_shorter_than_its_content_length_is_400(tmp_path):
    config = ServiceConfig(root=tmp_path / "svc", port=0, pool_workers=0, max_running=1)
    with ServiceThread(config) as service:
        body = json.dumps({"tenant": "acme", "spec": TINY_SPEC.to_json_dict()})
        status, payload = _post_raw(service, body[:17], content_length="100")
        assert status == 400
        assert "ended after 17 of 100 bytes" in payload["error"]["message"]
        assert ServiceClient(service.host, service.port).jobs() == []


#: A request whose header line runs past the server's 64 KiB line limit.
LONG_HEADER = f"GET /v1/healthz HTTP/1.1\r\nHost: test\r\nX-Long: {'a' * 70_000}\r\n\r\n"


def _exchange_raw(service, request: str) -> bytes:
    """Send ``request`` over a bare socket; return the whole response."""
    with socket.create_connection((service.host, service.port), timeout=30) as sock:
        sock.sendall(request.encode("latin-1"))
        sock.shutdown(socket.SHUT_WR)
        response = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            response += chunk
    return response


def test_header_line_past_the_line_limit_is_431_and_the_next_request_served(tmp_path):
    config = ServiceConfig(root=tmp_path / "svc", port=0, pool_workers=0, max_running=1)
    with ServiceThread(config) as service:
        response = _exchange_raw(service, LONG_HEADER)
        status_line, _, rest = response.partition(b"\r\n")
        assert status_line == b"HTTP/1.1 431 Request Header Fields Too Large"
        error = json.loads(rest.partition(b"\r\n\r\n")[2])["error"]
        assert error["type"] == "error" and "limit" in error["message"]
        assert ServiceClient(service.host, service.port).healthz()["status"] == "ok"


def test_requests_refused_while_read_are_counted_as_unparsed(tmp_path):
    config = ServiceConfig(root=tmp_path / "svc", port=0, pool_workers=0, max_running=1)
    with ServiceThread(config) as service:
        refused = (
            LONG_HEADER,
            "POST /v1/jobs HTTP/1.1\r\nHost: test\r\nContent-Length: abc\r\n\r\n",
            "BROKEN\r\n\r\n",
        )
        status_lines = [
            _exchange_raw(service, request).partition(b"\r\n")[0] for request in refused
        ]
        assert status_lines == [
            b"HTTP/1.1 431 Request Header Fields Too Large",
            b"HTTP/1.1 400 Bad Request",
            b"HTTP/1.1 400 Bad Request",
        ]
        client = ServiceClient(service.host, service.port)
        counts = dict(
            line.rsplit(" ", 1)
            for line in client.metrics_text().splitlines()
            if line.startswith("service_requests_total{")
        )
        unparsed = 'service_requests_total{method="-",route="unparsed",status="%s"}'
        assert counts[unparsed % 431] == "1"
        assert counts[unparsed % 400] == "2"
        assert client.healthz()["status"] == "ok"


def test_unrouted_methods_share_one_label_and_wrong_methods_get_405(tmp_path):
    config = ServiceConfig(root=tmp_path / "svc", port=0, pool_workers=0, max_running=1)
    with ServiceThread(config) as service:
        client = ServiceClient(service.host, service.port)

        def method_labels():
            return {
                line.split('method="', 1)[1].split('"', 1)[0]
                for line in client.metrics_text().splitlines()
                if line.startswith("service_requests_total{")
            }

        assert client.healthz()["status"] == "ok"
        before = method_labels()
        for method in ("FOO", "BAR", "X1"):
            response = _exchange_raw(service, f"{method} /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            assert response.partition(b"\r\n")[0] == b"HTTP/1.1 405 Method Not Allowed"
        assert method_labels() - before == {"other"}
        for path in ("/v1/healthz", "/metrics"):
            response = _exchange_raw(service, f"POST {path} HTTP/1.1\r\nHost: t\r\n\r\n")
            status_line, _, rest = response.partition(b"\r\n")
            assert status_line == b"HTTP/1.1 405 Method Not Allowed"
            assert "not allowed" in json.loads(rest.partition(b"\r\n\r\n")[2])["error"]["message"]
