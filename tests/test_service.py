"""The campaign service: specs, ledger, manager, HTTP API, crash resume.

The contract under test is the one the service advertises:

* a campaign submitted over HTTP produces a summary **byte-identical** to
  the blocking ``CharacterizationCampaign.run`` path with the same spec;
* concurrent submissions from different tenants are isolated (per-tenant
  run dirs) and scheduled fairly (round-robin across tenants);
* cancel persists partial results; shutdown/kill never loses finished
  units; a restarted manager re-adopts unfinished jobs from ``jobs.jsonl``
  and completes them via resume.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.service import (
    CANCELLED,
    DONE,
    QUEUED,
    CampaignJobSpec,
    JobLedger,
    JobManager,
    QueueFullError,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    UnknownJobError,
    validate_tenant,
)

#: Small-and-fast spec: 3 chips, one condition, vectorized fast path.
TINY_SPEC = dict(
    chips_per_vendor=1,
    capacity_gbit=1.0 / 16.0,
    iterations=1,
    intervals_s=(0.512,),
    temperatures_c=(45.0,),
)
#: Deliberately long spec: 48 chips, so cancel/kill tests land mid-run on
#: any host -- the tests act after the first chip completes, with dozens
#: still to go.
SLOW_SPEC = dict(
    chips_per_vendor=16,
    capacity_gbit=0.25,
    iterations=2,
    intervals_s=(0.512, 1.024, 2.048),
    temperatures_c=(45.0, 55.0),
)
#: Chips in a SLOW_SPEC campaign (one unit per chip, three vendors).
SLOW_CHIPS = 3 * SLOW_SPEC["chips_per_vendor"]


def direct_summary(**spec_kwargs) -> dict:
    """The blocking-path summary for a spec (the byte-identity baseline)."""
    spec = CampaignJobSpec(**spec_kwargs)
    campaign = spec.build_campaign()
    summary = campaign.run(
        intervals_s=spec.intervals_s, temperatures_c=spec.temperatures_c
    )
    return summary.to_json_dict()


def canon(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


# ----------------------------------------------------------------------
# Spec and tenant validation
# ----------------------------------------------------------------------
class TestCampaignJobSpec:
    def test_defaults_mirror_cli(self):
        spec = CampaignJobSpec()
        assert spec.chips_per_vendor == 4
        assert spec.seed == 0x5EED
        assert spec.intervals_s == (0.512, 1.024, 2.048)
        assert spec.temperatures_c == (45.0, 55.0)

    def test_json_roundtrip(self):
        spec = CampaignJobSpec(**SLOW_SPEC)
        assert CampaignJobSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_unknown_keys_rejected_with_allowed_list(self):
        with pytest.raises(ConfigurationError) as excinfo:
            CampaignJobSpec.from_json_dict({"chips_per_vndor": 8})
        message = str(excinfo.value)
        assert "chips_per_vndor" in message and "chips_per_vendor" in message

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignJobSpec(chips_per_vendor=0)
        with pytest.raises(ConfigurationError):
            CampaignJobSpec(intervals_s=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            CampaignJobSpec(temperatures_c=())

    def test_tenant_rules(self):
        assert validate_tenant("acme-lab.2") == "acme-lab.2"
        for bad in ("", ".hidden", "a/b", "a b", "x" * 65, "../up"):
            with pytest.raises(ConfigurationError):
                validate_tenant(bad)


# ----------------------------------------------------------------------
# Ledger
# ----------------------------------------------------------------------
class TestJobLedger:
    def test_fold_keeps_latest_state_and_first_spec(self, tmp_path):
        ledger = JobLedger(tmp_path / "jobs.jsonl")
        ledger.append("job-000001", "acme", "queued", spec={"seed": 7})
        ledger.append("job-000001", "acme", "running")
        ledger.append("job-000002", "globex", "queued", spec={"seed": 8})
        ledger.close()
        folded = JobLedger(tmp_path / "jobs.jsonl").replay()
        assert list(folded) == ["job-000001", "job-000002"]
        assert folded["job-000001"]["state"] == "running"
        assert folded["job-000001"]["spec"] == {"seed": 7}

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        ledger = JobLedger(path)
        ledger.append("job-000001", "acme", "queued", spec={})
        ledger.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"job_id": "job-000002", "tena')  # kill -9 artifact
        folded = JobLedger(path).replay()
        assert list(folded) == ["job-000001"]

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text('not json\n{"job_id": "j", "state": "queued"}\n')
        with pytest.raises(ConfigurationError):
            JobLedger(path).replay()

    def test_non_object_lines_are_corrupt_or_torn(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        row = '{"job_id": "j", "state": "queued"}'
        path.write_text(f"{row}\n[1, 2]")  # unterminated: a torn tail
        assert list(JobLedger(path).replay()) == ["j"]
        path.write_text(f"{row}\n[1, 2]\n{row}\n")
        with pytest.raises(ConfigurationError, match=r"jobs\.jsonl:2: corrupt ledger row"):
            JobLedger(path).replay()


# ----------------------------------------------------------------------
# JobManager (in-process, serial in-thread execution)
# ----------------------------------------------------------------------
async def _wait_state(manager, job_id, states, timeout=120.0):
    deadline = time.monotonic() + timeout
    while True:
        record = manager.job(job_id)
        if record.state in states:
            return record
        if time.monotonic() >= deadline:
            raise TimeoutError(f"job {job_id} stuck in {record.state}")
        await asyncio.sleep(0.01)


class TestJobManager:
    def test_pool_workers_start_frozen(self, tmp_path):
        async def scenario():
            manager = JobManager(tmp_path, pool_workers=1, max_running=1)
            await manager.start()
            try:
                return await asyncio.wrap_future(manager._pool.submit(gc.get_freeze_count))
            finally:
                await manager.shutdown()

        assert asyncio.run(scenario()) > 0

    def test_submit_runs_to_done_and_matches_blocking_path(self, tmp_path):
        async def scenario():
            manager = JobManager(tmp_path, pool_workers=0, max_running=1)
            await manager.start()
            try:
                record = await manager.submit("acme", CampaignJobSpec(**TINY_SPEC))
                assert record.state == QUEUED
                final = await _wait_state(manager, record.job_id, (DONE,))
                assert final.progress["completed"] == final.progress["total"]
                result = manager.result(record.job_id)
            finally:
                await manager.shutdown()
            return record, result

        record, result = asyncio.run(scenario())
        assert canon(result) == canon(direct_summary(**TINY_SPEC))
        # namespaced run dir + durable summary snapshot
        run_dir = tmp_path / "acme" / record.job_id
        assert (run_dir / "results.jsonl").exists()
        persisted = json.loads((run_dir / "summary.json").read_text())
        assert canon(persisted) == canon(result)

    def test_concurrent_tenants_isolated_and_identical(self, tmp_path):
        async def scenario():
            manager = JobManager(tmp_path, pool_workers=0, max_running=2)
            await manager.start()
            try:
                spec = CampaignJobSpec(**TINY_SPEC)
                a = await manager.submit("acme", spec)
                b = await manager.submit("globex", spec)
                await _wait_state(manager, a.job_id, (DONE,))
                await _wait_state(manager, b.job_id, (DONE,))
                return (
                    manager.result(a.job_id),
                    manager.result(b.job_id),
                    a.job_id,
                    b.job_id,
                )
            finally:
                await manager.shutdown()

        result_a, result_b, id_a, id_b = asyncio.run(scenario())
        assert canon(result_a) == canon(result_b) == canon(direct_summary(**TINY_SPEC))
        assert (tmp_path / "acme" / id_a).is_dir()
        assert (tmp_path / "globex" / id_b).is_dir()

    def test_lake_report_per_tenant(self, tmp_path):
        async def scenario():
            manager = JobManager(tmp_path, pool_workers=0, max_running=2)
            await manager.start()
            try:
                spec = CampaignJobSpec(**TINY_SPEC)
                a = await manager.submit("acme", spec)
                b = await manager.submit("acme", spec)
                other = await manager.submit("globex", spec)
                for record in (a, b, other):
                    await _wait_state(manager, record.job_id, (DONE,))
                runs = await manager.lake_report("acme", report="runs")
                trend = await manager.lake_report(
                    "acme", report="trend", kind="interval"
                )
                summary = await manager.lake_report(
                    "acme", report="summary", runs=[a.job_id]
                )
                with pytest.raises(ConfigurationError):
                    await manager.lake_report("acme", report="bogus")
                with pytest.raises(ConfigurationError):
                    await manager.lake_report("acme", report="summary")
                return a.job_id, b.job_id, runs, trend, summary
            finally:
                await manager.shutdown()

        id_a, id_b, runs, trend, summary = asyncio.run(scenario())
        # Tenant isolation: globex's job never enters acme's lake.
        assert runs["compacted"] == [id_a, id_b]
        assert [row[0] for row in runs["rows"]] == [id_a, id_b]
        assert trend["report"] == "trend" and trend["rows"]
        # Lake-derived summary is byte-identical to the JSONL-derived one.
        from repro.lake import summary_from_run_dir

        assert canon(summary["summary"]) == canon(
            summary_from_run_dir(tmp_path / "acme" / id_a)
        )

    def test_fair_round_robin_across_tenants(self, tmp_path):
        async def scenario():
            manager = JobManager(tmp_path, pool_workers=0, max_running=1)
            await manager.start()
            try:
                spec = CampaignJobSpec(**TINY_SPEC)
                a1 = await manager.submit("acme", spec)
                a2 = await manager.submit("acme", spec)
                b1 = await manager.submit("globex", spec)
                for rec in (a1, a2, b1):
                    await _wait_state(manager, rec.job_id, (DONE,))
                return {r.job_id: manager.job(r.job_id) for r in (a1, a2, b1)}
            finally:
                await manager.shutdown()

        records = asyncio.run(scenario())
        by_start = sorted(records.values(), key=lambda r: r.started_ts)
        # acme queued two before globex's one; fairness interleaves them.
        assert [r.tenant for r in by_start] == ["acme", "globex", "acme"]

    def test_cancel_queued_job(self, tmp_path):
        async def scenario():
            manager = JobManager(tmp_path, pool_workers=0, max_running=1)
            await manager.start()
            try:
                first = await manager.submit("acme", CampaignJobSpec(**TINY_SPEC))
                second = await manager.submit("acme", CampaignJobSpec(**TINY_SPEC))
                cancelled = await manager.cancel(second.job_id)
                assert cancelled.state == CANCELLED
                await _wait_state(manager, first.job_id, (DONE,))
                return manager.job(second.job_id)
            finally:
                await manager.shutdown()

        record = asyncio.run(scenario())
        assert record.state == CANCELLED
        assert record.error is None

    def test_cancel_running_persists_partials(self, tmp_path):
        async def scenario():
            manager = JobManager(tmp_path, pool_workers=0, max_running=1)
            await manager.start()
            try:
                record = await manager.submit("acme", CampaignJobSpec(**SLOW_SPEC))
                deadline = time.monotonic() + 60.0
                while True:
                    snap = manager.job(record.job_id)
                    if snap.progress.get("completed", 0) >= 1:
                        break
                    assert time.monotonic() < deadline, "job never made progress"
                    await asyncio.sleep(0.01)
                await manager.cancel(record.job_id)
                final = await _wait_state(manager, record.job_id, (CANCELLED,))
                return final
            finally:
                await manager.shutdown()

        record = asyncio.run(scenario())
        run_dir = Path(record.run_dir)
        rows = (run_dir / "results.jsonl").read_text().splitlines()
        assert rows, "drained units must be persisted"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "interrupted"
        # partial: fewer persisted rows than the full campaign has chips
        assert len(rows) < SLOW_CHIPS

    def test_unknown_job_and_premature_result(self, tmp_path):
        async def scenario():
            manager = JobManager(tmp_path, pool_workers=0)
            await manager.start()
            try:
                with pytest.raises(UnknownJobError):
                    manager.job("job-999999")
                record = await manager.submit("acme", CampaignJobSpec(**TINY_SPEC))
                with pytest.raises(ConfigurationError):
                    manager.result(record.job_id)  # still queued/running
                await _wait_state(manager, record.job_id, (DONE,))
            finally:
                await manager.shutdown()

        asyncio.run(scenario())

    def test_queue_bound(self, tmp_path):
        async def scenario():
            manager = JobManager(tmp_path, pool_workers=0, max_running=1, max_queued=1)
            await manager.start()
            try:
                spec = CampaignJobSpec(**SLOW_SPEC)
                running = await manager.submit("acme", spec)
                # scheduler drains the queue into the running slot first
                await _wait_state(manager, running.job_id, ("running",), timeout=30)
                await manager.submit("acme", spec)  # fills the single queue slot
                with pytest.raises(QueueFullError):
                    await manager.submit("acme", spec)
            finally:
                await manager.shutdown()

        asyncio.run(scenario())

    def test_restart_resumes_from_ledger(self, tmp_path):
        """Simulate a crash: ledger says running, run dir is partial."""
        spec = CampaignJobSpec(**TINY_SPEC)

        async def crash_phase():
            manager = JobManager(tmp_path, pool_workers=0, max_running=1)
            await manager.start()
            record = await manager.submit("acme", spec)
            # "Crash": abandon without shutdown; the ledger retains the
            # queued row (and possibly running) with no terminal row.
            for task in list(manager._running.values()):
                task.cancel()
            if manager._scheduler:
                manager._scheduler.cancel()
            manager.ledger.close()
            return record.job_id

        job_id = asyncio.run(crash_phase())

        async def resume_phase():
            manager = JobManager(tmp_path, pool_workers=0, max_running=1)
            await manager.start()
            try:
                adopted = manager.job(job_id)
                assert adopted.state in (QUEUED, "running", DONE)
                await _wait_state(manager, job_id, (DONE,))
                return manager.result(job_id)
            finally:
                await manager.shutdown()

        result = asyncio.run(resume_phase())
        assert canon(result) == canon(direct_summary(**TINY_SPEC))

    def test_restart_adopts_ledger_with_retired_spec_keys(self, tmp_path):
        """A ``jobs.jsonl`` written before the ``shared_population``,
        ``megakernel``, ``condition_tiles`` and ``fast_path`` spec keys were
        retired still re-adopts, and the job finishes byte-identical to the
        blocking run."""
        spec = dict(TINY_SPEC, chips_per_unit=2)
        rows = [
            '{"job_id": "job-000001", "spec": {"capacity_gbit": 0.0625, '
            '"chips_per_unit": 2, "chips_per_vendor": 1, "condition_tiles": null, '
            '"fast_path": false, "intervals_s": [0.512], "iterations": 1, '
            '"max_retries": 1, "megakernel": true, "seed": 24301, '
            '"shared_population": null, "temperatures_c": [45.0], '
            '"workers": null}, "state": "queued", "tenant": "acme", '
            '"trace_id": "7d05a7955f8efbe68f15425e2cc7e05a", '
            '"ts": 1792128513.5795019}',
            '{"job_id": "job-000001", "state": "running", "tenant": "acme", '
            '"ts": 1792128513.5796504}',
        ]
        (tmp_path / "jobs.jsonl").write_text("\n".join(rows) + "\n")

        async def scenario():
            manager = JobManager(tmp_path, pool_workers=0, max_running=1)
            await manager.start()
            try:
                adopted = manager.job("job-000001")
                assert adopted.spec == CampaignJobSpec(**spec)
                await _wait_state(manager, "job-000001", (DONE,))
                return manager.result("job-000001")
            finally:
                await manager.shutdown()

        result = asyncio.run(scenario())
        assert canon(result) == canon(direct_summary(**spec))


# ----------------------------------------------------------------------
# HTTP API (real sockets via ServiceThread)
# ----------------------------------------------------------------------
@pytest.fixture
def service(tmp_path):
    config = ServiceConfig(
        root=tmp_path / "svc", port=0, pool_workers=0, max_running=2
    )
    with ServiceThread(config) as svc:
        yield svc


def _post_raw(service, body: str, content_length=None) -> "tuple[int, dict]":
    """POST ``body`` to ``/v1/jobs`` over a bare socket, so the request
    can carry a Content-Length no HTTP client library would send."""
    encoded = body.encode("utf-8")
    length = str(len(encoded)) if content_length is None else content_length
    head = f"POST /v1/jobs HTTP/1.1\r\nHost: test\r\nContent-Length: {length}\r\n\r\n"
    with socket.create_connection((service.host, service.port), timeout=30) as sock:
        sock.sendall(head.encode("latin-1") + encoded)
        sock.shutdown(socket.SHUT_WR)
        response = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            response += chunk
    status_line, _, rest = response.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), json.loads(payload)


class TestHttpApi:
    def test_submit_stream_result_roundtrip(self, service):
        client = ServiceClient(service.host, service.port)
        assert client.healthz()["status"] == "ok"

        job = client.submit("acme", dict(TINY_SPEC))
        events = [ev["event"] for ev in client.events(job["job_id"])]
        assert "runner.start" in events
        assert events[-1] == "job.state"  # stream ends with the terminal event

        record = client.wait(job["job_id"], timeout=120)
        assert record["state"] == DONE
        assert record["progress"]["completed"] == record["progress"]["total"]
        assert canon(client.result(job["job_id"])) == canon(
            direct_summary(**TINY_SPEC)
        )

    def test_concurrent_multi_tenant_submissions(self, service):
        client = ServiceClient(service.host, service.port)
        jobs = [
            client.submit(tenant, dict(TINY_SPEC))
            for tenant in ("acme", "globex", "acme")
        ]
        records = [client.wait(j["job_id"], timeout=120) for j in jobs]
        assert all(r["state"] == DONE for r in records)
        baseline = canon(direct_summary(**TINY_SPEC))
        for j in jobs:
            assert canon(client.result(j["job_id"])) == baseline
        assert len(client.jobs(tenant="acme")) == 2
        assert len(client.jobs(tenant="globex")) == 1
        assert len(client.jobs()) == 3

    def test_lake_report_over_http(self, service):
        client = ServiceClient(service.host, service.port)
        jobs = [client.submit("acme", dict(TINY_SPEC)) for _ in range(2)]
        for job in jobs:
            client.wait(job["job_id"], timeout=120)
        report = client.lake_report("acme", report="runs")
        assert report["tenant"] == "acme"
        assert report["compacted"] == [j["job_id"] for j in jobs]
        summary = client.lake_report(
            "acme", report="summary", runs=[jobs[0]["job_id"]]
        )
        assert summary["summary"]["units"] == summary["summary"]["ok"]
        with pytest.raises(ConfigurationError):
            client.lake_report("acme", report="bogus")

    def test_error_mapping(self, service):
        client = ServiceClient(service.host, service.port)
        with pytest.raises(UnknownJobError):
            client.job("job-424242")
        with pytest.raises(ConfigurationError):
            client.submit("bad/tenant", {})
        with pytest.raises(ConfigurationError):
            client.submit("acme", {"no_such_knob": 1})

    def test_retired_spec_keys_rejected_on_submit(self, service):
        client = ServiceClient(service.host, service.port)
        for key, value in (
            ("shared_population", True),
            ("megakernel", False),
            ("condition_tiles", 2),
            ("fast_path", False),
        ):
            with pytest.raises(ConfigurationError, match="unknown spec keys") as excinfo:
                client.submit("acme", dict(TINY_SPEC, chips_per_unit=2, **{key: value}))
            allowed = str(excinfo.value).split("allowed: ", 1)[1].split(", ")
            assert "chips_per_vendor" in allowed and key not in allowed

    @pytest.mark.parametrize(
        "spec",
        [
            {"chips_per_vendor": "abc"},
            {"chips_per_vendor": None},
            {"chips_per_vendor": 2.7},
            {"intervals_s": 5},
            {"temperatures_c": [None]},
        ],
        ids=["string-count", "null-count", "fractional-count", "bare-intervals", "null-temperature"],
    )
    def test_malformed_spec_values_are_400(self, service, spec):
        status, payload = _post_raw(service, json.dumps({"tenant": "acme", "spec": spec}))
        assert status == 400
        assert payload["error"]["type"] == "configuration"
        assert not ServiceClient(service.host, service.port).jobs()

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_is_400(self, service, length):
        status, _ = _post_raw(service, "{}", content_length=length)
        assert status == 400

    def test_cancel_over_http(self, service):
        client = ServiceClient(service.host, service.port)
        job = client.submit("acme", dict(SLOW_SPEC))
        deadline = time.monotonic() + 60.0
        while True:
            record = client.job(job["job_id"])
            if record["progress"].get("completed", 0) >= 1:
                break
            assert time.monotonic() < deadline
            time.sleep(0.01)
        client.cancel(job["job_id"])
        final = client.wait(job["job_id"], timeout=60)
        assert final["state"] == CANCELLED
        run_dir = Path(final["run_dir"])
        assert (run_dir / "results.jsonl").read_text().splitlines()


# ----------------------------------------------------------------------
# kill -9 the server mid-run; a restarted server resumes and completes
# ----------------------------------------------------------------------
def _spawn_server(root: Path) -> "tuple[subprocess.Popen, str, int]":
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--root", str(root), "--port", "0",
            "--pool-workers", "0", "--max-running", "1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    line = proc.stdout.readline()
    assert line.startswith("serving on http://"), f"unexpected banner: {line!r}"
    address = line.strip().rsplit("/", 1)[-1]
    host, port = address.split(":")
    return proc, host, int(port)


@pytest.mark.slow
def test_kill9_then_restart_completes_jobs(tmp_path):
    root = tmp_path / "svc"
    proc, host, port = _spawn_server(root)
    try:
        client = ServiceClient(host, port)
        slow = client.submit("acme", dict(SLOW_SPEC))
        queued = client.submit("acme", dict(TINY_SPEC))
        deadline = time.monotonic() + 120.0
        while True:
            record = client.job(slow["job_id"])
            if record["progress"].get("completed", 0) >= 1:
                break
            assert time.monotonic() < deadline, "slow job made no progress"
            time.sleep(0.02)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    # Partial results from the killed run survive on disk.
    slow_dir = root / "acme" / slow["job_id"]
    assert (slow_dir / "results.jsonl").exists()

    proc2, host2, port2 = _spawn_server(root)
    try:
        client2 = ServiceClient(host2, port2)
        final_slow = client2.wait(slow["job_id"], timeout=300)
        final_queued = client2.wait(queued["job_id"], timeout=300)
        assert final_slow["state"] == DONE
        assert final_queued["state"] == DONE
        assert canon(client2.result(slow["job_id"])) == canon(
            direct_summary(**SLOW_SPEC)
        )
        assert canon(client2.result(queued["job_id"])) == canon(
            direct_summary(**TINY_SPEC)
        )
    finally:
        proc2.send_signal(signal.SIGTERM)
        try:
            proc2.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc2.kill()
            proc2.wait(timeout=30)
