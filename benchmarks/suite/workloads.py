"""Workload child of the campaign benchmark; ``run.py`` starts it.

Run from the root of a checkout::

    python benchmarks/suite/workloads.py --workload fleet-3k --seed 368 --seconds 20

The child imports the program from ``src/``, does the workload's set-up
and prints ``ready``.  It then reads one line from stdin: ``go`` runs the
workload for ``--seconds`` and prints one JSON object; ``exit`` stops.
``run.py`` times spawn -> ``ready`` as the set-up time, so everything
before ``ready`` is set-up and everything after it is measured.

``--serve ROOT`` hosts the campaign service for the service workload: it
runs ``python -m repro serve`` in this process and, with ``--spans FILE``,
first installs the layer wrappers and writes their spans to ``FILE`` when
the service shuts down.

Every workload passes the program only the parameters that define the
workload (sizes, grid, workers); execution knobs such as
``megakernel``, ``shared_population``, ``condition_tiles`` and
``fast_path`` stay at their defaults, so the paths the program picks for
a default user are what gets measured.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pathlib
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from layers import Recorder, budget, install

#: The checkout the benchmark runs in: the program is built from its ``src``.
CHECKOUT = pathlib.Path.cwd()
GOLDEN_PATH = pathlib.Path(__file__).with_name("golden.json")

VENDORS = ("A", "B", "C")
TEMPERATURES_C = [45.0, 55.0]
#: 30 refresh intervals from 64 ms to 2048 ms, evenly spaced in log scale.
FLEET_INTERVALS_S = [round(0.064 * 32.0 ** (i / 29), 6) for i in range(30)]
CLI_INTERVALS_S = [0.512, 1.024, 2.048]

#: Fewest operations a run measures, however short ``--seconds`` is, so
#: every median rests on at least this many samples.
MIN_OPS = 3

WORKLOADS: Dict[str, Dict[str, Any]] = {
    # The fleet megakernel path (chips_per_unit > 1 turns on shared
    # memory and the condition-grid kernel): 10 chunks of 300 chips over
    # 2 workers, 62 conditions x 3 iterations per chip.
    "fleet-3k": {
        "kind": "campaign",
        "chips_per_vendor": 1000,
        "capacity_gbit": 1.0 / 1024.0,
        "intervals_s": FLEET_INTERVALS_S,
        "temperatures_c": TEMPERATURES_C,
        "iterations": 3,
        "chips_per_unit": 300,
        "workers": 2,
        "oracle_chips": 8,
        "eq1_tolerance": 0.08,
    },
    # Exactly what `python -m repro campaign --chips-per-vendor 20
    # --workers 2` runs: 1 Gbit chips on the per-chip path.
    "cli-60": {
        "kind": "campaign",
        "chips_per_vendor": 20,
        "capacity_gbit": 1.0,
        "intervals_s": CLI_INTERVALS_S,
        "temperatures_c": TEMPERATURES_C,
        "iterations": 2,
        "chips_per_unit": None,
        "workers": 2,
        "oracle_chips": 2,
        "eq1_tolerance": 0.08,
    },
    # Closed loop: each client submits, follows the event stream to its
    # end, then fetches the result, so the load generator mostly waits.
    "service-small-jobs": {
        "kind": "service",
        "clients": 2,
        "spec": {"chips_per_vendor": 2, "capacity_gbit": 0.0625},
        "distinct_specs": 4,
        "pool_workers": 2,
        "max_running": 2,
    },
    # Store writes, compaction and cross-run queries; no kernel runs.
    "lake-analytics": {
        "kind": "lake",
        "run_dirs": 4,
        "chips_per_vendor": 3334,
        "intervals_s": FLEET_INTERVALS_S,
        "temperatures_c": TEMPERATURES_C,
        "resume_frac": 0.01,
        "capacity_bits": 1 << 20,
    },
}

#: ``--smoke`` shrinks each workload so the whole suite checks in seconds.
SMOKE: Dict[str, Dict[str, Any]] = {
    "fleet-3k": {"chips_per_vendor": 60, "chips_per_unit": 30, "oracle_chips": 2, "eq1_tolerance": None},
    "cli-60": {"chips_per_vendor": 2, "oracle_chips": 1, "eq1_tolerance": None},
    "service-small-jobs": {},
    "lake-analytics": {"run_dirs": 2, "chips_per_vendor": 100},
}

#: Every per-layer metric a traced run reports: (name, unit, better).
#: Times are per operation (campaign, job, ingested run dir or query
#: pass); a layer the workload never enters reports 0.
LAYER_METRICS = [
    ("budget.wall_s", "s", "lower"),
    ("budget.unattributed_s", "s", "lower"),
    ("budget.unattributed_frac", "ratio", "lower"),
    ("dram.shm.sample_s", "s", "lower"),
    ("dram.shm.pack_s", "s", "lower"),
    ("dram.shm.bytes", "bytes", "lower"),
    ("runner.engine.run_s", "s", "lower"),
    ("runner.executors.busy_s", "s", "lower"),
    ("runner.executors.idle_s", "s", "lower"),
    ("runner.executors.utilization", "ratio", "higher"),
    ("runner.executors.units", "count", "lower"),
    ("runner.executors.retries", "count", "lower"),
    ("core.fleetprof.schedule_replay_s", "s", "lower"),
    ("core.fleetprof.dpd_excite_s", "s", "lower"),
    ("core.fleetprof.vrt_s", "s", "lower"),
    ("core.fleetprof.read_compare_s", "s", "lower"),
    ("core.fleetprof.commit_s", "s", "lower"),
    ("core.fleetprof.other_s", "s", "lower"),
    ("core.bruteforce.run_s", "s", "lower"),
    ("runner.store.append_s", "s", "lower"),
    ("runner.store.rows", "count", "higher"),
    ("runner.store.bytes", "bytes", "lower"),
    ("analysis.campaign.aggregate_s", "s", "lower"),
    ("service.submit_ms", "ms", "lower"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("service.run_ms", "ms", "lower"),
    ("service.completion_lag_ms", "ms", "lower"),
    ("service.result_ms", "ms", "lower"),
    ("service.inproc_run_ms", "ms", "lower"),
    ("lake.compact_s", "s", "lower"),
    ("lake.segment_bytes", "bytes", "lower"),
    ("lake.query.summary_ms", "ms", "lower"),
    ("lake.query.trend_ms", "ms", "lower"),
    ("lake.query.contour_ms", "ms", "lower"),
    ("lake.query.longevity_ms", "ms", "lower"),
    ("lake.query.runs_ms", "ms", "lower"),
    ("lake.query.jsonl_summary_ms", "ms", "lower"),
]

KERNEL_PHASES = ("schedule_replay", "dpd_excite", "vrt", "read_compare", "commit")


def definition(name: str, smoke: bool = False) -> Dict[str, Any]:
    """The parameters that define workload ``name``."""
    spec = dict(WORKLOADS[name])
    if smoke:
        spec.update(SMOKE[name])
    return spec


def digest(obj: Any) -> str:
    """blake2b-8 of the canonical JSON form -- the golden-file currency."""
    text = json.dumps(obj, sort_keys=True)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def golden_digest(name: str, seed: int, smoke: bool) -> Optional[str]:
    table = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    return table.get(f"{name}/smoke" if smoke else name, {}).get(str(seed))


def _span(rec: Optional[Recorder], name: str):
    return rec.span(name) if rec is not None else contextlib.nullcontext()


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(CHECKOUT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _results_stats(run_dir: pathlib.Path) -> Dict[str, float]:
    """Worker-side facts from a finished run dir: busy time and size of
    ``results.jsonl``, kernel/profiler spans and unit counts from the
    program's own ``metrics.json`` (written when observability is on)."""
    stats = {"busy_s": 0.0, "bytes": 0.0, "bruteforce_s": 0.0, "units": 0.0, "retries": 0.0}
    stats.update({phase: 0.0 for phase in KERNEL_PHASES})
    results = run_dir / "results.jsonl"
    if results.exists():
        stats["bytes"] = float(results.stat().st_size)
        with open(results, encoding="utf-8") as handle:
            for line in handle:
                stats["busy_s"] += float(json.loads(line).get("elapsed_s", 0.0))
    metrics = run_dir / "metrics.json"
    if metrics.exists():
        for row in json.loads(metrics.read_text(encoding="utf-8"))["series"]:
            name = row["name"]
            if name.startswith("span.kernel.") and name[12:] in KERNEL_PHASES:
                stats[name[12:]] += float(row["total"])
            elif name == "span.profiler.run":
                stats["bruteforce_s"] += float(row["total"])
            elif name == "span.unit.execute":
                stats["units"] += float(row["count"])
            elif name == "runner.retries":
                stats["retries"] += float(row["value"])
    return stats


def _sum_stats(stats: List[Dict[str, float]]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for item in stats:
        for key, value in item.items():
            total[key] = total.get(key, 0.0) + value
    return total


def _budget_metrics(rec: Recorder, ops: List[str]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    result = budget(rec, ops)
    wall = result["wall_s"]
    return {
        "budget.wall_s": wall,
        "budget.unattributed_s": result["unattributed_s"],
        "budget.unattributed_frac": result["unattributed_s"] / wall if wall else 0.0,
    }, result


def _executor_metrics(
    per_op: Dict[str, float], engine_s: float, workers: int
) -> Dict[str, float]:
    capacity = workers * engine_s
    busy = per_op["busy_s"]
    out = {
        "runner.executors.busy_s": busy,
        "runner.executors.idle_s": capacity - busy if capacity else 0.0,
        "runner.executors.utilization": busy / capacity if capacity else 0.0,
        "runner.executors.units": per_op["units"],
        "runner.executors.retries": per_op["retries"],
        "core.bruteforce.run_s": per_op["bruteforce_s"],
        "runner.engine.run_s": engine_s,
    }
    for phase in KERNEL_PHASES:
        out[f"core.fleetprof.{phase}_s"] = per_op[phase]
    phases = sum(per_op[phase] for phase in KERNEL_PHASES)
    out["core.fleetprof.other_s"] = busy - phases if phases else 0.0
    return out


def _layer_defaults() -> Dict[str, float]:
    return {name: 0.0 for name, _unit, _better in LAYER_METRICS}


# ----------------------------------------------------------------------
# Campaign workloads: fleet-3k and cli-60
# ----------------------------------------------------------------------
class CampaignWorkload:
    """Back-to-back campaigns through ``CharacterizationCampaign.run``."""

    def __init__(self, name: str, spec: Dict[str, Any], seed: int,
                 work: pathlib.Path, smoke: bool, rec: Optional[Recorder]) -> None:
        from repro import obs
        from repro.analysis.campaign import CharacterizationCampaign
        from repro.dram.geometry import ChipGeometry

        self.name, self.spec, self.seed, self.work, self.smoke, self.rec = (
            name, spec, seed, work, smoke, rec)
        self.obs = obs
        self.geometry = ChipGeometry.from_capacity_gigabits(spec["capacity_gbit"])
        self.campaign = CharacterizationCampaign(
            chips_per_vendor=spec["chips_per_vendor"],
            geometry=self.geometry,
            iterations=spec["iterations"],
            seed=seed,
        )
        if rec is not None:
            install(rec)
            obs.enable()

    def _one(self, index: int) -> Dict[str, Any]:
        run_dir = self.work / f"campaign-{index}"
        if self.rec is not None:
            self.obs.reset()
        with _span(self.rec, "op.campaign"):
            started = time.perf_counter()
            summary = self.campaign.run(
                intervals_s=self.spec["intervals_s"],
                temperatures_c=self.spec["temperatures_c"],
                backend=None,
                workers=self.spec["workers"],
                run_dir=str(run_dir),
                chips_per_unit=self.spec["chips_per_unit"],
            )
            elapsed = time.perf_counter() - started
        op = {
            "seconds": elapsed,
            "digest": digest(summary.to_json_dict()),
            "n_chips": summary.n_chips,
            "failed_units": len(summary.failed_units),
            "run_dir": run_dir,
            "summary": summary,
        }
        if self.rec is not None:
            op["stats"] = _results_stats(run_dir)
        return op

    def run(self, seconds: float) -> Dict[str, Any]:
        deadline = time.perf_counter() + seconds
        ops: List[Dict[str, Any]] = []
        while True:
            op = self._one(len(ops))
            if ops:  # keep only the newest run dir, for the oracle check
                shutil.rmtree(ops[-1]["run_dir"], ignore_errors=True)
            ops.append(op)
            typical = _median([o["seconds"] for o in ops])
            if len(ops) >= MIN_OPS and time.perf_counter() + typical > deadline:
                break
        return self._report(ops)

    def _oracle(self, run_dir: pathlib.Path) -> List[bool]:
        """Re-measure sampled chips on the per-chip reference path
        (``fast_path=False``) and compare with what the run stored."""
        from repro.runner import ResultStore, build_chip_units, measure_chip

        units = build_chip_units(
            chips_per_vendor=self.spec["chips_per_vendor"],
            geometry=self.geometry,
            iterations=self.spec["iterations"],
            seed=self.seed,
            intervals_s=self.spec["intervals_s"],
            temperatures_c=self.spec["temperatures_c"],
        )
        stored = ResultStore(run_dir).load_results()
        picks = random.Random(self.seed).sample(range(len(units)), self.spec["oracle_chips"])
        verdicts = []
        for index in picks:
            unit = units[index]
            expected = measure_chip(dict(unit.payload, fast_path=False))
            row = stored.get(unit.unit_id)
            verdicts.append(
                row is not None and row.ok
                and json.dumps(row.value, sort_keys=True) == json.dumps(expected, sort_keys=True)
            )
        return verdicts

    def _report(self, ops: List[Dict[str, Any]]) -> Dict[str, Any]:
        expected_chips = 3 * self.spec["chips_per_vendor"]
        golden = golden_digest(self.name, self.seed, self.smoke)
        reference = golden if golden is not None else ops[0]["digest"]
        bad_ops = sum(
            1 for o in ops
            if o["digest"] != reference or o["n_chips"] != expected_chips or o["failed_units"]
        )
        oracle = self._oracle(ops[-1]["run_dir"])
        summary = ops[-1]["summary"]
        errors = [
            abs(stats.measured_temp_coefficient - stats.model_temp_coefficient)
            if stats.measured_temp_coefficient is not None else float("inf")
            for stats in summary.vendors.values()
        ]
        eq1_err = max(errors) if errors else float("inf")
        tolerance = self.spec["eq1_tolerance"]
        eq1_ok = tolerance is None or eq1_err <= tolerance
        checks = {
            "golden": "no golden digest for this seed" if golden is None else golden == ops[0]["digest"],
            "deterministic": len({o["digest"] for o in ops}) == 1,
            "complete": all(o["n_chips"] == expected_chips and not o["failed_units"] for o in ops),
            "oracle": all(oracle),
            "eq1": eq1_ok,
        }
        seconds = [o["seconds"] for o in ops]
        rates = [o["n_chips"] / s for o, s in zip(ops, seconds)]
        result: Dict[str, Any] = {
            "attempted": len(ops) + len(oracle) + 1,
            "failed": bad_ops + oracle.count(False) + (0 if eq1_ok else 1),
            "checks": checks,
            "digest": ops[0]["digest"],
            "metrics": {
                "chips_per_s": _median(rates),
                "latency_p50_ms": _median(seconds) * 1e3,
            },
            "samples": {"chips_per_s": rates, "latency_p50_ms": [s * 1e3 for s in seconds]},
            "detail": {"ops": len(ops), "eq1_k_max_abs_err": eq1_err, "chips": expected_chips},
        }
        if self.rec is not None:
            result["per_layer"], result["budget"] = self._layers(ops)
        return result

    def _layers(self, ops: List[Dict[str, Any]]):
        rec, n = self.rec, len(ops)
        per_op = {k: v / n for k, v in _sum_stats([o["stats"] for o in ops]).items()}
        engine_s = rec.total("runner.engine.run") / n
        metrics = _layer_defaults()
        budget_metrics, result = _budget_metrics(rec, ["op.campaign"])
        metrics.update(budget_metrics)
        metrics.update(_executor_metrics(per_op, engine_s, self.spec["workers"]))
        metrics.update({
            "dram.shm.sample_s": rec.total("dram.shm.sample") / n,
            "dram.shm.pack_s": rec.total("dram.shm.pack") / n,
            "dram.shm.bytes": rec.counters.get("dram.shm.bytes", 0.0) / n,
            "runner.store.append_s": rec.total("runner.store.append") / n,
            "runner.store.rows": rec.count("runner.store.append") / n,
            "runner.store.bytes": per_op["bytes"],
            "analysis.campaign.aggregate_s": rec.total("analysis.campaign.aggregate") / n,
        })
        result["workers"] = [
            ("worker busy s per campaign, summed over workers", per_op["busy_s"]),
            ("worker idle s per campaign, summed over workers", metrics["runner.executors.idle_s"]),
        ]
        return metrics, result

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Service workload: closed-loop small jobs over HTTP
# ----------------------------------------------------------------------
class ServiceWorkload:
    """``python -m repro serve`` in a subprocess, driven by client threads."""

    def __init__(self, name: str, spec: Dict[str, Any], seed: int,
                 work: pathlib.Path, smoke: bool, rec: Optional[Recorder]) -> None:
        from repro.service import ServiceClient

        self.name, self.spec, self.seed, self.work, self.smoke, self.rec = (
            name, spec, seed, work, smoke, rec)
        self.root = work / "service"
        self.specs = [dict(spec["spec"], seed=seed + k) for k in range(spec["distinct_specs"])]
        self.spans_path = work / "server-spans.json"
        command = [
            sys.executable, str(pathlib.Path(__file__).resolve()), "--serve", str(self.root),
            "--pool-workers", str(spec["pool_workers"]),
            "--max-running", str(spec["max_running"]),
        ]
        if rec is not None:
            command += ["--spans", str(self.spans_path)]
        self.proc: Optional[subprocess.Popen] = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=_child_env()
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serving on"):
            self.close()
            raise RuntimeError(f"service did not start: {line!r}")
        self.client = ServiceClient("127.0.0.1", int(line.strip().rsplit(":", 1)[1]), timeout=120.0)
        if self.client.healthz().status != "ok":
            self.close()
            raise RuntimeError("service health check failed")
        self._job("warmup", self.specs[0])

    def _job(self, tenant: str, spec: Dict[str, Any]) -> Dict[str, Any]:
        rec = self.rec
        with _span(rec, "op.job"):
            started = time.perf_counter()
            sent = time.time()
            with _span(rec, "service.submit"):
                job = self.client.submit(tenant, spec)
            with _span(rec, "service.wait"):
                for _event in self.client.events(job["job_id"]):
                    pass
            stream_end = time.time()
            with _span(rec, "service.result"):
                result = self.client.result(job["job_id"])
            done = time.time()
            latency = time.perf_counter() - started
        return {"job_id": job["job_id"], "tenant": tenant, "sent": sent,
                "submitted": job["created_ts"], "stream_end": stream_end, "done": done,
                "latency": latency, "result": result, "spec": spec}

    def run(self, seconds: float) -> Dict[str, Any]:
        jobs: List[Dict[str, Any]] = []
        errors: List[str] = []
        lock = threading.Lock()
        start = time.perf_counter()
        deadline = start + seconds

        def client(index: int) -> None:
            issued = 0
            while issued < MIN_OPS or time.perf_counter() < deadline:
                spec = self.specs[(index + issued * self.spec["clients"]) % len(self.specs)]
                issued += 1
                try:
                    job = self._job(f"t{index}", spec)
                except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
                    with lock:
                        errors.append(traceback.format_exc())
                    return
                with lock:
                    jobs.append(job)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(self.spec["clients"])]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        return self._report(jobs, errors, elapsed)

    def _report(self, jobs: List[Dict[str, Any]], errors: List[str], elapsed: float) -> Dict[str, Any]:
        from repro.service.jobs import CampaignJobSpec

        records = {job["job_id"]: self.client.job(job["job_id"]) for job in jobs}
        references, inproc = {}, []
        for spec in self.specs:
            job_spec = CampaignJobSpec.from_json_dict(spec)
            started = time.perf_counter()
            summary = job_spec.build_campaign().run(
                intervals_s=job_spec.intervals_s, temperatures_c=job_spec.temperatures_c
            )
            inproc.append(time.perf_counter() - started)
            references[spec["seed"]] = json.dumps(summary.to_json_dict(), sort_keys=True)
        mismatched = sum(
            1 for job in jobs
            if records[job["job_id"]]["state"] != "done"
            or json.dumps(job["result"], sort_keys=True) != references[job["spec"]["seed"]]
        )
        observed = digest([digest(json.loads(references[s["seed"]])) for s in self.specs])
        golden = golden_digest(self.name, self.seed, self.smoke)
        latencies = sorted(job["latency"] for job in jobs)
        chips = sum(job["result"]["n_chips"] for job in jobs)
        checks = {
            "golden": "no golden digest for this seed" if golden is None else golden == observed,
            "service_equals_inproc": mismatched == 0,
            "no_errors": not errors,
        }
        p95 = latencies[int(0.95 * (len(latencies) - 1))] if latencies else 0.0
        result: Dict[str, Any] = {
            "attempted": len(jobs) + len(errors) + 1,
            "failed": mismatched + len(errors) + (1 if checks["golden"] is False else 0),
            "checks": checks,
            "digest": observed,
            "metrics": {
                "chips_per_s": chips / elapsed if elapsed else 0.0,
                "latency_p50_ms": _median(latencies) * 1e3,
            },
            "samples": {"latency_p50_ms": [lat * 1e3 for lat in latencies]},
            "detail": {
                "jobs": len(jobs),
                "jobs_per_s": len(jobs) / elapsed if elapsed else 0.0,
                "job_latency_p95_ms": p95 * 1e3,
                "beyond_p95": sum(1 for lat in latencies if lat > p95),
                "errors": errors[:3],
            },
        }
        self.close()
        if self.rec is not None:
            result["per_layer"], result["budget"] = self._layers(jobs, records, inproc)
        return result

    def _layers(self, jobs, records, inproc):
        rec, n = self.rec, max(1, len(jobs))
        if self.spans_path.exists():
            rec.merge_file(str(self.spans_path))
        stats = _sum_stats([
            _results_stats(self.root / job["tenant"] / job["job_id"]) for job in jobs
        ])
        per_job = {k: v / n for k, v in stats.items()}
        engine_s = rec.total("runner.engine.run") / (n + 1)  # + the warm-up job
        metrics = _layer_defaults()
        budget_metrics, result = _budget_metrics(rec, ["op.job"])
        metrics.update(budget_metrics)
        metrics.update(_executor_metrics(per_job, engine_s, self.spec["pool_workers"]))

        def p50_ms(values):
            return _median(list(values)) * 1e3

        rows = [(job, records[job["job_id"]]) for job in jobs]
        metrics.update({
            "runner.store.append_s": rec.total("runner.store.append") / (n + 1),
            "runner.store.rows": rec.count("runner.store.append") / (n + 1),
            "runner.store.bytes": per_job["bytes"],
            "analysis.campaign.aggregate_s": rec.total("analysis.campaign.aggregate") / (n + 1),
            "service.submit_ms": p50_ms(r["created_ts"] - j["sent"] for j, r in rows),
            "service.queue_wait_ms": p50_ms(r["started_ts"] - r["created_ts"] for j, r in rows),
            "service.run_ms": p50_ms(r["finished_ts"] - r["started_ts"] for j, r in rows),
            "service.completion_lag_ms": p50_ms(j["stream_end"] - r["finished_ts"] for j, r in rows),
            "service.result_ms": p50_ms(j["done"] - j["stream_end"] for j, r in rows),
            "service.inproc_run_ms": _median(inproc) * 1e3,
        })
        result["workers"] = [
            ("service run ms per job, p50", metrics["service.run_ms"]),
            ("in-process run ms of the same spec, median", metrics["service.inproc_run_ms"]),
        ]
        return metrics, result

    def close(self) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def serve(args: argparse.Namespace) -> int:
    """Host the service (``--serve``), optionally with layer wrappers."""
    sys.path.insert(0, str(CHECKOUT / "src"))
    rec = None
    if args.spans:
        rec = Recorder()
        install(rec)
    from repro.__main__ import main as repro_main

    code = repro_main([
        "serve", "--root", args.serve, "--port", "0",
        "--pool-workers", str(args.pool_workers), "--max-running", str(args.max_running),
    ])
    if rec is not None:
        rec.dump(args.spans)
    return code


# ----------------------------------------------------------------------
# Lake workload: store writes, compaction, cross-run queries
# ----------------------------------------------------------------------
class LakeWorkload:
    """Campaign-shaped rows through ``ResultStore.append``, compacted
    into a ``ResultLake``, then repeated query passes."""

    QUERIES = ("trend", "contour", "longevity", "runs")

    def __init__(self, name: str, spec: Dict[str, Any], seed: int,
                 work: pathlib.Path, smoke: bool, rec: Optional[Recorder]) -> None:
        from repro import lake
        from repro.runner import ResultStore, UnitFailure, UnitResult

        self.name, self.spec, self.seed, self.work, self.smoke, self.rec = (
            name, spec, seed, work, smoke, rec)
        self.lake_mod, self.ResultStore = lake, ResultStore
        self.UnitFailure, self.UnitResult = UnitFailure, UnitResult
        self.lake = lake.ResultLake(work / "lake")
        if rec is not None:
            install(rec)

    def _rows(self, rng: random.Random) -> List[Any]:
        """One run's rows: every chip once, 1% first recorded as failed
        and re-recorded ok at the tail, as a resumed run leaves them."""
        per_vendor = self.spec["chips_per_vendor"]
        n = 3 * per_vendor
        resumed = set(rng.sample(range(n), max(1, int(n * self.spec["resume_frac"]))))
        rows, tail = [], []
        for chip in range(n):
            counts = [float(rng.randint(0, 2 + 3 * k)) for k in range(len(self.spec["intervals_s"]))]
            value = {
                "chip_id": chip,
                "vendor": VENDORS[chip // per_vendor],
                "interval_failures": [[t, c] for t, c in zip(self.spec["intervals_s"], counts)],
                "temperature_failures": [
                    [self.spec["temperatures_c"][0], counts[-1]],
                    [self.spec["temperatures_c"][1], counts[-1] + rng.randint(0, 40)],
                ],
            }
            uid = f"chip-{chip:05d}"
            ok = self.UnitResult(unit_id=uid, status="ok", value=value,
                                 elapsed_s=round(rng.random() * 0.01, 6))
            if chip in resumed:
                failure = self.UnitFailure("TimeoutError", f"chip {chip} did not settle", "")
                rows.append(self.UnitResult(unit_id=uid, status="failed", error=failure, attempts=2))
                tail.append(ok)
            else:
                rows.append(ok)
        return rows + tail

    def run(self, seconds: float) -> Dict[str, Any]:
        rng = random.Random(self.seed)
        start = time.perf_counter()
        deadline = start + seconds
        ingests = []
        for index in range(self.spec["run_dirs"]):
            rows = self._rows(rng)
            run_dir = self.work / f"run-{index}"
            manifest = {
                "fingerprint": digest(["lake", self.seed, index]),
                "kind": "characterization-campaign",
                "capacity_bits": self.spec["capacity_bits"],
            }
            with _span(self.rec, "op.ingest"):
                started = time.perf_counter()
                store = self.ResultStore(run_dir)
                store.open(manifest)
                for row in rows:
                    store.append(row)
                store.close()
                with _span(self.rec, "lake.compact"):
                    report = self.lake.compact_run_dir(run_dir, run_id=f"run-{index}")
                elapsed = time.perf_counter() - started
            ingests.append({"rows": len(rows), "seconds": elapsed, "run_dir": run_dir,
                            "segment_bytes": report.segment.stat().st_size,
                            "jsonl_bytes": (run_dir / "results.jsonl").stat().st_size})
        passes: List[Dict[str, Any]] = []
        while len(passes) < MIN_OPS or time.perf_counter() < deadline:
            passes.append(self._query_pass())
        return self._report(ingests, passes)

    def _query_pass(self) -> Dict[str, Any]:
        query = self.lake_mod
        with _span(self.rec, "op.query_pass"):
            started = time.perf_counter()
            with _span(self.rec, "lake.query.summary"):
                summaries = {rid: query.summary_from_lake(self.lake, rid) for rid in self.lake.run_ids()}
            for name in self.QUERIES:
                with _span(self.rec, f"lake.query.{name}"):
                    query.REPORTS[name](self.lake)
            elapsed = time.perf_counter() - started
        return {"seconds": elapsed, "digests": {rid: digest(s) for rid, s in summaries.items()}}

    def _report(self, ingests, passes) -> Dict[str, Any]:
        references = {}
        for index, ingest in enumerate(ingests):
            with _span(self.rec, "lake.query.jsonl_summary"):
                summary = self.lake_mod.summary_from_run_dir(ingest["run_dir"])
            references[f"run-{index}"] = digest(summary)
            complete = summary["units"] == 3 * self.spec["chips_per_vendor"] and summary["failed"] == 0
            ingest["ok"] = complete
        bad_passes = sum(1 for p in passes if p["digests"] != references)
        observed = digest([references[rid] for rid in sorted(references)])
        golden = golden_digest(self.name, self.seed, self.smoke)
        checks = {
            "golden": "no golden digest for this seed" if golden is None else golden == observed,
            "lake_equals_jsonl": bad_passes == 0,
            "complete": all(i["ok"] for i in ingests),
        }
        rates = [i["rows"] / i["seconds"] for i in ingests]
        pass_ms = [p["seconds"] * 1e3 for p in passes]
        result: Dict[str, Any] = {
            "attempted": len(ingests) + len(passes),
            "failed": bad_passes + sum(1 for i in ingests if not i["ok"])
            + (1 if checks["golden"] is False else 0),
            "checks": checks,
            "digest": observed,
            "metrics": {"chips_per_s": _median(rates), "latency_p50_ms": _median(pass_ms)},
            "samples": {"chips_per_s": rates, "latency_p50_ms": pass_ms},
            "detail": {"ingests": len(ingests), "query_passes": len(passes)},
        }
        if self.rec is not None:
            result["per_layer"], result["budget"] = self._layers(ingests)
        return result

    def _layers(self, ingests):
        rec, n = self.rec, len(ingests)
        metrics = _layer_defaults()
        budget_metrics, result = _budget_metrics(rec, ["op.ingest", "op.query_pass"])
        metrics.update(budget_metrics)
        metrics.update({
            "runner.store.append_s": rec.total("runner.store.append") / n,
            "runner.store.rows": rec.count("runner.store.append") / n,
            "runner.store.bytes": sum(i["jsonl_bytes"] for i in ingests) / n,
            "lake.compact_s": rec.total("lake.compact") / n,
            "lake.segment_bytes": sum(i["segment_bytes"] for i in ingests) / n,
        })
        for name in ("summary",) + self.QUERIES + ("jsonl_summary",):
            metrics[f"lake.query.{name}_ms"] = _median(rec.durations(f"lake.query.{name}")) * 1e3
        result["workers"] = []
        return metrics, result

    def close(self) -> None:
        pass


KINDS = {"campaign": CampaignWorkload, "service": ServiceWorkload, "lake": LakeWorkload}


def _peak_rss_mb() -> float:
    """This process's peak RSS plus the largest waited-for descendant's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=368)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work", help="scratch directory inside the checkout")
    parser.add_argument("--trace-out", dest="trace_out", help="Chrome trace output path")
    parser.add_argument("--serve", metavar="ROOT", help="host the campaign service")
    parser.add_argument("--pool-workers", dest="pool_workers", type=int, default=2)
    parser.add_argument("--max-running", dest="max_running", type=int, default=2)
    parser.add_argument("--spans", help="with --serve: write layer spans here at exit")
    args = parser.parse_args(argv)
    if args.serve:
        return serve(args)
    if not args.workload or not args.work:
        parser.error("--workload and --work are required")

    sys.path.insert(0, str(CHECKOUT / "src"))
    work = pathlib.Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    rec = Recorder() if args.trace else None
    spec = definition(args.workload, args.smoke)
    workload = KINDS[spec["kind"]](args.workload, spec, args.seed, work, args.smoke, rec)
    try:
        print("ready", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        result = workload.run(args.seconds)
    finally:
        workload.close()
    result["metrics"]["peak_rss_mb"] = _peak_rss_mb()
    if rec is not None and args.trace_out:
        rec.write_chrome_trace(args.trace_out)
    print(json.dumps(result, default=str), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
