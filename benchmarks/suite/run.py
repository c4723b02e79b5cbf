"""The campaign benchmark: four workloads through the public entry points.

Run from the root of a checkout (the program is imported from ``src/``)::

    python benchmarks/suite/run.py                    # every workload: 3 timed runs + 1 traced
    python benchmarks/suite/run.py --workloads fleet-3k cli-60 --repeats 5 --out A.json
    python benchmarks/suite/run.py --smoke            # shrunken workloads, under a minute
    python benchmarks/suite/run.py compare A.json B.json
    python benchmarks/suite/run.py --workload fleet-3k --seed 7 --seconds 20 --trace 0

The last form is one run: it prints a table to stderr and, as the last
line of stdout, ``{"correct", "attempted", "failed", "metrics"}`` with
every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
per-layer metric (``--trace 1``).  The suite forms print one JSON object
with each metric's median, quartiles and samples, the host stamp and the
correctness checks.

Each run starts ``workloads.py`` three times; spawn -> ``ready`` is one
set-up sample (imports, and for the service: server up, health check and
one warm-up job).  The first two children exit, the third measures.  A
run exits non-zero, without a result, when the program cannot be
imported or a check fails in the suite.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import workloads
from layers import render_budget

CHECKOUT = pathlib.Path.cwd()
WORKLOADS_PY = pathlib.Path(__file__).resolve().with_name("workloads.py")
SETUP_SAMPLES = 3
#: A child that does not reach ``ready`` in this long is killed.
SETUP_TIMEOUT_S = 90.0
#: Time a child may take beyond ``--seconds`` to check and report.
REPORT_TIMEOUT_S = 100.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def load_benchmark() -> Dict[str, Any]:
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))


def host_info() -> Dict[str, Any]:
    """``benchmarks/benchutil.host_stamp`` plus core count and load."""
    sys.path.insert(0, str(CHECKOUT / "benchmarks"))
    from benchutil import host_stamp

    stamp = host_stamp()
    stamp["nproc"] = os.cpu_count()
    stamp["loadavg_start"] = list(os.getloadavg())
    return stamp


def required_workers(spec: Dict[str, Any]) -> int:
    return int(spec.get("workers") or spec.get("pool_workers") or 1)


def enforcement(spec: Dict[str, Any], host: Dict[str, Any]) -> Tuple[bool, Optional[str]]:
    """A workload sized for more workers than the host has cores still
    runs, but its numbers cannot gate anything."""
    needed = required_workers(spec)
    if host["cpu_count"] < needed:
        return False, f"{host['cpu_count']} usable core(s) < {needed} workers"
    return True, None


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(CHECKOUT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn_ready(command: List[str]) -> Tuple[subprocess.Popen, float]:
    """Start a child and wait for ``ready``; returns it with the set-up time."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_child_env()
    )
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - started
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"workload child failed during set-up (exit {proc.returncode})")
    return proc, elapsed


def run_once(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict[str, Any]:
    """One run of one workload: set-up samples, then the measured child."""
    work = CHECKOUT / ".bench_work" / f"{name}-{os.getpid()}-{int(trace)}"
    command = [
        sys.executable, str(WORKLOADS_PY), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--work", str(work),
    ]
    if smoke:
        command.append("--smoke")
    if trace:
        out_dir = CHECKOUT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        command += ["--trace-out", str(out_dir / f"trace-{name}-{seed}.json")]
    setups: List[float] = []
    samples = 1 if trace else SETUP_SAMPLES
    proc: Optional[subprocess.Popen] = None
    try:
        for index in range(samples):
            proc, elapsed = _spawn_ready(command)
            setups.append(elapsed)
            last = index == samples - 1
            out, _ = proc.communicate("go\n" if last else "exit\n",
                                      timeout=seconds + REPORT_TIMEOUT_S if last else 60)
            if proc.returncode != 0:
                raise BenchmarkError(f"workload child exited with {proc.returncode}")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchmarkError("workload child printed no result")
        result = json.loads(lines[-1])
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"workload child timed out: {exc}") from exc
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    result["correct"] = result["failed"] == 0 and all(
        value is not False for value in result["checks"].values()
    )
    return result


def strict_line(result: Dict[str, Any], bench: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The contract's result object: declared metrics only, value + unit."""
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    source = result["per_layer"] if trace else result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in source]
    if missing:
        raise BenchmarkError(f"metrics not produced: {', '.join(missing)}")
    return {
        "correct": result["correct"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            m["name"]: {"value": float(source[m["name"]]), "unit": m["unit"]} for m in declared
        },
    }


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_run(name: str, result: Dict[str, Any], bench: Dict[str, Any], trace: bool) -> str:
    lines = [f"== {name}  correct={result['correct']}  attempted={result['attempted']}"
             f"  failed={result['failed']}"]
    for key, value in result["checks"].items():
        lines.append(f"  check {key:<22} {value}")
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    source = result.get("per_layer", {}) if trace else result["metrics"]
    for metric in declared:
        value = source.get(metric["name"])
        if trace and not value:
            continue
        lines.append(f"  {metric['name']:<34} {value:>14.6g} {metric['unit']}")
    for key, value in result.get("detail", {}).items():
        lines.append(f"  detail {key:<27} {value}")
    if trace:
        lines.append(render_budget(result["budget"], result["budget"].get("workers", ())))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Suite
# ----------------------------------------------------------------------
def run_suite(args: argparse.Namespace, bench: Dict[str, Any], host: Dict[str, Any]) -> Dict[str, Any]:
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds if args.seconds is not None else (2.0 if args.smoke else bench["run_seconds"])
    out: Dict[str, Any] = {
        "host": host, "seed": args.seed, "seconds": seconds, "repeats": args.repeats,
        "smoke": args.smoke, "workloads": {},
    }
    for name in names:
        spec = workloads.definition(name, args.smoke)
        enforced, reason = enforcement(spec, host)
        runs = []
        for _ in range(args.repeats):
            runs.append(run_once(name, args.seed, seconds, False, args.smoke))
            print(render_run(name, runs[-1], bench, False), file=sys.stderr)
        traced = run_once(name, args.seed, seconds, True, args.smoke)
        print(render_run(name, traced, bench, True), file=sys.stderr)
        metrics = {}
        for metric in bench["end_to_end"]:
            values = [run["metrics"][metric["name"]] for run in runs]
            q1, median, q3 = quartiles(values)
            entry = {"value": median, "unit": metric["unit"], "q1": q1, "q3": q3,
                     "samples": values, "enforced": enforced}
            if reason:
                entry["reason"] = reason
            metrics[metric["name"]] = entry
        untraced = metrics["latency_p50_ms"]["value"]
        attempted = sum(run["attempted"] for run in runs + [traced])
        failed = sum(run["failed"] for run in runs + [traced])
        out["workloads"][name] = {
            "definition": spec,
            "definition_digest": workloads.digest(spec),
            "enforced": enforced,
            "reason": reason,
            "metrics": metrics,
            "failed_frac": failed / attempted,
            "correct": all(run["correct"] for run in runs + [traced]),
            "checks": [run["checks"] for run in runs + [traced]],
            "digests": sorted({run["digest"] for run in runs + [traced]}),
            "details": [run.get("detail", {}) for run in runs],
            "trace": {
                "per_layer": traced["per_layer"],
                "budget": traced["budget"],
                "overhead_frac": traced["metrics"]["latency_p50_ms"] / untraced - 1.0,
            },
        }
    out["correct"] = all(w["correct"] for w in out["workloads"].values())
    return out


def render_suite(result: Dict[str, Any], bench: Dict[str, Any]) -> str:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    lines = [f"host {result['host']['fingerprint']}  cores {result['host']['cpu_count']}"
             f"  load {result['host']['loadavg_start']}  seed {result['seed']}"]
    lines.append(f"{'workload':<20} {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12}  unit")
    for name, data in result["workloads"].items():
        for metric, entry in data["metrics"].items():
            flag = "" if entry["enforced"] else f"  NOT ENFORCED: {entry['reason']}"
            lines.append(f"{name:<20} {metric:<16} {entry['value']:>12.6g} {entry['q1']:>12.6g}"
                         f" {entry['q3']:>12.6g}  {units[metric]}{flag}")
        lines.append(f"{name:<20} {'failed_frac':<16} {data['failed_frac']:>12.6g}"
                     f"   trace overhead {data['trace']['overhead_frac']:+.1%}"
                     f"   correct={data['correct']}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------
def verdict(a: List[float], b: List[float], bound: float, better: str) -> Tuple[str, float]:
    """improved / worse / unchanged / unresolved, and B's win fraction.

    A gain needs B to win at least nine tenths of the paired runs and the
    medians to differ by more than A's quartile spread.  Where either
    side's spread exceeds the bound the pair is unresolved, unless every
    run of B reads better than every run of A.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0) / len(pairs)
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    change = sign * (mb - ma) / ma
    if wins >= 0.9 and change > 0 and abs(mb - ma) > qa3 - qa1:
        return "improved", wins
    if max((qa3 - qa1) / ma, (qb3 - qb1) / mb) > bound:
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "unchanged", wins
        return "unresolved", wins
    if change < -bound:
        return "worse", wins
    return "unchanged", wins


def _spread(entry: Dict[str, Any]) -> str:
    return f"{entry['value']:.6g} [{entry['q1']:.4g}, {entry['q3']:.4g}]"


def compare(path_a: str, path_b: str, bench: Dict[str, Any]) -> int:
    a = json.loads(pathlib.Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(pathlib.Path(path_b).read_text(encoding="utf-8"))
    refusals = []
    for key in ("fingerprint", "cpu_count"):
        if a["host"].get(key) != b["host"].get(key):
            refusals.append(f"host {key} differs: {a['host'].get(key)} vs {b['host'].get(key)}")
    if set(a["workloads"]) != set(b["workloads"]):
        refusals.append("the two outputs ran different workloads")
    for name in set(a["workloads"]) & set(b["workloads"]):
        if a["workloads"][name]["definition_digest"] != b["workloads"][name]["definition_digest"]:
            refusals.append(f"workload {name} is defined differently")
    if a.get("seconds") != b.get("seconds"):
        refusals.append("run lengths differ")
    if refusals:
        print("refusing to compare: " + "; ".join(refusals), file=sys.stderr)
        return 2
    counts: Dict[str, int] = {}
    print(f"{'workload':<20} {'metric':<16} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32}"
          f" {'change':>8} {'B wins':>7}  verdict")
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in bench["end_to_end"]:
            ea, eb = wa["metrics"][metric["name"]], wb["metrics"][metric["name"]]
            if not (ea["enforced"] and eb["enforced"]):
                result, wins = "no verdict (not enforced: " + (ea.get("reason") or eb.get("reason")) + ")", 0.0
            else:
                result, wins = verdict(ea["samples"], eb["samples"], metric["bound"], metric["better"])
            counts[result] = counts.get(result, 0) + 1
            change = (eb["value"] - ea["value"]) / ea["value"]
            print(f"{name:<20} {metric['name']:<16} {_spread(ea):>32} {_spread(eb):>32}"
                  f" {change:>+8.1%} {wins:>7.0%}  {result}")
    print()
    print(f"{'workload':<20} {'layer (traced, per operation)':<36} {'A':>12} {'B':>12} {'delta':>12} {'%':>8}")
    for name in a["workloads"]:
        la = a["workloads"][name]["trace"]["per_layer"]
        lb = b["workloads"][name]["trace"]["per_layer"]
        for layer in bench["per_layer"]:
            va, vb = la.get(layer["name"], 0.0), lb.get(layer["name"], 0.0)
            if not va and not vb:
                continue
            pct = f"{(vb - va) / va:+.1%}" if va else "-"
            print(f"{name:<20} {layer['name']:<36} {va:>12.6g} {vb:>12.6g} {vb - va:>+12.4g} {pct:>8}")
        ba, bb = a["workloads"][name]["trace"]["budget"], b["workloads"][name]["trace"]["budget"]
        for layer in sorted(set(ba["self_s"]) | set(bb["self_s"])):
            va = ba["self_s"].get(layer, 0.0) / max(1, ba["ops"])
            vb = bb["self_s"].get(layer, 0.0) / max(1, bb["ops"])
            pct = f"{(vb - va) / va:+.1%}" if va else "-"
            print(f"{name:<20} {'self ' + layer:<36} {va:>12.6g} {vb:>12.6g} {vb - va:>+12.4g} {pct:>8}")
    print()
    print("verdicts: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not (CHECKOUT / "src" / "repro" / "__init__.py").exists():
        print("error: run from the root of a checkout (no src/repro here)", file=sys.stderr)
        return 2
    bench = load_benchmark()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], bench)

    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="one run of one workload")
    parser.add_argument("--workloads", nargs="+", choices=names, help="suite: these workloads")
    parser.add_argument("--seed", type=int, default=368)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=None, help="timed runs per workload (3; 1 with --smoke)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="also write the full JSON result here")
    args = parser.parse_args(argv)
    if args.repeats is None:
        args.repeats = 1 if args.smoke else 3
    host = host_info()
    try:
        if args.workload:
            seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
            result = run_once(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
            enforced, reason = enforcement(workloads.definition(args.workload, args.smoke), host)
            result.update(host=host, enforced=enforced, reason=reason)
            print(render_run(args.workload, result, bench, bool(args.trace)), file=sys.stderr)
            if not enforced:
                print(f"  NOT ENFORCED: {reason}", file=sys.stderr)
            line = strict_line(result, bench, bool(args.trace))
        else:
            result = run_suite(args, bench, host)
            print(render_suite(result, bench), file=sys.stderr)
            line = result
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(result, indent=2, default=str) + "\n")
    print(json.dumps(line, default=str))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
