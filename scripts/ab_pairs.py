#!/usr/bin/env python3
"""Alternating A/B pairs of one campaign-benchmark workload.

Runs ``benchmarks/suite/run.py --workload W --seed S --trace 0`` in a
parent checkout and in a change checkout, one after the other, and
switches which side goes first every pair, so a drift in the host's speed
lands on both sides alike.  Each run lasts the benchmark's own run
length.  Prints every sample, then for every end-to-end metric of
``BENCHMARK.json`` each side's median and quartiles and the benchmark's
own verdict (``run.py``'s ``verdict``: improved, worse, unchanged or
unresolved against the metric's bound) with the change's win fraction,
each pair's change/parent ratio, and the narrowest pair: the one where
the change fared worst (the lowest ratio for a metric where higher is
better, the highest where lower is)::

    python scripts/ab_pairs.py --parent ../parent --workload cli-60 --seed 368 --pairs 10

``--seeds 368 1017`` (``--seed`` is the same option) runs the pairs at
each seed in turn and prints one verdict block per seed, so a claimed
gain and its held-out confirmation are one command.  ``--change``
defaults to the checkout this script lives in.  Each side
runs the program and the benchmark of its own checkout.  Exits 1 if any
run reports ``correct: false`` or gives no result, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "benchmarks" / "suite"))
from run import quartiles, verdict  # noqa: E402


def run_once(checkout: pathlib.Path, workload: str, seed: int) -> Dict:
    """One ``run.py`` run in ``checkout``: its result line, or a failed one."""
    command = [
        sys.executable, "benchmarks/suite/run.py", "--workload", workload,
        "--seed", str(seed), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"correct": False, "metrics": {}, "error": f"exit {proc.returncode}: {tail}"}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", default=str(HERE), help="checkout of the change (default: this one)")
    parser.add_argument("--workload", default="cli-60")
    parser.add_argument("--seed", "--seeds", dest="seeds", type=int, nargs="+", default=[368],
                        help="one verdict block per seed, in turn")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per seed")
    args = parser.parse_args(argv)
    sides = {"parent": pathlib.Path(args.parent).resolve(), "change": pathlib.Path(args.change).resolve()}
    for name, checkout in sides.items():
        for needed in ("benchmarks/suite/run.py", "BENCHMARK.json"):
            if not (checkout / needed).exists():
                print(f"error: {name} checkout {checkout} has no {needed}", file=sys.stderr)
                return 2
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for seed in args.seeds:
        ok &= pairs_at(sides, bench, args.workload, seed, args.pairs)
    if not ok:
        print("error: a run reported correct: false or gave no result", file=sys.stderr)
    return 0 if ok else 1


def pairs_at(sides: Dict[str, pathlib.Path], bench: Dict, workload: str, seed: int, pairs: int) -> bool:
    """Run ``pairs`` alternating pairs at ``seed`` and print their verdict
    block; ``False`` if a run reported ``correct: false`` or no result."""
    samples: Dict[str, List[Dict]] = {"parent": [], "change": []}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], workload, seed)
            samples[side].append(result)
            values = {k: round(v["value"], 3) for k, v in result["metrics"].items()}
            print(f"seed {seed} pair {pair + 1} {side:<6} correct={result['correct']}"
                  f" failed={result.get('failed')} {values}"
                  + (f" {result['error']}" if "error" in result else ""), flush=True)

    print(f"\n{workload} seed {seed}, {pairs} pairs: median [q1, q3]")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        runs = list(zip(samples["parent"], samples["change"]))
        paired = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                  for a, b in runs if name in a["metrics"] and name in b["metrics"]]
        if not paired:
            continue
        parent, change = (list(side) for side in zip(*paired))
        row = []
        for side, values in (("parent", parent), ("change", change)):
            q1, q2, q3 = quartiles(values)
            row.append(f"{side} {q2:.4g} [{q1:.4g}, {q3:.4g}]")
        call, wins = verdict(parent, change, metric["bound"], metric["better"])
        print(f"  {name:<16} " + "   ".join(row)
              + f"   {call} (change wins {wins:.0%}, bound {metric['bound']:.0%})")
        ratios = [c / p if p else float("nan") for p, c in paired]
        pick = min if metric["better"] == "higher" else max
        narrow = pick(range(len(ratios)), key=lambda i: ratios[i])
        print(f"  {'':<16} change/parent per pair: "
              + " ".join(f"{r:.3f}" for r in ratios)
              + f"; narrowest pair {narrow + 1}: {ratios[narrow]:.3f}"
              + f" ({paired[narrow][0]:.4g} -> {paired[narrow][1]:.4g})")
    print(flush=True)
    return all(r["correct"] is True for runs in samples.values() for r in runs)


if __name__ == "__main__":
    sys.exit(main())
