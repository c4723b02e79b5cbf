"""Command-line interface: quick profiling runs, planning, and longevity.

Examples::

    python -m repro demo
    python -m repro profile --trefi 1.024 --reach 0.25 --iterations 5
    python -m repro plan --trefi 1.024 --max-fpr 0.5
    python -m repro longevity --capacity-gb 2 --ecc SECDED --trefi 1.024
    python -m repro campaign --chips-per-vendor 8 --workers 4 \
        --run-dir runs/campaign --resume --progress --metrics
    python -m repro serve --root runs/service --port 8787
    python -m repro top --port 8787
    python -m repro obs runs/campaign
    python -m repro obs runs/campaign --export prometheus
    python -m repro obs --compare runs/campaign-a runs/campaign-b
    python -m repro obs --compare runs/r1 runs/r2 runs/r3 --export html
    python -m repro lake compact runs/campaign-a runs/campaign-b --lake lake
    python -m repro lake query --lake lake --report trend --vendor A
"""

from __future__ import annotations

import argparse
import os
import sys

from .conditions import Conditions, ReachDelta
from .core import (
    BruteForceProfiler,
    PlannerConstraints,
    ReachProfiler,
    RelaxedRefreshPlanner,
    evaluate,
    longevity_for_system,
)
from .dram import SimulatedDRAMChip, characterize_for_spd, vendor_by_name
from .dram.geometry import ChipGeometry
from .ecc.model import ECC_STRENGTHS


def _build_chip(args) -> SimulatedDRAMChip:
    return SimulatedDRAMChip(
        vendor=vendor_by_name(args.vendor),
        geometry=ChipGeometry.from_capacity_gigabits(args.capacity_gbit),
        seed=args.seed,
        max_trefi_s=max(args.trefi * 2.0, 2.6),
    )


def cmd_demo(args) -> int:
    target = Conditions(trefi=args.trefi, temperature=45.0)
    truth = BruteForceProfiler(iterations=16).run(_build_chip(args), target)
    profile = ReachProfiler(reach=ReachDelta(delta_trefi=0.250), iterations=5).run(
        _build_chip(args), target
    )
    score = evaluate(profile, truth.failing)
    print(f"Target {target} on a {args.capacity_gbit:g} Gbit vendor-{args.vendor} chip")
    print(f"  brute force: {len(truth)} cells in {truth.runtime_seconds:.1f} s")
    print(f"  reach +250ms: {len(profile)} cells in {profile.runtime_seconds:.1f} s")
    print(f"  coverage {score.coverage:.2%}, FPR {score.false_positive_rate:.1%}, "
          f"speedup {truth.runtime_seconds / profile.runtime_seconds:.2f}x")
    return 0


def cmd_profile(args) -> int:
    target = Conditions(trefi=args.trefi, temperature=45.0)
    chip = _build_chip(args)
    if args.reach > 0.0:
        profiler = ReachProfiler(reach=ReachDelta(delta_trefi=args.reach), iterations=args.iterations)
    else:
        profiler = BruteForceProfiler(iterations=args.iterations)
    profile = profiler.run(chip, target)
    oracle = chip.oracle_failing_set(target)
    score = evaluate(profile, set(int(c) for c in oracle))
    print(f"{profile.mechanism} profiling at {profile.profiling_conditions}: "
          f"{len(profile)} cells, runtime {profile.runtime_seconds:.1f} s")
    print(f"vs oracle: {score}")
    return 0


def cmd_plan(args) -> int:
    chip = _build_chip(args)
    spd = characterize_for_spd(
        chip, anchor_intervals_s=(0.256, 0.512, 0.768, 1.024, 1.28, 1.536, 2.048)
    )
    planner = RelaxedRefreshPlanner(spd, ecc=ECC_STRENGTHS[args.ecc])
    plan = planner.plan(
        Conditions(trefi=args.trefi, temperature=45.0),
        PlannerConstraints(max_false_positive_rate=args.max_fpr),
    )
    print(f"Plan for {plan.target} (vendor {args.vendor}, {args.capacity_gbit:g} Gbit):")
    print(f"  reach           : {plan.reach} -> {plan.reach_conditions}")
    print(f"  est. failures   : {plan.expected_failures:.1f} "
          f"({plan.expected_profiled_cells:.1f} profiled, FPR {plan.expected_false_positive_rate:.1%})")
    print(f"  reprofile every : {plan.reprofile_interval_seconds / 3600.0:.1f} h "
          f"({plan.profiling_time_fraction:.3%} of time)")
    print(f"  feasible        : {plan.feasible}"
          + (f" ({plan.infeasibility_reason})" if not plan.feasible else ""))
    return 0 if plan.feasible else 1


def cmd_longevity(args) -> int:
    estimate = longevity_for_system(
        vendor=vendor_by_name(args.vendor),
        capacity_bytes=int(args.capacity_gb * (1 << 30)),
        ecc=ECC_STRENGTHS[args.ecc],
        target=Conditions(trefi=args.trefi, temperature=args.temperature),
        coverage=args.coverage,
    )
    print(f"N={estimate.tolerable_failures:.1f} failures tolerable, "
          f"{estimate.expected_failures:.0f} expected, "
          f"A={estimate.accumulation_per_hour:.3f}/h")
    if estimate.feasible:
        print(f"profile longevity: {estimate.longevity_days:.2f} days")
        return 0
    print("INFEASIBLE: missed failures exceed the ECC budget")
    return 1


def cmd_campaign(args) -> int:
    from .analysis.campaign import CharacterizationCampaign
    from .runner import graceful_stop

    if args.metrics:
        from . import obs

        obs.enable()

    campaign = CharacterizationCampaign(
        chips_per_vendor=args.chips_per_vendor,
        geometry=ChipGeometry.from_capacity_gigabits(args.capacity_gbit),
        seed=args.seed,
    )
    progress = None
    if args.progress:

        def progress(result, tracker):
            print(tracker.render(), file=sys.stderr)

    # SIGINT/SIGTERM drain in-flight units and persist partial results +
    # telemetry before exiting; the run-dir manifest is marked interrupted
    # so `--resume` picks up exactly where this run stopped.
    with graceful_stop() as stop:
        summary = campaign.run(
            workers=args.workers,
            run_dir=args.run_dir,
            resume=args.resume,
            progress=progress,
            chips_per_unit=args.chips_per_unit,
            should_stop=stop.is_set,
        )
    print(summary.to_text())
    if args.metrics:
        print()
        print(obs.report(title="campaign metrics"))
    if stop.is_set():
        print(
            "interrupted: partial results persisted"
            + (f"; rerun with --resume --run-dir {args.run_dir}" if args.run_dir else ""),
            file=sys.stderr,
        )
        return 130
    return 0 if not summary.failed_units else 1


def cmd_serve(args) -> int:
    import asyncio

    from .service import ServiceConfig, run_service

    config = ServiceConfig(
        root=args.root,
        host=args.host,
        port=args.port,
        pool_workers=args.pool_workers,
        max_running=args.max_running,
        max_queued=args.max_queued,
        resume=not args.no_resume,
    )
    try:
        asyncio.run(run_service(config))
    except KeyboardInterrupt:  # pragma: no cover - second Ctrl-C
        return 130
    return 0


def cmd_top(args) -> int:
    from .obs.top import run_top

    return run_top(
        host=args.host,
        port=args.port,
        interval_s=args.interval,
        once=args.once,
    )


def cmd_obs(args) -> int:
    from .obs import analyze
    from pathlib import Path

    if args.compare:
        # Both spellings work: `obs --compare A B [C ...]` and
        # `obs A --compare B [C ...]` (positional dir = baseline).
        dirs = ([args.run_dir] if args.run_dir else []) + list(args.compare)
        if len(dirs) < 2:
            print(
                "error: --compare needs at least two run directories",
                file=sys.stderr,
            )
            return 2
        runs = [analyze.load_run(d) for d in dirs]
        if args.export:
            if args.export != "html":
                print(
                    "error: --compare exports support only --export html",
                    file=sys.stderr,
                )
                return 2
            out = Path(args.out) if args.out else runs[0].run_dir / "compare.html"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(analyze.comparison_html(runs), encoding="utf-8")
            print(f"wrote {out}")
            return 0
        print(analyze.compare_runs(runs[0], runs[1], *runs[2:]))
        return 0
    if args.run_dir is None:
        print("error: pass a run directory or --compare RUN_A RUN_B ...", file=sys.stderr)
        return 2
    run = analyze.load_run(args.run_dir)
    if args.export:
        default_name, content = analyze.export_run(run, args.export)
        out = Path(args.out) if args.out else run.run_dir / default_name
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(content, encoding="utf-8")
        print(f"wrote {out}")
        return 0
    print(analyze.summarize_run(run))
    return 0


def cmd_lake(args) -> int:
    import json

    from . import lake as lake_mod

    lake = lake_mod.ResultLake(args.lake)
    if args.lake_command == "compact":
        if args.run_id is not None and len(args.run_dirs) != 1:
            print(
                "error: --run-id only applies to a single run directory",
                file=sys.stderr,
            )
            return 2
        for run_dir in args.run_dirs:
            report = lake.compact_run_dir(run_dir, run_id=args.run_id)
            line = (
                f"compacted {run_dir} -> {report.segment} "
                f"({report.units} units, {report.observations} observations, "
                f"{report.events} events"
            )
            if report.skipped_lines:
                line += f", {report.skipped_lines} unparseable lines skipped"
            print(line + ")")
        return 0

    # query
    if args.report == "summary":
        if not args.runs or len(args.runs) != 1:
            print(
                "error: --report summary needs exactly one --runs run id",
                file=sys.stderr,
            )
            return 2
        summary = lake_mod.summary_from_lake(lake, args.runs[0])
        print(json.dumps(summary, sort_keys=True, indent=None if args.json else 2))
        return 0
    kwargs = {"run_ids": args.runs}
    if args.report == "trend":
        kwargs.update(vendor=args.vendor, kind=args.kind or "interval")
    elif args.report == "contour":
        kwargs.update(kind=args.kind or "temperature")
    report = lake_mod.REPORTS[args.report](lake, **kwargs)
    if args.json:
        print(json.dumps({k: v for k, v in report.items() if k != "text"}, sort_keys=True))
    else:
        print(report["text"])
    return 0


def cmd_export(args) -> int:
    from .analysis.export import export_all

    written = export_all(args.outdir, n_mixes=args.mixes)
    for path in written:
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--vendor", default="B", choices=["A", "B", "C"])
    parser.add_argument("--seed", type=int, default=0x5EED)
    parser.add_argument("--capacity-gbit", type=float, default=1.0, dest="capacity_gbit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_demo = sub.add_parser("demo", help="run the headline comparison")
    p_demo.add_argument("--trefi", type=float, default=1.024)
    p_demo.set_defaults(func=cmd_demo)

    p_prof = sub.add_parser("profile", help="profile one simulated chip")
    p_prof.add_argument("--trefi", type=float, default=1.024)
    p_prof.add_argument("--reach", type=float, default=0.0, help="reach delta in seconds (0 = brute force)")
    p_prof.add_argument("--iterations", type=int, default=16)
    p_prof.set_defaults(func=cmd_profile)

    p_plan = sub.add_parser("plan", help="plan a deployment from SPD data")
    p_plan.add_argument("--trefi", type=float, default=1.024)
    p_plan.add_argument("--max-fpr", type=float, default=0.50, dest="max_fpr")
    p_plan.add_argument("--ecc", default="SECDED", choices=list(ECC_STRENGTHS))
    p_plan.set_defaults(func=cmd_plan)

    p_lon = sub.add_parser("longevity", help="Eq-7 profile longevity")
    p_lon.add_argument("--capacity-gb", type=float, default=2.0, dest="capacity_gb")
    p_lon.add_argument("--ecc", default="SECDED", choices=list(ECC_STRENGTHS))
    p_lon.add_argument("--trefi", type=float, default=1.024)
    p_lon.add_argument("--temperature", type=float, default=45.0)
    p_lon.add_argument("--coverage", type=float, default=0.99)
    p_lon.set_defaults(func=cmd_longevity)

    p_exp = sub.add_parser("export", help="export analytic figure series as CSVs")
    p_exp.add_argument("--outdir", default="results_csv")
    p_exp.add_argument("--mixes", type=int, default=6)
    p_exp.set_defaults(func=cmd_export)

    p_camp = sub.add_parser("campaign", help="run a multi-vendor characterization campaign")
    p_camp.add_argument("--chips-per-vendor", type=int, default=4, dest="chips_per_vendor")
    p_camp.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size (>1 enables parallel execution; default serial)",
    )
    p_camp.add_argument(
        "--run-dir", default=None, dest="run_dir",
        help="durable run directory (JSONL result store, enables --resume)",
    )
    p_camp.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted run, skipping chips already measured",
    )
    p_camp.add_argument(
        "--chips-per-unit", type=int, default=None, dest="chips_per_unit",
        help="chips per work unit, each unit measured by the fused "
             "condition-grid kernel (default: computed from chip capacity "
             "and --workers; results are byte-identical at any size)",
    )
    p_camp.add_argument(
        "--progress", action="store_true",
        help="print per-chip progress (throughput, ETA) to stderr",
    )
    p_camp.add_argument(
        "--metrics", action="store_true",
        help="enable repro.obs instrumentation and print the per-phase metric "
             "summary; with --run-dir, an events.jsonl log lands next to "
             "results.jsonl",
    )
    p_camp.set_defaults(func=cmd_campaign)

    p_srv = sub.add_parser(
        "serve", help="run the multi-tenant campaign service (JSON over HTTP)"
    )
    p_srv.add_argument(
        "--root", default="runs/service",
        help="service root: per-tenant run dirs plus the jobs.jsonl ledger",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=8787,
        help="listen port (0 binds an ephemeral port, printed on startup)",
    )
    p_srv.add_argument(
        "--pool-workers", type=int, default=None, dest="pool_workers",
        help="shared process-pool size across all jobs (0 = in-thread serial; "
             "default: CPU count)",
    )
    p_srv.add_argument(
        "--max-running", type=int, default=2, dest="max_running",
        help="jobs executing concurrently on the shared pool",
    )
    p_srv.add_argument(
        "--max-queued", type=int, default=64, dest="max_queued",
        help="bound on queued jobs before submissions get 429",
    )
    p_srv.add_argument(
        "--no-resume", action="store_true", dest="no_resume",
        help="do not re-adopt unfinished jobs from the ledger on startup",
    )
    p_srv.set_defaults(func=cmd_serve)

    p_top = sub.add_parser(
        "top", help="live terminal dashboard over a running campaign service"
    )
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port", type=int, default=8787)
    p_top.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between redraws (default 1.0)",
    )
    p_top.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (scriptable mode)",
    )
    p_top.set_defaults(func=cmd_top)

    p_obs = sub.add_parser(
        "obs", help="analyze a campaign run directory's recorded telemetry"
    )
    p_obs.add_argument(
        "run_dir", nargs="?", default=None,
        help="run directory to summarize (results.jsonl + events.jsonl + metrics.json)",
    )
    p_obs.add_argument(
        "--compare", nargs="+", metavar="RUN_DIR", default=None,
        help="compare two or more run directories (first = baseline) instead "
             "of summarizing one; combine with --export html for the "
             "comparison dashboard",
    )
    p_obs.add_argument(
        "--export", choices=["prometheus", "chrome-trace", "html"], default=None,
        help="write an export instead of the text summary",
    )
    p_obs.add_argument(
        "--out", default=None,
        help="export output path (default: a standard name inside the run dir)",
    )
    p_obs.set_defaults(func=cmd_obs)

    p_lake = sub.add_parser(
        "lake", help="columnar result lake: compact run dirs, query across runs"
    )
    lake_sub = p_lake.add_subparsers(dest="lake_command", required=True)
    p_compact = lake_sub.add_parser(
        "compact", help="stream run directories into columnar lake segments"
    )
    p_compact.add_argument(
        "run_dirs", nargs="+", metavar="RUN_DIR",
        help="run directories (results.jsonl [+ events.jsonl]) to compact",
    )
    p_compact.add_argument(
        "--lake", required=True,
        help="lake directory (catalog lake.json + runs/*.npz segments)",
    )
    p_compact.add_argument(
        "--run-id", default=None, dest="run_id",
        help="catalog id for the run (single RUN_DIR only; default: the "
             "directory name, sanitized)",
    )
    p_compact.set_defaults(func=cmd_lake)
    p_query = lake_sub.add_parser(
        "query", help="cross-run reports over compacted segments"
    )
    p_query.add_argument(
        "--lake", required=True,
        help="lake directory to query",
    )
    p_query.add_argument(
        "--report", default="runs",
        choices=["runs", "trend", "contour", "longevity", "summary"],
        help="runs: catalog inventory; trend: per-(run, vendor, condition) "
             "failure means; contour: vendor x condition grid pooled across "
             "runs; longevity: per-vendor drift across rounds; summary: one "
             "run's canonical JSON summary (byte-identical to the JSONL path)",
    )
    p_query.add_argument(
        "--runs", nargs="+", default=None, metavar="RUN_ID",
        help="restrict to these catalog run ids (default: every run)",
    )
    p_query.add_argument(
        "--vendor", default=None,
        help="trend report: restrict to one vendor",
    )
    p_query.add_argument(
        "--kind", default=None, choices=["interval", "temperature"],
        help="observation axis (default: interval for trend, temperature "
             "for contour)",
    )
    p_query.add_argument(
        "--json", action="store_true",
        help="print the report as JSON instead of a text table",
    )
    p_query.set_defaults(func=cmd_lake)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `... obs RUN | head`); the
        # truncated output is exactly what the pipe asked for.  Detach so
        # the interpreter's shutdown flush doesn't raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
