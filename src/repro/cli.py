"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    List registered workloads (optionally filtered by prefix).
``profile <workload>``
    Run a workload under DJXPerf and print the object-centric report
    (``--html FILE`` also writes the Figure 5-style HTML view).
``speedup <workload>``
    Run baseline and optimised variants; report the whole-program
    speedup (the paper's WS column).
``overhead <workload>``
    Measure DJXPerf's runtime/memory overhead on a workload (Figure 4
    methodology).
``advise <workload>``
    Profile and print ranked optimisation advice.
``replay <trace>``
    Re-run the offline analyzer over a recorded observation trace
    (``profile --trace``), optionally with a different threshold or —
    for traces recorded with ``--trace-accesses`` — a different
    sampling period (``--resample``).  No simulation happens.
``suite``
    Run the Figure-4 overhead study over the benchmark suite, fanned
    out over a process pool (``--jobs``).
``bench``
    Measure simulator throughput (simulated instructions/sec and
    accesses/sec) on the production fused engine, the legacy oracle
    and the profiled arms, re-run the optimize verdicts, and
    optionally write/check the tracked ``BENCH_throughput.json``
    baseline.
``fuzz``
    Differential fuzzing: run seeded random programs under every
    semantics-preserving configuration pair (engines, counting
    boundaries, live vs replay, native vs profiled) with machine-state
    sanitizers attached; ``--shrink`` minimises failures into
    ``tests/fuzz_corpus/``.
``serve``
    The continuous-profiling daemon: poll a spool directory for
    submitted jobs, run them over a worker pool with per-job timeouts
    and retries, persist every profile into the store, heartbeat to
    ``<spool>/status.jsonl``.  ``--drain`` processes the backlog and
    exits (the CI mode).
``fleet``
    The sharded serving tier: N shard daemons (each its own spool +
    store) behind one asyncio HTTP front door, with the fleet-wide
    dedupe index and per-tenant fairness quotas; SIGINT/SIGTERM stops
    it.  ``--jobs N`` runs each shard's simulations on N worker
    processes, which is how the fleet uses more cores.
``submit``
    Drop a profile job (or, with ``--optimize``, an optimize job) into
    the spool for the daemon.
``history``
    List stored profiles (newest first) from the profile store.
``regress``
    Diff the latest stored profile for a workload against a baseline
    record and print the regression verdict (new top-N objects,
    sample-share swings, throughput drops).  Exit 1 on regression.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.core import DJXPerf, DjxConfig, render_numa_report, render_report
from repro.core.htmlreport import write_html
from repro.optim import advise
from repro.workloads import (
    get_workload,
    measure_overhead,
    measure_speedup,
    run_profiled,
    workload_names,
)


def _add_profiler_options(parser: argparse.ArgumentParser) -> None:
    from repro.families import FAMILY_CHOICES

    parser.add_argument("--period", type=int, default=64,
                        help="PMU sampling period (default 64)")
    parser.add_argument("--threshold", type=int, default=1024,
                        help="size threshold S in bytes (default 1024; "
                             "0 monitors every allocation)")
    parser.add_argument("--family", choices=FAMILY_CHOICES,
                        default="djxperf",
                        help="profiler family: djxperf (bloat, default), "
                             "replica (duplicate objects) or redundancy "
                             "(dead stores / silent loads)")


def _config(args) -> DjxConfig:
    return DjxConfig(sample_period=args.period,
                     size_threshold=args.threshold)


def cmd_list(args) -> int:
    names = [n for n in workload_names() if n.startswith(args.prefix)]
    for name in names:
        workload = get_workload(name)
        variants = "/".join(workload.variants)
        print(f"{name:24s} [{variants}]  {workload.paper_ref}")
    if not names:
        print(f"no workloads matching prefix {args.prefix!r}",
              file=sys.stderr)
        return 1
    return 0


def cmd_profile(args) -> int:
    workload = get_workload(args.workload)
    run = run_profiled(workload, variant=args.variant,
                       config=_config(args),
                       trace_path=args.trace,
                       trace_accesses=args.trace_accesses,
                       family=args.family)
    print(render_report(run.analysis, top=args.top))
    if args.trace:
        print(f"\nobservation trace written to {args.trace}")
    if run.analysis.top_remote_sites(1):
        print()
        print(render_numa_report(run.analysis, top=args.top))
    if args.html:
        path = write_html(run.analysis, args.html,
                          title=f"DJXPerf: {workload.name}")
        print(f"\nHTML report written to {path}")
    return 0


def cmd_speedup(args) -> int:
    workload = get_workload(args.workload)
    speedup, baseline, optimized = measure_speedup(workload)
    print(f"workload   : {workload.name} ({workload.paper_ref})")
    print(f"baseline   : {baseline.wall_cycles} cycles, "
          f"{baseline.l1_misses} L1 misses, "
          f"{baseline.heap_allocations} allocations")
    print(f"optimised  : {optimized.wall_cycles} cycles "
          f"({workload.optimized_variant}), "
          f"{optimized.l1_misses} L1 misses, "
          f"{optimized.heap_allocations} allocations")
    print(f"speedup    : {speedup:.3f}x")
    return 0


def cmd_overhead(args) -> int:
    workload = get_workload(args.workload)
    m = measure_overhead(workload, config=_config(args),
                         family=args.family)
    print(f"workload          : {workload.name}")
    print(f"native            : {m.native_cycles} cycles, "
          f"peak heap {m.native_peak_memory} bytes")
    print(f"profiled          : {m.profiled_cycles} cycles, "
          f"profiler {m.profiler_memory} bytes")
    print(f"runtime overhead  : {m.runtime_overhead:.3f}x")
    print(f"memory overhead   : {m.memory_overhead:.3f}x")
    return 0


def cmd_replay(args) -> int:
    if args.family != "djxperf":
        from repro.families import replay_family

        if args.resample:
            print("error: --resample is DJXPerf-only (family traces "
                  "replay at their recorded period)", file=sys.stderr)
            return 2
        analysis = replay_family(args.trace, args.family,
                                 sample_period=args.period,
                                 size_threshold=args.threshold)
    else:
        from repro.obs.replay import replay_analyze

        analysis = replay_analyze(args.trace, config=_config(args),
                                  resample=args.resample)
    print(render_report(analysis, top=args.top))
    if analysis.top_remote_sites(1):
        print()
        print(render_numa_report(analysis, top=args.top))
    return 0


def cmd_suite(args) -> int:
    from repro.workloads.suite import measure_suite

    rows = measure_suite(suite=args.suite, config=_config(args),
                         jobs=args.jobs, trace_dir=args.trace_dir,
                         seed=args.seed, family=args.family)
    print(f"{'workload':24s} {'suite':12s} {'runtime':>8s} {'memory':>8s}")
    for spec, m in rows:
        flag = " *" if spec.alloc_heavy else ""
        print(f"{m.name:24s} {spec.suite:12s} "
              f"{m.runtime_overhead:7.3f}x {m.memory_overhead:7.3f}x{flag}")
    heavy = [m for spec, m in rows if spec.alloc_heavy]
    if heavy:
        print("\n* allocation-heavy outlier (paper: >30% overhead family)")
    if args.trace_dir:
        print(f"observation traces written under {args.trace_dir}")
    return 0


def cmd_advise(args) -> int:
    workload = get_workload(args.workload)
    run = run_profiled(workload, config=_config(args))
    advices = advise(run.analysis, top=args.top)
    if not advices:
        print("no sites worth optimising (all below the share threshold)")
        return 0
    for advice in advices:
        print(advice)
    return 0


def cmd_optimize(args) -> int:
    import json

    from repro.optim.engine import optimize_workload

    verdict = optimize_workload(
        args.workload, variant=args.variant, family=args.family,
        transform=args.transform, config=_config(args),
        seed=args.seed, capacity=args.capacity, top=args.top)
    if args.json:
        print(json.dumps(verdict.to_dict(), indent=2, sort_keys=True))
    else:
        print(verdict.render())
    if verdict.status == "accepted":
        return 0
    if verdict.status == "no-candidate":
        return 3
    return 1


def cmd_bench(args) -> int:
    import json

    from repro.bench import (
        SMALL_SUITE,
        TOLERANCE,
        BenchReport,
        bench_optimize,
        bench_suite,
        check_regression,
        load_report,
        write_report,
    )

    def progress(row):
        if not args.json:
            print(f"{row.name:24s} {row.instructions:8d} ins  "
                  f"{row.fastpath.ips:10.0f} ips  "
                  f"{row.fastpath.aps:10.0f} aps"
                  f"  x{row.speedup_vs_legacy:.2f}"
                  f"  x{row.profiled_speedup:.2f} prof")

    def optimize_progress(name, entry):
        if args.json:
            return
        speedup = (f"  x{entry['speedup']:.2f}"
                   if entry.get("speedup") else "")
        print(f"{'OPTIMIZE':24s} {name:24s} "
              f"{entry['status']:12s} "
              f"{entry.get('transform') or '-':22s}{speedup}")

    if args.serve_only:
        report = BenchReport(rows=[], repeat=args.repeat)
    else:
        report = bench_suite(args.names or SMALL_SUITE, repeat=args.repeat,
                             progress=progress)
        report = dataclasses.replace(
            report, optimize=bench_optimize(progress=optimize_progress))
    if args.serve_load or args.serve_only:
        from repro.serve.loadgen import run_fleet_load

        load = run_fleet_load()
        report = dataclasses.replace(report, fleet=load.to_dict())
        if not args.json:
            for point in load.points:
                print(f"{'SERVE-LOAD':24s} {point.shards:2d} shard(s)  "
                      f"{point.jobs_ok:3d}/"
                      f"{point.jobs_ok + point.jobs_failed} jobs  "
                      f"{point.jobs_per_sec:6.2f} jobs/s  "
                      f"p50 {point.p50_ms:7.1f}ms  "
                      f"p99 {point.p99_ms:7.1f}ms  "
                      f"dedupe {point.dedupe_hit_rate:.0%}  "
                      f"warm {point.warm_hit_rate:.0%}")
            reshard = load.reshard
            print(f"{'':24s} scaling x{load.scaling_ratio:.2f}  "
                  f"tail x{load.largest.tail_ratio:.2f}  "
                  f"burst {reshard['accepted']} accepted/"
                  f"{reshard['throttled']} throttled  cross-shard "
                  f"{'hit' if reshard['hit'] else 'MISS'}")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif report.rows:
        agg = report.aggregate_fastpath
        print(f"{'AGGREGATE':24s} "
              f"{sum(r.instructions for r in report.rows):8d} ins  "
              f"{agg.ips:10.0f} ips  {agg.aps:10.0f} aps"
              f"  x{report.aggregate_speedup:.2f} vs legacy"
              f"  x{report.aggregate_profiled_speedup:.2f} profiled")
    if args.out:
        write_report(report, args.out)
        if not args.json:
            print(f"report written to {args.out}")
    if args.check:
        failures = check_regression(report, load_report(args.check))
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        if not args.json:
            print(f"regression check against {args.check} passed "
                  f"(tolerance {TOLERANCE:.0%})")
    return 0


def cmd_fuzz(args) -> int:
    from repro.fuzz import ORACLE_NAMES, run_fuzz

    if args.oracles:
        oracles = tuple(s.strip() for s in args.oracles.split(",")
                        if s.strip())
    else:
        oracles = ORACLE_NAMES

    def progress(i, failure):
        if failure is not None:
            print(f"FAIL {failure.describe()}", file=sys.stderr)
        elif (i + 1) % 50 == 0:
            print(f"  {i + 1} programs clean")

    report = run_fuzz(seed=args.seed, iterations=args.iterations,
                      time_budget=args.time_budget, oracles=oracles,
                      shrink=args.shrink, progress=progress)
    status = "OK" if report.ok else f"{len(report.failures)} FAILING"
    print(f"fuzz: {report.iterations_run} programs, seed {report.seed}, "
          f"oracles [{','.join(report.oracles)}]: {status} "
          f"({report.elapsed_seconds:.1f}s)")
    return 0 if report.ok else 1


#: Default serving-layer locations (shared by serve/submit/history/regress).
DEFAULT_SPOOL = ".djxserve/spool"
DEFAULT_STORE = ".djxserve/store.sqlite"
DEFAULT_FLEET_ROOT = ".djxserve/fleet"


def cmd_serve(args) -> int:
    from repro.serve.service import SPOOL_IDLE_TIMEOUT, ProfilingService

    service = ProfilingService(args.spool, args.store, jobs=args.jobs,
                               job_timeout=args.timeout)
    with service:
        if args.drain:
            done = service.drain()
            print(f"drained {done} job(s) "
                  f"({service.failed} failed, "
                  f"{service.cached_hits} served from store)")
        else:
            print(f"serving spool {args.spool} -> store {args.store} "
                  f"(heartbeat {service.heartbeat_path}; "
                  f"SIGINT/SIGTERM drains and exits)")
            service.serve_forever(SPOOL_IDLE_TIMEOUT,
                                  install_signal_handlers=True)
            print(f"stopped after {service.completed} job(s) "
                  f"({service.failed} failed, "
                  f"{service.cached_hits} served from store)")
    return 0 if service.failed == 0 else 1


def cmd_fleet(args) -> int:
    """Shard daemons on threads behind the HTTP front door.

    ``--jobs N`` gives every shard a pool of N worker processes, which
    is how the fleet uses more than one core.  Exits 1 if a job failed
    or a shard's daemon thread died while the fleet ran.
    """
    import asyncio
    import signal

    from repro.serve.http import HttpFrontDoor
    from repro.serve.queue import FLEET_POLICY
    from repro.serve.router import Fleet

    async def _run() -> int:
        fleet = Fleet(args.root, shards=args.shards, jobs=args.jobs,
                      job_timeout=args.timeout, queue_policy=FLEET_POLICY,
                      retention=args.retention)
        door = HttpFrontDoor(fleet, host=args.host, port=args.port)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, OSError):
                pass  # non-main thread or unsupported platform
        with fleet:
            fleet.start()
            await door.start()
            print(f"fleet: {args.shards} shard(s) under {args.root}, "
                  f"listening on http://{door.host}:{door.port} "
                  f"(SIGINT/SIGTERM stops)", flush=True)
            await stop.wait()
            await door.stop()
            stats = fleet.stats()
        completed = sum(s["completed"] for s in stats["shards"])
        failed = sum(s["failed"] for s in stats["shards"])
        dead = [s["shard"] for s in stats["shards"] if not s["alive"]]
        print(f"stopped after {door.requests_served} request(s): "
              f"{completed} job(s) done, {failed} failed, "
              f"dedupe {stats['dedupe']['hits']} hit(s) / "
              f"{stats['dedupe']['misses']} miss(es), "
              f"{stats['dedupe']['indexed']} key(s) indexed")
        if dead:
            print(f"fleet: shard(s) {dead} stopped serving: their "
                  f"daemon thread died", file=sys.stderr)
        return 0 if failed == 0 and not dead else 1

    return asyncio.run(_run())


def cmd_submit(args) -> int:
    from repro.serve.queue import JobSpec, SpoolQueue

    kind = "optimize" if args.optimize else "profile"
    # Fail fast: the daemon would only discover a bad name after
    # claiming the job (and burning its attempts).
    get_workload(args.workload)
    meta = {}
    if args.transform is not None:
        meta["transform"] = args.transform
    if args.capacity is not None:
        meta["capacity"] = args.capacity
    if meta and kind != "optimize":
        print(f"error: --{next(iter(meta))} only applies to optimize "
              f"jobs", file=sys.stderr)
        return 2
    threshold = args.threshold
    if threshold is None:
        # Optimize jobs track every allocation by default: their
        # targets include small boxes the reporting threshold hides.
        threshold = 0 if kind == "optimize" else 1024
    if kind == "optimize":
        # Validate the family/transform combination before enqueueing,
        # so a bad request never burns daemon attempts.
        from repro.optim.transforms import transforms_for
        transforms_for(args.family, args.transform)
    queue = SpoolQueue(args.spool)
    spec = queue.submit(JobSpec(
        job_id="", kind=kind, workload=args.workload,
        variant=args.variant, period=args.period,
        threshold=threshold, family=args.family, seed=args.seed,
        force=args.force, meta=meta))
    print(f"submitted {spec.job_id} "
          f"({spec.kind} {spec.workload}/{spec.variant}, "
          f"family {spec.family}, period {spec.period}, "
          f"threshold {spec.threshold})")
    return 0


def cmd_history(args) -> int:
    import json
    import time as time_mod

    from repro.serve.store import ProfileStore

    with ProfileStore(args.store) as store:
        records = store.history(workload=args.workload or None,
                                variant=args.variant, limit=args.limit)
        if args.json:
            print(json.dumps([r.to_dict() for r in records], indent=2,
                             sort_keys=True))
            return 0
        if not records:
            print("(no stored profiles match)")
            return 1
        for record in records:
            when = time_mod.strftime("%Y-%m-%d %H:%M:%S",
                                     time_mod.localtime(record.created_at))
            print(f"{when}  {record.describe()}")
        stats = store.stats()
        print(f"store: {stats['profiles']} profile(s), "
              f"{stats['payloads']} unique payload(s), "
              f"{stats['stored_bytes']} bytes on disk "
              f"({stats['raw_bytes']} raw)")
    return 0


def cmd_regress(args) -> int:
    import json

    from repro.serve.regress import RegressPolicy, regress_records
    from repro.serve.store import ProfileStore

    policy = RegressPolicy(top_n=args.top)
    with ProfileStore(args.store) as store:
        if args.candidate_id is not None:
            candidate = store.get_record(args.candidate_id)
        else:
            records = store.history(workload=args.workload,
                                    variant=args.variant, limit=1)
            if not records:
                print(f"error: no stored profile for {args.workload}",
                      file=sys.stderr)
                return 2
            candidate = records[0]
        baseline = None
        if args.baseline_id is not None:
            baseline = store.get_record(args.baseline_id)
        elif args.baseline_variant is not None:
            baselines = store.history(workload=candidate.key.workload,
                                      variant=args.baseline_variant,
                                      limit=1)
            if not baselines:
                print(f"error: no stored profile for "
                      f"{candidate.key.workload}/{args.baseline_variant}",
                      file=sys.stderr)
                return 2
            baseline = baselines[0]
        verdict = regress_records(store, candidate, baseline=baseline,
                                  policy=policy)
    if args.json:
        print(json.dumps(verdict.to_dict(), indent=2, sort_keys=True))
    else:
        print(verdict.render())
    if verdict.status == "regression":
        return 1
    if verdict.status == "no-baseline":
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DJXPerf reproduction: object-centric memory profiling")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list workloads")
    p_list.add_argument("prefix", nargs="?", default="")
    p_list.set_defaults(fn=cmd_list)

    p_profile = sub.add_parser("profile", help="profile a workload")
    p_profile.add_argument("workload")
    p_profile.add_argument("--variant", default="baseline")
    p_profile.add_argument("--top", type=int, default=5)
    p_profile.add_argument("--html", metavar="FILE",
                           help="also write an HTML report")
    p_profile.add_argument("--trace", metavar="FILE",
                           help="record the observation-event trace "
                                "(.gz suffix compresses)")
    p_profile.add_argument("--trace-accesses", action="store_true",
                           help="include raw accesses in the trace "
                                "(enables replay --resample)")
    _add_profiler_options(p_profile)
    p_profile.set_defaults(fn=cmd_profile)

    p_speedup = sub.add_parser("speedup",
                               help="measure an optimisation's speedup")
    p_speedup.add_argument("workload")
    p_speedup.set_defaults(fn=cmd_speedup)

    p_overhead = sub.add_parser("overhead",
                                help="measure profiling overhead")
    p_overhead.add_argument("workload")
    _add_profiler_options(p_overhead)
    p_overhead.set_defaults(fn=cmd_overhead)

    p_replay = sub.add_parser("replay",
                              help="re-analyze a recorded trace offline")
    p_replay.add_argument("trace", help="trace file from profile --trace")
    p_replay.add_argument("--top", type=int, default=5)
    p_replay.add_argument("--resample", action="store_true",
                          help="re-derive samples from raw accesses at "
                               "--period (needs --trace-accesses trace)")
    _add_profiler_options(p_replay)
    p_replay.set_defaults(fn=cmd_replay)

    p_suite = sub.add_parser("suite",
                             help="run the Figure-4 overhead study")
    p_suite.add_argument("--suite", default="",
                         choices=["", "renaissance", "dacapo", "specjvm"],
                         help="filter rows by origin suite")
    p_suite.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: CPU count; "
                              "1 = serial)")
    p_suite.add_argument("--trace-dir", metavar="DIR",
                         help="also record per-workload observation traces")
    p_suite.add_argument("--seed", type=int, default=None,
                         help="override every row's machine seed "
                              "(scheduler/NUMA RNG) for a reproducible "
                              "study")
    _add_profiler_options(p_suite)
    p_suite.set_defaults(fn=cmd_suite)

    p_advise = sub.add_parser("advise",
                              help="profile and print optimisation advice")
    p_advise.add_argument("workload")
    p_advise.add_argument("--top", type=int, default=10)
    _add_profiler_options(p_advise)
    p_advise.set_defaults(fn=cmd_advise)

    p_optimize = sub.add_parser(
        "optimize",
        help="profile-guided optimization: profile, rewrite, verify")
    p_optimize.add_argument("workload")
    p_optimize.add_argument("--variant", default="baseline")
    p_optimize.add_argument("--transform", default=None,
                            help="pin one catalog transform instead of "
                                 "letting the advice kind choose "
                                 "(hoist, presize, reorder-fields, "
                                 "swap-boxed-array, "
                                 "eliminate-dead-stores)")
    p_optimize.add_argument("--capacity", type=int, default=None,
                            help="explicit target capacity for the "
                                 "presize transform (default: derived "
                                 "from the observed growth chain)")
    p_optimize.add_argument("--top", type=int, default=8,
                            help="advice entries to consider, in rank "
                                 "order (default 8)")
    p_optimize.add_argument("--seed", type=int, default=None,
                            help="machine seed for every arm")
    p_optimize.add_argument("--json", action="store_true",
                            help="print the verdict as JSON")
    _add_profiler_options(p_optimize)
    # Optimize targets include small boxes/records; track everything.
    p_optimize.set_defaults(fn=cmd_optimize, threshold=0)

    p_bench = sub.add_parser(
        "bench", help="measure simulator throughput")
    p_bench.add_argument("names", nargs="*", metavar="workload",
                         help="workloads to benchmark (default: the "
                              "small suite CI gates)")
    p_bench.add_argument("--repeat", type=int, default=3,
                         help="runs per arm, best wall time kept "
                              "(default 3)")
    p_bench.add_argument("--json", action="store_true",
                         help="print the full report as JSON instead "
                              "of the table")
    p_bench.add_argument("--out", metavar="FILE",
                         help="also write the JSON report to FILE")
    p_bench.add_argument("--check", metavar="FILE",
                         help="compare against a committed baseline "
                              "report; non-zero exit on regression")
    p_bench.add_argument("--serve-load", action="store_true",
                         help="also run the fleet load arm: 8 "
                              "concurrent HTTP clients against a "
                              "1-shard and a 4-shard fleet, recording "
                              "p50/p99 submit-to-verdict latency, "
                              "jobs/sec scaling, dedupe and warm hit "
                              "rates, and the reshard phase's 429 and "
                              "cross-shard hit")
    p_bench.add_argument("--serve-only", action="store_true",
                         help="run only the fleet load arm, skipping "
                              "the engine arms and optimize verdicts")
    p_bench.set_defaults(fn=cmd_bench)

    p_fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing of the simulator stack")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed; iteration i fuzzes the "
                             "derived seed seed*1000003+i (default 0)")
    p_fuzz.add_argument("--iterations", type=int, default=100,
                        help="generated programs to check (default 100)")
    p_fuzz.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="stop early after this much wall time")
    p_fuzz.add_argument("--oracles", default="",
                        help="comma-separated subset of "
                             "engine,counting,replay,native "
                             "(default: all)")
    p_fuzz.add_argument("--shrink", action="store_true",
                        help="minimise failing programs and pin them "
                             "to tests/fuzz_corpus")
    p_fuzz.set_defaults(fn=cmd_fuzz)

    p_serve = sub.add_parser(
        "serve", help="run the continuous-profiling daemon")
    p_serve.add_argument("--spool", default=DEFAULT_SPOOL,
                         help=f"spool directory (default {DEFAULT_SPOOL})")
    p_serve.add_argument("--store", default=DEFAULT_STORE,
                         help=f"profile store (default {DEFAULT_STORE})")
    p_serve.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: CPU count)")
    p_serve.add_argument("--timeout", type=float, default=300.0,
                         help="per-job attempt timeout in seconds "
                              "(default 300); enforced only when "
                              "--jobs > 1 — serial jobs run in-process "
                              "and cannot be killed")
    p_serve.add_argument("--drain", action="store_true",
                         help="process the current backlog and exit "
                              "instead of polling forever")
    p_serve.set_defaults(fn=cmd_serve)

    p_fleet = sub.add_parser(
        "fleet", help="run the sharded fleet behind the HTTP front door")
    p_fleet.add_argument("--root", default=DEFAULT_FLEET_ROOT,
                         help="fleet root directory holding the shard "
                              f"spools/stores and the dedupe index "
                              f"(default {DEFAULT_FLEET_ROOT})")
    p_fleet.add_argument("--shards", type=int, default=2,
                         help="shard daemons to run (default 2; "
                              "growing the count reshards — old "
                              "profiles are found through the fleet "
                              "index)")
    p_fleet.add_argument("--host", default="127.0.0.1",
                         help="front-door bind address "
                              "(default 127.0.0.1)")
    p_fleet.add_argument("--port", type=int, default=8750,
                         help="front-door port (default 8750; 0 picks "
                              "an ephemeral port)")
    p_fleet.add_argument("--jobs", type=int, default=1,
                         help="worker processes per shard (default 1 "
                              "= simulate on the shard's thread; more "
                              "processes use more cores)")
    p_fleet.add_argument("--timeout", type=float, default=300.0,
                         help="per-job attempt timeout in seconds "
                              "(default 300); enforced only when "
                              "--jobs > 1 — serial jobs run in-process "
                              "and cannot be killed")
    p_fleet.add_argument("--retention", type=float, default=86400.0,
                         help="seconds done/failed job files are kept "
                              "before the idle-tick sweep removes "
                              "them (default 86400; <= 0 keeps "
                              "forever)")
    p_fleet.set_defaults(fn=cmd_fleet)

    p_submit = sub.add_parser(
        "submit", help="enqueue a job for the serve daemon")
    p_submit.add_argument("workload")
    p_submit.add_argument("--variant", default="baseline")
    p_submit.add_argument("--optimize", action="store_true",
                          help="submit an optimize job instead of a "
                               "profile job")
    p_submit.add_argument("--transform", default=None,
                          help="pin one catalog transform "
                               "(optimize jobs only)")
    p_submit.add_argument("--capacity", type=int, default=None,
                          help="explicit presize capacity "
                               "(optimize jobs only)")
    p_submit.add_argument("--seed", type=int, default=None,
                          help="machine seed (part of the store key)")
    p_submit.add_argument("--force", action="store_true",
                          help="re-simulate even when the store already "
                               "has this exact key")
    p_submit.add_argument("--spool", default=DEFAULT_SPOOL,
                          help=f"spool directory (default {DEFAULT_SPOOL})")
    _add_profiler_options(p_submit)
    # Sentinel: cmd_submit picks 0 for optimize jobs, 1024 otherwise.
    p_submit.set_defaults(fn=cmd_submit, threshold=None)

    p_history = sub.add_parser(
        "history", help="list stored profiles")
    p_history.add_argument("workload", nargs="?", default="",
                           help="filter by workload name")
    p_history.add_argument("--variant", default=None,
                           help="filter by variant")
    p_history.add_argument("--limit", type=int, default=20)
    p_history.add_argument("--json", action="store_true",
                           help="print records as JSON")
    p_history.add_argument("--store", default=DEFAULT_STORE,
                           help=f"profile store (default {DEFAULT_STORE})")
    p_history.set_defaults(fn=cmd_history)

    p_regress = sub.add_parser(
        "regress", help="check a stored profile against a baseline")
    p_regress.add_argument("workload")
    p_regress.add_argument("--variant", default=None,
                           help="candidate variant (default: latest "
                                "record of any variant)")
    p_regress.add_argument("--candidate-id", type=int, default=None,
                           help="explicit candidate record id")
    p_regress.add_argument("--baseline-id", type=int, default=None,
                           help="explicit baseline record id")
    p_regress.add_argument("--baseline-variant", default=None,
                           help="compare against the latest record of "
                                "this variant instead of the same key")
    p_regress.add_argument("--top", type=int, default=5,
                           help="ranking depth for the new-top-site "
                                "check (default 5)")
    p_regress.add_argument("--json", action="store_true",
                           help="print the verdict as JSON")
    p_regress.add_argument("--store", default=DEFAULT_STORE,
                           help=f"profile store (default {DEFAULT_STORE})")
    p_regress.set_defaults(fn=cmd_regress)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        # Bad trace files, degenerate measurements, unreadable paths.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
