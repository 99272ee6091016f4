"""One workload in a fresh process: set up, time, check, report.

Run by :mod:`perf.__main__` as::

    python -m perf.child WORKLOAD SEED SECONDS MODE SPAWNED_AT OUT_DIR

``MODE`` is ``setup`` (set up, report the set-up time, exit), ``run``
(the untraced measurement) or ``trace`` (the same jobs with the tracer
installed around the timed part).  ``SPAWNED_AT`` is the parent's
``time.monotonic()`` just before the spawn; the monotonic clock is
system-wide, so set-up time includes interpreter start and imports.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json
import math
import os
import random
import resource
import shutil
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from perf import jobs as jobdefs
from perf.jobs import Job
from perf.stats import best_of_rounds, max_ok_rate, timing_summary

#: The repository root: the checkout the benchmark measures.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Profile jobs run DJXPerf at this sampling period (the CLI default).
PERIOD = 64
#: Profile jobs re-run on the legacy engine after timing.
RECHECKS = 2


def child_env() -> Dict[str, str]:
    """This environment with ``src/`` and the root on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def write_json(path: str, data) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(data, fh)
    os.replace(tmp, path)


def _peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Tracing:
    """The tracer around one timed region (a no-op when not tracing).

    The loop adds each job's window to :attr:`timed_ns`; the layers
    must cover that time.
    """

    def __init__(self, enabled: bool, out_dir: str, workload: str) -> None:
        self.enabled = enabled
        self.out_dir = out_dir
        self.workload = workload
        self.timed_ns = 0
        self.summary: Optional[dict] = None

    def __enter__(self) -> "Tracing":
        if self.enabled:
            from perf import layers
            from perf.tracer import Tracer

            self.tracer = Tracer()
            self.cost = self.tracer.calibrate()
            self.codegen = layers.codegen_snapshot()
            self.tracer.install(layers.boundaries())
        return self

    def __exit__(self, *exc) -> None:
        if not self.enabled:
            return
        from perf import layers

        self.tracer.restore()
        self.summary = layers.layer_summary(
            self.tracer, self.cost, self.timed_ns, self.codegen,
            layers.codegen_snapshot())
        write_json(os.path.join(self.out_dir,
                                f"{self.workload}.trace.json"),
                   self.tracer.chrome_trace())


def closed_loop(jobs: List[Job], run_job: Callable[[Job], Any],
                tracing: Tracing) -> Tuple[dict, List[Any]]:
    """One caller issuing ``jobs`` in turn; each job is timed alone.

    Garbage is collected before each job, outside its window, so one
    job's leftovers never count in the next one's time or memory.  A
    job that raises counts as failed and infinitely slow.

    The timings come from each program's fastest job over the rounds
    (:func:`~perf.stats.best_of_rounds`): ``jobs_per_s`` is one job of
    every program over the sum of those times, and the median and tail
    are taken over programs.  Completed jobs over the whole timed wall
    time are reported too, as ``wall_jobs_per_s``.
    """
    times: List[float] = []
    outputs: List[Any] = []
    errors: List[str] = []
    with tracing:
        for job in jobs:
            gc.collect()
            began = time.perf_counter_ns()
            try:
                outputs.append(run_job(job))
                times.append((time.perf_counter_ns() - began) / 1e6)
            except Exception as exc:  # a failed job: counted, not fatal
                outputs.append(None)
                times.append(math.inf)
                errors.append(f"{job.program} seed {job.seed}: "
                              f"{type(exc).__name__}: {exc}")
            finally:
                tracing.timed_ns += time.perf_counter_ns() - began
    timed_s = tracing.timed_ns / 1e9
    failed = len(errors)
    best = best_of_rounds([(job.program, ms) for job, ms in zip(jobs, times)])
    summary = timing_summary(list(best.values()))
    return {
        "attempted": len(jobs), "failed": failed, "checks": errors,
        "timed_s": timed_s,
        "jobs_per_s": len(best) * 1000.0 / sum(best.values()),
        "job_p50_ms": summary["p50"], "job_tail_ms": summary["tail"],
        "tail_q": summary["tail_q"], "samples": summary["n"],
        "peak_rss_mb": _peak_rss_mb(), "layers": tracing.summary,
        "job_ms": [[job.program, ms] for job, ms in zip(jobs, times)],
        "basis": f"each program's fastest job of "
                 f"{len(jobs) // len(best)} round(s); median and tail "
                 f"over {len(best)} programs",
        "extra": {"wall_jobs_per_s": (
            (len(jobs) - failed) / timed_s if timed_s else 0.0, "1/s")},
    }, outputs


# -- profile-compute / profile-memory -------------------------------------
def _ranks_first(analysis, bug) -> bool:
    """Whether the top-ranked site is the planted bug's allocation."""
    top = analysis.top_sites(1)
    leaf = top[0].leaf if top else None
    return leaf is not None and \
        (leaf.class_name, leaf.line) == (bug.class_name, bug.line)


def run_profile(workload: str, seed: int, seconds: float, mode: str,
                spawned_at: float, out_dir: str,
                jobs: Optional[List[Job]] = None) -> dict:
    # Entry points are looked up on their modules at each call, so the
    # traced run reaches the tracer's wrappers.
    from repro import workloads
    from repro.core import report as report_module
    from repro.core.profiler import DjxConfig
    from repro.workloads.known_bugs import KNOWN_BUGS

    jobs = jobs or jobdefs.jobs_for(workload, seed, seconds)
    config = DjxConfig(sample_period=PERIOD)
    programs = {name: workloads.get_workload(name)
                for name in sorted({job.program for job in jobs})}
    for program in programs.values():
        # Untimed warm-up: builds, and fills the codegen cache.
        report_module.render_report(
            workloads.run_profiled(program, config=config).analysis)
    setup_s = time.monotonic() - spawned_at
    if mode == "setup":
        return {"setup_s": setup_s}

    planted = {name: bug for name, _ref, bug in KNOWN_BUGS}
    recheck = set(random.Random(seed).sample(jobs, min(RECHECKS,
                                                       len(jobs))))

    def profile(job: Job):
        run = workloads.run_profiled(programs[job.program], config=config,
                                     seed=job.seed)
        report_module.render_report(run.analysis)
        bug = planted.get(job.program)
        missed = bug is not None and not _ranks_first(run.analysis, bug)
        kept = (run.result, run.analysis.to_dict()) if job in recheck \
            else None
        return missed, kept

    result, outputs = closed_loop(
        jobs, profile, Tracing(mode == "trace", out_dir, workload))
    result["setup_s"] = setup_s
    checks = result["checks"]
    for job, output in zip(jobs, outputs):
        if output is None:
            continue
        missed, kept = output
        if missed:
            bug = planted[job.program]
            checks.append(f"{job.program} seed {job.seed}: planted site "
                          f"{bug.class_name}:{bug.line} not ranked first")
        if kept is None:
            continue
        # The reference engine must agree exactly with the timed run.
        program = programs[job.program]
        legacy = workloads.run_profiled(
            program, config=config, seed=job.seed,
            machine_config=dataclasses.replace(program.machine_config(),
                                               fastpath=False))
        if (legacy.result, legacy.analysis.to_dict()) != kept:
            checks.append(f"{job.program} seed {job.seed}: legacy engine "
                          f"result or analysis differs")
    return result


# -- optimize ---------------------------------------------------------------
def run_optimize(workload: str, seed: int, seconds: float, mode: str,
                 spawned_at: float, out_dir: str,
                 jobs: Optional[List[Job]] = None) -> dict:
    from repro.optim import engine

    setup_s = time.monotonic() - spawned_at
    if mode == "setup":
        return {"setup_s": setup_s}
    jobs = jobs or jobdefs.jobs_for(workload, seed, seconds)
    result, verdicts = closed_loop(
        jobs,
        lambda job: engine.optimize_workload(job.program, family=job.family),
        Tracing(mode == "trace", out_dir, workload))
    result["setup_s"] = setup_s
    expected = {(program, family): (status, transform)
                for program, family, status, transform
                in jobdefs.OPTIMIZE_VERDICTS}
    speedups = []
    for job, verdict in zip(jobs, verdicts):
        if verdict is None:
            continue
        status, transform = expected[(job.program, job.family)]
        if (verdict.status, verdict.transform) != (status, transform):
            result["checks"].append(
                f"{job.program} ({job.family}): verdict {verdict.status}/"
                f"{verdict.transform}, expected {status}/{transform}")
        if verdict.status == "accepted":
            speedups.append(verdict.speedup)
    result["extra"]["verified_speedup"] = (
        math.exp(sum(map(math.log, speedups)) / len(speedups))
        if speedups else 0.0, "x")
    return result


# -- fleet ------------------------------------------------------------------
def run_fleet(workload: str, seed: int, seconds: float, mode: str,
              spawned_at: float, out_dir: str,
              jobs: Optional[List[Job]] = None) -> dict:
    from perf.fleet import ClientStats, FleetProcess, run_steps, step_summary
    from repro.core.profiler import DjxConfig
    from repro.workloads import get_workload, run_profiled

    work_parent = os.path.join(out_dir, "work")
    os.makedirs(work_parent, exist_ok=True)
    work = tempfile.mkdtemp(prefix="fleet-", dir=work_parent)
    fleet_args = ["fleet", "--root", os.path.join(work, "fleet"),
                  "--port", "0"]
    summary_path = os.path.join(work, "layers.json")
    if mode == "trace":
        cmd = [sys.executable, "-m", "perf.fleet_host", summary_path,
               os.path.join(out_dir, f"{workload}.trace.json")] + fleet_args
    else:
        cmd = [sys.executable, "-m", "repro"] + fleet_args
    env = dict(child_env(), PYTHONUNBUFFERED="1")
    jobs = jobs or jobdefs.jobs_for(workload, seed, seconds)
    stats = ClientStats()
    try:
        with FleetProcess(cmd, env, ROOT) as fleet:
            setup_s = fleet.start()
            if mode == "setup":
                return {"setup_s": setup_s}
            outcomes = asyncio.run(
                run_steps(fleet.host, fleet.port, jobs, stats))
            code = fleet.stop()
        layers = None
        if mode == "trace":
            with open(summary_path) as fh:
                layers = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    steps = {name: step_summary(outcomes[name], rate)
             for name, rate, _share in jobdefs.FLEET_STEPS}
    every = [o for outs in outcomes.values() for o in outs]
    failed = [o for o in every if o.state != "done"]
    checks = [f"{o.job.program} seed {o.job.seed}: {o.error}"
              for o in failed[:5]]
    if code != 0:
        checks.append(f"fleet exited with code {code}")

    # Store-served and simulated answers must match an in-process run.
    config = DjxConfig(sample_period=PERIOD)
    expected = {}
    for program in dict.fromkeys(job.program for job in jobs):
        run = run_profiled(get_workload(program), config=config,
                           seed=jobdefs.FLEET_FIXED_SEED)
        expected[program] = (run.result.wall_cycles, run.analysis.total())
    for o in every:
        if o.state == "done" and o.job.seed == jobdefs.FLEET_FIXED_SEED:
            got = (o.record["result"]["wall_cycles"],
                   o.record["result"]["total_samples"])
            if got != expected[o.job.program]:
                checks.append(f"{o.job.program}: fleet answered {got}, "
                              f"in-process run {expected[o.job.program]}")

    # Latency below capacity; throughput above it.
    summary = timing_summary([o.latency_ms for o in every
                              if o.job.step != "peak"])
    extra = {"max_ok_rate": (max_ok_rate(list(steps.values())), "1/s"),
             "fail_ratio": (len(failed) / len(every), "ratio")}
    for name, step in steps.items():
        extra[f"lat_p50_ms.{name}"] = (step["p50_ms"], "ms")
        extra[f"lat_p90_ms.{name}"] = (step["p90_ms"], "ms")
        extra[f"done_per_s.{name}"] = (step["jobs_per_s"], "1/s")
    return {
        "attempted": len(every), "failed": len(failed), "checks": checks,
        "setup_s": setup_s,
        "jobs_per_s": steps["peak"]["jobs_per_s"],
        "basis": "completions per second in the peak step; median and "
                 "tail of the lo and hi jobs' latency",
        "job_p50_ms": summary["p50"], "job_tail_ms": summary["tail"],
        "tail_q": summary["tail_q"], "samples": summary["n"],
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
        "job_ms": {name: [[o.job.program, o.due - outs[0].due,
                           o.latency_ms] for o in outs]
                   for name, outs in outcomes.items()},
        "client": stats.metrics(), "layers": layers, "extra": extra,
    }


RUNNERS: Dict[str, Callable[..., dict]] = {
    jobdefs.PROFILE_COMPUTE: run_profile,
    jobdefs.PROFILE_MEMORY: run_profile,
    jobdefs.OPTIMIZE: run_optimize,
    jobdefs.FLEET: run_fleet,
}


def main(argv: List[str]) -> int:
    workload, seed, seconds, mode, spawned_at, out_dir = argv
    if mode not in ("setup", "run", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    result = RUNNERS[workload](workload, int(seed), float(seconds), mode,
                               float(spawned_at), out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
