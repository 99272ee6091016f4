"""Run the benchmark.

    python -m perf [--workload NAME]... [--seed N] [--seconds S]
                   [--trace 0|1] [--out DIR]

Each workload runs in fresh child processes (:mod:`perf.child`).  With
``--trace 0`` a workload sets up three times (two set-up-only children
and the measuring one) and reports the end-to-end metrics, set-up time
as the median of the three.  With ``--trace 1`` it runs untraced, then
traced, and reports the per-layer metrics; spans go to
``OUT/<workload>.trace.json`` and per-layer numbers to
``OUT/layers.json``.  Every run writes ``OUT/record.json``.

Every metric is printed with its unit; the last line of standard output
is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  The exit code is 0 only if every correctness check
passed and no job failed, and 2 when there is no ``src/repro`` to
measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from perf.child import ROOT, child_env
from perf.jobs import FLEET, WORKLOADS
from perf.layers import FLEET_PER_LAYER, PER_LAYER

#: (name, unit) of every end-to-end metric, as in BENCHMARK.json.
END_TO_END = [("setup_s", "s"), ("jobs_per_s", "1/s"),
              ("job_p50_ms", "ms"), ("job_tail_ms", "ms"),
              ("peak_rss_mb", "MB")]
#: Set-ups per workload in an untraced run; set-up time is their median.
SETUP_RUNS = 3
#: Wall-clock budget of one workload, all of its children together.
WORKLOAD_BUDGET_S = 170.0


class ChildFailed(RuntimeError):
    """A child process crashed, timed out or printed no result."""


def spawn(workload: str, seed: int, seconds: float, mode: str,
          out_dir: str, deadline: float) -> dict:
    """Run one child to completion and return its JSON result."""
    env = child_env()
    spawned_at = time.monotonic()
    cmd = [sys.executable, "-m", "perf.child", workload, str(seed),
           repr(seconds), mode, repr(spawned_at), out_dir]
    # A session of its own, so a timeout can stop the child and any
    # fleet process it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{workload} ({mode}) ran out of time") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} ({mode}) exited with code "
                          f"{proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ChildFailed(f"{workload} ({mode}) printed no result: "
                          f"{exc}") from None


def measure(workload: str, seed: int, seconds: float, trace: bool,
            out_dir: str) -> Tuple[dict, Optional[dict]]:
    """(untraced result, traced result or None) of one workload."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    if trace:
        run = spawn(workload, seed, seconds, "run", out_dir, deadline)
        return run, spawn(workload, seed, seconds, "trace", out_dir,
                          deadline)
    setups = [spawn(workload, seed, seconds, "setup", out_dir,
                    deadline)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    run = spawn(workload, seed, seconds, "run", out_dir, deadline)
    setups.append(run["setup_s"])
    run["setup_runs"] = setups
    run["setup_s"] = statistics.median(setups)
    return run, None


def layer_metrics(workload: str, run: dict,
                  traced: dict) -> Dict[str, float]:
    """Every per-layer metric: traced-run layers, untraced client side."""
    names = PER_LAYER + (FLEET_PER_LAYER if workload == FLEET else [])
    measured = {**traced["layers"]["metrics"], **run.get("client", {})}
    metrics = {name: measured.get(name, 0.0) for name, _unit in names}
    metrics["trace.overhead_ratio"] = (
        run["jobs_per_s"] / traced["jobs_per_s"]
        if traced["jobs_per_s"] else 0.0)
    return metrics


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def print_workload(workload: str, run: dict, traced: Optional[dict],
                   metrics: Dict[str, float], units: Dict[str, str]) -> None:
    checks = run["checks"] + (traced["checks"] if traced else [])
    failed = run["failed"] + (traced["failed"] if traced else 0)
    verdict = "correct" if not checks and not failed else "INCORRECT"
    print(f"{workload}: {run['attempted']} jobs, {run['failed']} failed, "
          f"{verdict}; timings: {run['basis']}")
    for message in checks:
        print(f"  check failed: {message}")
    for name, value in metrics.items():
        note = ""
        if name == "setup_s" and "setup_runs" in run:
            note = "  (median of " + ", ".join(
                f"{v:.3f}" for v in run["setup_runs"]) + ")"
        elif name == "job_tail_ms" and run["tail_q"] == 100:
            note = (f"  (maximum of {run['samples']}: no percentile has "
                    f"10 samples beyond)")
        elif name == "job_tail_ms":
            note = (f"  (p{run['tail_q']:g} of {run['samples']}: the "
                    f"highest percentile with >= 10 samples beyond)")
        elif name == "job_p50_ms":
            note = f"  (n={run['samples']})"
        print(f"  {name:34s} {value:14.4f} {units[name]}{note}")
    for name, (value, unit) in (run.get("extra") or {}).items():
        print(f"  {name:34s} {value:14.4f} {unit}  (not gated)")
    if traced:
        summary = traced["layers"]
        print(f"  layer self time over {summary['timed_s']:.3f} s timed "
              f"(wrapper cost subtracted):")
        for name, layer in sorted(summary["layers"].items()):
            print(f"    {name:16s} {layer['self_s']:10.4f} s  "
                  f"{layer['calls']:10d} calls  "
                  f"-{layer['subtracted_s']:.4f} s")
        print(f"    {'other':16s} {summary['other_s']:10.4f} s")


def _number(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf",
                                     description=__doc__.split("\n")[1])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perf",
                        help="directory for traces and records, relative "
                             "to the repository root")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perf: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    out_dir = os.path.normpath(os.path.join(ROOT, args.out))
    if os.path.isabs(args.out) or not out_dir.startswith(ROOT + os.sep):
        parser.error("--out must be a directory inside the repository")
    os.makedirs(out_dir, exist_ok=True)
    workloads = args.workload or list(WORKLOADS)

    units = dict(PER_LAYER + FLEET_PER_LAYER if args.trace
                 else END_TO_END)
    record = {"seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commit": git_commit(),
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "platform": platform.platform(), "workloads": {}}
    final: Dict[str, dict] = {}
    correct = True
    attempted = failed = 0
    for workload in workloads:
        try:
            run, traced = measure(workload, args.seed, args.seconds,
                                  bool(args.trace), out_dir)
        except ChildFailed as exc:
            print(f"perf: {exc}", file=sys.stderr)
            return 1
        if traced:
            metrics = layer_metrics(workload, run, traced)
            path = os.path.join(out_dir, "layers.json")
            try:
                with open(path) as fh:
                    merged = json.load(fh)
            except (OSError, json.JSONDecodeError):
                merged = {}
            merged[workload] = dict(traced["layers"], metrics=metrics)
            with open(path, "w") as fh:
                json.dump(merged, fh, indent=1, sort_keys=True)
        else:
            metrics = {name: run[name] for name, _unit in END_TO_END}
        print_workload(workload, run, traced, metrics, units)
        record["workloads"][workload] = {"run": run, "traced": traced,
                                         "metrics": metrics}
        correct = correct and not run["checks"] and not run["failed"] \
            and not (traced and (traced["checks"] or traced["failed"]))
        attempted += run["attempted"]
        failed += run["failed"]
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for name, value in metrics.items():
            final[prefix + name] = {"value": _number(value),
                                    "unit": units[name]}
            correct = correct and math.isfinite(value)

    with open(os.path.join(out_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
