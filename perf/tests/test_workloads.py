"""Scaled-down end-to-end passes of each workload, through the runners'
``jobs`` argument rather than command-line flags."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import perf.__main__ as command
from perf import child, jobs
from perf.jobs import Job


def run(workload, job_list, out_dir, mode="run", seed=1):
    return child.RUNNERS[workload](workload, seed, 1.0, mode,
                                   time.monotonic(), str(out_dir),
                                   jobs=job_list)


def _assert_correct(result, attempted):
    assert result["checks"] == []
    assert result["failed"] == 0
    assert result["attempted"] == attempted
    assert result["jobs_per_s"] > 0
    assert 0 < result["job_p50_ms"] <= result["job_tail_ms"]
    assert result["setup_s"] > 0
    assert result["peak_rss_mb"] > 0


def test_profile_memory_pass(tmp_path):
    result = run(jobs.PROFILE_MEMORY,
                 [Job("acc-bloat", 11), Job("tlb-hostile", 12)], tmp_path)
    _assert_correct(result, 2)
    assert result["layers"] is None


def test_profile_compute_traced_pass(tmp_path):
    from repro.jvm.machine import Machine

    original = Machine.run
    result = run(jobs.PROFILE_COMPUTE,
                 [Job("kernel-arith", 3), Job("akka-uct", 4)], tmp_path,
                 mode="trace")
    _assert_correct(result, 2)
    assert Machine.run is original
    summary = result["layers"]
    metrics = summary["metrics"]
    assert metrics["trace.coverage"] >= 0.95
    assert metrics["jvm.instructions"] > 0
    assert metrics["jvm.self_s"] > 0
    assert summary["layers"]["jvm"]["subtracted_s"] > 0
    with open(tmp_path / "profile-compute.trace.json") as fh:
        events = json.load(fh)["traceEvents"]
    assert any(e["name"].endswith("Machine.run") for e in events)


def test_optimize_pass(tmp_path):
    result = run(jobs.OPTIMIZE, [Job("acc-bloat", None, "djxperf"),
                                 Job("unsized-growth", None, "djxperf")],
                 tmp_path)
    _assert_correct(result, 2)
    value, unit = result["extra"]["verified_speedup"]
    assert value > 1.0 and unit == "x"


def _fleet_jobs():
    fixed = jobs.FLEET_FIXED_SEED
    return [Job("avrora", fixed, tenant="tenant-a", step="lo"),
            Job("sunflow", 77, tenant="tenant-b", step="hi"),
            Job("avrora", fixed, tenant="tenant-a", step="peak"),
            Job("xalan", fixed, tenant="tenant-b", step="peak", due=0.05),
            Job("xalan", 78, tenant="tenant-a", step="peak", due=0.1)]


def test_fleet_pass(tmp_path):
    result = run(jobs.FLEET, _fleet_jobs(), tmp_path)
    _assert_correct(result, 5)
    assert result["client"]["serve.http.submit_rtt_ms.p50"] > 0
    assert result["client"]["serve.http.status_rtt_ms.p50"] > 0
    assert not os.listdir(tmp_path / "work")


def test_fleet_traced_pass(tmp_path):
    result = run(jobs.FLEET, _fleet_jobs(), tmp_path, mode="trace")
    _assert_correct(result, 5)
    metrics = result["layers"]["metrics"]
    assert metrics["serve.service.execute_s"] > 0
    assert metrics["serve.store.dedupe_ratio"] > 0
    assert metrics["trace.coverage"] >= 0.95
    with open(tmp_path / "fleet.trace.json") as fh:
        events = json.load(fh)["traceEvents"]
    assert any(e["args"].get("job") for e in events)


def _spawn_in_process(job_list):
    def spawn(workload, seed, seconds, mode, out_dir, deadline):
        return child.RUNNERS[workload](workload, seed, seconds, mode,
                                       time.monotonic(), out_dir,
                                       jobs=job_list)
    return spawn


@pytest.mark.parametrize("expected,code", [("rejected", 0),
                                           ("accepted", 1)])
def test_a_wrong_expected_verdict_fails_the_command(monkeypatch, capsys,
                                                    expected, code):
    verdicts = tuple(
        ("acc-bloat", "djxperf", expected, "hoist")
        if verdict[0] == "acc-bloat" else verdict
        for verdict in jobs.OPTIMIZE_VERDICTS)
    monkeypatch.setattr(jobs, "OPTIMIZE_VERDICTS", verdicts)
    monkeypatch.setattr(command, "spawn", _spawn_in_process(
        [Job("acc-bloat", None, "djxperf")]))
    assert command.main(["--workload", "optimize",
                         "--out", ".perf/tests"]) == code
    final = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert final["correct"] is (code == 0)
    assert set(final["metrics"]) == {name for name, _ in
                                     command.END_TO_END}


def test_without_a_program_to_measure_the_command_refuses(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    shutil.copytree(os.path.join(root, "perf"), tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "perf", "--workload", "optimize", "--seed",
         "1", "--seconds", "15", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "{" not in done.stdout
