"""Tests for the multi-process fleet supervisor.

The backoff/circuit-breaker/staleness logic is driven with injected
clocks and throwaway child commands (no fleet processes); the
end-to-end classes boot real supervised fleets over real sockets and
are therefore the slowest tests in the serve suite — they keep the
job counts tiny.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from queue import Queue

import pytest

from repro.serve.http import http_request
from repro.serve.queue import JobSpec, SpoolQueue
from repro.serve.service import ProfilingService
from repro.serve.supervisor import (
    ChildProcess,
    FleetSupervisor,
    front_door_path,
    read_front_door_file,
    write_front_door_file,
)

WORKLOAD = "objectlayout"


class TestFrontDoorFile:
    def test_round_trip(self, tmp_path):
        root = str(tmp_path)
        write_front_door_file(root, "127.0.0.1", 8123)
        info = read_front_door_file(root)
        assert info["host"] == "127.0.0.1"
        assert info["port"] == 8123
        assert info["pid"] == os.getpid()

    def test_missing_returns_none(self, tmp_path):
        assert read_front_door_file(str(tmp_path)) is None

    def test_garbage_returns_none(self, tmp_path):
        with open(front_door_path(str(tmp_path)), "w") as fh:
            fh.write("not json")
        assert read_front_door_file(str(tmp_path)) is None


def crashing_supervisor(tmp_path, **kw):
    """A supervisor whose single child is a fast-exiting command."""
    kw.setdefault("backoff_base", 0.5)
    kw.setdefault("max_restarts", 3)
    kw.setdefault("restart_window", 60.0)
    sup = FleetSupervisor(str(tmp_path), shards=0, **kw)
    child = ChildProcess(
        "crashy", [sys.executable, "-c", "raise SystemExit(3)"],
        os.path.join(sup.log_dir, "crashy.log"))
    sup.children["crashy"] = child
    return sup, child


def wait_exit(child, timeout=10.0):
    deadline = time.time() + timeout
    while child.alive():
        assert time.time() < deadline, "child did not exit"
        time.sleep(0.01)


class TestBackoff:
    """Restart scheduling with an injected clock — no sleeping."""

    def test_exit_schedules_exponential_backoff(self, tmp_path):
        sup, child = crashing_supervisor(tmp_path, backoff_base=0.5,
                                         backoff_max=30.0)
        restart_ats = []
        now = 100.0
        for expected_backoff in (0.5, 1.0, 2.0):
            sup._spawn(child)
            wait_exit(child)
            events = sup.poll_once(now=now)
            assert [e["event"] for e in events] == ["exited"]
            assert events[0]["returncode"] == 3
            assert child.state == "backoff"
            assert child.restart_at == pytest.approx(
                now + expected_backoff)
            restart_ats.append(child.restart_at)
            # Before the deadline nothing happens; at it, respawn.
            assert sup.poll_once(now=child.restart_at - 0.01) == []
            assert child.state == "backoff"
            events = sup.poll_once(now=child.restart_at)
            assert [e["event"] for e in events] == ["restarted"]
            wait_exit(child)
            child.proc.poll()
            # Advance the clock past this crash for the next round.
            now = restart_ats[-1] + 1.0
        assert child.restarts == 3

    def test_backoff_capped(self, tmp_path):
        sup, child = crashing_supervisor(tmp_path, backoff_base=4.0,
                                         backoff_max=6.0,
                                         max_restarts=100)
        child.restart_times = [100.0]  # one prior restart in window
        sup._spawn(child)
        wait_exit(child)
        events = sup.poll_once(now=101.0)
        # Second restart would be 4.0 * 2 = 8.0, capped at 6.0.
        assert events[0]["restart_at"] == pytest.approx(101.0 + 6.0)

    def test_circuit_breaker_gives_up(self, tmp_path):
        sup, child = crashing_supervisor(tmp_path, max_restarts=2,
                                         restart_window=60.0,
                                         backoff_base=0.25)
        now = 100.0
        for _ in range(2):
            sup._spawn(child)
            wait_exit(child)
            sup.poll_once(now=now)
            assert child.state == "backoff"
            now = child.restart_at
            sup.poll_once(now=now)  # respawn
        sup._spawn(child) if not child.alive() else None
        wait_exit(child)
        events = sup.poll_once(now=now + 0.1)
        assert child.state == "giveup"
        assert events[0]["state"] == "giveup"
        # A parked child is left alone forever after.
        assert sup.poll_once(now=now + 1000.0) == []

    def test_old_restarts_age_out_of_the_window(self, tmp_path):
        sup, child = crashing_supervisor(tmp_path, max_restarts=2,
                                         restart_window=10.0)
        child.restart_times = [100.0, 101.0]  # would trip at t=105
        sup._spawn(child)
        wait_exit(child)
        sup.poll_once(now=200.0)  # both aged out: backoff, not giveup
        assert child.state == "backoff"

    def test_exits_during_shutdown_are_not_restarted(self, tmp_path):
        sup, child = crashing_supervisor(tmp_path)
        sup._spawn(child)
        wait_exit(child)
        sup.request_stop()
        assert sup.poll_once(now=100.0) == []
        assert child.state == "stopped"


class TestStaleKill:
    def test_hung_worker_with_stale_heartbeat_is_killed(self, tmp_path):
        sup = FleetSupervisor(str(tmp_path), shards=0, stale_after=30.0)
        heartbeat = str(tmp_path / "status.jsonl")
        with open(heartbeat, "w") as fh:
            fh.write(json.dumps({"ts": 100.0, "state": "idle"}) + "\n")
        child = ChildProcess(
            "hung", [sys.executable, "-c",
                     "import time; time.sleep(600)"],
            os.path.join(sup.log_dir, "hung.log"),
            heartbeat_path=heartbeat)
        sup.children["hung"] = child
        sup._spawn(child)
        try:
            # Heartbeat 31s old: one over the threshold.
            events = sup.poll_once(now=131.0)
            assert [e["event"] for e in events] == ["stale-killed"]
            assert events[0]["age"] == pytest.approx(31.0)
            assert child.state == "backoff"
            assert not child.alive()
        finally:
            child.state = "giveup"  # never respawn
            if child.alive():
                child.proc.kill()
                child.proc.wait()

    def test_fresh_heartbeat_not_killed(self, tmp_path):
        sup = FleetSupervisor(str(tmp_path), shards=0, stale_after=30.0)
        heartbeat = str(tmp_path / "status.jsonl")
        with open(heartbeat, "w") as fh:
            fh.write(json.dumps({"ts": 125.0, "state": "idle"}) + "\n")
        child = ChildProcess(
            "busy", [sys.executable, "-c",
                     "import time; time.sleep(600)"],
            os.path.join(sup.log_dir, "busy.log"),
            heartbeat_path=heartbeat)
        sup.children["busy"] = child
        sup._spawn(child)
        try:
            assert sup.poll_once(now=131.0) == []
            assert child.alive()
        finally:
            child.proc.kill()
            child.proc.wait()


def submit_jobs(host, port, payloads):
    async def go():
        out = []
        for payload in payloads:
            status, data, _h = await http_request(
                host, port, "POST", "/submit", payload)
            assert status == 202, data
            out.append(data["job_id"])
        return out
    return asyncio.run(go())


def await_verdicts(host, port, job_ids, timeout=60.0):
    async def go():
        deadline = time.time() + timeout
        verdicts = {}
        for job_id in job_ids:
            while True:
                assert time.time() < deadline, \
                    f"timed out waiting on {job_id}"
                status, data, _h = await http_request(
                    host, port, "GET", f"/status/{job_id}")
                if status == 200 and data["state"] in ("done",
                                                       "failed"):
                    verdicts[job_id] = data
                    break
                await asyncio.sleep(0.05)
        return verdicts
    return asyncio.run(go())


def repro_env():
    """This environment with the repository's ``src`` on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src")
    env["PYTHONPATH"] = (f"{src}{os.pathsep}" +
                         env.get("PYTHONPATH", "")).rstrip(os.pathsep)
    return env


class TestEndToEndRestart:
    def test_killed_worker_restarts_without_losing_or_duplicating_jobs(
            self, tmp_path):
        """SIGKILL the only shard worker mid-run; the supervisor must
        restart it, the restarted worker's ``recover()`` must reclaim
        the orphaned claim, and every job must end with exactly one
        outcome file."""
        root = str(tmp_path / "fleet")
        sup = FleetSupervisor(root, shards=1, port=0, poll=0.05,
                              backoff_base=0.1, stale_after=None)
        sup.start()
        try:
            info = sup.front_address(timeout=30.0)
            assert info is not None
            host, port = str(info["host"]), int(info["port"])
            job_ids = submit_jobs(host, port, [
                {"workload": WORKLOAD, "period": 32, "seed": 7000 + i}
                for i in range(4)])
            worker = sup.children["shard-00"]
            first_pid = worker.pid
            os.kill(first_pid, signal.SIGKILL)
            # Supervise until the worker is running again.
            deadline = time.time() + 30.0
            while worker.pid in (None, first_pid):
                assert time.time() < deadline, "no restart"
                sup.poll_once()
                time.sleep(0.05)
            assert worker.restarts == 1
            verdicts = await_verdicts(host, port, job_ids)
            assert all(v["state"] == "done"
                       for v in verdicts.values())
            # Exactly one outcome file per job — the kill neither lost
            # a job nor let two workers answer the same claim.
            done_dir = os.path.join(root, "shard-00", "spool", "done")
            assert sorted(n[:-len(".json")]
                          for n in os.listdir(done_dir)) == \
                sorted(job_ids)
        finally:
            sup.shutdown(grace=30.0)
        assert all(c.state == "stopped"
                   for c in sup.children.values())


class TestEndToEndDrain:
    def test_sigterm_drains_and_jobs_stay_done(self, tmp_path):
        """A SIGTERMed worker finishes its queue (graceful drain) and
        a later ``recover()`` over the same spool resurrects nothing."""
        root = str(tmp_path / "fleet")
        spool = os.path.join(root, "shard-00", "spool")
        queue = SpoolQueue(spool)
        job_ids = [queue.submit(JobSpec(
            job_id="", kind="profile", workload=WORKLOAD, period=32,
            seed=8000 + i)).job_id for i in range(3)]

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "--root", root,
             "--shards", "1", "--shard", "0", "--poll", "0.05"],
            env=repro_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT)
        try:
            # Let it claim work, then ask for a graceful stop.
            deadline = time.time() + 30.0
            while queue.counts()["pending"] == 3:
                assert time.time() < deadline, "worker never started"
                time.sleep(0.02)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out.decode()
        counts = queue.counts()
        assert counts == {"pending": 0, "running": 0, "done": 3,
                          "failed": 0}
        # recover() over the drained spool must not resurrect jobs.
        service = ProfilingService(spool,
                                   os.path.join(root, "post.sqlite"))
        with service:
            assert service.queue.counts()["pending"] == 0
            assert service.queue.counts()["done"] == 3
            for job_id in job_ids:
                assert service.queue.outcome(job_id)["result"][
                    "total_samples"] > 0


def child_argv(pid):
    """A live process's argv, where the platform exposes it."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().decode().split("\0")
    except OSError:
        return None


class TestCliProcessFleet:
    def test_fleet_processes_round_trip(self, tmp_path):
        """``repro fleet --processes`` end to end: the supervisor boots
        a router-only front door and one shard worker, a job submitted
        over HTTP finishes, and SIGTERM drains every child cleanly."""
        lines = Queue()

        def pump():
            for line in proc.stdout:
                lines.put(line)
            lines.put(None)

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "--processes",
             "--root", str(tmp_path / "fleet"), "--shards", "1",
             "--port", "0", "--host", "127.0.0.1", "--poll", "0.05",
             "--retention", "3600", "--stale-after", "60",
             "--timeout", "60"],
            env=repro_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        threading.Thread(target=pump, daemon=True).start()
        out = []
        try:
            listening = None
            while listening is None:
                out.append(lines.get(timeout=60.0))
                assert out[-1] is not None, "".join(out[:-1])
                listening = re.search(
                    r"listening on http://([\d.]+):(\d+) "
                    r"\(front door pid (\d+)\)", out[-1])
            host, port, front_pid = listening.groups()
            port = int(port)
            (job_id,) = submit_jobs(host, port, [
                {"workload": WORKLOAD, "period": 32, "seed": 9100}])
            verdict = await_verdicts(host, port, [job_id])[job_id]
            assert verdict["state"] == "done", verdict
            _s, stats, _h = asyncio.run(
                http_request(host, port, "GET", "/fleet"))
            front_argv = child_argv(front_pid)
            shard_argv = child_argv(stats["shards"][0]["heartbeat"]["pid"])
            if front_argv is not None:
                assert "--front-only" in front_argv
                assert front_argv[front_argv.index("--host") + 1] == \
                    "127.0.0.1"
                tail = shard_argv[shard_argv.index("--shard"):]
                for flag, value in (("--timeout", "60.0"),
                                    ("--retention", "3600.0")):
                    assert tail[tail.index(flag) + 1] == value
        finally:
            # SIGTERM, also on failure, so the supervisor drains its
            # children rather than orphaning them.
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=120.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for line in iter(lambda: lines.get(timeout=30.0), None):
            out.append(line)
        assert proc.returncode == 0, "".join(out)
        final = [line for line in out
                 if line.startswith("fleet supervisor stopped")]
        children = json.loads(final[-1].split(": ", 1)[1])
        assert {c["name"]: c["state"] for c in children} == {
            "front-door": "stopped", "shard-00": "stopped"}
