"""End-to-end tests of ``repro fleet``: exactly-once across a crash,
graceful drain on SIGTERM, and the exit code of a fleet that lost a
shard.

The crash and drain tests run the fleet as a subprocess with a worker
pool per shard (``--jobs 2``), the configuration that uses more than
one core; they keep the job counts tiny.
"""

import asyncio
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.serve.http import HttpFrontDoor, http_request
from repro.serve.queue import JobSpec, SpoolQueue
from repro.serve.service import ProfilingService

WORKLOAD = "objectlayout"


def repro_env():
    """This environment with the repository's ``src`` on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src")
    env["PYTHONPATH"] = (f"{src}{os.pathsep}" +
                         env.get("PYTHONPATH", "")).rstrip(os.pathsep)
    return env


def start_fleet(root):
    """``repro fleet --shards 1 --jobs 2`` in its own process group;
    returns (process, host, port) once it is listening.

    The retention is far longer than a test, so the startup sweep of a
    restarted fleet must keep every outcome file.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "--root", root,
         "--shards", "1", "--jobs", "2", "--host", "127.0.0.1",
         "--port", "0", "--poll", "0.05", "--retention", "3600"],
        env=repro_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, start_new_session=True)
    banner = proc.stdout.readline()
    listening = re.search(r"listening on http://127\.0\.0\.1:(\d+)",
                          banner)
    if listening is None:
        proc.kill()
        raise AssertionError(banner + proc.communicate()[0])
    return proc, "127.0.0.1", int(listening.group(1))


def kill_group(proc):
    """SIGKILL the fleet and its worker processes."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


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


def await_verdicts(host, port, job_ids, timeout=120.0):
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


def wait_for(predicate, what, timeout=60.0):
    deadline = time.time() + timeout
    while not predicate():
        assert time.time() < deadline, what
        time.sleep(0.02)


class TestEndToEndRestart:
    def test_killed_fleet_restarts_without_losing_or_duplicating_jobs(
            self, tmp_path):
        """SIGKILL the fleet mid-job and start it again over the same
        root: the new shard daemon's ``recover()`` reclaims the orphaned
        claims, and every job ends with exactly one outcome file."""
        root = str(tmp_path / "fleet")
        spool = os.path.join(root, "shard-00", "spool")
        proc, host, port = start_fleet(root)
        try:
            job_ids = submit_jobs(host, port, [
                {"workload": WORKLOAD, "period": 32, "seed": 7000 + i}
                for i in range(4)])
            wait_for(lambda: os.listdir(os.path.join(spool, "running")),
                     "no job was ever claimed")
        finally:
            kill_group(proc)
        assert proc.returncode == -signal.SIGKILL

        proc, host, port = start_fleet(root)
        try:
            verdicts = await_verdicts(host, port, job_ids)
            assert all(v["state"] == "done" for v in verdicts.values())
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120.0)
        assert proc.returncode == 0, out
        # Exactly one outcome file per job: the kill neither lost a job
        # nor let the restarted daemon answer a claim twice.
        for state, expected in (("done", sorted(job_ids)),
                                ("failed", []), ("running", []),
                                ("pending", [])):
            assert sorted(n[:-len(".json")] for n in os.listdir(
                os.path.join(spool, state))) == expected, state


class TestEndToEndDrain:
    def test_sigterm_drains_and_jobs_stay_done(self, tmp_path):
        """A SIGTERMed fleet finishes its claimed jobs and its queue,
        exits 0, and a later ``recover()`` over the same spool
        resurrects nothing."""
        root = str(tmp_path / "fleet")
        spool = os.path.join(root, "shard-00", "spool")
        queue = SpoolQueue(spool)
        job_ids = [queue.submit(JobSpec(
            job_id="", kind="profile", workload=WORKLOAD, period=32,
            seed=8000 + i)).job_id for i in range(3)]

        proc, _host, _port = start_fleet(root)
        try:
            # Let it claim work, then ask for a graceful stop.
            wait_for(lambda: queue.counts()["pending"] < 3,
                     "fleet never claimed a job")
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120.0)
        finally:
            if proc.poll() is None:
                kill_group(proc)
        assert proc.returncode == 0, out
        assert queue.counts() == {"pending": 0, "running": 0, "done": 3,
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


class TestDeadShard:
    # The shard thread dying is the point of the test.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_fleet_exits_1_when_a_shard_thread_died(self, tmp_path,
                                                    monkeypatch, capsys):
        """Shard 1's serve loop raises on its first poll; SIGTERM then
        ends the fleet with exit code 1 and names the dead shard."""
        real_run_once = ProfilingService.run_once

        def run_once(self, *args, **kwargs):
            if self.shard_id == 1:
                raise RuntimeError("shard 1 is broken")
            return real_run_once(self, *args, **kwargs)

        real_start = HttpFrontDoor.start

        async def start_then_sigterm(door):
            await real_start(door)
            asyncio.get_running_loop().call_later(
                0.5, os.kill, os.getpid(), signal.SIGTERM)

        monkeypatch.setattr(ProfilingService, "run_once", run_once)
        monkeypatch.setattr(HttpFrontDoor, "start", start_then_sigterm)
        code = main(["fleet", "--root", str(tmp_path / "fleet"),
                     "--shards", "2", "--port", "0", "--poll", "0.01"])
        assert code == 1
        assert "shard(s) [1] stopped serving" in capsys.readouterr().err
