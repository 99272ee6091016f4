"""End-to-end tests for the continuous-profiling daemon."""

import json
import os
import time

import pytest

from repro.serve import service as service_mod
from repro.serve.queue import FairnessPolicy, JobSpec, SpoolQueue
from repro.serve.service import ProfilingService, execute_job

WORKLOAD = "objectlayout"


@pytest.fixture
def spool(tmp_path):
    return str(tmp_path / "spool")


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "store.sqlite")


def submit(spool, workload=WORKLOAD, **kw):
    queue = SpoolQueue(spool)
    kw.setdefault("period", 32)
    return queue.submit(JobSpec(job_id="", kind="profile",
                                workload=workload, **kw))


class TestExecuteJob:
    """The worker entry point, run in-process for determinism."""

    def test_profile_job(self):
        spec = JobSpec(job_id="j", kind="profile", workload=WORKLOAD,
                       period=32)
        result = execute_job(spec.to_dict())
        assert result["kind"] == "profile"
        assert result["total_samples"] > 0
        assert result["wall_cycles"] > 0
        assert result["analysis"]["schema"] == "repro-analysis/1"

    def test_unknown_workload_raises(self):
        spec = JobSpec(job_id="j", kind="profile", workload="no-such")
        with pytest.raises(KeyError):
            execute_job(spec.to_dict())


class TestDaemon:
    def test_submit_drain_history_round_trip(self, spool, store_path):
        first = submit(spool)
        second = submit(spool, workload="montecarlo")
        with ProfilingService(spool, store_path, jobs=1) as service:
            done = service.drain()
            assert done == 2
            records = service.store.history()
            workloads = {r.key.workload for r in records}
            assert workloads == {WORKLOAD, "montecarlo"}
            # Job outcomes are visible to the submitters.
            for submitted in (first, second):
                outcome = service.queue.outcome(submitted.job_id)
                assert outcome["result"]["cached"] is False
                assert outcome["result"]["total_samples"] > 0

    def test_exact_key_repeat_served_from_store(self, spool, store_path):
        submit(spool)
        with ProfilingService(spool, store_path, jobs=1) as service:
            service.drain()
            assert service.cached_hits == 0
            repeat = submit(spool)
            service.drain()
            assert service.cached_hits == 1
            outcome = service.queue.outcome(repeat.job_id)
            assert outcome["result"]["cached"] is True
            # Cache hit: index row count unchanged, no new payload.
            assert service.store.stats()["profiles"] == 1

    def test_force_resimulates(self, spool, store_path):
        submit(spool)
        with ProfilingService(spool, store_path, jobs=1) as service:
            service.drain()
            submit(spool, force=True)
            service.drain()
            assert service.cached_hits == 0
            stats = service.store.stats()
            assert stats["profiles"] == 2
            # Deterministic rerun produced an identical payload.
            assert stats["payloads"] == 1

    def test_different_config_not_cached(self, spool, store_path):
        submit(spool, period=32)
        submit(spool, period=64)
        with ProfilingService(spool, store_path, jobs=1) as service:
            service.drain()
            assert service.cached_hits == 0
            assert service.store.stats()["profiles"] == 2

    def test_bad_job_fails_after_max_attempts(self, spool, store_path):
        bad = submit(spool, workload="no-such-workload", max_attempts=2)
        with ProfilingService(spool, store_path, jobs=1) as service:
            service.drain()
            assert service.failed == 1
            outcome = service.queue.outcome(bad.job_id)
            assert "no-such-workload" in outcome["error"]
            counts = service.queue.counts()
            assert counts["failed"] == 1
            assert counts["pending"] == 0

    def test_heartbeat_written(self, spool, store_path):
        submit(spool)
        with ProfilingService(spool, store_path, jobs=1) as service:
            service.drain()
            path = service.heartbeat_path
        assert os.path.exists(path)
        lines = [json.loads(line)
                 for line in open(path) if line.strip()]
        states = [line["state"] for line in lines]
        assert "working" in states
        assert states[-1] == "idle"
        assert lines[-1]["completed"] == 1
        assert lines[-1]["queue"]["done"] == 1

    def test_recovers_crashed_daemon_claims(self, spool, store_path):
        submitted = submit(spool)
        queue = SpoolQueue(spool)
        queue.claim()  # crashed daemon took it and died
        with ProfilingService(spool, store_path, jobs=1) as service:
            assert service.queue.counts()["pending"] == 1
            service.drain()
            outcome = service.queue.outcome(submitted.job_id)
            assert outcome["result"]["total_samples"] > 0

    def test_invalid_job_file_fails_without_stopping_the_daemon(
            self, spool, store_path):
        """A pending file of an unknown kind goes to failed/ with the
        error; the valid job next to it still runs, and a daemon
        started later over the same spool starts cleanly."""
        good = submit(spool)
        bad = dict(good.to_dict(), job_id="bad-1", kind="teleport",
                   submitted_at=0.0)  # oldest, so it is claimed first
        with open(os.path.join(spool, "pending", "bad-1.json"), "w") as fh:
            json.dump(bad, fh)
        settled = {"pending": 0, "running": 0, "done": 1, "failed": 1}
        with ProfilingService(spool, store_path, jobs=1) as service:
            assert service.drain() == 1
            assert service.queue.counts() == settled
            error = service.queue.outcome("bad-1")["error"]
            assert "unknown job kind 'teleport'" in error
            outcome = service.queue.outcome(good.job_id)
            assert outcome["result"]["total_samples"] > 0
        with ProfilingService(spool, store_path, jobs=1) as service:
            assert service.queue.counts() == settled

    def test_recover_fails_an_invalid_claim(self, spool, store_path):
        """An invalid file already stranded in running/ does not stop
        the daemon's startup recovery: it is moved to failed/."""
        good = submit(spool)
        queue = SpoolQueue(spool)
        queue.claim()
        data = queue._read(queue._path("running", good.job_id))
        data.pop("kind")
        queue._write(queue._path("running", good.job_id), data)
        with ProfilingService(spool, store_path, jobs=1) as service:
            assert service.queue.counts() == {
                "pending": 0, "running": 0, "done": 0, "failed": 1}
            assert "kind" in service.queue.outcome(good.job_id)["error"]

    def test_serve_forever_bounded_polls(self, spool, store_path):
        submit(spool)
        with ProfilingService(spool, store_path, jobs=1) as service:
            service.serve_forever(0.01, max_polls=3)
            assert service.completed == 1
        lines = [json.loads(line)
                 for line in open(service.heartbeat_path) if line.strip()]
        assert lines[0]["state"] == "started"
        assert lines[-1]["state"] == "stopped"

    def test_request_stop_drains_queue(self, spool, store_path):
        submit(spool)
        with ProfilingService(spool, store_path, jobs=1) as service:
            service.request_stop()
            service.serve_forever(0.01)
            # Stop was requested before the loop: still drains the job.
            assert service.completed == 1


def stub_verdict(payload):
    """A worker that skips the simulator: an instant optimize verdict."""
    return {"kind": "optimize",
            "verdict": {"status": "rejected",
                        "workload": payload["workload"]}}


def submit_optimize(spool, count, policy=None):
    queue = SpoolQueue(spool, policy=policy)
    return [queue.submit(JobSpec(job_id="", kind="optimize",
                                 workload=WORKLOAD, seed=i))
            for i in range(count)]


class TestPerJobCompletion:
    def test_first_job_done_before_the_last_simulation_ends(
            self, spool, store_path, monkeypatch):
        """Four queued jobs on a one-worker daemon: the first is
        persisted and ``done`` before the last one's simulation ends,
        not when the whole claimed batch has run."""
        ends = []

        def timed(payload):
            time.sleep(0.05)
            ends.append(time.time())
            return stub_verdict(payload)

        monkeypatch.setattr(service_mod, "execute_job", timed)
        jobs = submit_optimize(spool, 4)
        with ProfilingService(spool, store_path, jobs=1) as service:
            assert service.drain() == 4
            finished = [service.queue.outcome(job.job_id)["finished_at"]
                        for job in jobs]
        assert len(ends) == 4
        assert min(finished) < max(ends)

    def test_drain_is_not_capped_at_a_poll_count(self, spool, store_path,
                                                 monkeypatch):
        """More jobs than a hundred one-job polls can hold: drain runs
        until a poll claims nothing, not for a fixed number of polls."""
        monkeypatch.setattr(service_mod, "execute_job", stub_verdict)
        policy = FairnessPolicy(max_inflight_per_tenant=1)
        submit_optimize(spool, 110, policy=policy)
        with ProfilingService(spool, store_path, jobs=1,
                              queue_policy=policy) as service:
            assert service.drain() == 110
            assert service.queue.counts()["pending"] == 0


class TestFleetDedupe:
    def test_identical_submission_served_from_other_shard(self, tmp_path):
        """Service-level cross-shard dedupe: shard B answers from shard
        A's store through the fleet index, zero simulator work."""
        from repro.serve.router import FleetIndex

        index = FleetIndex(str(tmp_path / "fleet-index.sqlite"))
        a = ProfilingService(str(tmp_path / "a-spool"),
                             str(tmp_path / "a-store.sqlite"), jobs=1,
                             fleet_index=index, shard_id=0)
        b = ProfilingService(str(tmp_path / "b-spool"),
                             str(tmp_path / "b-store.sqlite"), jobs=1,
                             fleet_index=index, shard_id=1)
        try:
            submit(str(tmp_path / "a-spool"), seed=11)
            a.drain()
            assert index.count() == 1

            repeat = submit(str(tmp_path / "b-spool"), seed=11)
            b.drain()
            assert b.fleet_hits == 1
            assert b.pool.stats["tasks"] == 0  # nothing simulated
            outcome = b.queue.outcome(repeat.job_id)
            assert outcome["result"]["fleet"] is True
            assert outcome["result"]["origin_shard"] == 0
            assert b.store.stats()["profiles"] == 0

            # A different seed is a miss: shard B simulates it.
            submit(str(tmp_path / "b-spool"), seed=12)
            b.drain()
            assert b.fleet_misses == 1
            assert b.pool.stats["tasks"] == 1
        finally:
            a.close()
            b.close()
            index.close()


class TestWarmCompileCache:
    def test_repeat_traffic_hits_the_warm_cache(self, spool,
                                                store_path):
        """Two jobs, same workload, different seeds: the first
        compiles (misses), the second reuses the per-process fused
        artifacts (hits, zero misses)."""
        from repro.jvm.dispatch import reset_warm_cache

        reset_warm_cache()
        first = submit(spool, seed=11)
        second = submit(spool, seed=22)
        with ProfilingService(spool, store_path, jobs=1) as service:
            service.drain()
            assert service.warm_misses > 0
            assert service.warm_hits > 0
            cold = service.queue.outcome(first.job_id)["result"]["warm"]
            warm = service.queue.outcome(second.job_id)["result"]["warm"]
            assert cold["misses"] > 0
            assert warm["misses"] == 0
            assert warm["hits"] == cold["misses"]
            # The totals reach the heartbeat for fleet observability.
            service._heartbeat("probe")
            with open(service.heartbeat_path) as fh:
                last = json.loads(fh.readlines()[-1])
            assert last["warm"] == {"hits": service.warm_hits,
                                    "misses": service.warm_misses}

    def test_cached_repeat_adds_no_warm_traffic(self, spool,
                                                store_path):
        from repro.jvm.dispatch import reset_warm_cache

        reset_warm_cache()
        submit(spool, seed=33)
        with ProfilingService(spool, store_path, jobs=1) as service:
            service.drain()
            hits_before = service.warm_hits
            submit(spool, seed=33)  # exact key: served from store
            service.drain()
            assert service.warm_hits == hits_before


class TestHeartbeatRotation:
    def test_size_capped_roll_to_dot_one(self, spool, store_path):
        with ProfilingService(spool, store_path, jobs=1,
                              heartbeat_max_bytes=600) as service:
            for _ in range(12):
                service._heartbeat("tick")
            rolled = service.heartbeat_path + ".1"
            assert os.path.exists(rolled)
            # The roll happens before an append, so the live file is
            # bounded by the cap plus one heartbeat line.
            assert os.path.getsize(service.heartbeat_path) < 2 * 600
            # Every surviving line is still valid JSONL.
            for path in (service.heartbeat_path, rolled):
                with open(path) as fh:
                    for line in fh:
                        assert json.loads(line)["state"]

    def test_roll_keeps_one_generation(self, spool, store_path):
        with ProfilingService(spool, store_path, jobs=1,
                              heartbeat_max_bytes=400) as service:
            for _ in range(40):
                service._heartbeat("tick")
            siblings = [n for n in os.listdir(spool)
                        if n.startswith("status.jsonl")]
            assert sorted(siblings) == ["status.jsonl",
                                        "status.jsonl.1"]


class TestRetentionSweep:
    def test_startup_sweep_removes_aged_outcomes(self, spool,
                                                 store_path):
        done = submit(spool)
        with ProfilingService(spool, store_path, jobs=1) as service:
            service.drain()
            path = service.queue._path("done", done.job_id)
            data = service.queue._read(path)
            data["finished_at"] = data["finished_at"] - 7200.0
            service.queue._write(path, data)
        with ProfilingService(spool, store_path, jobs=1,
                              retention=3600.0) as service:
            assert service.swept == 1
            assert service.queue.outcome(done.job_id) is None

    def test_idle_poll_sweeps_and_heartbeats(self, spool, store_path):
        done = submit(spool)
        with ProfilingService(spool, store_path, jobs=1,
                              retention=3600.0) as service:
            service.drain()
            path = service.queue._path("done", done.job_id)
            data = service.queue._read(path)
            data["finished_at"] = data["finished_at"] - 7200.0
            service.queue._write(path, data)
            service.serve_forever(0.01, max_polls=3)
            assert service.swept == 1
            with open(service.heartbeat_path) as fh:
                states = [json.loads(line)["state"] for line in fh]
            # Idle polls heartbeat (operator liveness), alongside
            # the lifecycle markers (the initial drain() already
            # heartbeat "working" before serve_forever "started").
            assert "started" in states
            assert states[-1] == "stopped"
            assert "idle" in states
