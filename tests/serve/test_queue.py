"""Tests for the spool-directory job queue."""

import json
import os
import threading

import pytest

from repro.serve.queue import (
    FairnessPolicy,
    JobSpec,
    QuotaExceeded,
    SpoolQueue,
)


@pytest.fixture
def queue(tmp_path):
    return SpoolQueue(str(tmp_path / "spool"))


def spec(workload="montecarlo", **kw):
    return JobSpec(job_id="", kind="profile", workload=workload, **kw)


class TestJobSpec:
    def test_round_trip(self):
        original = spec(period=32, seed=7, meta={"trace_path": "/tmp/t"})
        original.job_id = "j-1"
        restored = JobSpec.from_dict(original.to_dict())
        assert restored == original

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobSpec(job_id="j", kind="teleport")

    def test_from_dict_ignores_unknown_keys(self):
        data = spec().to_dict()
        data["job_id"] = "j-1"
        data["future_field"] = "ignored"
        assert JobSpec.from_dict(data).job_id == "j-1"


class TestTransitions:
    def test_submit_fills_id_and_timestamp(self, queue):
        submitted = queue.submit(spec())
        assert submitted.job_id
        assert submitted.submitted_at > 0
        assert queue.counts() == {"pending": 1, "running": 0,
                                  "done": 0, "failed": 0}

    def test_claim_moves_to_running(self, queue):
        submitted = queue.submit(spec())
        claimed = queue.claim()
        assert claimed.job_id == submitted.job_id
        assert queue.counts()["running"] == 1
        assert queue.counts()["pending"] == 0

    def test_claim_oldest_first(self, queue):
        first = queue.submit(spec())
        second = queue.submit(spec())
        assert queue.claim().job_id == first.job_id
        assert queue.claim().job_id == second.job_id
        assert queue.claim() is None

    def test_complete_attaches_result(self, queue):
        submitted = queue.submit(spec())
        claimed = queue.claim()
        queue.complete(claimed, {"total_samples": 42})
        outcome = queue.outcome(submitted.job_id)
        assert outcome["result"]["total_samples"] == 42
        assert outcome["finished_at"] > 0
        assert queue.counts()["running"] == 0

    def test_fail_attaches_error(self, queue):
        submitted = queue.submit(spec())
        queue.fail(queue.claim(), "boom")
        outcome = queue.outcome(submitted.job_id)
        assert outcome["error"] == "boom"
        assert queue.counts()["failed"] == 1

    def test_requeue_counts_attempt(self, queue):
        queue.submit(spec())
        claimed = queue.claim()
        requeued = queue.requeue(claimed, reason="timeout")
        assert requeued.attempts == 1
        assert queue.counts()["pending"] == 1
        again = queue.claim()
        assert again.attempts == 1
        assert again.meta["last_requeue"] == "timeout"

    def test_outcome_none_while_in_flight(self, queue):
        submitted = queue.submit(spec())
        assert queue.outcome(submitted.job_id) is None
        queue.claim()
        assert queue.outcome(submitted.job_id) is None


class TestRecovery:
    def test_recover_returns_running_to_pending(self, queue):
        queue.submit(spec())
        queue.submit(spec())
        queue.claim()
        queue.claim()
        # Simulate a daemon crash: claims sit in running/ forever.
        recovered = queue.recover()
        assert len(recovered) == 2
        assert all(job.attempts == 1 for job in recovered)
        assert all(job.meta["last_requeue"] == "daemon-crash"
                   for job in recovered)
        assert queue.counts() == {"pending": 2, "running": 0,
                                  "done": 0, "failed": 0}

    def test_recover_empty_is_noop(self, queue):
        assert queue.recover() == []


class TestAtomicity:
    def test_no_tmp_files_left_behind(self, queue):
        queue.submit(spec())
        queue.complete(queue.claim(), {})
        for state in ("pending", "running", "done", "failed"):
            names = os.listdir(os.path.join(queue.root, state))
            assert all(name.endswith(".json") for name in names)

    def test_claim_skips_stolen_jobs(self, queue, tmp_path):
        """A lost rename race (file already claimed) tries the next."""
        first = queue.submit(spec())
        second = queue.submit(spec())
        # Another daemon wins the race for the first job.
        other = SpoolQueue(queue.root)
        stolen = other.claim()
        assert stolen.job_id == first.job_id
        claimed = queue.claim()
        assert claimed.job_id == second.job_id

    def test_non_json_files_ignored(self, queue):
        with open(os.path.join(queue.root, "pending", "README"), "w") as fh:
            fh.write("not a job")
        assert queue.claim() is None
        assert queue.pending_count() == 0

    def test_job_files_are_valid_json(self, queue):
        submitted = queue.submit(spec(period=32))
        path = os.path.join(queue.root, "pending",
                            f"{submitted.job_id}.json")
        with open(path) as fh:
            data = json.load(fh)
        assert data["period"] == 32
        assert data["kind"] == "profile"


class TestFairness:
    def test_pending_quota_backpressure(self, tmp_path):
        queue = SpoolQueue(str(tmp_path / "spool"),
                           policy=FairnessPolicy(max_pending_per_tenant=2,
                                                 retry_after=0.25))
        queue.submit(spec(tenant="a"))
        queue.submit(spec(tenant="a"))
        with pytest.raises(QuotaExceeded) as excinfo:
            queue.submit(spec(tenant="a"))
        assert excinfo.value.retry_after == 0.25
        assert "quota" in excinfo.value.reason
        # Another tenant still has room.
        queue.submit(spec(tenant="b"))

    def test_queue_depth_backpressure(self, tmp_path):
        queue = SpoolQueue(str(tmp_path / "spool"),
                           policy=FairnessPolicy(max_queue_depth=1))
        queue.submit(spec(tenant="a"))
        with pytest.raises(QuotaExceeded, match="depth"):
            queue.submit(spec(tenant="b"))

    def test_weighted_claim_order(self, tmp_path):
        queue = SpoolQueue(
            str(tmp_path / "spool"),
            policy=FairnessPolicy(tenant_weights={"a": 2, "b": 1}))
        for _ in range(6):
            queue.submit(spec(tenant="a"))
            queue.submit(spec(tenant="b"))
        claimed = [queue.claim().tenant for _ in range(6)]
        # Stride scheduling: weight-2 a is claimed twice as often.
        assert claimed.count("a") == 4
        assert claimed.count("b") == 2

    def test_priority_within_tenant(self, queue):
        low = queue.submit(spec(priority=0))
        high = queue.submit(spec(priority=5))
        assert queue.claim().job_id == high.job_id
        assert queue.claim().job_id == low.job_id

    def test_inflight_bound_throttles_tenant(self, tmp_path):
        queue = SpoolQueue(str(tmp_path / "spool"),
                           policy=FairnessPolicy(
                               max_inflight_per_tenant=1))
        first = queue.submit(spec(tenant="a"))
        queue.submit(spec(tenant="a"))
        claimed = queue.claim()
        assert claimed.job_id == first.job_id
        # Tenant a is at its bound: nothing claimable.
        assert queue.claim() is None
        queue.complete(claimed, {})
        assert queue.claim() is not None

    def test_inflight_bound_skips_to_other_tenant(self, tmp_path):
        queue = SpoolQueue(str(tmp_path / "spool"),
                           policy=FairnessPolicy(
                               max_inflight_per_tenant=1))
        queue.submit(spec(tenant="a"))
        queue.submit(spec(tenant="a"))
        other = queue.submit(spec(tenant="b"))
        queue.claim()  # a's first job; a is now at its bound
        assert queue.claim().job_id == other.job_id


class TestClaimRaces:
    def test_threaded_daemons_never_double_claim(self, tmp_path):
        """Two daemons hammering one spool: the atomic rename makes the
        loser of every race see FileNotFoundError and move on, so each
        job is claimed exactly once."""
        root = str(tmp_path / "spool")
        setup = SpoolQueue(root)
        submitted = {setup.submit(spec()).job_id for _ in range(24)}
        claims = {0: [], 1: []}
        barrier = threading.Barrier(2)

        def daemon(slot):
            queue = SpoolQueue(root)
            barrier.wait()
            while True:
                job = queue.claim()
                if job is None:
                    break
                claims[slot].append(job.job_id)

        threads = [threading.Thread(target=daemon, args=(slot,))
                   for slot in claims]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not set(claims[0]) & set(claims[1])
        assert set(claims[0]) | set(claims[1]) == submitted

    def test_recover_drops_stale_claim_of_finished_job(self, queue):
        """A running file whose job already has an outcome is a stale
        leftover; recover must remove it, not resurrect the job."""
        queue.submit(spec())
        claimed = queue.claim()
        queue.complete(claimed, {"total_samples": 7})
        # Simulate the stale claim a crashed daemon left behind.
        queue._write(queue._path("running", claimed.job_id),
                     claimed.to_dict())
        assert queue.recover() == []
        assert queue.counts() == {"pending": 0, "running": 0,
                                  "done": 1, "failed": 0}
        assert queue.outcome(claimed.job_id)["result"][
            "total_samples"] == 7


class TestSweep:
    def finish_one(self, queue, **kw):
        submitted = queue.submit(spec(**kw))
        queue.complete(queue.claim(), {"total_samples": 1})
        return submitted

    def test_aged_outcomes_removed_fresh_kept(self, queue):
        old = self.finish_one(queue, seed=1)
        fresh = self.finish_one(queue, seed=2)
        # Backdate the first outcome's recorded finish time.
        path = queue._path("done", old.job_id)
        data = queue._read(path)
        data["finished_at"] = data["finished_at"] - 1000.0
        queue._write(path, data)
        assert queue.sweep(retention=500.0) == 1
        assert queue.outcome(old.job_id) is None
        assert queue.outcome(fresh.job_id) is not None

    def test_failed_outcomes_swept_too(self, queue):
        submitted = queue.submit(spec(max_attempts=1))
        queue.fail(queue.claim(), "boom")
        path = queue._path("failed", submitted.job_id)
        data = queue._read(path)
        data["finished_at"] = data["finished_at"] - 1000.0
        queue._write(path, data)
        assert queue.sweep(retention=500.0) == 1
        assert queue.counts()["failed"] == 0

    def test_disabled_retention_keeps_everything(self, queue):
        self.finish_one(queue)
        assert queue.sweep(retention=None) == 0
        assert queue.sweep(retention=0) == 0
        assert queue.sweep(retention=-5.0) == 0
        assert queue.counts()["done"] == 1

    def test_mtime_fallback_when_no_finished_at(self, queue, tmp_path):
        submitted = self.finish_one(queue)
        path = queue._path("done", submitted.job_id)
        data = queue._read(path)
        del data["finished_at"]
        queue._write(path, data)
        os.utime(path, (1.0, 1.0))  # epoch-old mtime
        assert queue.sweep(retention=500.0) == 1

    def test_pending_and_running_never_swept(self, queue):
        queue.submit(spec(seed=1))
        queue.submit(spec(seed=2))
        queue.claim()
        assert queue.sweep(retention=0.0000001, now=10**12) == 0
        counts = queue.counts()
        assert counts["pending"] == 1 and counts["running"] == 1
