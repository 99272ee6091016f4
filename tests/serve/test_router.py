"""Tests for shard placement, the fleet dedupe index, and the fleet."""

import os
import time

import pytest

from repro.serve.queue import (
    FLEET_POLICY,
    FairnessPolicy,
    JobSpec,
    QuotaExceeded,
    SpoolQueue,
)
from repro.serve.router import (
    Fleet,
    FleetIndex,
    ShardRouter,
    shard_for,
)
from repro.serve.store import ProfileKey

WORKLOAD = "objectlayout"


def key(seed=None, program="p" * 64, config="c" * 64):
    return ProfileKey(workload="w", variant="baseline",
                      program_hash=program, config_hash=config, seed=seed)


def spec(workload=WORKLOAD, **kw):
    kw.setdefault("period", 32)
    return JobSpec(job_id="", kind="profile", workload=workload, **kw)


class TestShardFor:
    def test_deterministic(self):
        assert shard_for("w", "abc", 4) == shard_for("w", "abc", 4)

    def test_in_range_and_spread(self):
        placements = {shard_for(f"w{i}", "abc", 4) for i in range(64)}
        assert placements <= set(range(4))
        # 64 distinct workloads must not all collapse onto one shard.
        assert len(placements) > 1

    def test_sees_program_hash(self):
        hashes = [f"h{i}" for i in range(64)]
        assert len({shard_for("w", h, 4) for h in hashes}) > 1

    def test_single_shard_always_zero(self):
        assert shard_for("anything", "at-all", 1) == 0

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError, match="shards"):
            shard_for("w", "h", 0)


class TestShardRouter:
    def test_creates_layout(self, tmp_path):
        import os
        router = ShardRouter(str(tmp_path / "fleet"), shards=3)
        for shard in range(3):
            assert os.path.isdir(router.spool_dir(shard))
        assert router.index_path.endswith("fleet-index.sqlite")

    def test_route_matches_shard_for(self, tmp_path):
        router = ShardRouter(str(tmp_path / "fleet"), shards=3)
        assert router.route("w", "h") == shard_for("w", "h", 3)


class TestFleetIndex:
    @pytest.fixture
    def index(self, tmp_path):
        with FleetIndex(str(tmp_path / "idx.sqlite")) as idx:
            yield idx

    def test_register_lookup_round_trip(self, index):
        index.register(key(seed=7), shard=2, record_id=13,
                       store_path="/s/store.sqlite")
        hit = index.lookup("p" * 64, "c" * 64, 7)
        assert hit.shard == 2
        assert hit.record_id == 13
        assert hit.workload == "w"

    def test_lookup_miss(self, index):
        assert index.lookup("nope", "nope", None) is None

    def test_seedless_and_seeded_are_distinct(self, index):
        index.register(key(seed=None), shard=0, record_id=1,
                       store_path="/a")
        index.register(key(seed=0), shard=1, record_id=2,
                       store_path="/b")
        assert index.lookup("p" * 64, "c" * 64, None).record_id == 1
        assert index.lookup("p" * 64, "c" * 64, 0).record_id == 2
        assert index.count() == 2

    def test_reregister_last_writer_wins(self, index):
        index.register(key(), shard=0, record_id=1, store_path="/a")
        index.register(key(), shard=3, record_id=9, store_path="/b")
        hit = index.lookup("p" * 64, "c" * 64, None)
        assert (hit.shard, hit.record_id) == (3, 9)
        assert index.count() == 1

    def test_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "idx.sqlite")
        with FleetIndex(path) as index:
            index.register(key(), shard=1, record_id=5, store_path="/a")
        with FleetIndex(path) as index:
            assert index.lookup("p" * 64, "c" * 64, None).shard == 1

    def test_version_mismatch_rejected(self, tmp_path):
        import sqlite3
        path = str(tmp_path / "idx.sqlite")
        FleetIndex(path).close()
        db = sqlite3.connect(path)
        db.execute("PRAGMA user_version = 99")
        db.commit()
        db.close()
        with pytest.raises(ValueError, match="version"):
            FleetIndex(path)


class TestFleet:
    """Fleet-level behaviour without daemon threads: jobs are executed
    by calling the owning shard's service directly, keeping the tests
    deterministic."""

    def drain_all(self, fleet):
        for service in fleet.services:
            service.drain()

    def test_submit_routes_deterministically(self, tmp_path):
        with Fleet(str(tmp_path / "fleet"), shards=3) as fleet:
            _, shard_a = fleet.submit(spec())
            _, shard_b = fleet.submit(spec())
            assert shard_a == shard_b
            assert fleet.services[shard_a].queue.pending_count() == 2

    def test_unknown_workload_rejected_before_enqueue(self, tmp_path):
        with Fleet(str(tmp_path / "fleet"), shards=2) as fleet:
            with pytest.raises(KeyError):
                fleet.submit(spec(workload="no-such"))
            assert all(s.queue.pending_count() == 0
                       for s in fleet.services)

    def test_queue_policy_applies_per_shard(self, tmp_path):
        policy = FairnessPolicy(max_pending_per_tenant=1)
        with Fleet(str(tmp_path / "fleet"), shards=2,
                   queue_policy=policy) as fleet:
            fleet.submit(spec(tenant="t"))
            with pytest.raises(QuotaExceeded):
                fleet.submit(spec(tenant="t"))

    def test_status_and_history_span_shards(self, tmp_path):
        with Fleet(str(tmp_path / "fleet"), shards=2) as fleet:
            submitted, shard = fleet.submit(spec(seed=3))
            assert fleet.status(submitted.job_id)["state"] == "pending"
            self.drain_all(fleet)
            status = fleet.status(submitted.job_id)
            assert status["state"] == "done"
            assert status["shard"] == shard
            records = fleet.history()
            assert len(records) == 1
            assert records[0]["shard"] == shard
        assert fleet.status("no-such-job") is None

    def test_stats_shape(self, tmp_path):
        with Fleet(str(tmp_path / "fleet"), shards=2) as fleet:
            fleet.submit(spec(seed=5))
            self.drain_all(fleet)
            stats = fleet.stats()
            assert stats["shard_count"] == 2
            assert len(stats["shards"]) == 2
            assert sum(s["completed"] for s in stats["shards"]) == 1
            assert stats["dedupe"]["indexed"] == 1

    def test_stats_report_shard_liveness(self, tmp_path):
        with Fleet(str(tmp_path / "fleet"), shards=2) as fleet:
            assert [s["alive"] for s in fleet.stats()["shards"]] == \
                [False, False]
            fleet.start()
            assert [s["alive"] for s in fleet.stats()["shards"]] == \
                [True, True]
            fleet.stop()
            assert [s["alive"] for s in fleet.stats()["shards"]] == \
                [False, False]

    def test_reshard_serves_duplicate_cross_shard(self, tmp_path):
        """The tentpole property: after growing the shard count, the
        remapped duplicate is a fleet-index hit served from the old
        shard's store with zero simulator work on the new home."""
        root = str(tmp_path / "fleet")
        with Fleet(root, shards=2) as fleet:
            program_hash, origin = fleet._route_key(WORKLOAD, "baseline")
            fleet.submit(spec(seed=42))
            self.drain_all(fleet)

        new_shards = 3
        while shard_for(WORKLOAD, program_hash, new_shards) == origin:
            new_shards += 1
        with Fleet(root, shards=new_shards) as fleet:
            repeat, new_home = fleet.submit(spec(seed=42))
            assert new_home != origin
            fleet.services[new_home].drain()
            service = fleet.services[new_home]
            assert service.fleet_hits == 1
            assert service.pool.stats["tasks"] == 0
            outcome = service.queue.outcome(repeat.job_id)
            assert outcome["result"]["fleet"] is True
            assert outcome["result"]["origin_shard"] == origin


class TestFleetExternalWorkers:
    """A fleet that is never started: a second handle on a shard's
    spool stands in for the worker that claims and completes its jobs,
    and the fleet's status lookup must follow the job file."""

    def test_submit_enqueues_without_executing(self, tmp_path):
        with Fleet(str(tmp_path / "fleet"), shards=2) as fleet:
            submitted, shard = fleet.submit(spec())
            status = fleet.status(submitted.job_id)
            assert status["state"] == "pending"
            assert status["shard"] == shard
            assert fleet.services[shard].queue.counts()["pending"] == 1

    @staticmethod
    def _race_on_read(monkeypatch, state, transition):
        """Run ``transition`` just before the first read of a job file
        in ``state`` — a worker acting between the lookup's steps."""
        real_read = SpoolQueue._read
        fired = []

        def racing_read(path):
            if not fired and os.path.basename(os.path.dirname(path)) \
                    == state:
                fired.append(path)
                transition()
            return real_read(path)

        monkeypatch.setattr(SpoolQueue, "_read", staticmethod(racing_read))
        return fired

    def test_status_survives_claim_mid_lookup(self, tmp_path, monkeypatch):
        """A claim renaming pending → running between the lookup's steps
        is reported as running, not as a 500 or a miss."""
        with Fleet(str(tmp_path / "fleet"), shards=2) as fleet:
            submitted, shard = fleet.submit(spec())
            queue = fleet.services[shard].queue
            fired = self._race_on_read(monkeypatch, "pending", queue.claim)
            status = fleet.status(submitted.job_id)
            assert fired
            assert status["state"] == "running"
            assert status["shard"] == shard
            assert status["job"]["job_id"] == submitted.job_id

    def test_status_survives_completion_mid_lookup(self, tmp_path,
                                                   monkeypatch):
        """A completion moving running → done between the lookup's
        steps is reported as done."""
        with Fleet(str(tmp_path / "fleet"), shards=2) as fleet:
            submitted, shard = fleet.submit(spec())
            queue = fleet.services[shard].queue
            claimed = queue.claim()
            fired = self._race_on_read(
                monkeypatch, "running",
                lambda: queue.complete(claimed, {"ok": True}))
            status = fleet.status(submitted.job_id)
            assert fired
            assert status["state"] == "done"
            assert status["job"]["result"] == {"ok": True}

    def test_status_survives_claim_and_completion_mid_lookup(
            self, tmp_path, monkeypatch):
        """Claim and completion both landing inside one lookup still
        find the outcome."""
        with Fleet(str(tmp_path / "fleet"), shards=2) as fleet:
            submitted, shard = fleet.submit(spec())
            queue = fleet.services[shard].queue

            def claim_and_fail():
                queue.fail(queue.claim(), "boom")

            self._race_on_read(monkeypatch, "pending", claim_and_fail)
            status = fleet.status(submitted.job_id)
            assert status["state"] == "failed"
            assert status["job"]["error"] == "boom"

    def test_external_worker_process_roundtrip(self, tmp_path):
        """Claim + complete through a second bare queue (standing in
        for a worker) becomes visible to the router."""
        with Fleet(str(tmp_path / "fleet"), shards=2) as fleet:
            submitted, shard = fleet.submit(spec())
            worker_queue = type(fleet.services[shard].queue)(
                fleet.router.spool_dir(shard))
            claimed = worker_queue.claim()
            worker_queue.complete(claimed, {"total_samples": 5})
            status = fleet.status(submitted.job_id)
            assert status["state"] == "done"
            assert status["job"]["result"]["total_samples"] == 5


class TestStartedFleet:
    def test_malformed_pending_files_do_not_stop_a_shard(self, tmp_path):
        """A pending file whose priority is not a number, and one whose
        JSON is not an object, fail without taking the shard down."""
        with Fleet(str(tmp_path / "fleet"), shards=1) as fleet:
            spool = fleet.router.spool_dir(0)
            for name, body in (("bad-priority", '{"kind": "profile", '
                                '"workload": "objectlayout", '
                                '"priority": "high"}'),
                               ("bad-shape", "[1, 2]")):
                with open(os.path.join(spool, "pending",
                                       f"{name}.json"), "w") as fh:
                    fh.write(body)
            submitted, _shard = fleet.submit(spec(seed=11))
            fleet.start()
            deadline = time.time() + 60.0
            while fleet.status(submitted.job_id)["state"] != "done":
                assert time.time() < deadline, "valid job never ran"
                time.sleep(0.02)
            assert sorted(os.listdir(os.path.join(spool, "failed"))) == \
                ["bad-priority.json", "bad-shape.json"]
            assert fleet.status("bad-shape")["job"]["error"].startswith(
                "invalid job file")
            assert fleet.stats()["shards"][0]["alive"]

    def test_warm_totals_match_the_process_cache(self, tmp_path):
        """Two shards simulating at once: the warm totals ``/fleet``
        reports equal the process-wide codegen cache's own counts, so
        no job is charged for another shard's compiles."""
        from repro.jvm.dispatch import reset_warm_cache, warm_cache_stats

        reset_warm_cache()
        with Fleet(str(tmp_path / "fleet"), shards=2) as fleet:
            submitted = [fleet.submit(spec(workload=workload, seed=seed))
                         for seed in range(4)
                         for workload in ("objectlayout", "kernel-array")]
            assert {shard for _spec, shard in submitted} == {0, 1}
            fleet.start()
            deadline = time.time() + 60.0
            for job, _shard in submitted:
                while fleet.status(job.job_id)["state"] != "done":
                    assert time.time() < deadline, "job never ran"
                    time.sleep(0.02)
            warm = fleet.stats()["warm"]
        cache = warm_cache_stats()
        assert cache["misses"] > 0 and cache["hits"] > 0
        assert warm == {"hits": cache["hits"], "misses": cache["misses"]}


class TestIdleFleet:
    def test_idle_fleet_claims_on_submit_and_stops_at_once(self,
                                                           tmp_path):
        """A fleet built and started as ``repro fleet`` does it, idle
        for 4 s: a kernel-arith job is ``done`` within its simulation
        time plus 0.5 s, and ``stop()`` returns within 1 s."""
        from repro.jvm.dispatch import reset_warm_cache
        from repro.serve.service import execute_job

        # Shards simulate in this process: warm the codegen cache, then
        # time one warm simulation.
        reset_warm_cache()
        payload = spec(workload="kernel-arith", seed=1).to_dict()
        execute_job(payload)
        started = time.perf_counter()
        execute_job(dict(payload, seed=2))
        sim_s = time.perf_counter() - started

        with Fleet(str(tmp_path / "fleet"), shards=2, jobs=1,
                   queue_policy=FLEET_POLICY,
                   retention=86400.0) as fleet:
            fleet._route_key("kernel-arith", "baseline")
            fleet.start()
            time.sleep(4.0)
            began = time.perf_counter()
            submitted, _shard = fleet.submit(
                spec(workload="kernel-arith", seed=3))
            while fleet.status(submitted.job_id)["state"] != "done":
                assert time.perf_counter() - began < 60.0
                time.sleep(0.005)
            latency = time.perf_counter() - began
            assert latency < sim_s + 0.5, (latency, sim_s)
            began = time.perf_counter()
            fleet.stop()
            assert time.perf_counter() - began < 1.0
