"""Tests for the serving-layer load generator and its CI gates."""

import pytest

from repro.bench import BenchReport, check_regression
from repro.serve.loadgen import (
    _DUP_SEED,
    FleetScalingPoint,
    FleetScalingResult,
    ServeLoadResult,
    _client_jobs,
    percentile,
    run_fleet_scaling,
    run_serve_load,
)


class TestPercentile:
    def test_nearest_rank(self):
        samples = [10.0, 20.0, 30.0, 40.0]
        assert percentile(samples, 0.50) == 20.0
        assert percentile(samples, 0.99) == 40.0
        assert percentile(samples, 0.25) == 10.0

    def test_single_sample(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)


def result(**kw):
    defaults = dict(clients=2, shards=2, requests_per_client=2,
                    workloads=("a", "b"), jobs_total=4, jobs_ok=4,
                    jobs_failed=0, dedupe_hits=2, fleet_hits=1,
                    throttled=0, p50_ms=100.0, p99_ms=250.0,
                    mean_ms=120.0, max_ms=250.0, jobs_per_sec=3.0,
                    elapsed_seconds=1.5)
    defaults.update(kw)
    return ServeLoadResult(**defaults)


class TestServeLoadResult:
    def test_derived_rates(self):
        r = result()
        assert r.dedupe_hit_rate == 0.5
        assert r.tail_ratio == 2.5

    def test_zero_guards(self):
        r = result(jobs_ok=0, p50_ms=0.0)
        assert r.dedupe_hit_rate == 0.0
        assert r.tail_ratio == 0.0

    def test_to_dict_round_values(self):
        d = result(cross_shard={"hit": True}).to_dict()
        assert d["tail_ratio"] == 2.5
        assert d["dedupe_hit_rate"] == 0.5
        assert d["cross_shard"] == {"hit": True}


class TestClientJobs:
    def test_duplicates_share_the_dup_seed(self):
        jobs = _client_jobs(client=0, requests=4, workloads=("w",),
                            duplicate_fraction=0.5, tenant="t",
                            period=32)
        seeds = [j["seed"] for j in jobs]
        assert seeds.count(_DUP_SEED) == 2
        uniques = [s for s in seeds if s != _DUP_SEED]
        assert len(set(uniques)) == len(uniques)

    def test_unique_seeds_differ_across_clients(self):
        a = {j["seed"] for j in _client_jobs(0, 4, ("w",), 0.0, "t", 32)}
        b = {j["seed"] for j in _client_jobs(1, 4, ("w",), 0.0, "t", 32)}
        assert not a & b

    def test_workloads_rotate(self):
        jobs = _client_jobs(0, 4, ("x", "y"), 0.0, "t", 32)
        assert [j["workload"] for j in jobs] == ["x", "y", "x", "y"]


class TestServeGate:
    """check_regression over the serve_load section of a report."""

    def serve(self, **kw):
        base = {"tail_ratio": 2.0, "dedupe_hit_rate": 0.4,
                "cross_shard": {"hit": True}}
        base.update(kw)
        return base

    def baseline(self, **kw):
        return {"aggregate": {}, "serve_load": self.serve(**kw)}

    def report(self, **kw):
        return BenchReport(rows=[], repeat=1, serve_load=self.serve(**kw))

    def test_clean_run_passes(self):
        assert check_regression(self.report(), self.baseline()) == []

    def test_tail_ratio_ceiling(self):
        failures = check_regression(self.report(tail_ratio=4.5),
                                    self.baseline(), serve_tolerance=1.0)
        assert len(failures) == 1
        assert "tail ratio" in failures[0]
        # Within the ceiling: 4.0 == 2.0 * (1 + 1.0).
        assert check_regression(self.report(tail_ratio=4.0),
                                self.baseline(),
                                serve_tolerance=1.0) == []

    def test_dedupe_hit_rate_floor(self):
        failures = check_regression(self.report(dedupe_hit_rate=0.1),
                                    self.baseline(), tolerance=0.20)
        assert len(failures) == 1
        assert "dedupe" in failures[0]

    def test_cross_shard_hit_must_not_be_lost(self):
        failures = check_regression(
            self.report(cross_shard={"hit": False}), self.baseline())
        assert len(failures) == 1
        assert "cross-shard" in failures[0]

    def test_empty_report_fails(self):
        failures = check_regression(BenchReport(rows=[], repeat=1),
                                    {"aggregate": {}})
        assert failures == ["nothing to check: the run has neither "
                            "engine rows nor a serve arm section"]

    def test_serve_section_ignored_without_baseline(self):
        failures = check_regression(self.report(tail_ratio=99.0),
                                    {"aggregate": {}})
        assert failures == []


class TestEndToEnd:
    def test_small_load_run(self, tmp_path):
        """A tiny but real run: 2 clients, 2 shards, real HTTP, real
        daemons, the burst backpressure phase, and the reshard check."""
        result = run_serve_load(clients=2, shards=2,
                                requests_per_client=2,
                                root=str(tmp_path / "fleet"))
        assert result.jobs_failed == 0
        # 2 clients x 2 requests, plus the 2 burst jobs under quota.
        assert result.jobs_ok == 6
        assert result.jobs_ok + result.jobs_failed == result.jobs_total
        assert sum(result.per_shard_jobs.values()) == result.jobs_total
        assert result.dedupe_hits >= 1
        assert result.throttled >= 1  # the over-quota burst saw a 429
        assert result.p99_ms >= result.p50_ms > 0
        assert result.cross_shard["hit"] is True
        assert result.cross_shard["simulator_tasks"] == 0
        d = result.to_dict()
        assert set(d["per_shard_jobs"]) <= {"0", "1"}


def scaling_point(shards, jobs_per_sec, warm_hits=16, warm_misses=8,
                  jobs_ok=24, jobs_failed=0):
    return FleetScalingPoint(
        shards=shards, jobs_ok=jobs_ok, jobs_failed=jobs_failed,
        elapsed_seconds=jobs_ok / jobs_per_sec if jobs_per_sec else 0.0,
        jobs_per_sec=jobs_per_sec, warm_hits=warm_hits,
        warm_misses=warm_misses, per_shard_jobs={0: jobs_ok})


def scaling_result(base_jps=8.0, peak_jps=24.0, peak_shards=4, **kw):
    return FleetScalingResult(
        requests=24, clients=8, workloads=("a", "b"),
        points=(scaling_point(1, base_jps),
                scaling_point(peak_shards, peak_jps, **kw)))


class TestFleetScalingResult:
    def test_scaling_ratio_is_peak_over_single_shard(self):
        assert scaling_result(8.0, 24.0).scaling_ratio == \
            pytest.approx(3.0)

    def test_warm_hit_rate_of_largest_point(self):
        r = scaling_result(warm_hits=9, warm_misses=3)
        assert r.warm_hit_rate == pytest.approx(0.75)

    def test_zero_guards(self):
        assert scaling_result(0.0, 24.0).scaling_ratio == 0.0
        r = scaling_result(warm_hits=0, warm_misses=0)
        assert r.warm_hit_rate == 0.0

    def test_to_dict_shape(self):
        d = scaling_result(8.0, 12.0, peak_shards=2).to_dict()
        assert d["max_shards"] == 2
        assert d["scaling_ratio"] == 1.5
        assert [p["shards"] for p in d["points"]] == [1, 2]
        assert d["points"][0]["per_shard_jobs"] == {"0": 24}


class TestFleetScalingGate:
    """check_regression over the fleet_scaling section."""

    def fleet(self, **kw):
        base = {"scaling_ratio": 2.0, "warm_hit_rate": 0.6,
                "points": [{"shards": 1, "jobs_failed": 0},
                           {"shards": 4, "jobs_failed": 0}]}
        base.update(kw)
        return base

    def baseline(self, **kw):
        return {"aggregate": {}, "fleet_scaling": self.fleet(**kw)}

    def report(self, **kw):
        return BenchReport(rows=[], repeat=1,
                           fleet_scaling=self.fleet(**kw))

    def test_clean_run_passes(self):
        assert check_regression(self.report(), self.baseline()) == []

    def test_scaling_ratio_floor(self):
        # Floor = 2.0 * (1 - 0.20) = 1.6.
        failures = check_regression(self.report(scaling_ratio=1.5),
                                    self.baseline(), tolerance=0.20)
        assert len(failures) == 1
        assert "scaling ratio" in failures[0]
        assert check_regression(self.report(scaling_ratio=1.7),
                                self.baseline(), tolerance=0.20) == []

    def test_faster_checker_machine_passes(self):
        # A 1-core committing machine (ratio ~1.0) still gates a
        # multi-core checker: anything >= the floor passes.
        failures = check_regression(
            self.report(scaling_ratio=3.4),
            self.baseline(scaling_ratio=1.0))
        assert failures == []

    def test_warm_hit_rate_floor(self):
        failures = check_regression(self.report(warm_hit_rate=0.1),
                                    self.baseline(), tolerance=0.20)
        assert len(failures) == 1
        assert "warm compile-cache" in failures[0]

    def test_failed_jobs_fail_the_gate(self):
        failures = check_regression(
            self.report(points=[{"shards": 1, "jobs_failed": 0},
                                {"shards": 4, "jobs_failed": 2}]),
            self.baseline())
        assert len(failures) == 1
        assert "failed jobs" in failures[0]

    def test_section_ignored_without_baseline(self):
        assert check_regression(self.report(scaling_ratio=0.01),
                                {"aggregate": {}}) == []

    def test_missing_ratio_reported(self):
        fleet = self.fleet()
        del fleet["scaling_ratio"]
        failures = check_regression(
            BenchReport(rows=[], repeat=1, fleet_scaling=fleet),
            self.baseline())
        assert "no scaling_ratio" in failures[0]


class TestFleetScalingEndToEnd:
    def test_single_point_real_fleet(self, tmp_path):
        """One real point: a fleet behind the front door, real
        sockets, warm stats from this process's codegen cache."""
        result = run_fleet_scaling(shards=(1,), requests=4, clients=2,
                                   workloads=("objectlayout",
                                              "kernel-array"),
                                   poll_interval=0.05,
                                   root=str(tmp_path / "scale"))
        assert [p.shards for p in result.points] == [1]
        point = result.points[0]
        assert point.jobs_ok == 4
        assert point.jobs_failed == 0
        assert point.jobs_per_sec > 0
        # 2 workloads x 2 runs each: the second run of each workload
        # hits the warm compile cache, emptied before the point.
        assert point.warm_hits > 0
        assert point.warm_misses > 0
        assert result.scaling_ratio == pytest.approx(1.0)
        d = result.to_dict()
        assert d["max_shards"] == 1
        assert d["points"][0]["warm_hit_rate"] > 0

    def test_bad_shard_sizes_rejected(self):
        with pytest.raises(ValueError):
            run_fleet_scaling(shards=())
        with pytest.raises(ValueError):
            run_fleet_scaling(shards=(0, 2))
        with pytest.raises(ValueError):
            run_fleet_scaling(shards=(2,), requests=0)
