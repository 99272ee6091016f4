"""Tests for the serving-layer load generator and its CI gate."""

import time

import pytest

from repro.bench import BenchReport, _check_fleet, check_regression
from repro.serve import loadgen
from repro.serve.loadgen import (
    FleetLoadPoint,
    FleetLoadResult,
    _client_jobs,
    percentile,
    run_fleet_load,
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


def point(shards, jobs_per_sec=3.0, **kw):
    defaults = dict(shards=shards, jobs_ok=4, jobs_failed=0,
                    dedupe_hits=2, fleet_hits=1, throttled=0,
                    warm_hits=9, warm_misses=3, p50_ms=100.0,
                    p99_ms=250.0, mean_ms=120.0, max_ms=250.0,
                    jobs_per_sec=jobs_per_sec, elapsed_seconds=1.5,
                    per_shard_jobs={0: 4})
    defaults.update(kw)
    return FleetLoadPoint(**defaults)


def load_result(base_jps=8.0, peak_jps=24.0, peak_shards=4, **kw):
    return FleetLoadResult(
        clients=2, requests_per_client=2, workloads=("a", "b"),
        points=(point(1, base_jps, p99_ms=900.0, warm_hits=0),
                point(peak_shards, peak_jps, **kw)),
        reshard={"hit": True, "throttled": 1})


class TestServeLoadResult:
    """The rates one fleet size derives from its own counts."""

    def test_derived_rates(self):
        p = point(4)
        assert p.dedupe_hit_rate == 0.5
        assert p.tail_ratio == 2.5
        assert p.warm_hit_rate == pytest.approx(0.75)

    def test_zero_guards(self):
        p = point(1, jobs_ok=0, p50_ms=0.0, warm_hits=0, warm_misses=0)
        assert p.dedupe_hit_rate == 0.0
        assert p.tail_ratio == 0.0
        assert p.warm_hit_rate == 0.0

    def test_to_dict_round_values(self):
        d = point(2, warm_hits=2, warm_misses=1).to_dict()
        assert d["tail_ratio"] == 2.5
        assert d["dedupe_hit_rate"] == 0.5
        assert d["warm_hit_rate"] == 0.6667
        assert d["per_shard_jobs"] == {"0": 4}


class TestFleetScalingResult:
    """What the result derives across fleet sizes: the scaling ratio
    spans them, every other rate is the largest fleet's."""

    def test_scaling_ratio_is_peak_over_single_shard(self):
        r = load_result(8.0, 24.0)
        assert r.largest.shards == 4
        assert r.scaling_ratio == pytest.approx(3.0)

    def test_warm_hit_rate_of_largest_point(self):
        r = load_result(warm_hits=9, warm_misses=3)
        assert r.points[0].warm_hit_rate == 0.0
        assert r.to_dict()["warm_hit_rate"] == 0.75

    def test_zero_guards(self):
        assert load_result(0.0, 24.0).scaling_ratio == 0.0
        r = load_result(warm_hits=0, warm_misses=0)
        assert r.to_dict()["warm_hit_rate"] == 0.0

    def test_to_dict_shape(self):
        d = load_result(8.0, 12.0, peak_shards=2).to_dict()
        assert d["max_shards"] == 2
        assert d["scaling_ratio"] == 1.5
        # The 1-shard fleet's 900 ms p99 does not set the tail ratio.
        assert d["tail_ratio"] == 2.5
        assert d["dedupe_hit_rate"] == 0.5
        assert d["warm_hit_rate"] == 0.75
        assert [p["shards"] for p in d["points"]] == [1, 2]
        assert d["points"][0]["per_shard_jobs"] == {"0": 4}
        assert d["reshard"] == {"hit": True, "throttled": 1}


class TestClientJobs:
    def test_duplicates_share_the_dup_seed(self):
        """Odd-numbered jobs repeat the client's first job exactly."""
        jobs = _client_jobs(client=0, requests=5, workloads=("w", "v"))
        assert jobs[1] == jobs[3] == jobs[0]
        uniques = [j["seed"] for j in jobs[0::2]]
        assert len(set(uniques)) == len(uniques)

    def test_unique_seeds_differ_across_clients(self):
        a = {j["seed"] for j in _client_jobs(0, 4, ("w",))}
        b = {j["seed"] for j in _client_jobs(1, 4, ("w",))}
        assert not a & b

    def test_workloads_rotate(self):
        jobs = _client_jobs(1, 5, ("x", "y", "z"))
        assert [j["workload"] for j in jobs] == ["y", "y", "x", "y", "z"]
        # Clients alternate between the two tenants.
        assert {j["tenant"] for j in jobs} == {"tenant-1"}
        assert _client_jobs(2, 1, ("x",))[0]["tenant"] == "tenant-0"


def section(**kw):
    """A fleet section as ``FleetLoadResult.to_dict`` writes it."""
    base = {"tail_ratio": 2.0, "dedupe_hit_rate": 0.4,
            "scaling_ratio": 2.0, "warm_hit_rate": 0.6,
            "points": [{"shards": 1, "jobs_failed": 0},
                       {"shards": 4, "jobs_failed": 0}],
            "reshard": {"shards": 5, "hit": True, "jobs_failed": 0,
                        "throttled": 1, "retry_after": True}}
    base.update(kw)
    return base


def reshard(**kw):
    return dict(section()["reshard"], **kw)


def baseline(**kw):
    return {"aggregate": {}, "fleet": section(**kw)}


def report(**kw):
    return BenchReport(rows=[], repeat=1, fleet=section(**kw))


class TestServeGate:
    """check_regression over the fleet section of a report."""

    def test_clean_run_passes(self):
        assert check_regression(report(), baseline()) == []

    @pytest.mark.parametrize("planted, message", [
        ({"tail_ratio": 4.5}, "tail ratio"),
        ({"dedupe_hit_rate": 0.1}, "dedupe hit rate"),
        ({"reshard": reshard(hit=False)}, "cross-shard"),
        ({"scaling_ratio": 1.5}, "scaling ratio"),
        ({"warm_hit_rate": 0.1}, "warm compile-cache"),
        ({"points": [{"shards": 1, "jobs_failed": 0},
                     {"shards": 4, "jobs_failed": 2}]}, "failed jobs"),
        ({"reshard": reshard(jobs_failed=1)}, "failed jobs"),
        ({"reshard": reshard(throttled=0)}, "expected exactly 1"),
        ({"reshard": reshard(retry_after=False)}, "Retry-After"),
    ], ids=["tail-ratio", "dedupe-rate", "cross-shard", "scaling-ratio",
            "warm-rate", "failed-job", "reshard-failed-job", "no-429",
            "no-retry-after"])
    def test_planted_regression_fails(self, planted, message):
        failures = _check_fleet(section(**planted), section())
        assert len(failures) == 1
        assert message in failures[0]
        assert check_regression(report(**planted),
                                baseline()) == failures

    @pytest.mark.parametrize("measured, committed", [
        # Exactly at the ceiling: 4.0 == 2.0 * (1 + 1.0).
        ({"tail_ratio": 4.0}, {}),
        # Floor = 2.0 * (1 - 0.20) = 1.6.
        ({"scaling_ratio": 1.7}, {}),
        # A 1-core committing machine (ratio ~1.0) still gates a
        # multi-core checker: anything over the floor passes.
        ({"scaling_ratio": 3.4}, {"scaling_ratio": 1.0}),
    ], ids=["tail-at-ceiling", "scaling-over-floor", "faster-checker"])
    def test_within_bounds_passes(self, measured, committed):
        assert check_regression(report(**measured),
                                baseline(**committed)) == []

    def test_committed_section_passes_itself(self):
        import json
        import pathlib

        path = pathlib.Path(__file__).resolve().parents[2] / \
            "BENCH_throughput.json"
        committed = json.loads(path.read_text())["fleet"]
        assert _check_fleet(committed, committed) == []

    def test_empty_report_fails(self):
        failures = check_regression(BenchReport(rows=[], repeat=1),
                                    {"aggregate": {}})
        assert failures == ["nothing to check: the run has neither "
                            "engine rows nor a serve arm section"]

    def test_serve_section_ignored_without_baseline(self):
        failures = check_regression(report(tail_ratio=99.0),
                                    {"aggregate": {}})
        assert failures == []


class TestFleetScalingGate:
    """The gate's reading of the points across fleet sizes."""

    def test_clean_run_passes(self):
        assert check_regression(
            report(points=[{"shards": 1, "jobs_failed": 0},
                           {"shards": 2, "jobs_failed": 0},
                           {"shards": 4, "jobs_failed": 0}]),
            baseline()) == []

    def test_section_ignored_without_baseline(self):
        assert check_regression(report(scaling_ratio=0.01,
                                       warm_hit_rate=0.0),
                                {"aggregate": {}}) == []

    def test_missing_ratio_reported(self):
        fleet = section()
        del fleet["scaling_ratio"]
        failures = check_regression(
            BenchReport(rows=[], repeat=1, fleet=fleet), baseline())
        assert failures == ["fleet run has no scaling_ratio"]


class TestEndToEnd:
    def test_small_load_run(self, tmp_path):
        """A tiny but real run: 2 clients against a 1-shard and a
        2-shard fleet over real HTTP with real daemons, then the
        reshard phase's burst and cross-shard check."""
        result = run_fleet_load(shards=(2,), clients=2,
                                requests_per_client=3,
                                workloads=("objectlayout",
                                           "kernel-array"),
                                root=str(tmp_path / "fleet"))
        assert [p.shards for p in result.points] == [1, 2]
        for p in result.points:
            assert (p.jobs_ok, p.jobs_failed) == (6, 0)
            assert sum(p.per_shard_jobs.values()) == 6
            # Each client's second job repeats its first.
            assert p.dedupe_hits == 2
            assert p.throttled == 0
            assert p.p99_ms >= p.p50_ms > 0
            assert p.jobs_per_sec > 0
            # Each workload simulates twice: the second run hits the
            # warm cache, emptied before every fleet size.
            assert p.warm_hits > 0 and p.warm_misses > 0
        assert set(result.points[1].per_shard_jobs) == {0, 1}
        reshard = result.reshard
        assert reshard["accepted"] == 32
        assert reshard["throttled"] == 1 and reshard["retry_after"]
        assert reshard["jobs_failed"] == 0
        assert reshard["simulator_tasks"] == 0
        assert reshard["hit"] is True
        d = result.to_dict()
        assert _check_fleet(d, d) == []

    def test_stuck_shard_fails_by_the_deadline(self, tmp_path,
                                               monkeypatch):
        """A shard that never claims cannot hang the bench: its jobs
        fail at the deadline and the gate reports them."""
        from repro.serve.service import ProfilingService

        real_run_once = ProfilingService.run_once

        def run_once(self):
            if self.shard_id == 1:
                return []
            return real_run_once(self)

        monkeypatch.setattr(ProfilingService, "run_once", run_once)
        monkeypatch.setattr(loadgen, "DEADLINE_S", 2.0)
        started = time.monotonic()
        result = run_fleet_load(shards=(2,), clients=2,
                                requests_per_client=1,
                                workloads=("objectlayout",
                                           "kernel-array"),
                                root=str(tmp_path / "fleet"))
        # Three phases (two fleet sizes, the reshard), one deadline
        # each, plus set-up.
        assert time.monotonic() - started < 3 * 2.0 + 10.0
        assert result.points[0].jobs_failed == 0
        assert result.points[1].jobs_failed == 1
        d = result.to_dict()
        failures = _check_fleet(d, d)
        assert "fleet load at shards=2 had 1 failed jobs" in failures


class TestFleetScalingEndToEnd:
    def test_single_point_real_fleet(self, tmp_path):
        """One fleet size asked for is the 1-shard fleet alone: real
        sockets, warm counts as ``GET /fleet`` reports them."""
        result = run_fleet_load(shards=(1,), clients=2,
                                requests_per_client=3,
                                workloads=("objectlayout",
                                           "kernel-array"),
                                root=str(tmp_path / "scale"))
        assert [p.shards for p in result.points] == [1]
        point = result.points[0]
        assert (point.jobs_ok, point.jobs_failed) == (6, 0)
        assert point.jobs_per_sec > 0
        # 2 workloads x 2 runs each: the second run of each workload
        # hits the warm compile cache, emptied before the point.
        assert point.warm_hits > 0
        assert point.warm_misses > 0
        assert result.scaling_ratio == pytest.approx(1.0)
        d = result.to_dict()
        assert d["max_shards"] == 1
        assert d["reshard"]["jobs_failed"] == 0

    def test_bad_shard_sizes_rejected(self):
        with pytest.raises(ValueError):
            run_fleet_load(shards=())
        with pytest.raises(ValueError):
            run_fleet_load(shards=(0, 2))
        with pytest.raises(ValueError):
            run_fleet_load(shards=(2,), requests_per_client=0)
        with pytest.raises(ValueError):
            run_fleet_load(shards=(2,), clients=0)
