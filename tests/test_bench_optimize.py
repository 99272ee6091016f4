"""Tests for the bench harness's profile-guided optimization arm."""

import json

import pytest

from repro.bench import (
    OPTIMIZE_SUITE,
    SCHEMA,
    BenchReport,
    _check_optimize,
    check_regression,
    load_report,
)


def entry(status="accepted", speedup=1.25, transform="presize"):
    return {"family": "djxperf", "transform": transform,
            "status": status, "baseline_cycles": 1000,
            "optimized_cycles": 800, "speedup": speedup}


class TestSuite:
    def test_suite_covers_all_planted_workloads(self):
        names = {name for name, _family in OPTIMIZE_SUITE}
        assert names == {"unsized-growth", "padded-layout",
                         "boxed-counters", "redundant-fill"}

    def test_redundancy_family_is_exercised(self):
        families = {family for _name, family in OPTIMIZE_SUITE}
        assert "redundancy" in families


class TestGate:
    def test_matching_run_passes(self):
        base = {"w": entry()}
        assert _check_optimize({"w": entry()}, base) == []

    def test_accepted_flipping_to_rejected_fails(self):
        base = {"w": entry()}
        failures = _check_optimize({"w": entry(status="rejected")},
                                   base)
        assert failures and "regressed" in failures[0]

    def test_dropped_workload_fails(self):
        failures = _check_optimize({}, {"w": entry()})
        assert failures and "dropped workload w" in failures[0]

    def test_shrunken_speedup_fails(self):
        base = {"w": entry(speedup=2.0)}
        failures = _check_optimize({"w": entry(speedup=1.05)}, base)
        assert failures and "speedup" in failures[0]

    def test_speedup_within_tolerance_passes(self):
        base = {"w": entry(speedup=1.30)}
        assert _check_optimize({"w": entry(speedup=1.20)},
                               base) == []

    def test_committed_rejection_not_gated_on_speedup(self):
        # A workload committed as rejected is informational: the gate
        # only protects verified improvements.
        base = {"w": entry(status="rejected", speedup=0.9)}
        assert _check_optimize({"w": entry(status="rejected",
                                           speedup=0.5)},
                               base) == []

    def test_wired_into_check_regression(self):
        report = BenchReport(rows=[], repeat=1,
                             optimize={"w": entry(status="rejected")})
        failures = check_regression(report, {"optimize": {"w": entry()}})
        assert any("optimize verdict" in f for f in failures)
        # An optimize-only report is a valid thing to check.
        assert not any("nothing to check" in f for f in failures)


class TestCommittedBaseline:
    def test_schema_and_optimize_section(self):
        data = load_report("BENCH_throughput.json")
        assert data["schema"] == SCHEMA
        section = data["optimize"]
        assert {name for name, _ in OPTIMIZE_SUITE} == set(section)
        for name, committed in section.items():
            assert committed["status"] == "accepted", name
            assert committed["speedup"] > 1.0, name
            assert committed["optimized_cycles"] \
                < committed["baseline_cycles"], name
