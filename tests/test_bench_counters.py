"""Tests for the bench gate on deterministic per-workload counters."""

import dataclasses
import json
import pathlib

import pytest

from repro.bench import (
    ArmTiming,
    BenchReport,
    BenchRow,
    _check_counters,
    bench_workload,
    check_regression,
)
from repro.workloads import get_workload

ROOT = pathlib.Path(__file__).resolve().parents[1]


def row(name="w", instructions=100, **fusion):
    counts = {"blocks_fused": 10, "fused_executions": 500,
              "guard_bailouts": 3}
    counts.update(fusion)
    return BenchRow(name=name, instructions=instructions, accesses=40,
                    fastpath=ArmTiming(seconds=1.0, ips=100.0, aps=40.0),
                    legacy=ArmTiming(seconds=3.0, ips=33.3, aps=13.3),
                    profiled_instructions=120, profiled_accesses=40,
                    profiled=ArmTiming(seconds=1.5, ips=80.0, aps=26.7),
                    profiled_peraccess=ArmTiming(seconds=2.0, ips=60.0,
                                                 aps=20.0),
                    allfamilies=ArmTiming(seconds=4.0, ips=30.0, aps=10.0),
                    fusion=counts)


def report(*rows):
    return BenchReport(rows=list(rows), repeat=1)


BASELINE = report(row(), row("v")).to_dict()


class TestCounterGate:
    def test_identical_counts_pass(self):
        assert check_regression(report(row(), row("v")), BASELINE) == []

    @pytest.mark.parametrize("planted, message", [
        (row(blocks_fused=9), "w fusion.blocks_fused changed: "
                              "measured 9, committed 10"),
        (row(guard_bailouts=4), "w fusion.guard_bailouts changed: "
                                "measured 4, committed 3"),
        (row(instructions=101), "w instructions changed: "
                                "measured 101, committed 100"),
    ], ids=["one-fewer-block-fused", "one-more-guard-bailout",
            "one-more-instruction"])
    def test_planted_change_fails(self, planted, message):
        assert check_regression(report(planted), BASELINE) == [message]

    def test_an_allfamilies_access_event_fails(self):
        # The sampled families never build AccessEvents: one is a
        # family falling off the fast path.
        planted = dataclasses.replace(row(),
                                      allfamilies_access_events_built=1)
        assert check_regression(report(planted), BASELINE) == [
            "w allfamilies_access_events_built changed: measured 1, "
            "committed 0"]

    def test_a_baseline_without_a_ratio_fails(self):
        baseline = report(row(), row("v")).to_dict()
        del baseline["aggregate"]["profiled_speedup"]
        assert check_regression(report(row(), row("v")), baseline) == [
            "baseline has no aggregate.profiled_speedup field"]

    def test_rows_missing_from_either_report_are_skipped(self):
        assert _check_counters(report(row("new", blocks_fused=1)),
                               BASELINE) == []
        assert _check_counters(report(row("v")), BASELINE) == []


class TestCommittedCounters:
    def test_a_fresh_run_reproduces_a_committed_row(self):
        """The committed crypto row's counts, profiled arms included,
        come out of a fresh run exactly."""
        baseline = json.loads(
            (ROOT / "BENCH_throughput.json").read_text())
        fresh = bench_workload(get_workload("crypto"), repeat=1)
        assert fresh.profiled_instructions > 0
        assert _check_counters(report(fresh), baseline) == []
