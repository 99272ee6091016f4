"""Simulator throughput: the fast path vs the legacy reference engine.

Not a paper figure — this tracks the *simulator's own* performance, the
PR-over-PR guardrail behind ``python -m repro bench``.  It runs the CI
subset of the suite through :mod:`repro.bench` (which also cross-checks
that both engines produce identical MachineResults), prints the same
table the CLI prints, and asserts the fastpath speedup stays comfortably
above 1 — the committed ``BENCH_throughput.json`` at the repo root
records the reference ratio the CI bench gate checks; the floor here is
looser because CI machines are noisy and this subset is small.
"""

from benchmarks.conftest import format_table
from repro.bench import SMALL_SUITE, bench_suite

#: CI-safe floor for the aggregate fastpath-over-legacy ratio.  The
#: legacy engine is a decoded per-instruction oracle, so the ratio
#: tracks the fused engine's gain over plain per-opcode dispatch;
#: anything under 2x on the small subset means the fast path has
#: materially regressed.
MIN_AGGREGATE_SPEEDUP = 2.0


class TestSimulatorThroughput:
    def test_fastpath_beats_legacy(self, archive):
        report = bench_suite(SMALL_SUITE, repeat=2)
        rows = []
        for row in report.rows:
            rows.append([
                row.name, row.instructions,
                f"{row.fastpath.ips:,.0f}", f"{row.legacy.ips:,.0f}",
                f"x{row.speedup_vs_legacy:.2f}"])
        agg_fast = report.aggregate_fastpath
        agg_legacy = report.aggregate_legacy
        rows.append(["AGGREGATE",
                     sum(r.instructions for r in report.rows),
                     f"{agg_fast.ips:,.0f}", f"{agg_legacy.ips:,.0f}",
                     f"x{report.aggregate_speedup:.2f}"])
        archive("sim_throughput", format_table(
            "Simulator throughput (simulated instructions/sec)",
            ["workload", "instructions", "fastpath ips", "legacy ips",
             "speedup"], rows))

        # bench_workload already raised if any workload's two engines
        # disagreed; what is left to assert is the speedup itself.
        assert report.aggregate_speedup >= MIN_AGGREGATE_SPEEDUP, (
            f"fastpath only x{report.aggregate_speedup:.2f} over legacy "
            f"(floor x{MIN_AGGREGATE_SPEEDUP})")

    def test_per_workload_speedup_never_inverts(self):
        # One repeat keeps this cheap; the bar is deliberately low (no
        # workload should run *slower* compiled than interpreted).
        report = bench_suite(("mnemonics", "crypto"), repeat=2)
        for row in report.rows:
            assert row.speedup_vs_legacy > 1.0, (
                f"{row.name}: fastpath slower than legacy "
                f"(x{row.speedup_vs_legacy:.2f})")
