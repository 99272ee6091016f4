"""Tests for the workload runner helpers (fast workloads only)."""

import pytest

from repro.core import DjxConfig
from repro.workloads import (
    OverheadMeasurement,
    get_workload,
    measure_overhead,
    measure_speedup,
    measure_suite_overheads,
    run_native,
    run_profiled,
)


FAST = "montecarlo"      # sub-second workload used throughout


class TestRunNative:
    def test_returns_machine_result(self):
        result = run_native(get_workload(FAST))
        assert result.wall_cycles > 0
        assert result.total_instructions > 0

    def test_variant_forwarded(self):
        base = run_native(get_workload(FAST), "baseline")
        tiled = run_native(get_workload(FAST), "tiled")
        assert base.wall_cycles != tiled.wall_cycles

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            run_native(get_workload(FAST), "nope")

    def test_deterministic(self):
        r1 = run_native(get_workload(FAST))
        r2 = run_native(get_workload(FAST))
        assert r1.wall_cycles == r2.wall_cycles
        assert r1.l1_misses == r2.l1_misses


class TestRunProfiled:
    def test_produces_analysis(self):
        run = run_profiled(get_workload(FAST),
                           config=DjxConfig(sample_period=32))
        assert run.analysis.total() > 0
        assert run.analysis.sites

    def test_profiler_attached_and_enabled(self):
        run = run_profiled(get_workload(FAST),
                           config=DjxConfig(sample_period=32))
        assert run.profiler.enabled


class TestMeasureSpeedup:
    def test_speedup_of_tiling(self):
        speedup, base, opt = measure_speedup(get_workload(FAST))
        assert speedup > 1.0
        assert base.wall_cycles > opt.wall_cycles

    def test_explicit_variants(self):
        speedup, _, _ = measure_speedup(get_workload(FAST),
                                        optimized_variant="baseline",
                                        baseline_variant="baseline")
        assert speedup == pytest.approx(1.0)


class TestMeasureOverhead:
    def test_overhead_measurement_fields(self):
        m = measure_overhead(get_workload("compress"),
                             config=DjxConfig(sample_period=64))
        assert m.runtime_overhead > 1.0
        assert m.memory_overhead >= 1.0
        assert m.native_cycles < m.profiled_cycles
        assert m.profiler_memory > 0

    def test_profiling_does_not_change_program_behaviour(self):
        native = run_native(get_workload(FAST))
        profiled = run_profiled(get_workload(FAST),
                                config=DjxConfig(sample_period=32))
        # Identical memory behaviour: same allocation count & misses.
        assert profiled.result.heap_allocations == native.heap_allocations
        assert profiled.result.l1_misses == native.l1_misses

    def test_zero_native_cycles_rejected_with_context(self):
        m = OverheadMeasurement(name="degenerate", native_cycles=0,
                                profiled_cycles=100, native_peak_memory=0,
                                profiler_memory=0)
        with pytest.raises(ZeroDivisionError, match="degenerate"):
            m.runtime_overhead


class TestVariantCheck:
    def test_check_variant_is_public(self):
        workload = get_workload(FAST)
        workload.check_variant("baseline")       # no raise
        with pytest.raises(ValueError, match="nope"):
            workload.check_variant("nope")


class TestSuiteOverheads:
    NAMES = ["compress", "crypto", "serial"]

    def test_serial_path_returns_in_order(self):
        measurements = measure_suite_overheads(
            self.NAMES, config=DjxConfig(sample_period=64), jobs=1)
        assert [m.name for m in measurements] == self.NAMES
        assert all(m.runtime_overhead > 1.0 for m in measurements)

    def test_parallel_matches_serial(self):
        config = DjxConfig(sample_period=64)
        serial = measure_suite_overheads(self.NAMES, config=config, jobs=1)
        parallel = measure_suite_overheads(self.NAMES, config=config,
                                           jobs=3)
        assert serial == parallel       # deterministic sim, same order

    def test_trace_dir_records_replayable_traces(self, tmp_path):
        from repro.obs.replay import replay_analyze

        config = DjxConfig(sample_period=64)
        measurements = measure_suite_overheads(
            ["compress"], config=config, jobs=1, trace_dir=str(tmp_path))
        trace = measurements[0].trace_path
        assert trace is not None
        analysis = replay_analyze(trace, config)
        assert analysis.total() > 0


class TestSeedPlumbing:
    def test_seed_overrides_machine_config(self):
        workload = get_workload(FAST)
        default = run_native(workload)
        reseeded = run_native(workload, seed=12345)
        again = run_native(workload, seed=12345)
        assert reseeded == again           # deterministic under one seed
        assert default == run_native(workload, seed=workload.machine_config().seed)

    def test_measure_overhead_applies_seed_to_both_arms(self):
        workload = get_workload(FAST)
        config = DjxConfig(sample_period=64)
        a = measure_overhead(workload, config=config, seed=99)
        b = measure_overhead(workload, config=config, seed=99)
        assert a == b

    def test_suite_tasks_carry_seed(self):
        config = DjxConfig(sample_period=64)
        a = measure_suite_overheads(["compress"], config=config, jobs=1,
                                    seed=77)
        b = measure_suite_overheads(["compress"], config=config, jobs=1,
                                    seed=77)
        assert a == b
