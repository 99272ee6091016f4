"""Differential equivalence: production engine vs legacy oracle.

The production engine — fused superinstruction blocks over compiled
dispatch tables, batched memory-system walks, bulk PMU skip-ahead
inside guarded blocks — must be *observationally invisible*: for every
suite workload and for the engine-bound kernels, at the paper-default
sampling period, it and the legacy one-step interpreter must produce
the same MachineResult, the same DJXPerf ranking, and — the strongest
check — byte-identical recorded event traces.  A single diverging cycle
count, event ordering, or sampled callstack shows up as a trace diff
here.  ``test_fused_differential`` runs the same comparison at the
periods that stress the fused blocks' PMU guards (13 and 1).
"""

import dataclasses
import gzip

import pytest

from repro.core import DjxConfig
from repro.core.report import render_report
from repro.workloads import get_workload, run_profiled
from repro.workloads.kernels import kernel_names
from repro.workloads.suite import suite_names

def _run_both(workload, tmp_path, config=None, trace_accesses=False):
    """Run ``workload`` under both engines; returns {fastpath: outcome}."""
    outcomes = {}
    period = config.sample_period if config is not None else None
    for fastpath in (True, False):
        mc = dataclasses.replace(workload.machine_config(),
                                 fastpath=fastpath)
        path = str(tmp_path / f"{workload.name}-{period}-{fastpath}.jsonl.gz")
        run = run_profiled(workload, config=config, machine_config=mc,
                           trace_path=path, trace_accesses=trace_accesses)
        with gzip.open(path, "rb") as fh:
            trace = fh.read()
        outcomes[fastpath] = (run.result, render_report(run.analysis,
                                                        top=10), trace)
    return outcomes


class TestEveryWorkload:
    @pytest.mark.parametrize("name", suite_names() + kernel_names())
    def test_traces_and_rankings_identical(self, name, tmp_path):
        outcomes = _run_both(get_workload(name), tmp_path,
                             config=DjxConfig(sample_period=64))
        fast_result, fast_report, fast_trace = outcomes[True]
        legacy_result, legacy_report, legacy_trace = outcomes[False]
        assert fast_result == legacy_result, "MachineResult diverged"
        assert fast_report == legacy_report, "analyzer top-10 diverged"
        assert fast_trace == legacy_trace, "recorded traces diverged"


class TestAccessStream:
    """With raw access recording on, the fast path is fully disabled for
    memory (every result object is retained by the trace) — but the
    production dispatch still runs, so this checks the interpreter
    layer in isolation, at the finest observable granularity."""

    @pytest.mark.parametrize("name", ["objectlayout", "montecarlo"])
    def test_raw_access_traces_identical(self, name, tmp_path):
        outcomes = _run_both(get_workload(name), tmp_path,
                             config=DjxConfig(sample_period=64),
                             trace_accesses=True)
        assert outcomes[True][2] == outcomes[False][2]
