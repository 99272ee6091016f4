"""Differential equivalence: fused superinstructions vs the legacy oracle.

Superinstruction fusion (block-compiled closures, batched memory walks,
bulk PMU skip-ahead inside guarded blocks) is a pure performance
transformation.  ``test_fastpath_equivalence`` checks the production
engine against the legacy one-step interpreter at the paper-default
period; this module covers the periods that stress the fused blocks'
PMU guards: a prime (13, so bulk-budget countdowns never align with
block sizes) and 1, where every counted event overflows, the
bulk-budget guard can never pass, and every observed fused block takes
the per-handler bailout chain.  For every suite workload and for the
engine-bound kernels, both engines must produce the same MachineResult,
the same DJXPerf ranking, and byte-identical recorded traces — and the
production run must actually have executed fused blocks, so the
comparison is never vacuous.
"""

import dataclasses
import gzip

import pytest

from repro.core import DjxConfig
from repro.core.report import render_report
from repro.workloads import get_workload, run_profiled
from repro.workloads.kernels import kernel_names
from repro.workloads.suite import suite_names

#: A prime, and overflow-on-every-count (guard always fails: every
#: observed block executes through the bailout chain).
PERIODS = (13, 1)


def _run_arm(workload, fastpath, period, tmp_path):
    mc = dataclasses.replace(workload.machine_config(), fastpath=fastpath)
    path = str(tmp_path / f"{workload.name}-{period}-{fastpath}.jsonl.gz")
    run = run_profiled(workload, config=DjxConfig(sample_period=period),
                       machine_config=mc, trace_path=path)
    with gzip.open(path, "rb") as fh:
        trace = fh.read()
    return run, trace


class TestEveryWorkload:
    @pytest.mark.parametrize("name", suite_names() + kernel_names())
    def test_fusion_is_invisible(self, name, tmp_path):
        workload = get_workload(name)
        for period in PERIODS:
            fused_run, fused_trace = _run_arm(workload, True, period,
                                              tmp_path)
            ref_run, ref_trace = _run_arm(workload, False, period,
                                          tmp_path)
            assert fused_run.machine.fusion.fused_executions > 0, \
                f"{name} period={period}: no fused block executed"
            assert fused_run.result == ref_run.result, \
                f"{name} period={period}: MachineResult diverged"
            assert render_report(fused_run.analysis, top=10) == \
                render_report(ref_run.analysis, top=10), \
                f"{name} period={period}: analyzer top-10 diverged"
            assert fused_trace == ref_trace, \
                f"{name} period={period}: recorded traces diverged"
