"""Demand-driven event streams on a real simulated run.

The machine only *constructs* per-access and per-allocation events when
some subscribed collector declares it wants them — the bus tracks the
refcounted capability union.  These tests pin the acceptance criterion:
a samples-only collector set builds zero AccessEvents (and zero
AllocEvents), and attaching a trace writer restores exactly the streams
it opted into.
"""

import gzip
import json

from repro.baselines.codecentric import CodeCentricProfiler
from repro.core import DjxConfig, DJXPerf
from repro.jvm.machine import Machine
from repro.obs.trace import TraceWriter
from repro.workloads import get_workload

WORKLOAD = "objectlayout"
PERIOD = 64


def _machine(profiler=None):
    workload = get_workload(WORKLOAD)
    program = workload.build_verified()
    if profiler is not None:
        program = profiler.instrument(program)
    return Machine(program, workload.machine_config())


def _trace_tags(path):
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return [json.loads(line)[0] for line in fh
                if line.lstrip().startswith("[")]


class TestSamplesOnly:
    def test_samples_only_builds_no_access_or_alloc_events(self):
        perf = CodeCentricProfiler(sample_period=PERIOD)
        machine = _machine()
        perf.attach(machine)
        machine.run()
        bus = machine.bus
        assert sum(perf.total_samples.values()) > 0
        assert bus.access_events_built == 0
        assert bus.alloc_events_built == 0

    def test_djxperf_wants_allocs_but_not_accesses(self):
        profiler = DJXPerf(DjxConfig(sample_period=PERIOD))
        machine = _machine(profiler)
        profiler.attach(machine)
        machine.run()
        bus = machine.bus
        assert bus.alloc_events_built > 0
        assert bus.access_events_built == 0


class TestTraceWriterRestoresStreams:
    def test_trace_writer_opts_back_into_accesses(self, tmp_path):
        perf = CodeCentricProfiler(sample_period=PERIOD)
        path = str(tmp_path / "trace.jsonl.gz")
        machine = _machine()
        writer = TraceWriter(path, include_accesses=True)
        writer.attach(machine)
        perf.attach(machine)
        machine.run()
        writer.close()
        bus = machine.bus
        assert bus.access_events_built > 0
        tags = _trace_tags(path)
        assert "ac" in tags
        assert "sm" in tags

    def test_default_trace_restores_allocs_but_not_accesses(self, tmp_path):
        profiler = DJXPerf(DjxConfig(sample_period=PERIOD))
        path = str(tmp_path / "trace.jsonl.gz")
        machine = _machine(profiler)
        writer = TraceWriter(path)
        writer.attach(machine)
        profiler.attach(machine)
        machine.run()
        writer.close()
        bus = machine.bus
        assert bus.access_events_built == 0
        assert bus.alloc_events_built > 0
        tags = _trace_tags(path)
        assert "al" in tags
        assert "ac" not in tags
