"""Extension: offline replay fidelity and cost (§4.4 analyzer split).

Records the observation-event trace of a live profiled run, then
re-runs the offline analyzer from the trace alone — no simulation — and
checks the two analyses are byte-for-byte the same ranking.  Also
demonstrates the split's payoff: answering a *different* analysis
question (lower size threshold) from the same trace, at replay cost
rather than re-simulation cost.
"""

import time

import pytest

from repro.core import DJXPerf, DjxConfig
from repro.core.javaagent import instrument_program
from repro.jvm import Machine
from repro.obs.replay import replay_analyze
from repro.obs.trace import TraceWriter
from repro.workloads import get_workload

from benchmarks.conftest import format_table

WORKLOADS = ["objectlayout", "findbugs"]


def live_run_with_trace(name, trace_path):
    workload = get_workload(name)
    program = instrument_program(workload.build_verified())
    machine = Machine(program, workload.machine_config())
    writer = TraceWriter(str(trace_path))
    writer.attach(machine)
    profiler = DJXPerf(DjxConfig())
    profiler.attach(machine)
    machine.run()
    writer.close()
    return profiler.analyze(), writer.events_written


def site_key(site):
    return (site.location, dict(site.metrics), site.alloc_count,
            site.allocated_bytes, site.remote_samples, site.local_samples)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_replay_reproduces_live_ranking(workload, tmp_path, archive):
    trace = tmp_path / f"{workload}.trace.jsonl.gz"

    start = time.perf_counter()
    live, events = live_run_with_trace(workload, trace)
    live_seconds = time.perf_counter() - start

    start = time.perf_counter()
    replayed = replay_analyze(str(trace))
    replay_seconds = time.perf_counter() - start

    live_sites = sorted(site_key(s) for s in live.sites)
    replay_sites = sorted(site_key(s) for s in replayed.sites)
    assert replay_sites == live_sites
    assert replayed.total_samples == live.total_samples
    assert replayed.unknown_samples == live.unknown_samples

    # The same trace answers a different question without re-simulating:
    # drop the size threshold to zero and watch more objects tracked.
    everything = replay_analyze(str(trace), DjxConfig(size_threshold=0))
    assert sum(s.alloc_count for s in everything.sites) \
        >= sum(s.alloc_count for s in live.sites)

    archive(f"trace_replay_{workload}", format_table(
        f"Live vs trace-replay analysis ({workload})",
        ["quantity", "live", "replay"],
        [("top object", live.top_sites(1)[0].location,
          replayed.top_sites(1)[0].location),
         ("total samples", live.total(), replayed.total()),
         ("sites", len(live.sites), len(replayed.sites)),
         ("seconds", f"{live_seconds:.2f}", f"{replay_seconds:.2f}"),
         ("trace events", events, "")]))
