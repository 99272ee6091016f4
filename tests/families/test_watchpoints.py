"""The machine side of the redundancy family: simulated watchpoints.

Samples of ``watch=True`` samplers arm watchpoints in the thread's
``watch`` map (:mod:`repro.obs.bus`); accesses trap them, from the
per-handler path, from fused blocks and from bulk walks.  The trap
stream must not depend on the engine or the counting mode.
"""

import dataclasses

import pytest

from repro.core import DjxConfig
from repro.core.javaagent import instrument_program
from repro.jvm import Machine, MachineConfig
from repro.jvm.interpreter import JavaThread
from repro.obs.bus import WATCH_PATIENCE, WATCH_SLOTS
from repro.obs.collector import Collector
from repro.obs.events import SampleEvent, WatchTrapEvent
from repro.families import RedundancyProfiler
from repro.pmu.events import ALL_STORES
from repro.workloads import get_workload


class Recording(Collector):
    """Keeps the records of every sample and trap, in stream order."""

    label = "recording"
    wants_allocs = False

    def __init__(self):
        super().__init__()
        self.records = []

    def handle_batch(self, events):
        self.records += [e.to_record() for e in events
                         if isinstance(e, (SampleEvent, WatchTrapEvent))]


CONFIGS = {
    "fused": dict(fastpath=True, skip_ahead=True),
    "per-access": dict(fastpath=True, skip_ahead=False),
    "legacy": dict(fastpath=False, skip_ahead=True),
}


def _family_run(name, period, config):
    workload = get_workload(name)
    program = instrument_program(workload.build_verified())
    machine = Machine(program, dataclasses.replace(
        workload.machine_config(), **CONFIGS[config]))
    recording = Recording()
    machine.bus.subscribe(recording)
    RedundancyProfiler(DjxConfig(sample_period=period,
                                 size_threshold=0)).attach(machine)
    machine.run()
    return recording.records


@pytest.mark.parametrize("period", [64, 13])
@pytest.mark.parametrize("name", ["dead-stores", "silent-loads"])
def test_trap_stream_is_engine_and_counting_mode_independent(name, period):
    fused = _family_run(name, period, "fused")
    assert any(rec[0] == "wt" for rec in fused)
    assert _family_run(name, period, "per-access") == fused
    assert _family_run(name, period, "legacy") == fused


def _armed_machine(fastpath=True):
    """A machine with one watch sampler open (period too long to fire)
    and a recording collector, plus a thread to drive it with."""
    machine = Machine(get_workload("dead-stores").build_verified(),
                      MachineConfig(fastpath=fastpath))
    recording = Recording()
    machine.bus.subscribe(recording)
    sid = machine.bus.open_sampler(ALL_STORES, 1 << 30, watch=True)
    thread = JavaThread(tid=0, cpu=0)
    machine.bus.thread_started(thread)
    return machine, recording, thread, sid


class TestBulkWalks:
    @pytest.mark.parametrize("fastpath", [True, False])
    def test_a_walk_traps_each_watched_address_it_covers(self, fastpath):
        machine, recording, thread, sid = _armed_machine(fastpath)
        base = machine.config.heap_base
        line = machine.config.hierarchy.line_size
        inside = [base + 3 * line + 8, base + 3 * line + 16,
                  base + 9 * line]
        for address in inside + [base + 40 * line]:
            thread.watch[address] = (sid, True, 1, 0)
        machine.touch_range(thread, base, base + 20 * line, True)
        machine.bus.flush()
        assert [rec[3] for rec in recording.records] == inside
        assert all(rec[7] is None for rec in recording.records)
        assert list(thread.watch) == [base + 40 * line]

    def test_pinned_walk_matches_per_line_observation(self):
        walks = []
        for fastpath in (True, False):
            machine, recording, thread, sid = _armed_machine(fastpath)
            base = machine.config.heap_base
            thread.watch[base + 500] = (sid, True, 1, 0)
            machine.touch_range(thread, base, base + 4096, True)
            machine.bus.flush()
            walks.append((recording.records, thread.cycles,
                          machine.hierarchy.miss_summary()))
        assert walks[0] == walks[1]


class TestWatchpointLifetime:
    def test_gc_disarms_every_watchpoint(self):
        machine, _, thread, sid = _armed_machine()
        thread.watch[0x1000] = (sid, True, 1, 0)
        machine.collector.collect()
        assert thread.watch == {}

    def test_closing_the_sampler_disarms_its_watchpoints(self):
        machine, _, thread, sid = _armed_machine()
        other = machine.bus.open_sampler(ALL_STORES, 1 << 30, watch=True)
        thread.watch[0x1000] = (sid, True, 1, 0)
        thread.watch[0x2000] = (other, True, 1, 0)
        machine.bus.close_sampler(sid)
        assert list(thread.watch) == [0x2000]

    def test_a_full_map_reclaims_only_after_patience(self):
        machine, _, thread, _ = _armed_machine()
        bus = machine.bus
        sid = bus.open_sampler(ALL_STORES, 1, watch=True)
        base = machine.config.heap_base

        def store(i):
            machine.memory_access(thread, base + 8 * i, 8, True, value=i)

        for i in range(WATCH_SLOTS + 1):
            store(i)
        # Slots full: the extra sample went unmonitored.
        assert sorted(thread.watch) == [base + 8 * i
                                        for i in range(WATCH_SLOTS)]
        machine.touch_range(thread, base + 4096,
                            base + 4096 + 64 * WATCH_PATIENCE, True)
        store(100)
        # Past the patience, the oldest watchpoint yields its slot.
        assert base not in thread.watch
        assert thread.watch[base + 800][0] == sid
