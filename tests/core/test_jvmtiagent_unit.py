"""Unit-level tests of the JVMTI agent's GC-handling edge cases.

These call the agent's typed event handlers directly (the same entry
points :meth:`~repro.obs.collector.Collector.handle_batch` dispatches
to), simulating GC activity by hand.  The profiler families subclass
the agent, so the shared-protocol tests run over every family too.
"""

import pytest

from repro.core import AgentCostModel, DJXPerf, DjxConfig
from repro.families.redundancy import RedundancyProfiler
from repro.families.replica import ReplicaProfiler
from repro.heap.layout import Kind
from repro.jvm import JProgram, Machine, MachineConfig, MethodBuilder
from repro.obs.events import (
    GcFinalizeEvent,
    GcMoveEvent,
    GcNotifyEvent,
    SampleEvent,
)

from tests.jvm.helpers import counting_loop


#: Every collector that runs the agent's attribution protocol
#: (DJXPerf's id names its role: the JVMTI agent).
COLLECTORS = [pytest.param(DJXPerf, id="DjxJvmtiAgent"),
              ReplicaProfiler, RedundancyProfiler]


def alloc_program(iterations=5):
    p = JProgram()
    b = MethodBuilder("C", "main")
    counting_loop(b, iterations, 0,
                  lambda b: b.iconst(256).newarray(Kind.INT).store(1))
    b.ret()
    p.add_builder(b)
    p.add_entry("main")
    return p


def attached_agent(iterations=5, heap=1024 * 1024, threshold=0,
                   cls=DJXPerf):
    profiler = cls(DjxConfig(sample_period=64, size_threshold=threshold))
    machine = Machine(profiler.instrument(alloc_program(iterations)),
                      MachineConfig(heap_size=heap))
    profiler.attach(machine)
    return profiler, machine


def ran_collector(cls):
    """A ``cls`` collector attached to a finished run, and its machine."""
    profiler, machine = attached_agent(cls=cls)
    machine.run()
    return profiler, machine


def gc_notify(gc_id=1, reclaimed_objects=0, reclaimed_bytes=0,
              moved_objects=0, moved_bytes=0):
    return GcNotifyEvent(gc_id=gc_id, reclaimed_objects=reclaimed_objects,
                         reclaimed_bytes=reclaimed_bytes,
                         moved_objects=moved_objects,
                         moved_bytes=moved_bytes, live_bytes=0,
                         pause_cycles=0)


class TestRelocationMap:
    @pytest.mark.parametrize("cls", COLLECTORS)
    def test_memmove_buffered_until_notification(self, cls):
        agent, _machine = ran_collector(cls)
        # Simulate GC activity by hand: one tracked object "moves".
        start, end, payload = next(iter(agent.splay))
        size = end - start
        agent.on_gc_move(GcMoveEvent(oid=0, src=start, dst=0x9000,
                                     size=size))
        # Not yet applied: lookups still resolve the old address.
        assert agent.splay.lookup(start) is payload
        assert agent._relocation_map == {start: (0x9000, size)}
        agent.on_gc_notification(gc_notify(moved_objects=1,
                                           moved_bytes=size))
        assert agent.splay.lookup(start) is None
        assert agent.splay.lookup(0x9000) is payload
        assert agent._relocation_map == {}

    def test_move_of_untracked_object_inserts_unknown(self):
        profiler, machine = attached_agent()
        machine.run()
        agent = profiler
        agent.on_gc_move(GcMoveEvent(oid=0, src=0x777000, dst=0x888000,
                                     size=64))
        agent.on_gc_notification(gc_notify(moved_objects=1, moved_bytes=64))
        tracked = agent.splay.lookup(0x888000)
        assert tracked is not None
        assert tracked.known is False
        assert agent.stats.relocations_unknown == 1

    @pytest.mark.parametrize("cls", COLLECTORS)
    def test_finalize_cancels_pending_relocation(self, cls):
        agent, _machine = ran_collector(cls)
        start, end, _payload = next(iter(agent.splay))
        size = end - start
        agent.on_gc_move(GcMoveEvent(oid=0, src=start, dst=0xA000,
                                     size=size))
        agent.on_gc_finalize(GcFinalizeEvent(oid=0, addr=start, size=size,
                                             type_name="int[]"))
        agent.on_gc_notification(gc_notify(reclaimed_objects=1,
                                           reclaimed_bytes=size))
        # Reclaimed object must not be resurrected at its destination.
        assert agent.splay.lookup(0xA000) is None
        assert agent.splay.lookup(start) is None

    def test_unknown_object_samples_counted_unknown(self):
        profiler, machine = attached_agent()
        machine.run()
        agent = profiler
        agent.on_gc_move(GcMoveEvent(oid=0, src=0x777000, dst=0x888000,
                                     size=64))
        agent.on_gc_notification(gc_notify(moved_objects=1, moved_bytes=64))
        # A sample landing in the unknown interval is recorded as
        # unknown, not attributed to a bogus path.
        thread = machine.threads[0]
        sampler_id = next(iter(agent._sampler_ids))
        before = agent.stats.samples_unknown
        agent.on_sample(SampleEvent(
            sampler_id=sampler_id, event="MEM_LOAD_UOPS_RETIRED:L1_MISS",
            tid=thread.tid, cpu=0, address=0x888010, size=8,
            is_write=False, latency=200, level="DRAM", home_node=0,
            remote=False, path=(), thread=thread))
        assert agent.stats.samples_unknown == before + 1

    @pytest.mark.parametrize("cls", COLLECTORS)
    def test_foreign_sampler_ignored(self, cls):
        agent, machine = ran_collector(cls)
        thread = machine.threads[0]
        foreign = max(agent._sampler_ids, default=0) + 1000
        before = agent.stats.samples_handled
        agent.on_sample(SampleEvent(
            sampler_id=foreign, event="MEM_LOAD_UOPS_RETIRED:L1_MISS",
            tid=thread.tid, cpu=0, address=0x888010, size=8,
            is_write=False, latency=200, level="DRAM", home_node=0,
            remote=False, path=(), thread=thread))
        assert agent.stats.samples_handled == before


class TestDisabledAgent:
    @pytest.mark.parametrize("cls", COLLECTORS)
    def test_events_ignored_after_stop(self, cls):
        agent, _machine = ran_collector(cls)
        agent.detach()
        before = len(agent.splay)
        agent.on_gc_move(GcMoveEvent(oid=0, src=0x1, dst=0x2, size=8))
        assert agent._relocation_map == {}
        agent.on_gc_finalize(GcFinalizeEvent(oid=0, addr=0x1, size=8,
                                             type_name="x"))
        assert len(agent.splay) == before


class TestCostCharging:
    def test_alloc_dispatch_charged_even_when_filtered(self):
        costs = AgentCostModel()
        profiler, machine = attached_agent(threshold=1 << 20)  # filter all
        machine.run()
        agent = profiler
        assert agent.stats.allocations_seen == 5
        assert agent.stats.allocations_filtered == 5
        # Dispatch cost must have been charged for each filtered alloc;
        # full hook cost must not (no splay entries).
        assert len(agent.splay) == 0
        # Per-collector accounting: at least the five dispatch charges,
        # but none of the alloc_hook_base charges (all filtered).
        assert agent.charged_cycles >= 5 * costs.alloc_hook_dispatch
        alloc_charges = agent.charged_cycles - 5 * costs.alloc_hook_dispatch
        # Remaining charges are all sample handling, in sample_base units.
        assert agent.stats.samples_handled > 0 or alloc_charges == 0