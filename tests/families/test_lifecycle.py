"""Capability-union lifecycle: families on the shared event bus.

The bus builds AccessEvents/AllocEvents only while the refcounted union
of subscribed collectors wants them.  Families sample, as DJXPerf does:
these tests pin that attaching one opts the machine into allocation
events (and, for the replica family, object contents) but never into
the raw access stream, so a family run keeps the skip-ahead, fused
fast path; detaching drops back out, and running alongside DJXPerf
keeps both profilers whole.
"""

import pytest

from repro.baselines.codecentric import CodeCentricProfiler
from repro.core import DjxConfig, DJXPerf
from repro.core.javaagent import instrument_program
from repro.families import make_family
from repro.families.redundancy import RedundancyProfiler
from repro.families.replica import ReplicaProfiler
from repro.jvm.machine import Machine
from repro.workloads import get_workload
from repro.workloads.planted import PLANTED_SITES

PERIOD = 64


def _machine(name="dup-strings"):
    workload = get_workload(name)
    program = instrument_program(workload.build_verified())
    return Machine(program, workload.machine_config())


def _wanted(bus):
    return (bus._accesses_wanted, bus._allocs_wanted, bus._contents_wanted)


class TestCapabilityUnion:
    def test_family_attach_raises_alloc_refcount_only(self):
        machine = _machine()
        bus = machine.bus
        assert _wanted(bus) == (0, 0, 0)
        replica = ReplicaProfiler(sample_period=PERIOD).attach(machine)
        assert _wanted(bus) == (0, 1, 1)
        redundancy = RedundancyProfiler(sample_period=PERIOD).attach(machine)
        assert _wanted(bus) == (0, 2, 1)
        redundancy.detach()
        assert _wanted(bus) == (0, 1, 1)
        replica.detach()
        assert _wanted(bus) == (0, 0, 0)

    def test_djxperf_contributes_allocs_only(self):
        machine = _machine()
        bus = machine.bus
        djx = DJXPerf(DjxConfig(sample_period=PERIOD))
        djx.attach(machine)
        assert (bus._accesses_wanted, bus._allocs_wanted) == (0, 1)
        family = RedundancyProfiler(sample_period=PERIOD).attach(machine)
        assert (bus._accesses_wanted, bus._allocs_wanted) == (0, 2)
        family.detach()
        # DJXPerf's alloc subscription survives the family's departure.
        assert (bus._accesses_wanted, bus._allocs_wanted) == (0, 1)

    def test_zero_capability_collectors_build_no_events(self):
        # A family attached then detached before the run must leave the
        # machine on the demand-driven skip path: a samples-only
        # collector set builds zero Access/Alloc events end to end.
        machine = _machine()
        RedundancyProfiler(sample_period=PERIOD).attach(machine).detach()
        perf = CodeCentricProfiler(sample_period=PERIOD)
        perf.attach(machine)
        machine.run()
        bus = machine.bus
        assert sum(perf.total_samples.values()) > 0
        assert bus.access_events_built == 0
        assert bus.alloc_events_built == 0

    def test_attached_family_builds_allocs_not_accesses(self):
        machine = _machine()
        family = ReplicaProfiler(sample_period=PERIOD).attach(machine)
        machine.run()
        bus = machine.bus
        assert bus.access_events_built == 0
        assert bus.alloc_events_built > 0
        assert family.stats.allocations_seen == bus.alloc_events_built


#: Fused guard bailouts of one family run when families read the raw
#: access stream (every observed block bailed); the sampled families
#: must stay under 5% of these.
FULL_STREAM_BAILOUTS = {"dead-stores": 80965, "dup-strings": 76840}


class _StreamingReplica(ReplicaProfiler):
    """A family that (wrongly) asks for the raw access stream."""

    wants_accesses = True


def _assert_fast_path(name, family_cls):
    machine = _machine(name)
    family_cls(sample_period=PERIOD).attach(machine)
    machine.run()
    assert machine.bus.access_events_built == 0
    assert machine.fusion.guard_bailouts \
        < FULL_STREAM_BAILOUTS[name] * 5 // 100


class TestFastPath:
    """Family runs stay on the skip-ahead, fused, pooled-L1 path."""

    @pytest.mark.parametrize("family_cls",
                             [RedundancyProfiler, ReplicaProfiler])
    @pytest.mark.parametrize("name", sorted(FULL_STREAM_BAILOUTS))
    def test_family_run_builds_no_access_events(self, name, family_cls):
        _assert_fast_path(name, family_cls)

    def test_a_family_wanting_accesses_fails(self):
        with pytest.raises(AssertionError):
            _assert_fast_path("dup-strings", _StreamingReplica)


class TestCoexistenceWithDjxperf:
    def test_family_and_djxperf_both_profile_one_run(self):
        workload = get_workload("dup-strings")
        program = instrument_program(workload.build_verified())
        machine = Machine(program, workload.machine_config())
        djx = DJXPerf(DjxConfig(sample_period=PERIOD))
        djx.attach(machine)
        family = ReplicaProfiler(sample_period=PERIOD).attach(machine)
        machine.run()

        _, (cls, method, line) = PLANTED_SITES["dup-strings"]
        analysis = family.analyze()
        top = analysis.top_sites(1)[0].leaf
        assert (top.class_name, top.method_name, top.line) \
            == (cls, method, line)
        # DJXPerf still resolves sites from the same run.
        djx_analysis = djx.analyze()
        assert djx_analysis.sites
        assert djx.agent.stats.allocations_seen > 0

    def test_detach_midstream_freezes_family_state(self):
        machine = _machine()
        family = make_family("redundancy", machine,
                             sample_period=PERIOD).attach()
        family.detach()
        machine.run()
        assert family.stats.traps_handled == 0
        assert family.stats.allocations_seen == 0
        assert machine.bus.access_events_built == 0
