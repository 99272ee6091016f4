"""The one profiler lifecycle: attach, detach and frame resolution.

Every registry profiler, the three baselines and the trace writer
inherit :meth:`~repro.obs.collector.Collector.attach`,
:meth:`~repro.obs.collector.Collector.detach` and
:meth:`~repro.obs.collector.Collector.frame_resolver`, so these tests
pin the contract once for all of them: a collector attaches once,
detaching closes exactly the samplers it opened, and a collector that
was never attached refuses to resolve frames with the one offline
error.
"""

import pytest

from repro.baselines import (
    AllocFrequencyProfiler,
    CodeCentricProfiler,
    ReuseDistanceProfiler,
)
from repro.core import DJXPerf, DjxConfig
from repro.core.javaagent import instrument_program
from repro.families import FAMILIES
from repro.jvm import Machine
from repro.obs.trace import TraceWriter
from repro.workloads import get_workload

CONFIG = DjxConfig(sample_period=64, size_threshold=0)


def _registry(cls):
    return lambda path: cls(CONFIG)


#: name → factory(trace path) for every collector with the lifecycle.
FACTORIES = {
    **{name: _registry(cls) for name, cls in FAMILIES.items()},
    "codecentric": lambda path: CodeCentricProfiler(sample_period=64),
    "allocfreq": lambda path: AllocFrequencyProfiler(),
    "reusedist": lambda path: ReuseDistanceProfiler(),
    "trace-writer": lambda path: TraceWriter(path),
}


@pytest.fixture
def make(tmp_path):
    """Build collectors of one kind; trace writers are closed after."""
    built = []

    def build(name):
        collector = FACTORIES[name](str(tmp_path / f"{len(built)}.jsonl"))
        built.append(collector)
        return collector

    yield build
    for collector in built:
        if isinstance(collector, TraceWriter):
            collector.close()


def _machine():
    workload = get_workload("objectlayout")
    return Machine(instrument_program(workload.build_verified()),
                   workload.machine_config())


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestLifecycle:
    def test_second_attach_raises(self, name, make):
        machine = _machine()
        collector = make(name).attach(machine)
        samplers = dict(machine.bus._samplers)
        with pytest.raises(RuntimeError, match="already attached"):
            collector.attach(machine)
        # The refused attach subscribed and opened nothing.
        assert machine.bus.collectors == [collector]
        assert machine.bus._samplers == samplers

    def test_detach_alone_stops_all_sampling(self, name, make):
        machine = _machine()
        collector = make(name).attach(machine)
        assert len(machine.bus._samplers) == len(collector.events)
        machine.run(max_instructions=20000)
        collector.detach()
        assert not machine.bus.sampling
        assert machine.bus.collectors == []
        machine.run()
        # What was collected stays readable after detach.
        assert callable(collector.frame_resolver())

    def test_detach_closes_exactly_its_own_samplers(self, name, make):
        machine = _machine()
        bystander = DJXPerf(CONFIG).attach(machine)
        kept = set(machine.bus._samplers)
        collector = make(name).attach(machine)
        assert len(machine.bus._samplers) \
            == len(kept) + len(collector.events)
        collector.detach()
        assert set(machine.bus._samplers) == kept
        assert machine.bus.collectors == [bystander]

    def test_offline_frame_resolver_raises(self, name, make):
        with pytest.raises(RuntimeError,
                           match="not attached to a machine"):
            make(name).frame_resolver()
