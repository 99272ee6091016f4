"""Code-centric PMU profiler — the Linux perf / VTune baseline.

Consumes the *same* PMU sample stream as DJXPerf but attributes each
sample only to the sampled code location (method + line, with full call
path), with no notion of objects.  This is the comparison in the paper's
Figure 1: code-centric profiles fragment an object's misses across the
many instructions that touch it, so no single code location reveals the
problematic object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.profile import FrameResolver, RawPath, ResolvedFrame
from repro.jvm.machine import Machine
from repro.jvmti.agent_iface import JvmtiEnv
from repro.obs.collector import Collector
from repro.obs.events import SampleEvent
from repro.pmu.events import L1_MISS, PmuEvent


@dataclass
class CodeLocationStats:
    """Samples attributed to one source location (the leaf frame)."""

    location: ResolvedFrame
    samples: Dict[str, int] = field(default_factory=dict)
    call_paths: Dict[RawPath, int] = field(default_factory=dict)

    def total(self, event: str) -> int:
        return self.samples.get(event, 0)


@dataclass
class CodeCentricResult:
    """Ranked code-centric profile."""

    primary_event: str
    locations: List[CodeLocationStats]
    total_samples: Dict[str, int]

    def total(self, event: Optional[str] = None) -> int:
        return self.total_samples.get(event or self.primary_event, 0)

    def share(self, stats: CodeLocationStats,
              event: Optional[str] = None) -> float:
        total = self.total(event)
        if total == 0:
            return 0.0
        return stats.total(event or self.primary_event) / total

    def top_locations(self, n: int = 10,
                      event: Optional[str] = None) -> List[CodeLocationStats]:
        event = event or self.primary_event
        return sorted(self.locations, key=lambda s: s.total(event),
                      reverse=True)[:n]


class CodeCentricProfiler(Collector):
    """perf-record analogue over the bus-hosted PMU.

    Opens its own samplers (same events, same period as DJXPerf would)
    and consumes only SampleEvents carrying its sampler ids — several
    PMU profilers can sample one run side by side, each with independent
    counters, exactly like multiple perf sessions on one process.

    Samples-only: it attributes to code locations, never to objects, so
    it opts out of allocation events too — attaching just this profiler
    leaves both per-access AND per-allocation event construction off.
    """

    label = "codecentric"
    wants_allocs = False

    def __init__(self, events: "tuple[PmuEvent, ...]" = (L1_MISS,),
                 sample_period: int = 64) -> None:
        if sample_period <= 0:
            raise ValueError("sample_period must be positive")
        super().__init__()
        self.events = list(events)
        self.sample_period = sample_period
        self.machine: Optional[Machine] = None
        self.env: Optional[JvmtiEnv] = None
        self._sampler_ids: Set[int] = set()
        #: (method_id, bci) leaf → per-event counts + call paths
        self._by_leaf: Dict[Tuple[int, int], Dict] = {}
        self.total_samples: Dict[str, int] = {}
        self.enabled = False

    def attach(self, machine: Machine) -> None:
        self.machine = machine
        self.env = JvmtiEnv(machine)
        self.enabled = True
        machine.bus.subscribe(self)
        for event in self.events:
            self._sampler_ids.add(
                machine.bus.open_sampler(event, self.sample_period,
                                         owner=self.label))

    def detach(self) -> None:
        self.enabled = False
        if self.bus is not None:
            for sampler_id in self._sampler_ids:
                self.bus.close_sampler(sampler_id)
            self.bus.unsubscribe(self)

    # ------------------------------------------------------------------
    def on_sample(self, event: SampleEvent) -> None:
        if not self.enabled or event.sampler_id not in self._sampler_ids:
            return
        path = event.path
        if not path:
            return
        self.total_samples[event.event] = \
            self.total_samples.get(event.event, 0) + 1
        leaf = path[-1]
        record = self._by_leaf.setdefault(
            leaf, {"samples": {}, "paths": {}})
        record["samples"][event.event] = \
            record["samples"].get(event.event, 0) + 1
        record["paths"][path] = record["paths"].get(path, 0) + 1

    # ------------------------------------------------------------------
    def analyze(self, resolver: FrameResolver,
                event: Optional[str] = None) -> CodeCentricResult:
        """Merge leaves that resolve to the same source location."""
        primary = event or self.events[0].name
        merged: Dict[Tuple[str, str, str, int], CodeLocationStats] = {}
        for leaf, record in self._by_leaf.items():
            location = resolver(leaf)
            key = location.as_tuple()
            stats = merged.get(key)
            if stats is None:
                stats = CodeLocationStats(location=location)
                merged[key] = stats
            for name, count in record["samples"].items():
                stats.samples[name] = stats.samples.get(name, 0) + count
            for path, count in record["paths"].items():
                stats.call_paths[path] = stats.call_paths.get(path, 0) + count
        locations = sorted(merged.values(),
                           key=lambda s: s.total(primary), reverse=True)
        return CodeCentricResult(
            primary_event=primary,
            locations=locations,
            total_samples=dict(self.total_samples))

    def frame_resolver(self) -> FrameResolver:
        env = self.env
        if env is None:
            raise RuntimeError("profiler not attached")
        return env.frame_resolver()
