"""Allocation-frequency profiler — the bytecode-instrumentation baseline.

Stands in for prior bloat detectors (Xu [OOPSLA'12] and similar) that
rank allocation sites purely by *how often* they allocate, with no
hardware metrics.  The paper's motivating examples (Listings 1–2) show
why this misleads: ``lusearch``'s collector object is allocated 15179
times but optimising it buys nothing, while ``batik``'s array at a
fraction of the allocation count dominates cache misses.

Unlike the PMU profilers this baseline observes *every* allocation
(fine-grained instrumentation), which is also why tools in this family
pay 30-200x overheads on real JVMs — here modelled by a per-allocation
cycle cost much larger than DJXPerf's sampled costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.profile import FrameResolver, RawPath, ResolvedPath
from repro.obs.collector import Collector
from repro.obs.events import AllocEvent


@dataclass
class AllocSiteCount:
    """Allocation statistics for one allocation call path."""

    path: ResolvedPath
    count: int = 0
    bytes: int = 0
    type_names: Dict[str, int] = field(default_factory=dict)

    @property
    def location(self) -> str:
        return self.path[-1].location if self.path else "<unknown>"


@dataclass
class AllocFreqResult:
    sites: List[AllocSiteCount]
    total_allocations: int

    def top_sites(self, n: int = 10) -> List[AllocSiteCount]:
        return sorted(self.sites, key=lambda s: s.count, reverse=True)[:n]


class AllocFrequencyProfiler(Collector):
    """Counts every allocation by call path via the instrumentation hook
    (the program must be instrumented with
    :func:`repro.core.javaagent.instrument_program`)."""

    label = "allocfreq"
    #: The allocation stream is this profiler's entire input.
    wants_allocs = True

    #: Heavy per-event cost of fine-grained instrumentation.
    CYCLES_PER_ALLOCATION = 2500

    def __init__(self, charge_overhead: bool = True) -> None:
        super().__init__()
        self.charge_overhead = charge_overhead
        self._counts: Dict[RawPath, Dict] = {}
        self.total_allocations = 0

    def on_alloc(self, event: AllocEvent) -> None:
        path = event.path
        record = self._counts.setdefault(
            path, {"count": 0, "bytes": 0, "types": {}})
        record["count"] += 1
        record["bytes"] += event.size
        record["types"][event.type_name] = \
            record["types"].get(event.type_name, 0) + 1
        self.total_allocations += 1
        if self.charge_overhead:
            self.charge(event.thread, self.CYCLES_PER_ALLOCATION)

    def analyze(self, resolver: Optional[FrameResolver] = None
                ) -> AllocFreqResult:
        resolver = resolver or self.frame_resolver()
        merged: Dict[tuple, AllocSiteCount] = {}
        for raw_path, record in self._counts.items():
            path = tuple(resolver(frame) for frame in raw_path)
            key = tuple(f.as_tuple() for f in path)
            site = merged.get(key)
            if site is None:
                site = AllocSiteCount(path=path)
                merged[key] = site
            site.count += record["count"]
            site.bytes += record["bytes"]
            for name, count in record["types"].items():
                site.type_names[name] = site.type_names.get(name, 0) + count
        sites = sorted(merged.values(), key=lambda s: s.count, reverse=True)
        return AllocFreqResult(sites=sites,
                               total_allocations=self.total_allocations)
