"""Reuse-distance profiler — the trace-based software-metric baseline.

The related work the paper positions against (§2.1) measures locality
with *software* metrics derived from full memory-access traces — reuse
distances, miss-ratio curves — e.g. ViRDA [Gu et al., PPPJ'09] for Java.
Those tools observe **every** access (fine-grained instrumentation),
which is where their 30-200x overheads come from, and they model cache
behaviour instead of measuring it.

This module implements that baseline properly:

* an exact LRU stack-distance algorithm over the line-granular access
  stream, using a Fenwick tree over access timestamps (O(log n) per
  access — the classical efficient formulation);
* a reuse-distance histogram and the derived miss-ratio curve, which
  predicts the miss ratio of *any* fully-associative LRU cache size
  from one trace;
* per-object aggregation (mean reuse distance and predicted misses per
  allocation site) so its ranking can be compared with DJXPerf's
  PMU-sampled ranking;
* an instrumentation cost model charging every traced access, so the
  overhead comparison in the ablation bench is honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.profile import FrameResolver, RawPath, ResolvedFrame
from repro.core.splay import IntervalSplayTree
from repro.obs.collector import Collector
from repro.obs.events import (
    AccessEvent,
    AllocEvent,
    GcFinalizeEvent,
    GcMoveEvent,
)

#: Bucket for first-ever accesses (infinite reuse distance).
COLD = -1


class FenwickTree:
    """Binary indexed tree over access timestamps (1-based)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._tree = [0] * (capacity + 1)

    def add(self, index: int, delta: int) -> None:
        if not 1 <= index <= self.capacity:
            raise IndexError(f"index {index} out of [1, {self.capacity}]")
        while index <= self.capacity:
            self._tree[index] += delta
            index += index & (-index)

    def prefix_sum(self, index: int) -> int:
        if index > self.capacity:
            index = self.capacity
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & (-index)
        return total

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum over [lo, hi] inclusive."""
        if hi < lo:
            return 0
        return self.prefix_sum(hi) - self.prefix_sum(lo - 1)


class ReuseDistanceTracker:
    """Exact LRU stack distances over a stream of cache-line ids.

    On each access the distance is the number of *distinct* lines
    accessed since this line's previous access (the LRU stack depth).
    Implemented with the last-access-time map + Fenwick-tree-marking
    formulation: O(log n) per access, n = trace length.
    """

    def __init__(self, capacity_hint: int = 1 << 20) -> None:
        self._time = 0
        self._capacity = capacity_hint
        self._fenwick = FenwickTree(capacity_hint)
        self._last_access: Dict[int, int] = {}
        self.histogram: Dict[int, int] = {}
        self.accesses = 0

    def _grow(self) -> None:
        new = FenwickTree(self._capacity * 2)
        for t in self._last_access.values():
            new.add(t, 1)
        self._fenwick = new
        self._capacity *= 2

    def access(self, line: int) -> int:
        """Record one access; returns its reuse distance (COLD if first)."""
        self._time += 1
        if self._time > self._capacity:
            self._grow()
        now = self._time
        last = self._last_access.get(line)
        if last is None:
            distance = COLD
        else:
            # Distinct lines touched strictly after `last`.
            distance = self._fenwick.range_sum(last + 1, now - 1)
            self._fenwick.add(last, -1)
        self._fenwick.add(now, 1)
        self._last_access[line] = now
        self.histogram[distance] = self.histogram.get(distance, 0) + 1
        self.accesses += 1
        return distance

    # ------------------------------------------------------------------
    def miss_ratio_curve(self, capacities: List[int]) -> List[float]:
        """Predicted miss ratio of an LRU cache of ``c`` lines, per c.

        An access misses iff its reuse distance is >= the capacity (or
        cold).  This is the classical MRC construction from the stack
        histogram.
        """
        if self.accesses == 0:
            return [0.0 for _ in capacities]
        finite = sorted((d, n) for d, n in self.histogram.items()
                        if d != COLD)
        cold = self.histogram.get(COLD, 0)
        out = []
        for capacity in capacities:
            hits = sum(n for d, n in finite if d < capacity)
            out.append(1.0 - hits / self.accesses)
        return out

    def mean_distance(self) -> float:
        """Mean finite reuse distance (cold accesses excluded)."""
        finite = [(d, n) for d, n in self.histogram.items() if d != COLD]
        total = sum(n for _, n in finite)
        if total == 0:
            return 0.0
        return sum(d * n for d, n in finite) / total


@dataclass
class ObjectReuseStats:
    """Per-allocation-site locality metrics from the trace."""

    path: RawPath
    accesses: int = 0
    cold: int = 0
    distance_sum: int = 0
    #: accesses with distance >= the modelled cache size (predicted misses)
    predicted_misses: int = 0

    @property
    def mean_distance(self) -> float:
        finite = self.accesses - self.cold
        return self.distance_sum / finite if finite else 0.0


@dataclass
class ReuseDistanceResult:
    sites: List["ResolvedReuseSite"]
    histogram: Dict[int, int]
    total_accesses: int
    modelled_cache_lines: int

    def top_sites(self, n: int = 10) -> List["ResolvedReuseSite"]:
        return sorted(self.sites, key=lambda s: s.predicted_misses,
                      reverse=True)[:n]


@dataclass
class ResolvedReuseSite:
    path: Tuple[ResolvedFrame, ...]
    accesses: int
    cold: int
    mean_distance: float
    predicted_misses: int

    @property
    def location(self) -> str:
        return self.path[-1].location if self.path else "<unknown>"


class ReuseDistanceProfiler(Collector):
    """Trace-based locality profiler (the ViRDA-style baseline).

    A full-trace bus collector: sets ``wants_accesses`` so the bus
    delivers *every* raw memory access (no sampling), computes exact
    reuse distances, and attributes them to allocation sites through the
    same AllocEvents DJXPerf consumes.  ``CYCLES_PER_ACCESS`` models the
    fine-grained instrumentation cost that gives this tool family its
    30-200x overhead.
    """

    label = "reusedist"
    wants_accesses = True
    wants_allocs = True

    CYCLES_PER_ACCESS = 300
    CYCLES_PER_ALLOCATION = 400

    def __init__(self, modelled_cache_lines: int = 128,
                 line_size: int = 64, charge_overhead: bool = True) -> None:
        super().__init__()
        self.modelled_cache_lines = modelled_cache_lines
        self.line_size = line_size
        self.charge_overhead = charge_overhead
        self.tracker = ReuseDistanceTracker()
        self._splay = IntervalSplayTree()
        self._sites: Dict[RawPath, ObjectReuseStats] = {}

    # ------------------------------------------------------------------
    def _charge(self, thread, cycles: int) -> None:
        if self.charge_overhead:
            self.charge(thread, cycles)

    # ------------------------------------------------------------------
    def on_alloc(self, event: AllocEvent) -> None:
        if not self.enabled:
            return
        path = event.path
        self._splay.insert(event.addr, event.end, path)
        self._sites.setdefault(path, ObjectReuseStats(path))
        self._charge(event.thread, self.CYCLES_PER_ALLOCATION)

    def on_access(self, event: AccessEvent) -> None:
        if not self.enabled:
            return
        line = event.address // self.line_size
        distance = self.tracker.access(line)
        path = self._splay.lookup(event.address)
        if path is not None:
            stats = self._sites.setdefault(path, ObjectReuseStats(path))
            stats.accesses += 1
            if distance == COLD:
                stats.cold += 1
            else:
                stats.distance_sum += distance
            if distance == COLD or distance >= self.modelled_cache_lines:
                stats.predicted_misses += 1
        self._charge(event.thread, self.CYCLES_PER_ACCESS)

    def on_gc_move(self, event: GcMoveEvent) -> None:
        if not self.enabled:
            return
        payload = self._splay.remove_start(event.src)
        if payload is not None:
            self._splay.insert(event.dst, event.dst + event.size, payload)

    def on_gc_finalize(self, event: GcFinalizeEvent) -> None:
        if not self.enabled:
            return
        self._splay.remove_start(event.addr)

    # ------------------------------------------------------------------
    def analyze(self, resolver: Optional[FrameResolver] = None
                ) -> ReuseDistanceResult:
        resolver = resolver or self.frame_resolver()
        sites = [
            ResolvedReuseSite(
                path=tuple(resolver(f) for f in stats.path),
                accesses=stats.accesses,
                cold=stats.cold,
                mean_distance=stats.mean_distance,
                predicted_misses=stats.predicted_misses)
            for stats in self._sites.values()
        ]
        sites.sort(key=lambda s: s.predicted_misses, reverse=True)
        return ReuseDistanceResult(
            sites=sites,
            histogram=dict(self.tracker.histogram),
            total_accesses=self.tracker.accesses,
            modelled_cache_lines=self.modelled_cache_lines)
