"""Profiler families beyond DJXPerf, built on the observation bus.

DJXPerf's attribution substrate — allocation-site call paths, the
interval splay tree over live object ranges, GC relocation handling and
the offline analyzer — generalises past memory bloat.  This package
hosts the sibling-paper families; each subclasses the DJXPerf agent
(:class:`~repro.families.base.ObjectFamilyProfiler`):

* :class:`ReplicaProfiler` — OJXPerf-style object replica detection:
  objects whose heap contents are identical are grouped, and
  allocation sites are ranked by replicated bytes weighted by sampled
  cache misses.
* :class:`RedundancyProfiler` — JXPerf-style (Su & Chabbi) load/store
  redundancy: sampled loads and stores arm watchpoints whose traps flag
  dead stores and silent stores/loads, attributed to the allocation
  site of the touched object.

Both families sample, as DJXPerf does: neither sets ``wants_accesses``,
so the machine keeps its fast path, and both run **offline** against
recorded traces (:func:`replay_family`) exactly as they run live.
"""

from repro.families.base import ObjectFamilyProfiler
from repro.families.redundancy import RedundancyProfiler
from repro.families.replica import ReplicaProfiler

#: family name → profiler class, the registry CLI/serve paths use.
FAMILIES = {
    ReplicaProfiler.label: ReplicaProfiler,
    RedundancyProfiler.label: RedundancyProfiler,
}

#: Every profiler family selectable via ``--family`` (DJXPerf included).
FAMILY_CHOICES = ("djxperf",) + tuple(sorted(FAMILIES))


def make_family(name: str, machine=None, sample_period: int = 64,
                size_threshold: int = 0) -> ObjectFamilyProfiler:
    """Construct a family profiler by registry name."""
    try:
        cls = FAMILIES[name]
    except KeyError:
        raise KeyError(f"unknown profiler family {name!r}; "
                       f"have {sorted(FAMILIES)}") from None
    return cls(machine=machine, sample_period=sample_period,
               size_threshold=size_threshold)


def replay_family(trace_path: str, family: str, sample_period: int = 64,
                  size_threshold: int = 0):
    """Re-run a family analyzer over a recorded trace (no simulation).

    Any trace of a family run will do: its samples, watchpoint traps
    and object contents are the family's whole input.  The replay runs
    at the recorded sampling period; asking for another raises
    ``ValueError``.  Returns the same
    :class:`~repro.core.analyzer.AnalysisResult` the live run produces,
    byte-identical under ``to_dict``.
    """
    from repro.obs.replay import replay_events

    collector = make_family(family, machine=None,
                            sample_period=sample_period,
                            size_threshold=size_threshold)
    collector.enabled = True
    reader = replay_events(trace_path, [collector])
    return collector.analyze(reader.frame_resolver())


__all__ = [
    "FAMILIES",
    "FAMILY_CHOICES",
    "ObjectFamilyProfiler",
    "RedundancyProfiler",
    "ReplicaProfiler",
    "make_family",
    "replay_family",
]
