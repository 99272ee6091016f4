"""The profiler registry: DJXPerf and the families built on it.

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
recorded traces (:func:`repro.obs.replay.replay_analyze`) exactly as
they run live.
"""

from typing import Optional

from repro.core.profiler import DJXPerf, DjxConfig
from repro.families.base import ObjectFamilyProfiler
from repro.families.redundancy import RedundancyProfiler
from repro.families.replica import ReplicaProfiler

#: Profiler name → class: the one registry ``--family``,
#: :func:`~repro.workloads.runner.profile_program` and
#: :func:`~repro.obs.replay.replay_analyze` build profilers from.
FAMILIES = {cls.label: cls
            for cls in (DJXPerf, RedundancyProfiler, ReplicaProfiler)}


def make_family(name: str, config: Optional[DjxConfig] = None) -> DJXPerf:
    """Construct a registry profiler by name from ``config``."""
    try:
        cls = FAMILIES[name]
    except KeyError:
        raise KeyError(f"unknown profiler family {name!r}; "
                       f"have {sorted(FAMILIES)}") from None
    return cls(config)


__all__ = [
    "FAMILIES",
    "ObjectFamilyProfiler",
    "RedundancyProfiler",
    "ReplicaProfiler",
    "make_family",
]
