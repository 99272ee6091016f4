"""Object-replica profiler (the OJXPerf family).

OJXPerf [ICSE'22] finds *replicated objects*: byte-identical objects
produced over and over by the same allocation sites — duplicate strings,
re-parsed configs, re-materialised lookup tables.  Memory they occupy
and the cache misses spent touching them are pure overhead relative to
sharing one canonical instance.

The simulator port keeps the paper's shape while riding the DJXPerf
attribution substrate:

* The **content hash** comes from a write-through shadow: every scalar
  store carries its canonicalised value on the
  :class:`~repro.obs.events.AccessEvent`, and the profiler mirrors it
  into a per-object ``{offset: value}`` shadow.  Two objects are
  replicas when type, size and final shadow contents all match —
  including the all-default (never-written) case, which real replica
  detectors flag too.  Building content from the event stream rather
  than by hashing live heap bytes is what lets the exact same analysis
  run offline against a recorded trace.
* The **cost weight** comes from a sampled PMU event (L1D misses, like
  DJXPerf's default): sites are ranked by
  ``replica-bytes * (1 + sampled misses)``, so a site producing many
  replicas that are also hot dominates one producing cold duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.analyzer import AnalysisResult
from repro.families.base import FamilyObject, ObjectFamilyProfiler
from repro.obs.events import AccessEvent
from repro.pmu.events import L1_MISS


@dataclass
class ReplicaObject(FamilyObject):
    """Tracked object plus its write-through content shadow."""

    shadow: Dict[int, object] = field(default_factory=dict)

    def content_key(self) -> tuple:
        # Offsets are unique ints, so sorting never compares values
        # (which may be of mixed, unorderable types).
        return tuple(sorted(self.shadow.items()))


class ReplicaProfiler(ObjectFamilyProfiler):
    """Rank allocation sites by replicated bytes weighted by misses."""

    label = "replica"
    wants_accesses = True
    wants_allocs = True
    primary_metric = "replica-score"

    #: The sampled PMU event is the cost weight.
    events = (L1_MISS,)
    payload_type = ReplicaObject

    # ------------------------------------------------------------------
    # Content shadow
    # ------------------------------------------------------------------
    def on_access(self, event: AccessEvent) -> None:
        if not self.enabled:
            return
        self.stats.accesses_seen += 1
        self.charge(event.thread, self.costs.access_check)
        if not event.is_write or event.value is None:
            return
        obj = self.splay.lookup(event.address)
        if obj is None:
            self.stats.accesses_untracked += 1
            return
        obj.shadow[event.address - obj.addr] = event.value

    # ------------------------------------------------------------------
    # Replica grouping (analyze time; final shadows are the contents)
    # ------------------------------------------------------------------
    def _derive_metrics(self) -> None:
        # Assign from scratch so analyze() stays idempotent.
        for profile in self.profiles.values():
            for site in profile.sites.values():
                site.metrics.pop("replica-bytes", None)
                site.metrics.pop("replicas", None)
        firsts: Dict[tuple, ReplicaObject] = {}
        for obj in self._objects:
            key = (obj.type_name, obj.size, obj.content_key())
            if key not in firsts:
                # The first object with these contents is the canonical
                # instance; only the duplicates after it are waste.
                firsts[key] = obj
                continue
            metrics = self.profile_of(obj.alloc_tid) \
                .site(obj.alloc_path).metrics
            metrics["replica-bytes"] = \
                metrics.get("replica-bytes", 0) + obj.size
            metrics["replicas"] = metrics.get("replicas", 0) + 1

    def _rank(self, result: AnalysisResult) -> AnalysisResult:
        miss_event = self.events[0].name
        total_bytes = total_score = total_replicas = 0
        for site in result.sites:
            replica_bytes = site.metrics.get("replica-bytes", 0)
            score = replica_bytes * (1 + site.metrics.get(miss_event, 0))
            site.metrics["replica-score"] = score
            total_bytes += replica_bytes
            total_score += score
            total_replicas += site.metrics.get("replicas", 0)
        totals = result.total_samples
        totals["replica-score"] = total_score
        totals["replica-bytes"] = total_bytes
        totals["replicas"] = total_replicas
        sites = sorted(result.sites,
                       key=lambda s: s.metric("replica-score"), reverse=True)
        return AnalysisResult(primary_event=self.primary_metric, sites=sites,
                              total_samples=totals,
                              unknown_samples=result.unknown_samples,
                              thread_count=result.thread_count)

    def _shadow_cells(self) -> int:
        return sum(len(obj.shadow) for obj in self._objects)
