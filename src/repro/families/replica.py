"""Object-replica profiler (the OJXPerf family).

OJXPerf [ICSE'22] finds *replicated objects*: byte-identical objects
produced over and over by the same allocation sites — duplicate strings,
re-parsed configs, re-materialised lookup tables.  Memory they occupy
and the cache misses spent touching them are pure overhead relative to
sharing one canonical instance.

The simulator port keeps the paper's shape while riding the DJXPerf
attribution substrate:

* The **content** is read from the simulated heap, not mirrored from
  the access stream: the machine digests each object's payload as the
  object dies and, for survivors, when the run ends, and publishes an
  :class:`~repro.obs.events.ObjectContentEvent` to collectors that set
  ``wants_contents``.  Two objects are replicas when type, size and
  final content digest match — including the all-default (never
  written) case, which real replica detectors flag too.  Because the
  digests ride the recordable event stream, the exact same analysis
  runs offline against a recorded trace.
* The **cost weight** comes from a sampled PMU event (L1D misses, like
  DJXPerf's default): sites are ranked by
  ``replica-bytes * (1 + sampled misses)``, so a site producing many
  replicas that are also hot dominates one producing cold duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.analyzer import AnalysisResult
from repro.core.profile import TrackedObject
from repro.families.base import ObjectFamilyProfiler
from repro.obs.events import ObjectContentEvent
from repro.pmu.events import L1_MISS


@dataclass
class ReplicaObject(TrackedObject):
    """Tracked object plus its content digest, once read."""

    content: Optional[str] = None


class ReplicaProfiler(ObjectFamilyProfiler):
    """Rank allocation sites by replicated bytes weighted by misses."""

    label = "replica"
    wants_contents = True
    primary_metric = "replica-score"

    #: The sampled PMU event is the cost weight.
    events = (L1_MISS,)
    payload_type = ReplicaObject
    object_hooks = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Every tracked object ever, in allocation order.
        self._objects: List[ReplicaObject] = []

    def _tracked(self, obj: ReplicaObject, addr: int) -> None:
        self._objects.append(obj)

    def on_object_content(self, event: ObjectContentEvent) -> None:
        if not self.enabled:
            return
        obj = self.splay.lookup(event.addr)
        if isinstance(obj, ReplicaObject):
            obj.content = event.digest

    # ------------------------------------------------------------------
    # Replica grouping (analyze time; the last read is the content)
    # ------------------------------------------------------------------
    def _derive_metrics(self) -> None:
        # Assign from scratch so analyze() stays idempotent.
        for profile in self.profiles.values():
            for site in profile.sites.values():
                site.metrics.pop("replica-bytes", None)
                site.metrics.pop("replicas", None)
        firsts: Dict[tuple, ReplicaObject] = {}
        for obj in self._objects:
            if obj.content is None:
                continue            # never read (the run did not end)
            key = (obj.type_name, obj.size, obj.content)
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
        return sum(obj.content is not None for obj in self._objects)
