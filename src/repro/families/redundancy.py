"""Dead-store / silent-load profiler (the JXPerf family).

JXPerf [FSE'19] samples precise loads and stores with the PMU and arms
a hardware debug register (a watchpoint) on each sampled address; the
next access to that address traps, and comparing the trapping access
with the sampled one flags three wasteful patterns:

* **dead store** — a sampled store whose address is stored to again
  before anything loads it;
* **silent store** — a store writing the value the sampled store
  already wrote;
* **silent load** — a load observing the value the sampled load
  already returned.

The port follows that design: ``ALL_STORES`` and ``ALL_LOADS`` samplers
opened with ``watch=True`` arm one of the thread's four watchpoints in
the machine (:mod:`repro.obs.bus`), and each trap arrives as a
:class:`~repro.obs.events.WatchTrapEvent` carrying the armed and the
trapping value.  Verdicts are attributed DJXPerf-style to the
allocation site of the watched object.  The rank metric ``redundancy``
counts the three kinds; ``redundancy-permille`` is the share of the
site's sampled accesses whose watchpoint found one (x1000, an integer).

Counts are samples, bounded by four watchpoints per thread; a trap by
a bulk walk (no value) can prove a store dead but never silent.  Samples and traps ride the
recordable trace, so a replay reproduces the live analysis exactly.
"""

from __future__ import annotations

from repro.core.analyzer import AnalysisResult
from repro.core.profile import TrackedObject
from repro.families.base import ObjectFamilyProfiler
from repro.obs.events import WatchTrapEvent
from repro.pmu.events import ALL_LOADS, ALL_STORES


class RedundancyProfiler(ObjectFamilyProfiler):
    """Count dead stores, silent stores and silent loads per site."""

    label = "redundancy"
    primary_metric = "redundancy"
    #: Every load and store can be sampled; each sample arms a watch.
    events = (ALL_STORES, ALL_LOADS)
    arms_watchpoints = True

    def on_watch_trap(self, event: WatchTrapEvent) -> None:
        if not self.enabled or event.sampler_id not in self._sampler_ids:
            return
        self.stats.traps_handled += 1
        self.charge(event.thread, self.costs.watch_trap)
        obj = self.splay.lookup(event.address)
        if obj is None or not isinstance(obj, TrackedObject) \
                or not obj.known:
            self.stats.traps_untracked += 1
            return
        same = event.value is not None and event.value == event.armed_value
        if event.armed_write:
            if not event.is_write:
                return              # the sampled store was loaded: live
            kinds = ("dead-stores", "silent-stores") if same \
                else ("dead-stores",)
        elif same and not event.is_write:
            kinds = ("silent-loads",)
        else:
            return
        profile = self.profile_of(event.tid)
        metrics = profile.site(obj.alloc_path).metrics
        for kind in kinds:
            metrics[kind] = metrics.get(kind, 0) + 1
            metrics["redundancy"] = metrics.get("redundancy", 0) + 1
            profile.record_total("redundancy")

    def _rank(self, result: AnalysisResult) -> AnalysisResult:
        for site in result.sites:
            sampled = sum(site.metrics.get(event.name, 0)
                          for event in self.events)
            if sampled:
                site.metrics["redundancy-permille"] = \
                    site.metrics.get("redundancy", 0) * 1000 // sampled
        return result
