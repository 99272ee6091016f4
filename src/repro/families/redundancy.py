"""Dead-store / silent-load profiler (the JXPerf family).

JXPerf [FSE'19] watches individual memory cells with hardware debug
registers and flags three wasteful patterns:

* **dead store** — a store whose value is overwritten (or the object
  freed) before anything loads it;
* **silent store** — a store writing the value the cell already holds;
* **silent load** — a load observing the same value the previous load
  of that cell already returned.

The simulator port is object-centric, DJXPerf-style: instead of
sampling a few watched cells, it consumes the full value-carrying
access stream and keeps one shadow cell per touched offset of every
tracked object, attributing each detected redundancy to the enclosing
object's *allocation site*.  The rank metric ``redundancy`` is the
total count of all three kinds; ``redundancy-permille`` gives the
per-site fraction of tracked accesses that were redundant (scaled by
1000 so it serialises as an integer metric).

Detection is exact, not sampled, and every event it needs rides the
recordable trace — so replaying a trace reproduces the live analysis
byte-for-byte.  Accesses without a value (bulk zeroing/native walks)
and accesses to untracked objects are skipped, which makes the counts
conservative.  A dead store discovered by an overwriting store is
attributed to the overwriting thread's profile; one discovered at
object death is attributed to the thread that issued the pending store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.analyzer import AnalysisResult
from repro.core.profile import ObjectSiteStats, ThreadProfile
from repro.families.base import FamilyObject, ObjectFamilyProfiler
from repro.obs.events import AccessEvent

#: Distinct-from-everything marker for "cell never seen" (stored values
#: are canonicalised primitives, so ``None`` is not usable — it never
#: appears as a value, but a sentinel keeps intent explicit).
_UNSET = object()

#: Shadow-cell slots: [pending store tid | None, last known value,
#: value the previous load returned].
_PENDING, _VALUE, _LOADED = 0, 1, 2


@dataclass
class RedundancyObject(FamilyObject):
    """Tracked object plus one shadow cell per touched offset."""

    cells: Dict[int, List] = field(default_factory=dict)


class RedundancyProfiler(ObjectFamilyProfiler):
    """Count dead stores, silent stores and silent loads per site."""

    label = "redundancy"
    wants_accesses = True
    wants_allocs = True
    primary_metric = "redundancy"

    payload_type = RedundancyObject

    # ------------------------------------------------------------------
    # Shadow-cell state machine
    # ------------------------------------------------------------------
    def on_access(self, event: AccessEvent) -> None:
        if not self.enabled:
            return
        self.stats.accesses_seen += 1
        self.charge(event.thread, self.costs.access_check)
        value = event.value
        if value is None:
            self.stats.accesses_untracked += 1
            return
        obj = self.splay.lookup(event.address)
        if obj is None:
            self.stats.accesses_untracked += 1
            return
        cell = obj.cells.get(event.address - obj.addr)
        if cell is None:
            cell = [None, _UNSET, _UNSET]
            obj.cells[event.address - obj.addr] = cell
        profile = self.profile_of(event.tid)
        site = profile.site(obj.alloc_path)
        metrics = site.metrics
        if event.is_write:
            metrics["stores"] = metrics.get("stores", 0) + 1
            if cell[_PENDING] is not None:
                self._hit(profile, site, "dead-stores")
            if cell[_VALUE] is not _UNSET and cell[_VALUE] == value:
                self._hit(profile, site, "silent-stores")
            cell[_PENDING] = event.tid
            cell[_VALUE] = value
        else:
            metrics["loads"] = metrics.get("loads", 0) + 1
            if cell[_LOADED] is not _UNSET and cell[_LOADED] == value:
                self._hit(profile, site, "silent-loads")
            cell[_PENDING] = None
            cell[_VALUE] = value
            cell[_LOADED] = value

    def _hit(self, profile: ThreadProfile, site: ObjectSiteStats,
             kind: str) -> None:
        site.metrics[kind] = site.metrics.get(kind, 0) + 1
        site.metrics["redundancy"] = site.metrics.get("redundancy", 0) + 1
        profile.record_total("redundancy")

    def _finalized(self, obj: RedundancyObject) -> None:
        super()._finalized(obj)
        # Stores still pending when the object dies were never loaded:
        # dead by the free-before-load rule.  (Pending stores on objects
        # still live at program end are NOT counted — the program could
        # have read them later.)
        for cell in obj.cells.values():
            tid = cell[_PENDING]
            if tid is None:
                continue
            profile = self.profile_of(tid)
            self._hit(profile, profile.site(obj.alloc_path), "dead-stores")
            cell[_PENDING] = None

    # ------------------------------------------------------------------
    # Ranking
    # ------------------------------------------------------------------
    def _rank(self, result: AnalysisResult) -> AnalysisResult:
        for site in result.sites:
            tracked = site.metrics.get("stores", 0) \
                + site.metrics.get("loads", 0)
            if tracked:
                site.metrics["redundancy-permille"] = \
                    site.metrics.get("redundancy", 0) * 1000 // tracked
        return result

    def _shadow_cells(self) -> int:
        return sum(len(obj.cells) for obj in self._objects)
