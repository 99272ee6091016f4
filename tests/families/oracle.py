"""Exact shadow-cell detectors: the oracle the sampled families are
checked against.

The production families sample (JXPerf's watchpoints, OJXPerf's heap
content reads).  These detectors see *every* scalar load and store with
its value instead, keeping one shadow cell per touched offset of every
tracked object, so their verdicts are exact.  They subclass the same
:class:`~repro.families.base.ObjectFamilyProfiler` and so attribute to
allocation sites exactly as the families do.

Values reach them as :class:`ValueAccess` events, which
:class:`ValueMachine` publishes on the bus for every scalar access of
the legacy engine (the one engine that routes every scalar access, with
its value, through :meth:`Machine.memory_access`).  Publishing on the
bus keeps them in stream order with allocation and GC events.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core import DjxConfig
from repro.core.analyzer import AnalysisResult
from repro.core.javaagent import instrument_program
from repro.core.profile import ObjectSiteStats, ThreadProfile, TrackedObject
from repro.families.base import ObjectFamilyProfiler
from repro.jvm.machine import Machine
from repro.obs.events import canon_value
from repro.pmu.events import L1_MISS
from repro.workloads import get_workload


class ValueAccess:
    """One scalar access with its canonicalised value."""

    __slots__ = ("tid", "address", "is_write", "value")

    def __init__(self, tid: int, address: int, is_write: bool,
                 value) -> None:
        self.tid = tid
        self.address = address
        self.is_write = is_write
        self.value = value


class ValueMachine(Machine):
    """A machine that publishes every valued access on its bus."""

    def memory_access(self, thread, address, size, is_write, value=None):
        result = super().memory_access(thread, address, size, is_write,
                                       value=value)
        if value is not None:
            self.bus.publish(ValueAccess(thread.tid, address, is_write,
                                         canon_value(value)))
        return result


@dataclass
class PlacedObject(TrackedObject):
    """Tracked object plus its current base address, so shadow state
    can be addressed by offset into the object across GC moves."""

    addr: int = 0


class _ExactFamily(ObjectFamilyProfiler):
    """Adds the :class:`ValueAccess` stream to the family protocol and
    keeps every tracked object, placed at its current address."""

    object_hooks = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._dispatch[ValueAccess] = self.on_value_access
        self._objects: List[PlacedObject] = []
        self.accesses_seen = 0
        self.accesses_untracked = 0

    def on_value_access(self, event: ValueAccess) -> None:
        raise NotImplementedError

    def _tracked(self, obj: PlacedObject, addr: int) -> None:
        obj.addr = addr
        self._objects.append(obj)

    def on_gc_notification(self, event) -> None:
        moving = [(self.splay.lookup(src), dst)
                  for src, (dst, _) in self._relocation_map.items()]
        super().on_gc_notification(event)
        for obj, dst in moving:
            if obj is not None:
                obj.addr = dst

    def on_gc_finalize(self, event) -> None:
        obj = self.splay.lookup(event.addr)
        super().on_gc_finalize(event)
        if obj is not None and self.splay.lookup(event.addr) is None:
            self._died(obj)

    def _died(self, obj: PlacedObject) -> None:
        """Hook: a tracked object's lifetime ended."""


#: Distinct-from-everything marker for "cell never seen".
_UNSET = object()

#: Shadow-cell slots: [pending store tid | None, last known value,
#: value the previous load returned].
_PENDING, _VALUE, _LOADED = 0, 1, 2


@dataclass
class RedundancyObject(PlacedObject):
    """Tracked object plus one shadow cell per touched offset."""

    cells: Dict[int, List] = field(default_factory=dict)


class ExactRedundancy(_ExactFamily):
    """Exact dead stores, silent stores and silent loads per site.

    A dead store discovered by an overwriting store is attributed to the
    overwriting thread's profile; one discovered at object death (a
    store never loaded before the free) to the thread that issued it.
    Pending stores on objects still live at program end are not dead.
    """

    label = "redundancy"
    primary_metric = "redundancy"
    payload_type = RedundancyObject

    def on_value_access(self, event: ValueAccess) -> None:
        if not self.enabled:
            return
        self.accesses_seen += 1
        value = event.value
        if value is None:
            self.accesses_untracked += 1
            return
        obj = self.splay.lookup(event.address)
        if obj is None:
            self.accesses_untracked += 1
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

    def _died(self, obj: RedundancyObject) -> None:
        for cell in obj.cells.values():
            tid = cell[_PENDING]
            if tid is None:
                continue
            profile = self.profile_of(tid)
            self._hit(profile, profile.site(obj.alloc_path), "dead-stores")
            cell[_PENDING] = None

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


@dataclass
class ShadowObject(PlacedObject):
    """Tracked object plus its write-through ``{offset: value}``
    shadow."""

    shadow: Dict[int, object] = field(default_factory=dict)


class ExactReplica(_ExactFamily):
    """Replica grouping over write-through shadows of every store.

    Two objects are replicas when type, size and final shadow match
    (the never-written case included); ranked like the sampled family,
    by ``replica-bytes * (1 + sampled L1 misses)``.
    """

    label = "replica"
    primary_metric = "replica-score"
    events = (L1_MISS,)
    payload_type = ShadowObject

    def on_value_access(self, event: ValueAccess) -> None:
        if not self.enabled:
            return
        self.accesses_seen += 1
        if not event.is_write or event.value is None:
            return
        obj = self.splay.lookup(event.address)
        if obj is None:
            self.accesses_untracked += 1
            return
        obj.shadow[event.address - obj.addr] = event.value

    def _derive_metrics(self) -> None:
        for profile in self.profiles.values():
            for site in profile.sites.values():
                site.metrics.pop("replica-bytes", None)
                site.metrics.pop("replicas", None)
        firsts: Dict[tuple, ShadowObject] = {}
        for obj in self._objects:
            # Offsets are unique ints, so sorting never compares values.
            key = (obj.type_name, obj.size, tuple(sorted(obj.shadow.items())))
            if key not in firsts:
                firsts[key] = obj
                continue
            metrics = self.profile_of(obj.alloc_tid) \
                .site(obj.alloc_path).metrics
            metrics["replica-bytes"] = \
                metrics.get("replica-bytes", 0) + obj.size
            metrics["replicas"] = metrics.get("replicas", 0) + 1

    def _rank(self, result: AnalysisResult) -> AnalysisResult:
        from repro.families.replica import ReplicaProfiler

        return ReplicaProfiler._rank(self, result)

    def _shadow_cells(self) -> int:
        return sum(len(obj.shadow) for obj in self._objects)


#: family name → exact oracle class.
ORACLES = {"redundancy": ExactRedundancy, "replica": ExactReplica}


def run_oracle(name: str, family: str, period: int) -> AnalysisResult:
    """Profile workload ``name`` with ``family``'s exact oracle, at the
    size threshold and period a sampled run would use."""
    workload = get_workload(name)
    program = instrument_program(workload.build_verified())
    config = dataclasses.replace(workload.machine_config(), fastpath=False)
    machine = ValueMachine(program, config)
    oracle = ORACLES[family](DjxConfig(sample_period=period)).attach(machine)
    machine.run()
    return oracle.analyze()
