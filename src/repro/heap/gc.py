"""Stop-the-world tracing collectors: the shared ``collect`` and the
sliding mark-compact policy.

Every collector reproduces the two observable behaviours DJXPerf's GC
handling (paper §4.5) is built on:

* **object movement happens through ``memmove``** — every relocation
  is reported as a ``(src, dst, size)`` :class:`GcMoveEvent`, which a
  profiler can interpose on exactly as DJXPerf overloads ``memmove`` in
  OpenJDK;
* **``finalize`` runs before reclamation** — every dead object's
  ``(oid, addr, size)`` is reported as a :class:`GcFinalizeEvent` before
  its memory is reused, which is how DJXPerf learns to drop splay-tree
  intervals.

On completion the collector reports an MXBean-style
:class:`GcNotifyEvent` (the ``GARBAGE_COLLECTION_NOTIFICATION``
analogue) so subscribers can do their batched bookkeeping.  The
collector reports each fact by direct call to one :class:`GcObserver`
(the machine, which publishes the events onto its bus unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Set, Tuple

from repro.heap.allocator import Heap
from repro.obs.events import GcFinalizeEvent, GcMoveEvent, GcNotifyEvent


@dataclass(frozen=True)
class GcCostModel:
    """Cycle cost of a collection (charged as a stop-the-world pause).

    Roughly: tracing costs per live object, compaction costs per byte
    moved, plus a fixed pause for root scanning and bookkeeping.
    """

    base_cycles: int = 2000
    per_live_object: int = 20
    per_moved_byte: float = 0.25
    per_dead_object: int = 10

    def pause(self, live_objects: int, moved_bytes: int,
              dead_objects: int) -> int:
        return int(self.base_cycles
                   + self.per_live_object * live_objects
                   + self.per_moved_byte * moved_bytes
                   + self.per_dead_object * dead_objects)


@dataclass
class GcStats:
    collections: int = 0
    reclaimed_objects: int = 0
    reclaimed_bytes: int = 0
    moved_objects: int = 0
    moved_bytes: int = 0
    total_pause_cycles: int = 0


#: Provides the root set as an iterable of oids.
RootsProvider = Callable[[], Iterable[int]]


class GcObserver:
    """What a collector reports, one method per fact, in collection
    order.  :class:`~repro.jvm.machine.Machine` implements it."""

    def gc_start(self, gc_id: int) -> None:
        """A collection begins (before marking)."""

    def gc_finalize(self, event: GcFinalizeEvent) -> None:
        """A finalizable dead object, still in ``heap.objects``."""

    def gc_move(self, event: GcMoveEvent) -> None:
        """A survivor was relocated (its ``addr`` is already ``dst``)."""

    def gc_notify(self, event: GcNotifyEvent) -> None:
        """The collection is complete and its stats are recorded."""


class TracingCollector:
    """Stop-the-world mark, finalize and relocate over a :class:`Heap`.

    Subclasses supply :meth:`_relocate`, the only step in which
    collection policies differ.  Attaching sets ``heap.collector`` so
    allocation failures trigger collection automatically.
    """

    def __init__(self, heap: Heap, roots_provider: RootsProvider,
                 observer: GcObserver,
                 cost_model: Optional[GcCostModel] = None) -> None:
        self.heap = heap
        self.roots_provider = roots_provider
        self.observer = observer
        self.cost_model = cost_model or GcCostModel()
        self.stats = GcStats()
        heap.collector = self

    # ------------------------------------------------------------------
    def _mark(self) -> Set[int]:
        """Trace the object graph from the roots; returns live oids."""
        objects = self.heap.objects
        live: Set[int] = set()
        stack: List[int] = [oid for oid in self.roots_provider()
                            if oid in objects]
        while stack:
            oid = stack.pop()
            if oid in live:
                continue
            live.add(oid)
            obj = objects.get(oid)
            if obj is None:
                continue
            for child in obj.referenced_oids():
                if child not in live and child in objects:
                    stack.append(child)
        return live

    def _slide_to(self, top: int) -> Tuple[int, int]:
        """Move the survivors, in address order, to consecutive addresses
        from ``top``, reporting each move; leaves the heap's bump
        pointer after the last one.  Returns (moved objects, bytes)."""
        gc_move = self.observer.gc_move
        moved_objects = 0
        moved_bytes = 0
        for obj in self.heap.live_objects_in_address_order():
            if obj.addr != top:
                event = GcMoveEvent(obj.oid, src=obj.addr, dst=top,
                                    size=obj.size)
                obj.addr = top
                moved_objects += 1
                moved_bytes += obj.size
                gc_move(event)
            top += obj.size
        self.heap._top = top
        return moved_objects, moved_bytes

    def _relocate(self) -> Tuple[int, int]:
        """Place the survivors; returns (moved objects, moved bytes)."""
        raise NotImplementedError

    def collect(self, reason: str = "explicit") -> GcNotifyEvent:
        """Run one full stop-the-world collection."""
        heap = self.heap
        observer = self.observer
        gc_id = self.stats.collections + 1
        observer.gc_start(gc_id)

        live = self._mark()

        # Finalize + reclaim the dead.
        dead = [obj for oid, obj in heap.objects.items() if oid not in live]
        reclaimed_bytes = 0
        for obj in dead:
            if obj.finalizable:
                observer.gc_finalize(GcFinalizeEvent(
                    obj.oid, obj.addr, obj.size, obj.type_name))
            reclaimed_bytes += obj.size
            del heap.objects[obj.oid]

        moved_objects, moved_bytes = self._relocate()
        pause = self.cost_model.pause(len(live), moved_bytes, len(dead))

        stats = self.stats
        stats.collections += 1
        stats.reclaimed_objects += len(dead)
        stats.reclaimed_bytes += reclaimed_bytes
        stats.moved_objects += moved_objects
        stats.moved_bytes += moved_bytes
        stats.total_pause_cycles += pause
        heap.stats.gc_count += 1

        notification = GcNotifyEvent(
            gc_id=gc_id,
            reclaimed_objects=len(dead),
            reclaimed_bytes=reclaimed_bytes,
            moved_objects=moved_objects,
            moved_bytes=moved_bytes,
            live_bytes=heap.used,
            pause_cycles=pause)
        observer.gc_notify(notification)
        return notification


class MarkCompactCollector(TracingCollector):
    """Sliding mark-compact: survivors slide down to the heap base,
    preserving address order; only objects with garbage below them
    move."""

    def _relocate(self) -> Tuple[int, int]:
        return self._slide_to(self.heap.base)
