"""Unit tests for the tracing collectors.

Marking, finalization, stats and the notification are written once, in
:class:`~repro.heap.gc.TracingCollector`, so their tests run against
both collectors: each ``Test*`` class below checks mark-compact and its
``*Semispace`` subclass checks semispace.  Relocation is per policy:
mark-compact's is tested here, semispace's in ``test_semispace.py``.
"""

import pytest

from repro.heap import (
    FieldSpec,
    GcCostModel,
    Heap,
    JClass,
    Kind,
    MarkCompactCollector,
    OutOfMemoryError,
    SemispaceCollector,
)

from tests.heap.helpers import RecordingObserver, RootSet

POINT = JClass("Point", [FieldSpec("x"), FieldSpec("y")])
NODE = JClass("Node", [FieldSpec("next", Kind.REF), FieldSpec("value")])


def make_heap(size=4096, collector_class=MarkCompactCollector):
    heap = Heap(size=size)
    roots = RootSet()
    collector = collector_class(heap, roots, RecordingObserver())
    return heap, roots, collector


class CollectorCase:
    collector_class = MarkCompactCollector

    def make_heap(self):
        return make_heap(collector_class=self.collector_class)


class TestReclamation(CollectorCase):
    def test_unreachable_objects_reclaimed(self):
        heap, roots, collector = self.make_heap()
        heap.allocate_instance(POINT)            # unreachable
        kept = heap.allocate_instance(POINT)
        roots.refs.append(kept)
        note = collector.collect()
        assert note.reclaimed_objects == 1
        assert len(heap) == 1
        assert heap.get(kept) is not None

    def test_reachable_through_field_chain_survives(self):
        heap, roots, collector = self.make_heap()
        a = heap.allocate_instance(NODE)
        b = heap.allocate_instance(NODE)
        c = heap.allocate_instance(NODE)
        heap.get(a).set_field("next", b)
        heap.get(b).set_field("next", c)
        roots.refs.append(a)
        collector.collect()
        assert len(heap) == 3

    def test_reachable_through_ref_array_survives(self):
        heap, roots, collector = self.make_heap()
        arr = heap.allocate_array(Kind.REF, 2)
        p = heap.allocate_instance(POINT)
        heap.get(arr).set_element(0, p)
        roots.refs.append(arr)
        collector.collect()
        assert len(heap) == 2

    def test_cycle_is_collected_when_unrooted(self):
        heap, roots, collector = self.make_heap()
        a = heap.allocate_instance(NODE)
        b = heap.allocate_instance(NODE)
        heap.get(a).set_field("next", b)
        heap.get(b).set_field("next", a)
        note = collector.collect()
        assert note.reclaimed_objects == 2
        assert len(heap) == 0

    def test_finalize_emitted_before_reclaim(self):
        heap, roots, collector = self.make_heap()
        dead = heap.allocate_instance(POINT)
        dead_obj = heap.get(dead)
        present = []

        class Observer(RecordingObserver):
            def gc_finalize(self, event):
                present.append(event.oid in heap.objects)
                super().gc_finalize(event)

        collector.observer = Observer()
        collector.collect()
        assert present == [True]
        events = collector.observer.events("finalize")
        assert len(events) == 1
        assert events[0].oid == dead.oid
        assert events[0].addr == dead_obj.addr
        assert events[0].size == dead_obj.size

    def test_non_finalizable_objects_skip_finalize_event(self):
        heap, roots, collector = self.make_heap()
        dead = heap.allocate_instance(POINT)
        heap.get(dead).finalizable = False
        note = collector.collect()
        assert collector.observer.events("finalize") == []
        assert note.reclaimed_objects == 1


class TestReclamationSemispace(TestReclamation):
    collector_class = SemispaceCollector


class TestCompaction:
    def test_survivor_slides_down_and_emits_memmove(self):
        heap, roots, collector = make_heap()
        heap.allocate_array(Kind.INT, 16)        # dead, at heap base
        kept = heap.allocate_instance(POINT)
        old_addr = heap.get(kept).addr
        roots.refs.append(kept)
        collector.collect()
        moves = collector.observer.events("move")
        new_addr = heap.get(kept).addr
        assert new_addr == heap.base
        assert new_addr < old_addr
        assert len(moves) == 1
        assert moves[0].src == old_addr
        assert moves[0].dst == new_addr
        assert moves[0].size == heap.get(kept).size

    def test_unmoved_objects_emit_no_memmove(self):
        heap, roots, collector = make_heap()
        kept = heap.allocate_instance(POINT)     # already at base
        roots.refs.append(kept)
        collector.collect()
        assert collector.observer.events("move") == []

    def test_address_order_preserved(self):
        heap, roots, collector = make_heap()
        heap.allocate_array(Kind.INT, 8)         # dead
        a = heap.allocate_instance(POINT)
        heap.allocate_array(Kind.INT, 8)         # dead
        b = heap.allocate_instance(POINT)
        roots.refs.extend([a, b])
        collector.collect()
        assert heap.get(a).addr < heap.get(b).addr

    def test_compaction_frees_space_for_new_allocations(self):
        heap, roots, collector = make_heap(size=1024)
        # Fill the heap with garbage, then allocate: GC should kick in.
        for _ in range(8):
            heap.allocate_array(Kind.INT, 12)
        kept = heap.allocate_array(Kind.INT, 12)
        roots.refs.append(kept)
        big = heap.allocate_array(Kind.INT, 64)  # triggers collection
        assert heap.get(big) is not None
        assert collector.stats.collections == 1

    def test_oom_when_live_set_too_large(self):
        heap, roots, collector = make_heap(size=512)
        kept = heap.allocate_array(Kind.INT, 40)
        roots.refs.append(kept)
        with pytest.raises(OutOfMemoryError):
            heap.allocate_array(Kind.INT, 40)

    def test_data_survives_moves(self):
        heap, roots, collector = make_heap()
        heap.allocate_array(Kind.INT, 16)        # dead
        kept = heap.allocate_array(Kind.INT, 4)
        heap.get(kept).set_element(3, 1234)
        roots.refs.append(kept)
        collector.collect()
        assert heap.get(kept).get_element(3) == 1234


class TestNotificationsAndStats(CollectorCase):
    def test_gc_start_end_ordering(self):
        heap, roots, collector = self.make_heap()
        heap.allocate_instance(POINT)            # dead at base
        kept = heap.allocate_instance(POINT)     # moves
        roots.refs.append(kept)
        note = collector.collect()
        log = collector.observer.log
        assert [kind for kind, _ in log] == \
            ["start", "finalize", "move", "notify"]
        assert log[0] == ("start", 1)
        assert log[-1] == ("notify", note)
        assert note.gc_id == 1

    def test_notification_counts(self):
        heap, roots, collector = self.make_heap()
        heap.allocate_array(Kind.INT, 16)        # dead at base
        kept = heap.allocate_instance(POINT)
        roots.refs.append(kept)
        note = collector.collect()
        assert note.reclaimed_objects == 1
        assert note.moved_objects == 1
        assert note.live_bytes == heap.get(kept).size

    def test_pause_cycles_grow_with_work(self):
        model = GcCostModel()
        small = model.pause(live_objects=1, moved_bytes=0, dead_objects=0)
        large = model.pause(live_objects=100, moved_bytes=10000, dead_objects=50)
        assert large > small

    def test_stats_accumulate_over_collections(self):
        heap, roots, collector = self.make_heap()
        heap.allocate_instance(POINT)
        collector.collect()
        heap.allocate_instance(POINT)
        collector.collect()
        assert collector.stats.collections == 2
        assert collector.stats.reclaimed_objects == 2
        assert heap.stats.gc_count == 2


class TestNotificationsAndStatsSemispace(TestNotificationsAndStats):
    collector_class = SemispaceCollector
