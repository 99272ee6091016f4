"""Unit tests for the heap allocator and object records."""

import pytest

from repro.heap import (
    FieldSpec,
    Heap,
    JClass,
    Kind,
    OutOfMemoryError,
    Ref,
)

POINT = JClass("Point", [FieldSpec("x"), FieldSpec("y")])
NODE = JClass("Node", [FieldSpec("next", Kind.REF), FieldSpec("value")])


class TestAllocation:
    def test_instance_allocation(self):
        heap = Heap(size=4096)
        ref = heap.allocate_instance(POINT)
        obj = heap.get(ref)
        assert obj.jclass is POINT
        assert obj.size == POINT.instance_size
        assert obj.addr >= heap.base

    def test_array_allocation(self):
        heap = Heap(size=4096)
        ref = heap.allocate_array(Kind.FLOAT, 8)
        obj = heap.get(ref)
        assert obj.is_array
        assert obj.length == 8
        assert obj.get_element(0) == 0.0

    def test_addresses_are_disjoint_and_increasing(self):
        heap = Heap(size=8192)
        a = heap.get(heap.allocate_instance(POINT))
        b = heap.get(heap.allocate_instance(POINT))
        assert a.end <= b.addr

    def test_distinct_oids(self):
        heap = Heap(size=4096)
        r1 = heap.allocate_instance(POINT)
        r2 = heap.allocate_instance(POINT)
        assert r1.oid != r2.oid

    def test_oom_without_collector(self):
        heap = Heap(size=256)
        heap.allocate_array(Kind.INT, 16)
        with pytest.raises(OutOfMemoryError):
            heap.allocate_array(Kind.INT, 16)

    def test_used_and_free_track_bump_pointer(self):
        heap = Heap(size=4096)
        assert heap.used == 0
        heap.allocate_instance(POINT)
        assert heap.used == POINT.instance_size
        assert heap.free == 4096 - POINT.instance_size

    def test_peak_used_recorded(self):
        heap = Heap(size=4096)
        heap.allocate_array(Kind.INT, 100)
        assert heap.stats.peak_used == heap.used

    def test_invalid_heap_size(self):
        with pytest.raises(ValueError):
            Heap(size=0)


class TestFieldAccess:
    def test_field_roundtrip(self):
        heap = Heap(size=4096)
        obj = heap.get(heap.allocate_instance(POINT))
        obj.set_field("x", 42)
        assert obj.get_field("x") == 42

    def test_unknown_field_rejected(self):
        heap = Heap(size=4096)
        obj = heap.get(heap.allocate_instance(POINT))
        with pytest.raises(KeyError):
            obj.set_field("nope", 1)

    def test_field_address_within_object(self):
        heap = Heap(size=4096)
        obj = heap.get(heap.allocate_instance(POINT))
        assert obj.addr < obj.field_address("x") < obj.end
        assert obj.field_address("y") == obj.field_address("x") + 8

    def test_field_address_on_array_rejected(self):
        heap = Heap(size=4096)
        obj = heap.get(heap.allocate_array(Kind.INT, 2))
        with pytest.raises(TypeError):
            obj.field_address("x")


class TestElementAccess:
    def test_element_roundtrip(self):
        heap = Heap(size=4096)
        obj = heap.get(heap.allocate_array(Kind.INT, 4))
        obj.set_element(2, 99)
        assert obj.get_element(2) == 99

    def test_bounds_checked(self):
        heap = Heap(size=4096)
        obj = heap.get(heap.allocate_array(Kind.INT, 4))
        with pytest.raises(IndexError):
            obj.get_element(4)
        with pytest.raises(IndexError):
            obj.set_element(-1, 0)
        with pytest.raises(IndexError):
            obj.element_address(4)

    def test_element_addresses_stride_by_elem_size(self):
        heap = Heap(size=4096)
        obj = heap.get(heap.allocate_array(Kind.FLOAT, 4))
        assert obj.element_address(1) - obj.element_address(0) == obj.elem_size()

    def test_element_access_on_instance_rejected(self):
        heap = Heap(size=4096)
        obj = heap.get(heap.allocate_instance(POINT))
        with pytest.raises(TypeError):
            obj.element_address(0)


class TestReferences:
    def test_dangling_ref_raises(self):
        heap = Heap(size=4096)
        with pytest.raises(KeyError):
            heap.get(Ref(999))

    def test_referenced_oids_from_fields(self):
        heap = Heap(size=4096)
        a = heap.allocate_instance(NODE)
        b = heap.allocate_instance(NODE)
        heap.get(a).set_field("next", b)
        assert list(heap.get(a).referenced_oids()) == [b.oid]

    def test_referenced_oids_from_ref_array(self):
        heap = Heap(size=4096)
        arr = heap.get(heap.allocate_array(Kind.REF, 3))
        p = heap.allocate_instance(POINT)
        arr.set_element(1, p)
        assert list(arr.referenced_oids()) == [p.oid]

    def test_int_array_has_no_referenced_oids(self):
        heap = Heap(size=4096)
        arr = heap.get(heap.allocate_array(Kind.INT, 3))
        assert list(arr.referenced_oids()) == []


class TestObjectAt:
    def test_object_at_finds_encloser(self):
        heap = Heap(size=4096)
        obj = heap.get(heap.allocate_array(Kind.INT, 8))
        assert heap.object_at(obj.addr) is obj
        assert heap.object_at(obj.addr + obj.size - 1) is obj

    def test_object_at_miss_returns_none(self):
        heap = Heap(size=4096)
        heap.allocate_instance(POINT)
        assert heap.object_at(heap.limit + 100) is None
