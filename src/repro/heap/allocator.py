"""Heap objects and the bump allocator.

The heap owns every simulated Java object: its identity (``oid``), its
current address range, and its payload.  The interpreter refers to objects
through :class:`Ref` values (object identity, not raw addresses), so a
moving GC only has to rewrite the oid→address table — exactly the
indirection a real JVM gets from updating references during compaction.
Raw addresses surface only in the memory-access stream, which is what the
PMU samples and what DJXPerf's splay tree indexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.heap.layout import (
    HEADER_SIZE,
    ELEM_SIZES,
    OBJECT_ALIGNMENT,
    JClass,
    Kind,
    align,
    array_elem_offset,
    array_size,
)


class OutOfMemoryError(Exception):
    """Raised when an allocation cannot be satisfied even after GC."""


class Ref:
    """A reference value: stable object identity across GC moves.

    A plain ``__slots__`` class rather than a frozen dataclass: one Ref
    is built per allocation, and frozen-dataclass construction funnels
    every field through ``object.__setattr__``.  Equality and hashing
    match the frozen-dataclass behaviour (by ``oid``, same-class only).
    """

    __slots__ = ("oid",)

    def __init__(self, oid: int) -> None:
        self.oid = oid

    def __eq__(self, other) -> bool:
        if other.__class__ is Ref:
            return self.oid == other.oid
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.oid,))

    def __repr__(self) -> str:
        return f"Ref#{self.oid}"


class HeapObject:
    """One live object: identity, placement, and payload."""

    __slots__ = ("oid", "addr", "size", "jclass", "elem_kind", "length",
                 "fields", "elements", "finalizable")

    def __init__(self, oid: int, addr: int, size: int,
                 jclass: Optional[JClass] = None,
                 elem_kind: Optional[Kind] = None,
                 length: int = 0) -> None:
        self.oid = oid
        self.addr = addr
        self.size = size
        self.jclass = jclass
        self.elem_kind = elem_kind
        self.length = length
        if jclass is not None:
            self.fields: Optional[Dict[str, object]] = {
                spec.name: spec.kind.default for spec in jclass.all_fields}
            self.elements: Optional[List[object]] = None
        else:
            self.fields = None
            self.elements = [elem_kind.default] * length  # type: ignore[union-attr]
        self.finalizable = True

    @property
    def is_array(self) -> bool:
        return self.elements is not None

    @property
    def type_name(self) -> str:
        if self.jclass is not None:
            return self.jclass.name
        return f"{self.elem_kind.value}[]"  # type: ignore[union-attr]

    @property
    def end(self) -> int:
        return self.addr + self.size

    # -- address computation ------------------------------------------
    def field_address(self, name: str) -> int:
        if self.jclass is None:
            raise TypeError(f"{self.type_name} is an array, not an instance")
        return self.addr + self.jclass.field_offset(name)

    def element_address(self, index: int) -> int:
        if self.elements is None:
            raise TypeError(f"{self.type_name} is not an array")
        if not 0 <= index < self.length:
            raise IndexError(
                f"index {index} out of bounds for length {self.length}")
        return self.addr + HEADER_SIZE + self.elem_kind.elem_bytes * index

    def elem_size(self) -> int:
        if self.elem_kind is None:
            raise TypeError(f"{self.type_name} is not an array")
        return self.elem_kind.elem_bytes

    # -- payload access ------------------------------------------------
    def get_field(self, name: str):
        assert self.fields is not None
        return self.fields[name]

    def set_field(self, name: str, value) -> None:
        assert self.fields is not None
        if name not in self.fields:
            raise KeyError(f"{self.type_name} has no field {name!r}")
        self.fields[name] = value

    def get_element(self, index: int):
        assert self.elements is not None
        if not 0 <= index < self.length:
            raise IndexError(
                f"index {index} out of bounds for length {self.length}")
        return self.elements[index]

    def set_element(self, index: int, value) -> None:
        assert self.elements is not None
        if not 0 <= index < self.length:
            raise IndexError(
                f"index {index} out of bounds for length {self.length}")
        self.elements[index] = value

    def referenced_oids(self) -> Iterator[int]:
        """Oids held in reference-kind slots (for GC tracing)."""
        if self.fields is not None:
            assert self.jclass is not None
            for name in self.jclass.ref_fields():
                value = self.fields[name]
                if isinstance(value, Ref):
                    yield value.oid
        elif self.elem_kind is Kind.REF:
            assert self.elements is not None
            for value in self.elements:
                if isinstance(value, Ref):
                    yield value.oid

    def __repr__(self) -> str:
        return (f"HeapObject(#{self.oid} {self.type_name} "
                f"@{self.addr:#x}+{self.size})")


@dataclass
class HeapStats:
    allocations: int = 0
    allocated_bytes: int = 0
    peak_used: int = 0
    gc_count: int = 0

    def reset(self) -> None:
        self.allocations = 0
        self.allocated_bytes = 0
        self.peak_used = 0
        self.gc_count = 0


class Heap:
    """Bump-allocated heap with pluggable GC.

    Parameters
    ----------
    size:
        Heap capacity in bytes.
    base:
        First address of the heap (page aligned by convention).

    The allocation entry points accept the allocating ``thread_id`` but
    do not read it: allocation events are the machine's to publish.
    """

    def __init__(self, size: int = 8 * 1024 * 1024, base: int = 0x100000) -> None:
        if size <= 0:
            raise ValueError(f"heap size must be positive, got {size}")
        self.base = base
        self.limit = base + size
        self.size = size
        self._top = base
        self._next_oid = 1
        self.objects: Dict[int, HeapObject] = {}
        self.stats = HeapStats()
        #: Set by the collector when one is attached.
        self.collector = None  # type: Optional[object]

    # ------------------------------------------------------------------
    @property
    def used(self) -> int:
        return self._top - self.base

    @property
    def free(self) -> int:
        return self.limit - self._top

    def _reserve(self, size: int) -> int:
        """Bump-allocate ``size`` bytes, collecting if needed."""
        # align(size, OBJECT_ALIGNMENT), open-coded: this is the
        # allocation hot path and the alignment is a power of two.
        size = (size + OBJECT_ALIGNMENT - 1) & ~(OBJECT_ALIGNMENT - 1)
        top = self._top + size
        if top > self.limit:
            if self.collector is not None:
                self.collector.collect(reason="allocation failure")
            top = self._top + size
            if top > self.limit:
                raise OutOfMemoryError(
                    f"cannot allocate {size} bytes "
                    f"({self.free} free of {self.size})")
        addr = top - size
        self._top = top
        used = top - self.base
        if used > self.stats.peak_used:
            self.stats.peak_used = used
        return addr

    def _register(self, obj: HeapObject) -> Ref:
        self.objects[obj.oid] = obj
        self.stats.allocations += 1
        self.stats.allocated_bytes += obj.size
        return Ref(obj.oid)

    def allocate_instance(self, jclass: JClass, thread_id: int = 0) -> Ref:
        """Allocate an instance of ``jclass`` (the `new` bytecode)."""
        addr = self._reserve(jclass.instance_size)
        obj = HeapObject(self._next_oid, addr, jclass.instance_size,
                         jclass=jclass)
        self._next_oid += 1
        return self._register(obj)

    def allocate_array(self, elem_kind: Kind, length: int,
                       thread_id: int = 0) -> Ref:
        """Allocate an array (`newarray` / `anewarray`)."""
        size = array_size(elem_kind, length)
        addr = self._reserve(size)
        obj = HeapObject(self._next_oid, addr, size,
                         elem_kind=elem_kind, length=length)
        self._next_oid += 1
        return self._register(obj)

    # ------------------------------------------------------------------
    def get(self, ref: Ref) -> HeapObject:
        """Dereference; raises on dangling references (collected objects)."""
        obj = self.objects.get(ref.oid)
        if obj is None:
            raise KeyError(f"dangling reference {ref} (object collected?)")
        return obj

    def object_at(self, address: int) -> Optional[HeapObject]:
        """Linear scan for the object whose range encloses ``address``.

        The profiler never uses this (it keeps its own splay tree); it is
        a test oracle for validating interval-tree lookups.
        """
        for obj in self.objects.values():
            if obj.addr <= address < obj.end:
                return obj
        return None

    def live_objects_in_address_order(self) -> List[HeapObject]:
        return sorted(self.objects.values(), key=lambda o: o.addr)

    def __len__(self) -> int:
        return len(self.objects)
