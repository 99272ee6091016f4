"""Heap substrate: object layout, bump allocation, and a moving GC."""

from repro.heap.allocator import (
    Heap,
    HeapObject,
    HeapStats,
    OutOfMemoryError,
    Ref,
)
from repro.heap.gc import (
    GcCostModel,
    GcObserver,
    GcStats,
    MarkCompactCollector,
    TracingCollector,
)
from repro.heap.layout import (
    ELEM_SIZES,
    HEADER_SIZE,
    OBJECT_ALIGNMENT,
    FieldSpec,
    JClass,
    Kind,
    align,
    array_elem_offset,
    array_size,
)

__all__ = [
    "ELEM_SIZES",
    "FieldSpec",
    "GcCostModel",
    "GcObserver",
    "GcStats",
    "HEADER_SIZE",
    "Heap",
    "HeapObject",
    "HeapStats",
    "JClass",
    "Kind",
    "MarkCompactCollector",
    "OBJECT_ALIGNMENT",
    "OutOfMemoryError",
    "Ref",
    "TracingCollector",
    "align",
    "array_elem_offset",
    "array_size",
]

from repro.heap.semispace import SemispaceCollector  # noqa: E402

__all__.append("SemispaceCollector")
