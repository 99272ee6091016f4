"""Semispace copying collector — the second GC flavour.

The paper's GC handling (§4.5) claims to work for *all* collectors in
the off-the-shelf JVM because it only relies on two observables:
``memmove`` for moves and ``finalize`` before reclamation.  The
mark-compact collector moves only objects with garbage below them; a
copying collector moves **every** survivor on **every** collection —
the adversarial case for the relocation map.  Marking, finalization,
stats and the notification are :class:`~repro.heap.gc.TracingCollector`'s,
so profilers cannot tell (and must not need to know) which collector is
running; this module supplies only the space split and the evacuation.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.heap.allocator import Heap
from repro.heap.gc import (
    GcCostModel,
    GcObserver,
    RootsProvider,
    TracingCollector,
)


class SemispaceCollector(TracingCollector):
    """Cheney-style copying collector over a :class:`Heap`.

    The heap is split into two equal spaces; allocation bumps through
    the active space and a collection evacuates survivors to the other
    space, then flips.  Capacity available to the program is half the
    heap — the classic space trade-off.
    """

    def __init__(self, heap: Heap, roots_provider: RootsProvider,
                 observer: GcObserver,
                 cost_model: Optional[GcCostModel] = None) -> None:
        super().__init__(heap, roots_provider, observer, cost_model)
        half = heap.size // 2
        self._space_size = half
        self._spaces = (heap.base, heap.base + half)
        self._active = 0
        # Constrain the bump allocator to the active space.
        heap.limit = self._spaces[0] + half

    @property
    def active_space(self) -> int:
        """Base address of the space currently allocated into."""
        return self._spaces[self._active]

    def _relocate(self) -> Tuple[int, int]:
        # Evacuate every survivor into to-space in address order (every
        # one moves: no from-space address is a to-space address), then
        # flip.
        to_space = self._spaces[1 - self._active]
        moved = self._slide_to(to_space)
        self._active = 1 - self._active
        heap = self.heap
        heap.base = to_space
        heap.limit = to_space + self._space_size
        return moved
