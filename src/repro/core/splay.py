"""Interval splay tree — the object address-range index (paper §4.2).

DJXPerf keeps the memory ranges of all monitored objects in a splay tree
keyed by interval start.  PMU samples look up the effective address; the
self-adjusting property keeps recently sampled (hot) objects near the
root, which is exactly why the paper picked a splay tree [Sleator &
Tarjan 1985] over a balanced tree.

Intervals are half-open ``[start, end)`` and non-overlapping.  Inserting
an interval that overlaps existing ones evicts them first — that is the
correct semantics for a heap index where an address range being reused
means the old object is gone (e.g. an allocation DJXPerf missed the
finalize for).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple


class _Node:
    __slots__ = ("start", "end", "payload", "left", "right")

    def __init__(self, start: int, end: int, payload) -> None:
        self.start = start
        self.end = end
        self.payload = payload
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None


@dataclass
class SplayStats:
    inserts: int = 0
    removes: int = 0
    lookups: int = 0
    hits: int = 0
    evictions: int = 0  # intervals evicted by overlapping inserts
    #: Lookups answered by the one-entry last-interval cache (a subset
    #: of ``hits``) and lookups that had to descend the tree.
    cache_hits: int = 0
    cache_misses: int = 0


class IntervalSplayTree:
    """Self-adjusting BST over disjoint address intervals.

    A one-entry cache in front of the tree remembers the last interval a
    ``lookup`` hit: PMU samples cluster on hot objects, so repeated
    samples to the same object skip the splay descent entirely.  Every
    mutation (``insert``/``remove_*``/``clear``) invalidates the cache —
    a stale cached interval after a GC relocation would misattribute
    samples to a dead range.
    """

    def __init__(self) -> None:
        self._root: Optional[_Node] = None
        self._size = 0
        self._hot: Optional[_Node] = None
        self.stats = SplayStats()

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Core splay operation (top-down, Sleator & Tarjan)
    # ------------------------------------------------------------------
    def _splay(self, root: Optional[_Node], key: int) -> Optional[_Node]:
        """Splay the node with the greatest start <= key (or the smallest
        node if none) to the root.  Returns the new root."""
        if root is None:
            return None
        header = _Node(0, 0, None)
        left = right = header
        t = root
        while True:
            if key < t.start:
                if t.left is None:
                    break
                if key < t.left.start:
                    # rotate right
                    y = t.left
                    t.left = y.right
                    y.right = t
                    t = y
                    if t.left is None:
                        break
                # link right
                right.left = t
                right = t
                t = t.left
            elif key > t.start:
                if t.right is None:
                    break
                if key > t.right.start:
                    # rotate left
                    y = t.right
                    t.right = y.left
                    y.left = t
                    t = y
                    if t.right is None:
                        break
                # link left
                left.right = t
                left = t
                t = t.right
            else:
                break
        # assemble
        left.right = t.left
        right.left = t.right
        t.left = header.right
        t.right = header.left
        return t

    def _floor(self, key: int) -> Optional[_Node]:
        """Splay at ``key``; return the node with the greatest start <= key.

        Top-down splay leaves either that floor node or its successor at
        the root; in the second case the floor is the maximum of the
        root's left subtree (whose right spine this splay just built).
        """
        node = self._root = self._splay(self._root, key)
        if node is not None and node.start > key:
            node = node.left
            while node is not None and node.right is not None:
                node = node.right
        return node

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def lookup(self, address: int):
        """Payload of the interval containing ``address``, or None.

        Splays, so repeated lookups of a hot object are amortised-fast.
        """
        stats = self.stats
        stats.lookups += 1
        hot = self._hot
        if hot is not None and hot.start <= address < hot.end:
            stats.hits += 1
            stats.cache_hits += 1
            return hot.payload
        stats.cache_misses += 1
        node = self._floor(address)
        if node is not None and address < node.end:
            stats.hits += 1
            # Bring the hit to the root (the self-adjusting payoff).
            self._root = self._splay(self._root, node.start)
            self._hot = self._root
            return self._root.payload
        return None

    def interval_at(self, address: int) -> Optional[Tuple[int, int]]:
        """(start, end) of the interval containing ``address``, if any."""
        node = self._floor(address)
        if node is not None and address < node.end:
            return (node.start, node.end)
        return None

    def __iter__(self) -> Iterator[Tuple[int, int, object]]:
        """In-order iteration of (start, end, payload)."""
        stack: List[_Node] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield (node.start, node.end, node.payload)
            node = node.right

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, start: int, end: int, payload) -> None:
        """Insert ``[start, end)``, evicting any overlapping intervals.

        Amortised O(log n + k) for k evictions: only the floor of
        ``start`` and its successor can overlap, so each round splays at
        ``start`` and evicts whichever of the two does.
        """
        if end <= start:
            raise ValueError(f"empty interval [{start:#x}, {end:#x})")
        self._hot = None
        while True:
            node = self._floor(start)
            if node is None or node.end <= start:
                # The floor does not overlap; try its successor.  That is
                # the root itself, or, when the root is the floor, the
                # minimum of its right subtree, which splaying lifts up.
                root = self._root
                if root is not None and root.start <= start:
                    root.right = self._splay(root.right, start)
                    node = root.right
                else:
                    node = root
                if node is None or node.start >= end:
                    break
            self._remove_exact(node.start)
            self.stats.evictions += 1
        # The tree is splayed at ``start``: the root is its floor or its
        # successor.
        node = _Node(start, end, payload)
        root = self._root
        if root is not None:
            if start < root.start:
                node.left = root.left
                node.right = root
                root.left = None
            else:
                node.right = root.right
                node.left = root
                root.right = None
        self._root = node
        self._size += 1
        self.stats.inserts += 1

    def remove_containing(self, address: int) -> Optional[object]:
        """Remove the interval containing ``address``; returns its payload."""
        interval = self.interval_at(address)
        if interval is None:
            return None
        payload = self._remove_exact(interval[0])
        self.stats.removes += 1
        return payload

    def remove_start(self, start: int) -> Optional[object]:
        """Remove the interval starting exactly at ``start``."""
        if self._root is None:
            return None
        self._root = self._splay(self._root, start)
        if self._root.start != start:
            return None
        payload = self._remove_exact(start)
        self.stats.removes += 1
        return payload

    def _remove_exact(self, start: int) -> Optional[object]:
        self._hot = None
        self._root = self._splay(self._root, start)
        root = self._root
        if root is None or root.start != start:
            return None
        payload = root.payload
        if root.left is None:
            self._root = root.right
        else:
            new_root = self._splay(root.left, start)
            new_root.right = root.right
            self._root = new_root
        self._size -= 1
        return payload

    def clear(self) -> None:
        self._root = None
        self._size = 0
        self._hot = None

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert BST order and interval disjointness (test support)."""
        prev_end = None
        prev_start = None
        for start, end, _payload in self:
            if end <= start:
                raise AssertionError(f"empty interval [{start}, {end})")
            if prev_start is not None and start <= prev_start:
                raise AssertionError("BST order violated")
            if prev_end is not None and start < prev_end:
                raise AssertionError(
                    f"overlap: [{start}, {end}) begins before {prev_end}")
            prev_start, prev_end = start, end
