"""Set-associative cache model.

This module models a single level of a CPU cache: a write-allocate,
write-back, set-associative cache with true-LRU replacement.  The memory
hierarchy in :mod:`repro.memsys.hierarchy` composes several instances of
:class:`Cache` into an L1/L2/L3 stack.

Addresses are plain integers in a flat physical address space.  The cache
operates on line granularity: an access to address ``a`` touches the line
``a // line_size``.  Accesses that straddle a line boundary are split by the
hierarchy before they reach this class, so :meth:`Cache.access` always deals
with exactly one line.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class CacheStats:
    """Aggregate hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        """Miss ratio in [0, 1]; 0.0 when the cache saw no accesses."""
        total = self.accesses
        if total == 0:
            return 0.0
        return self.misses / total

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0


@dataclass
class EvictedLine:
    """Description of a line pushed out of a cache by a fill."""

    tag: int
    line_addr: int
    dirty: bool


class Cache:
    """One level of set-associative cache with true-LRU replacement.

    Parameters
    ----------
    name:
        Human-readable label used in reports ("L1d", "L2", ...).
    size:
        Total capacity in bytes.  Must be a multiple of
        ``line_size * associativity``.
    associativity:
        Number of ways per set.
    line_size:
        Line size in bytes (power of two).
    """

    def __init__(self, name: str, size: int, associativity: int,
                 line_size: int = 64) -> None:
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError(f"line_size must be a power of two, got {line_size}")
        if size % (line_size * associativity) != 0:
            raise ValueError(
                f"{name}: size {size} is not a multiple of "
                f"line_size*associativity ({line_size}*{associativity})")
        self.name = name
        self.size = size
        self.associativity = associativity
        self.line_size = line_size
        self.num_sets = size // (line_size * associativity)
        self.stats = CacheStats()
        # One OrderedDict per set: line_number -> dirty flag.  Ordering is
        # LRU-first; move_to_end marks most-recently-used.
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def _set_index(self, line_number: int) -> int:
        return line_number % self.num_sets

    def probe(self, address: int) -> bool:
        """Return whether ``address``'s line is resident (no state change)."""
        line = address // self.line_size
        return line in self._sets[self._set_index(line)]

    def access(self, address: int, is_write: bool) -> bool:
        """Look up ``address``; returns True on hit, False on miss.

        A miss does *not* fill the line; the hierarchy calls :meth:`fill`
        after resolving the miss at the next level.  This keeps the miss
        path explicit and lets the hierarchy attribute fill-caused
        evictions to the correct access.
        """
        line = address // self.line_size
        cset = self._sets[self._set_index(line)]
        if line in cset:
            cset.move_to_end(line)
            if is_write:
                cset[line] = True
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, address: int, dirty: bool = False) -> Optional[EvictedLine]:
        """Install ``address``'s line; returns the victim line, if any."""
        line = address // self.line_size
        cset = self._sets[self._set_index(line)]
        victim = None
        if line in cset:
            # Already present (e.g. filled by a racing split access); just
            # refresh recency and merge the dirty bit.
            cset.move_to_end(line)
            cset[line] = cset[line] or dirty
            return None
        if len(cset) >= self.associativity:
            victim_line, victim_dirty = cset.popitem(last=False)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.writebacks += 1
            victim = EvictedLine(tag=victim_line,
                                 line_addr=victim_line * self.line_size,
                                 dirty=victim_dirty)
        cset[line] = dirty
        return victim

    def invalidate(self, address: int) -> bool:
        """Drop ``address``'s line if resident; returns True if dropped."""
        line = address // self.line_size
        cset = self._sets[self._set_index(line)]
        if line in cset:
            del cset[line]
            return True
        return False

    def flush(self) -> None:
        """Empty the cache (keeps statistics)."""
        for cset in self._sets:
            cset.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def resident_lines(self) -> List[int]:
        """All resident line numbers (for tests and debugging)."""
        lines: List[int] = []
        for cset in self._sets:
            lines.extend(cset.keys())
        return lines

    def occupancy(self) -> int:
        """Number of lines currently resident."""
        return sum(len(cset) for cset in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Cache({self.name}, {self.size}B, {self.associativity}-way, "
                f"{self.num_sets} sets)")


def lines_spanned(address: int, size: int, line_size: int) -> List[int]:
    """Line-aligned addresses touched by an access of ``size`` bytes."""
    if size <= 0:
        raise ValueError(f"access size must be positive, got {size}")
    first = (address // line_size) * line_size
    last = ((address + size - 1) // line_size) * line_size
    return list(range(first, last + 1, line_size))
