"""Batched walk planning for the memory hierarchy.

:meth:`~repro.memsys.hierarchy.MemoryHierarchy.touch_range` used to walk
its range strictly line by line.  The batched engine instead *plans* the
walk — splits the range into per-page line runs and computes each
cache set's eviction effect in closed form — so the common bulk cases
(a fresh allocation's zeroing walk missing everything to DRAM, a warm
re-stream hitting L1 throughout) execute one grouped operation per page
run instead of one full stack walk per line.  The plan is pure
arithmetic on addresses; all actual state mutation stays in
:mod:`repro.memsys.cache` / :mod:`repro.memsys.tlb` /
:mod:`repro.memsys.hierarchy`, which keeps the bit-identical-stats
argument local to those modules.
"""

from __future__ import annotations

from typing import List, Tuple


def page_runs(start: int, end: int, line_size: int,
              page_size: int) -> List[Tuple[int, int]]:
    """Split ``[start, end)`` into per-page line runs.

    Returns ``[(first_line_addr, n_lines), ...]`` where each run's line
    addresses — ``first_line_addr + k * line_size`` — all fall in one
    page, exactly the grouping the sequential walk discovers one line
    at a time.  ``start`` need not be line-aligned; the stream of line
    addresses is identical to the sequential ``addr += line_size`` loop.
    """
    runs: List[Tuple[int, int]] = []
    addr = start
    while addr < end:
        boundary = (addr // page_size + 1) * page_size
        stop = boundary if boundary < end else end
        n = -(-(stop - addr) // line_size)
        runs.append((addr, n))
        addr += n * line_size
    return runs


def eviction_plan(occupied: int, incoming: int,
                  associativity: int) -> Tuple[int, int, int]:
    """Closed-form effect of inserting ``incoming`` distinct absent
    lines into a set holding ``occupied`` lines, LRU-evicting on each
    full insert — the per-set arithmetic of a bulk fill.

    Returns ``(evictions, pop_existing, skip_new)``:

    * ``evictions`` — total LRU evictions the sequential inserts would
      perform (``max(0, occupied + incoming - associativity)``);
    * ``pop_existing`` — how many of those come from the set's current
      lines, oldest first;
    * ``skip_new`` — how many of the *incoming* lines get inserted and
      then evicted again before the fill completes (only when the run
      overwhelms the set); the bulk fill never materialises them, but
      must account their eviction (and writeback, if inserted dirty).
    """
    evictions = occupied + incoming - associativity
    if evictions <= 0:
        return 0, 0, 0
    pop_existing = occupied if evictions > occupied else evictions
    return evictions, pop_existing, evictions - pop_existing
