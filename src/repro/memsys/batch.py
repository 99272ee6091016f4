"""Page-run splitting for the memory hierarchy's bulk walk.

:meth:`~repro.memsys.hierarchy.MemoryHierarchy.touch_range` walks a
range one line at a time, but does its page-table touch and TLB step
once per page: :func:`page_runs` splits the range into per-page line
runs so that per-page work is done once per run.  The split is pure
arithmetic on addresses; all state mutation stays in
:mod:`repro.memsys.hierarchy` and :mod:`repro.memsys.tlb`.
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

