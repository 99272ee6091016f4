"""Percentiles, tails, best-of-rounds and the fleet's max-ok-rate rule."""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

#: Candidate tail percentiles, lowest first.
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: Fleet latency limit on a step's p90 for it to count as "ok".
OK_P90_MS = 2000.0
#: Share of a step's offered jobs that must finish within the step + 2 s.
OK_ON_TIME = 0.95


def _rank(n: int, q: float) -> int:
    # Rounded first so that, say, 99.9 % of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of already-sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(len(sorted_values), q) - 1]


def beyond(n: int, q: float) -> int:
    """Samples ranked above the nearest-rank ``q``-th percentile of ``n``."""
    return n - _rank(n, q)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    :data:`MIN_BEYOND` samples beyond it.

    With too few samples for any of them the tail is the maximum,
    reported as percentile 100.
    """
    ordered = sorted(values)
    for q in reversed(TAIL_LADDER):
        if beyond(len(ordered), q) >= MIN_BEYOND:
            return q, nearest_rank(ordered, q)
    return 100.0, ordered[-1]


def timing_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, tail and sample count of one timing's samples.

    Failed operations belong in ``values`` as ``math.inf``.
    """
    ordered = sorted(values)
    q, value = tail(ordered)
    return {"n": len(ordered), "p50": nearest_rank(ordered, 50),
            "tail_q": q, "tail": value}


def best_of_rounds(samples: Sequence[Tuple[str, float]]) -> Dict[str, float]:
    """Each program's fastest job time.

    Interference from other work on the host only ever slows a job, so
    over rounds of identical jobs the fastest is the least disturbed
    reading.  A program whose every job failed reads ``math.inf``.
    """
    best: Dict[str, float] = {}
    for program, value in samples:
        best[program] = min(value, best.get(program, math.inf))
    return best


def max_ok_rate(steps: List[dict]) -> float:
    """Highest offered rate of a step that met the latency limit.

    Each step is ``{"rate", "p90_ms", "offered", "on_time"}``; a step is
    ok when its p90 latency is at most :data:`OK_P90_MS` and at least
    :data:`OK_ON_TIME` of its offered jobs finished within the step plus
    2 s.  0 when no step is ok.
    """
    ok = [step["rate"] for step in steps
          if step["offered"] and step["p90_ms"] <= OK_P90_MS
          and step["on_time"] >= OK_ON_TIME * step["offered"]]
    return max(ok, default=0.0)
