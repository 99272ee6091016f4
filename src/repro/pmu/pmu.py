"""Per-thread virtualised PMU with PEBS-style address sampling.

Mirrors the ``perf_event_open`` usage in the paper: a profiler programs a
precise event with a sampling period for each thread; when the counter
overflows, the "kernel" delivers a sample to the thread's signal handler
carrying the effective address, the CPU number (``PERF_SAMPLE_CPU``), and
a ucontext from which the call stack can be unwound asynchronously.

Counters count *down*: :attr:`PerfCounter.remaining_until_overflow`
starts at the period and is decremented per counted event, overflowing
when it reaches zero — exactly how the hardware implements sampling
(the PMU register is programmed to ``-period`` and interrupts on carry).
The skip-ahead fast paths in :mod:`repro.obs.bus` exploit this by bulk
decrementing the register across stretches that provably cannot
overflow; the arithmetic here is the per-event reference they must
agree with bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.memsys.hierarchy import AccessResult
from repro.pmu.events import PmuEvent


@dataclass(frozen=True)
class Sample:
    """One PEBS sample as delivered to the overflow handler."""

    event: str
    address: int         # effective address (PEBS)
    size: int
    is_write: bool
    cpu: int             # PERF_SAMPLE_CPU
    tid: int
    latency: int
    level: str           # cache level that served the access
    home_node: int
    remote: bool
    #: Opaque context for AsyncGetCallTrace-style unwinding (the thread).
    ucontext: object = None


@dataclass(frozen=True)
class PerfEventConfig:
    """What to count and how often to sample."""

    event: PmuEvent
    sample_period: int

    def __post_init__(self) -> None:
        if self.sample_period <= 0:
            raise ValueError(
                f"sample_period must be positive, got {self.sample_period}")


#: Overflow handler (the profiler's "signal handler").
SampleHandler = Callable[[Sample], None]


class PerfCounter:
    """One programmed hardware counter in sampling mode.

    The live register is :attr:`remaining_until_overflow`: the number of
    further counted events before the next sample fires.  Disabling the
    counter (``PERF_EVENT_IOC_DISABLE``) freezes it exactly where it is;
    re-enabling resumes with no drift.  Fast paths that can prove a
    stretch of ``n`` countable events cannot overflow may decrement the
    register directly (``remaining_until_overflow -= n; total += n``) —
    the per-event loop in :meth:`observe` is the reference semantics.
    """

    def __init__(self, config: PerfEventConfig,
                 handler: SampleHandler) -> None:
        self.config = config
        self.handler = handler
        #: Countdown register: counted events left before the next sample.
        self.remaining_until_overflow = config.sample_period
        self.total = 0           # lifetime event count
        self.samples_delivered = 0
        self.enabled = True

    @property
    def value(self) -> int:
        """Counts since the last overflow (the classic counter reading)."""
        return self.config.sample_period - self.remaining_until_overflow

    def observe(self, tid: int, result: AccessResult,
                ucontext: object = None) -> int:
        """Count one access; deliver overflow samples.  Returns samples
        delivered (0 or more, for counts larger than the period)."""
        if not self.enabled:
            return 0
        n = self.config.event.counts(result)
        if n == 0:
            return 0
        self.total += n
        remaining = self.remaining_until_overflow - n
        if remaining > 0:
            self.remaining_until_overflow = remaining
            return 0
        period = self.config.sample_period
        delivered = 0
        while remaining <= 0:
            remaining += period
            # Commit the register before the handler runs: a handler may
            # read (or close) the counter, and must see post-overflow state.
            self.remaining_until_overflow = remaining
            sample = Sample(
                event=self.config.event.name,
                address=result.address,
                size=result.size,
                is_write=result.is_write,
                cpu=result.cpu,
                tid=tid,
                latency=result.latency,
                level=result.level,
                home_node=result.home_node,
                remote=result.remote,
                ucontext=ucontext)
            self.handler(sample)
            self.samples_delivered += 1
            delivered += 1
        return delivered

