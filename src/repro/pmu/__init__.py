"""PMU simulation: precise events and per-thread sampling counters."""

from repro.pmu.events import (
    ALL_LOADS,
    ALL_STORES,
    DTLB_LOAD_MISSES,
    EVENTS_BY_NAME,
    L1_MISS,
    L2_MISS,
    L3_MISS,
    REMOTE_DRAM_LOADS,
    PmuEvent,
    event_by_name,
    load_latency_event,
)
from repro.pmu.pmu import PerfCounter, PerfEventConfig, Sample

__all__ = [
    "ALL_LOADS",
    "ALL_STORES",
    "DTLB_LOAD_MISSES",
    "EVENTS_BY_NAME",
    "L1_MISS",
    "L2_MISS",
    "L3_MISS",
    "REMOTE_DRAM_LOADS",
    "PerfCounter",
    "PerfEventConfig",
    "PmuEvent",
    "Sample",
    "event_by_name",
    "load_latency_event",
]
