"""Unit tests for sampling counters."""

import pytest

from repro.memsys.hierarchy import LEVEL_DRAM, LEVEL_L1, AccessResult
from repro.pmu import L1_MISS, PerfEventConfig
from repro.pmu.pmu import PerfCounter


def load(l1=1, address=0x1000):
    return AccessResult(address=address, size=8, is_write=False, cpu=3,
                        level=LEVEL_DRAM if l1 else LEVEL_L1, latency=200,
                        l1_misses=l1, l2_misses=0, l3_misses=0, tlb_misses=0,
                        home_node=0, remote=False)


class TestPerfCounter:
    def test_overflow_every_period(self):
        samples = []
        counter = PerfCounter(PerfEventConfig(L1_MISS, sample_period=3),
                              samples.append)
        for _ in range(9):
            counter.observe(0, load())
        assert len(samples) == 3
        assert counter.total == 9

    def test_no_sample_before_period(self):
        samples = []
        counter = PerfCounter(PerfEventConfig(L1_MISS, sample_period=10),
                              samples.append)
        for _ in range(9):
            counter.observe(0, load())
        assert samples == []
        assert counter.value == 9

    def test_sample_carries_pebs_payload(self):
        samples = []
        counter = PerfCounter(PerfEventConfig(L1_MISS, sample_period=1),
                              samples.append)
        counter.observe(7, load(address=0xBEEF), ucontext="ctx")
        s = samples[0]
        assert s.address == 0xBEEF
        assert s.cpu == 3                 # PERF_SAMPLE_CPU
        assert s.tid == 7
        assert s.ucontext == "ctx"
        assert s.event == L1_MISS.name

    def test_multi_count_access_can_deliver_multiple_samples(self):
        # An access spanning lines can count 2 events; with period 1 it
        # must deliver 2 samples.
        samples = []
        counter = PerfCounter(PerfEventConfig(L1_MISS, sample_period=1),
                              samples.append)
        two_miss = AccessResult(address=0x0, size=128, is_write=False,
                                cpu=0, level=LEVEL_DRAM, latency=400,
                                l1_misses=2, l2_misses=2, l3_misses=2,
                                tlb_misses=0, home_node=0, remote=False,
                                lines=2)
        delivered = counter.observe(0, two_miss)
        assert delivered == 2

    def test_disabled_counter_ignores_events(self):
        samples = []
        counter = PerfCounter(PerfEventConfig(L1_MISS, sample_period=1),
                              samples.append)
        counter.enabled = False
        counter.observe(0, load())
        assert counter.total == 0
        assert samples == []

    def test_zero_count_event_ignored(self):
        samples = []
        counter = PerfCounter(PerfEventConfig(L1_MISS, sample_period=1),
                              samples.append)
        counter.observe(0, load(l1=0))
        assert counter.total == 0

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            PerfEventConfig(L1_MISS, sample_period=0)

