"""Offline analysis over recorded traces (the paper's §4.4 split).

``replay_analyze`` rebuilds DJXPerf thread profiles from a trace file
— **without re-simulating the machine** — and runs the same offline
analyzer the live profiler uses.  Two modes:

* **same-period replay** (default): consume the recorded SampleEvents.
  With the recording configuration this reproduces the live
  ``AnalysisResult`` exactly; the size threshold may still be
  overridden, because traces carry *every* AllocEvent (the hook fires
  pre-filter) and thresholding happens in the agent.
* **resampling** (``resample=True``): discard recorded samples and
  re-derive them from the raw AccessEvents with fresh per-thread
  counters at the requested period — the trace must have been recorded
  with ``include_accesses=True``.  Replayed samples carry empty call
  paths (raw accesses do not snapshot stacks), so access-context
  collection is effectively off in this mode.

This module imports :mod:`repro.core`, which imports the machine, which
imports :mod:`repro.obs` — so it is deliberately **not** re-exported
from ``repro.obs.__init__``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.obs.collector import Collector
from repro.obs.events import AccessEvent, SampleEvent
from repro.obs.trace import TraceReader

#: Synthetic sampler ids for resampling start here, far above anything a
#: live bus hands out within one run.
_RESAMPLE_ID_BASE = 1 << 20

_BATCH = 4096


def replay_events(trace_path: str, collectors: List[Collector],
                  batch_size: int = _BATCH) -> TraceReader:
    """Feed a recorded trace to collectors in flush-sized batches.

    Returns the reader (its method metadata is fully populated
    afterwards, so ``reader.frame_resolver()`` works).
    """
    reader = TraceReader(trace_path)
    _feed(reader.events(), collectors, batch_size)
    return reader


def _feed(events: Iterable, collectors: List[Collector],
          batch_size: int = _BATCH) -> None:
    """Deliver ``events`` to every collector in flush-sized batches."""
    batch: list = []
    for event in events:
        batch.append(event)
        if len(batch) >= batch_size:
            for collector in collectors:
                collector.handle_batch(batch)
            batch = []
    if batch:
        for collector in collectors:
            collector.handle_batch(batch)


class _Resampler:
    """Re-derives SampleEvents from raw AccessEvents at a new period."""

    def __init__(self, events, sample_period: int) -> None:
        from repro.pmu.pmu import PerfCounter, PerfEventConfig

        self._configs = [PerfEventConfig(event, sample_period)
                         for event in events]
        self._counter_cls = PerfCounter
        #: (tid, event name) → counter
        self._counters = {}
        self.sampler_ids = [
            _RESAMPLE_ID_BASE + i for i in range(len(self._configs))]
        self.accesses_seen = 0
        #: Samples synthesized by overflow handlers since the last drain.
        self._synthesized: list = []

    def transform(self, events: Iterable) -> Iterable:
        """Drop recorded samples; synthesize fresh ones from accesses."""
        for event in events:
            if isinstance(event, SampleEvent):
                continue
            if isinstance(event, AccessEvent):
                self.accesses_seen += 1
                yield event
                yield from self._observe(event)
                continue
            yield event

    def _observe(self, access: AccessEvent):
        for i, config in enumerate(self._configs):
            key = (access.tid, i)
            counter = self._counters.get(key)
            if counter is None:
                sampler_id = self.sampler_ids[i]

                def handler(sample, _sid=sampler_id):
                    self._synthesized.append(SampleEvent(
                        sampler_id=_sid, event=sample.event,
                        tid=sample.tid, cpu=sample.cpu,
                        address=sample.address, size=sample.size,
                        is_write=sample.is_write, latency=sample.latency,
                        level=sample.level, home_node=sample.home_node,
                        remote=sample.remote, path=()))

                counter = self._counter_cls(config, handler)
                self._counters[key] = counter
            counter.observe(access.tid, access.result)
        drained = self._synthesized
        self._synthesized = []
        return drained


def replay_analyze(trace_path: str, config=None, resample: bool = False):
    """Re-run the offline analyzer over a recorded trace.

    ``config`` is a :class:`~repro.core.profiler.DjxConfig`; omit it to
    analyze with the defaults.  Returns an
    :class:`~repro.core.analyzer.AnalysisResult`.
    """
    from repro.core.analyzer import analyze_profiles
    from repro.core.jvmtiagent import DjxJvmtiAgent
    from repro.core.profiler import DjxConfig

    config = config or DjxConfig()
    agent = DjxJvmtiAgent(
        machine=None,
        events=list(config.events),
        sample_period=config.sample_period,
        size_threshold=config.size_threshold,
        track_numa=config.track_numa,
        collect_access_contexts=config.collect_access_contexts,
        costs=config.costs)
    agent.enabled = True

    reader = TraceReader(trace_path)
    resampler: Optional[_Resampler] = None
    stream = reader.events()
    if resample:
        resampler = _Resampler(config.events, config.sample_period)
        for sampler_id in resampler.sampler_ids:
            agent.accept_sampler(sampler_id)
        stream = resampler.transform(stream)

    _feed(stream, [agent])

    if resample and resampler.accesses_seen == 0:
        raise ValueError(
            f"{trace_path}: trace has no raw access events; record with "
            f"include_accesses=True to resample at a different period")

    return analyze_profiles(
        list(agent.profiles.values()), reader.frame_resolver(),
        primary_event=config.events[0].name)
