"""Shared base for object-centric profiler families.

Every family in this package answers the same shape of question DJXPerf
answers for bloat: *which allocation site produced the objects behind
this inefficiency?*  So every family **is** a DJXPerf agent:
:class:`ObjectFamilyProfiler` subclasses
:class:`~repro.core.jvmtiagent.DjxJvmtiAgent` and inherits its
attribution protocol unchanged — the allocation-size filter feeding the
interval splay tree, sample attribution to allocation call paths, the
GC relocation map, finalize handling, offline sampler adoption and the
cycle cost model.  What differs per family is the *signal*: which event
stream it consumes and how it turns events into per-site metrics.

This class adds only the ``_derive_metrics`` and ``_rank`` hooks of
:meth:`ObjectFamilyProfiler.analyze`, ``attach``/``detach``, and replay
at the recorded sampling period only.  It departs from the agent's
defaults in two declared ways: a move of an untracked object is dropped
rather than inserted as an unknown interval, and samples pay no NUMA
query.

Like DJXPerf, and like the JXPerf and OJXPerf papers, families sample:
none reads the raw access stream, so profiling a run with a family
keeps the skip-ahead PMU, fused blocks and the pooled L1 path.  Their
signals are PMU samples, watchpoint traps armed by samples
(:class:`~repro.families.RedundancyProfiler`) and object contents read
from the heap (:class:`~repro.families.ReplicaProfiler`), all of which
ride the recordable event stream, so replaying a trace reproduces the
live analysis exactly.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.analyzer import AnalysisResult, analyze_profiles
from repro.core.jvmtiagent import AgentCostModel, DjxJvmtiAgent
from repro.core.profile import FrameResolver
from repro.jvmti.agent_iface import JvmtiEnv
from repro.obs.events import SamplerOpenEvent
from repro.pmu.events import PmuEvent


class ObjectFamilyProfiler(DjxJvmtiAgent):
    """Base collector for the profiler families.

    Live use::

        profiler = ReplicaProfiler(machine, sample_period=64)
        profiler.attach()
        ... run ...
        result = profiler.analyze()

    Offline use (``machine=None``): feed it a recorded trace via
    :func:`repro.families.replay_family`; sampler ids are adopted from
    the trace's :class:`SamplerOpenEvent` records by ``owner`` label.
    """

    label = "family"
    wants_allocs = True
    #: Metric name the family ranks by; also ``AnalysisResult.primary_event``.
    primary_metric = "family"
    #: PMU events sampled while attached (default: none).
    events: Tuple[PmuEvent, ...] = ()
    default_costs = AgentCostModel(numa_query=0)
    inserts_unknown_moves = False

    def __init__(self, machine=None, sample_period: int = 64,
                 size_threshold: int = 0,
                 costs: Optional[AgentCostModel] = None) -> None:
        super().__init__(machine, self.events, sample_period,
                         size_threshold, costs=costs)

    def attach(self, machine=None) -> "ObjectFamilyProfiler":
        """Subscribe to the bus (and open any samplers the family uses)."""
        if machine is not None:
            self.machine = machine
        self.start()
        return self

    def detach(self) -> None:
        """Stop collecting.  Profiles and tracked state stay readable."""
        self.stop()

    def on_sampler_open(self, event: SamplerOpenEvent) -> None:
        # A recorded sample stream cannot be re-derived at another
        # period: traps and contents follow from the recorded samples.
        if self.machine is None and event.owner == self.label \
                and event.period != self.sample_period:
            raise ValueError(
                f"{self.label} trace was recorded at sampling period "
                f"{event.period}; a family replays only at its recorded "
                f"period, not {self.sample_period}")
        super().on_sampler_open(event)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def analyze(self, resolver: Optional[FrameResolver] = None
                ) -> AnalysisResult:
        """Merge thread profiles into a ranked result.

        Idempotent: calling twice returns equal results (families that
        derive metrics at analyze time recompute them from scratch).
        """
        resolver = resolver or self.frame_resolver()
        self._derive_metrics()
        result = analyze_profiles(list(self.profiles.values()), resolver,
                                  self.primary_metric)
        return self._rank(result)

    def _derive_metrics(self) -> None:
        """Hook: (re)compute per-site metrics on the raw thread profiles
        just before merging.  Must be idempotent — assign, don't add."""

    def _rank(self, result: AnalysisResult) -> AnalysisResult:
        """Hook: post-process the merged result (scores, re-ranking)."""
        return result

    def frame_resolver(self) -> FrameResolver:
        if self.machine is None:
            raise RuntimeError(
                "offline profiler has no machine; resolve frames with the "
                "trace reader's frame_resolver()")
        return JvmtiEnv(self.machine).frame_resolver()
