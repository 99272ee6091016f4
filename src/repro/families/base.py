"""Shared base for object-centric profiler families.

Every family in this package answers the same shape of question DJXPerf
answers for bloat: *which allocation site produced the objects behind
this inefficiency?*  So every family **is** a DJXPerf agent:
:class:`ObjectFamilyProfiler` subclasses
:class:`~repro.core.profiler.DJXPerf` and inherits its attribution
protocol and lifecycle unchanged — the allocation-size filter feeding
the interval splay tree, sample attribution to allocation call paths,
the GC relocation map, finalize handling, offline sampler adoption at
the recorded period, attach/detach and the cycle cost model.  What
differs per family is the *signal*: which event stream it consumes and
how it turns events into per-site metrics.

This class adds only the ``_derive_metrics`` and ``_rank`` hooks of
:meth:`ObjectFamilyProfiler.analyze`.  A family samples its own
``events`` and takes only the sampling period and size threshold from
its :class:`~repro.core.profiler.DjxConfig`.  It departs from the
agent's defaults in two declared ways: a move of an untracked object is
dropped rather than inserted as an unknown interval, and samples pay no
NUMA query.

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
from repro.core.profile import FrameResolver
from repro.core.profiler import AgentCostModel, DJXPerf, DjxConfig
from repro.pmu.events import PmuEvent


class ObjectFamilyProfiler(DJXPerf):
    """Base collector for the profiler families.

    Live use::

        profiler = ReplicaProfiler(DjxConfig(sample_period=64))
        profiler.attach(machine)
        ... run ...
        result = profiler.analyze()

    Offline use: feed it a recorded trace via
    :func:`repro.obs.replay.replay_analyze`; sampler ids are adopted
    from the trace's :class:`SamplerOpenEvent` records by ``owner``
    label.
    """

    label = "family"
    wants_allocs = True
    #: Metric name the family ranks by; also ``AnalysisResult.primary_event``.
    primary_metric = "family"
    #: PMU events sampled while attached (default: none).
    events: Tuple[PmuEvent, ...] = ()
    inserts_unknown_moves = False

    def __init__(self, config: Optional[DjxConfig] = None) -> None:
        super().__init__(config or DjxConfig(size_threshold=0))
        # The family's own events and costs replace the config's.
        self.events = list(type(self).events)
        self.costs = AgentCostModel(numa_query=0)
        self.track_numa = self.collect_access_contexts = True

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
