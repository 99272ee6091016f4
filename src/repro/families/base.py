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

This class adds only what families need on top of the agent:

* a :class:`FamilyObject` payload that carries its current base address
  (updated on each GC relocation) and an ``alive`` flag, through the
  agent's object hooks;
* ``_objects``, every tracked object in allocation order;
* the per-access ``access_check`` charge for subclasses'
  ``on_access`` handlers;
* the ``_finalized``, ``_derive_metrics`` and ``_rank`` hooks and
  :meth:`ObjectFamilyProfiler.analyze`.

It departs from the agent's defaults in three declared ways: a move of
an untracked object is dropped rather than inserted as an unknown
interval (without the allocation event there is no shadow state to
maintain), samples pay no NUMA query, and the payload type differs.

Unlike the sampling-only DJXPerf agent, families set ``wants_accesses``
and read the raw access stream (the JXPerf/OJXPerf papers use PEBS with
precise loads *and* stores; the simulator gives the exact stream
instead).  The bus still constructs those events only while a
subscriber wants them, so machines running DJXPerf alone keep the
demand-driven skip path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.analyzer import AnalysisResult, analyze_profiles
from repro.core.jvmtiagent import AgentCostModel, DjxJvmtiAgent
from repro.core.profile import FrameResolver, TrackedObject
from repro.jvmti.agent_iface import JvmtiEnv
from repro.pmu.events import PmuEvent


@dataclass
class FamilyObject(TrackedObject):
    """Splay payload with mutable placement state.

    Families need per-object shadow state addressed by *offset into the
    object*, so the payload tracks its own current base address (updated
    on every GC relocation — batches preserve stream order, so the base
    is always consistent with the access events around it) and whether
    the object is still live.
    """

    addr: int = 0
    alive: bool = True


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
    wants_accesses = True
    wants_allocs = True
    #: Metric name the family ranks by; also ``AnalysisResult.primary_event``.
    primary_metric = "family"
    #: PMU events sampled while attached (default: none).
    events: Tuple[PmuEvent, ...] = ()
    payload_type = FamilyObject
    default_costs = AgentCostModel(numa_query=0)
    inserts_unknown_moves = False
    object_hooks = True

    def __init__(self, machine=None, sample_period: int = 64,
                 size_threshold: int = 0,
                 costs: Optional[AgentCostModel] = None) -> None:
        super().__init__(machine, self.events, sample_period,
                         size_threshold, costs=costs)
        #: Every tracked object ever, in allocation order (dead ones
        #: keep their shadow state) — the unit replica grouping walks.
        self._objects: List[FamilyObject] = []

    def attach(self, machine=None) -> "ObjectFamilyProfiler":
        """Subscribe to the bus (and open any samplers the family uses)."""
        if machine is not None:
            self.machine = machine
        self.start()
        return self

    def detach(self) -> None:
        """Stop collecting.  Profiles and tracked state stay readable."""
        self.stop()

    # ------------------------------------------------------------------
    # Object hooks
    # ------------------------------------------------------------------
    def _tracked(self, obj: FamilyObject, addr: int) -> None:
        obj.addr = addr
        self._objects.append(obj)

    def _moved(self, obj: FamilyObject, dst: int) -> None:
        obj.addr = dst

    def _finalized(self, obj: FamilyObject) -> None:
        """Hook: the object's lifetime ended (shadow state is final).
        Subclasses extend it and call ``super()._finalized(obj)``."""
        obj.alive = False

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
