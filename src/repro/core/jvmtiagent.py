"""The JVMTI agent: PMU control, object attribution, GC handling.

This is the native half of DJXPerf (paper §4), implemented as a
:class:`~repro.obs.collector.Collector` on the machine's observation
bus:

* **Start** → subscribe to the bus and open one PMU sampler per
  configured precise event; the bus arms counters on every live thread
  (attach mode) and on each thread that starts later.
* **SampleEvent** (PMU overflow) → look the PEBS effective address up in
  the shared interval splay tree; attribute the metric to the enclosing
  object's *allocation call path*, record the sample's own call path as
  an access context, and classify the access as NUMA-local or -remote
  (the ``move_pages``-vs-``PERF_SAMPLE_CPU`` comparison, carried on the
  event).
* **AllocEvent** (from the Java agent's instrumentation hook) → apply
  the size threshold ``S``, insert the object's memory range into the
  splay tree.
* **GC events** → buffer moves in a relocation map and batch-apply them
  to the splay tree on the MXBean GC-completion notification; drop
  intervals whose objects were finalized.

Every operation charges a cycle cost to the thread it runs on, which is
what the overhead experiments (Figure 4) measure.  Because events are
ring-buffered and delivered at quantum boundaries, charges land on
``event.thread`` right after that thread's quantum — identical totals to
the old synchronous-callback path, since charges never perturb the
access stream of the deterministic scheduler.

Constructed with ``machine=None`` the agent runs **offline**: it can be
fed a recorded trace batch-by-batch (see :mod:`repro.obs.replay`),
rebuilding profiles without a simulation, and accepts sampler ids from
:class:`~repro.obs.events.SamplerOpenEvent` records whose owner matches
its label.

The profiler families (:mod:`repro.families`) subclass this agent, so
this class is the only implementation of object attribution.  A
subclass changes it only through class attributes — ``payload_type``,
``default_costs`` (families pay no NUMA query), ``inserts_unknown_moves``,
``arms_watchpoints`` — and, when ``object_hooks`` is set, the
:meth:`DjxJvmtiAgent._tracked` hook.
The agent itself sets no hook, so its per-event path makes no extra call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.profile import ThreadProfile, TrackedObject
from repro.core.splay import IntervalSplayTree
from repro.obs.collector import Collector
from repro.obs.events import (
    AllocEvent,
    GcFinalizeEvent,
    GcMoveEvent,
    GcNotifyEvent,
    SampleEvent,
    SamplerOpenEvent,
    ThreadStartEvent,
)
from repro.pmu.events import PmuEvent


@dataclass(frozen=True)
class AgentCostModel:
    """Cycle cost of the agent's own work (the source of overhead)."""

    #: Charged for *every* allocation callback, even ones the size
    #: threshold filters out — the JNI hook fires regardless, which is
    #: why allocation-heavy benchmarks pay >30% overhead (Figure 4).
    alloc_hook_dispatch: int = 50
    alloc_hook_base: int = 120          # path capture + splay insert
    alloc_hook_per_frame: int = 12      # AsyncGetCallTrace per frame
    sample_base: int = 300              # signal + splay lookup + CCT
    sample_per_frame: int = 12
    numa_query: int = 60                # move_pages syscall
    #: Watchpoint trap: signal + splay lookup + verdict, paid by the
    #: redundancy family per trap (JXPerf's debug-register handler).
    watch_trap: int = 300
    memmove_record: int = 15            # append to relocation map
    gc_batch_per_entry: int = 40        # splay delete+insert
    finalize_remove: int = 30


@dataclass
class AgentStats:
    allocations_seen: int = 0
    allocations_filtered: int = 0       # below the size threshold S
    traps_handled: int = 0              # watchpoint families only
    traps_untracked: int = 0            # trapped outside tracked objects
    samples_handled: int = 0
    samples_unknown: int = 0
    relocations_applied: int = 0
    relocations_unknown: int = 0        # moves of untracked objects
    finalized_removed: int = 0


class DjxJvmtiAgent(Collector):
    """One agent instance per profiled machine (or per replayed trace)."""

    label = "djxperf"
    #: PEBS samples + allocation events are the agent's whole diet: it
    #: never needs the raw access stream (that is the paper's point),
    #: and the bus skips building it while only sample-driven
    #: collectors are attached.
    wants_accesses = False
    wants_allocs = True
    #: Splay payload built for each tracked allocation.
    payload_type = TrackedObject
    #: Cost model used when the constructor is given none.
    default_costs = AgentCostModel()
    #: A move of an object the agent never saw allocated inserts an
    #: unknown interval at its destination (paper §4.5).
    inserts_unknown_moves = True
    #: Hand every new payload to :meth:`_tracked` (the replica family
    #: keeps every tracked object).
    object_hooks = False
    #: Open the samplers with ``watch=True``: each sample arms a
    #: watchpoint on its address (the JXPerf redundancy family).
    arms_watchpoints = False

    def __init__(self, machine, events: List[PmuEvent],
                 sample_period: int, size_threshold: int,
                 track_numa: bool = True,
                 collect_access_contexts: bool = True,
                 costs: Optional[AgentCostModel] = None) -> None:
        super().__init__()
        self.machine = machine
        self.events = list(events)
        self.sample_period = sample_period
        self.size_threshold = size_threshold
        self.track_numa = track_numa
        self.collect_access_contexts = collect_access_contexts
        self.costs = costs or self.default_costs
        self.stats = AgentStats()

        #: Shared across threads (spin-lock protected in the paper; the
        #: simulator is single-stepped so the lock cost folds into the
        #: per-operation cost model).
        self.splay = IntervalSplayTree()
        self.profiles: Dict[int, ThreadProfile] = {}
        #: Bus sampler ids this agent owns; samples from other
        #: collectors' samplers are ignored.
        self._sampler_ids: Set[int] = set()
        #: Relocation map, reset at each GC completion (paper §4.5):
        #: src address → (dst address, size).
        self._relocation_map: Dict[int, Tuple[int, int]] = {}
        self.enabled = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Subscribe to the bus and arm PMUs (agent OnLoad/OnAttach)."""
        if self.machine is None:
            raise RuntimeError(f"offline {self.label} collector "
                               f"(machine=None) cannot start; feed it "
                               f"trace batches instead")
        self.enabled = True
        bus = self.machine.bus
        bus.subscribe(self)
        for event in self.events:
            self._sampler_ids.add(
                bus.open_sampler(event, self.sample_period,
                                 owner=self.label,
                                 watch=self.arms_watchpoints))
        # Attach mode: threads already running get profiles now; their
        # pre-attach allocations stay unknown (paper §4.5).
        for thread in self.machine.threads:
            if thread.alive:
                self.profile_of(thread.tid)

    def stop(self) -> None:
        """Disable sampling (agent detach).  Profiles stay readable."""
        self.enabled = False
        if self.bus is not None:
            for sampler_id in self._sampler_ids:
                self.bus.close_sampler(sampler_id)
            self.bus.unsubscribe(self)

    def profile_of(self, tid: int) -> ThreadProfile:
        profile = self.profiles.get(tid)
        if profile is None:
            profile = ThreadProfile(tid)
            self.profiles[tid] = profile
        return profile

    def _gc_thread(self):
        """The thread whose quantum triggered the current GC events."""
        if self.machine is None:
            return None
        return self.machine._current_thread

    # ------------------------------------------------------------------
    # Thread lifecycle (paper §4.1)
    # ------------------------------------------------------------------
    def on_thread_start(self, event: ThreadStartEvent) -> None:
        if not self.enabled:
            return
        self.profile_of(event.tid)

    def on_sampler_open(self, event: SamplerOpenEvent) -> None:
        # Offline replay: adopt the recorded sampler ids that belonged
        # to the live DJXPerf agent.
        if self.machine is None and event.owner == self.label:
            self._sampler_ids.add(event.sampler_id)

    def accept_sampler(self, sampler_id: int) -> None:
        """Manually accept a sampler id (offline resampling)."""
        self._sampler_ids.add(sampler_id)

    # ------------------------------------------------------------------
    # Allocation hook events (instrumented bytecode, §4.1-4.2)
    # ------------------------------------------------------------------
    def on_alloc(self, event: AllocEvent) -> None:
        """Track one fresh object from the ``_djx_on_alloc`` hook."""
        if not self.enabled:
            return
        self.stats.allocations_seen += 1
        self.charge(event.thread, self.costs.alloc_hook_dispatch)
        if event.size < self.size_threshold:
            self.stats.allocations_filtered += 1
            return
        path = event.path
        self.charge(event.thread,
                    self.costs.alloc_hook_base
                    + self.costs.alloc_hook_per_frame * len(path))
        tracked = self.payload_type(alloc_path=path, alloc_tid=event.tid,
                                    type_name=event.type_name,
                                    size=event.size)
        self.splay.insert(event.addr, event.end, tracked)
        if self.object_hooks:
            self._tracked(tracked, event.addr)
        self.profile_of(event.tid).site(path).record_allocation(
            event.type_name, event.size)

    # ------------------------------------------------------------------
    # PMU overflow samples (§4.2, §4.3)
    # ------------------------------------------------------------------
    def on_sample(self, event: SampleEvent) -> None:
        if not self.enabled or event.sampler_id not in self._sampler_ids:
            return
        profile = self.profile_of(event.tid)
        profile.record_total(event.event)
        self.stats.samples_handled += 1

        path = event.path
        self.charge(event.thread,
                    self.costs.sample_base
                    + self.costs.sample_per_frame * len(path))

        tracked = self.splay.lookup(event.address)
        if tracked is None or not isinstance(tracked, TrackedObject) \
                or not tracked.known:
            profile.record_unknown(event.event)
            self.stats.samples_unknown += 1
            return

        remote = False
        if self.track_numa:
            # move_pages on the sampled address vs the node of
            # PERF_SAMPLE_CPU — precomputed by the memory system and
            # carried on the event (the page cannot migrate between
            # overflow and flush in the simulator).
            self.charge(event.thread, self.costs.numa_query)
            remote = event.remote

        access_path = path if self.collect_access_contexts else ()
        profile.site(tracked.alloc_path).record_sample(
            event.event, access_path, remote)

    # ------------------------------------------------------------------
    # GC handling (§4.5)
    # ------------------------------------------------------------------
    def on_gc_move(self, event: GcMoveEvent) -> None:
        """``memmove`` interposition: record the move, apply later."""
        if not self.enabled:
            return
        self._relocation_map[event.src] = (event.dst, event.size)
        self.charge(self._gc_thread(), self.costs.memmove_record)

    def on_gc_notification(self, event: GcNotifyEvent) -> None:
        """MXBean GC-completion callback: batch-update the splay tree."""
        if not self.enabled:
            return
        if not self._relocation_map:
            return
        thread = self._gc_thread()
        cost = 0
        # Apply moves in ascending destination order: the collector slides
        # objects downward, so this order never tramples a pending source.
        moves = sorted(self._relocation_map.items(), key=lambda kv: kv[1][0])
        for src, (dst, size) in moves:
            payload = self.splay.remove_start(src)
            cost += self.costs.gc_batch_per_entry
            if payload is not None:
                self.splay.insert(dst, dst + size, payload)
                self.stats.relocations_applied += 1
                continue
            self.stats.relocations_unknown += 1
            if self.inserts_unknown_moves:
                # Attach mode can miss the allocation; insert the moved
                # interval anyway so future samples at least match an
                # (unknown) object rather than nothing (paper §4.5).
                self.splay.insert(dst, dst + size,
                                  TrackedObject(alloc_path=(), alloc_tid=-1,
                                                type_name="<moved>",
                                                size=size, known=False))
        self._relocation_map.clear()
        self.charge(thread, cost)

    def on_gc_finalize(self, event: GcFinalizeEvent) -> None:
        """``finalize`` interception: the object is about to be reclaimed."""
        if not self.enabled:
            return
        removed = self.splay.remove_start(event.addr)
        # The object may also have a pending relocation entry; a reclaimed
        # object must not be re-inserted at GC end.
        self._relocation_map.pop(event.addr, None)
        if removed is None:
            return
        self.stats.finalized_removed += 1
        self.charge(self._gc_thread(), self.costs.finalize_remove)

    def _tracked(self, obj: TrackedObject, addr: int) -> None:
        """Hook (``object_hooks`` only): ``obj`` entered the splay tree
        at ``addr``."""

    # ------------------------------------------------------------------
    # Memory footprint (for the memory-overhead experiments)
    # ------------------------------------------------------------------
    #: Rough per-entry sizes, mirroring the C++ implementation's structs.
    _SPLAY_NODE_BYTES = 64
    _SITE_BYTES = 96
    _CONTEXT_BYTES = 48
    _RELOC_ENTRY_BYTES = 24
    _PMU_BYTES = 256
    _SHADOW_CELL_BYTES = 24

    def _shadow_cells(self) -> int:
        """Hook: number of per-object shadow cells currently held."""
        return 0

    def memory_footprint(self) -> int:
        """Estimated profiler memory in bytes."""
        total = len(self.splay) * self._SPLAY_NODE_BYTES
        total += len(self._relocation_map) * self._RELOC_ENTRY_BYTES
        total += self._shadow_cells() * self._SHADOW_CELL_BYTES
        if self.events:
            # One armed PMU per thread the agent has seen.
            total += len(self.profiles) * self._PMU_BYTES
        for profile in self.profiles.values():
            total += len(profile.sites) * self._SITE_BYTES
            for stats in profile.sites.values():
                total += len(stats.access_contexts) * self._CONTEXT_BYTES
                total += (len(stats.path) + sum(
                    len(p) for p in stats.access_contexts)) * 16
        return total
