"""Collector base class: a pluggable subscriber on the event bus.

A collector receives event *batches* at scheduler-quantum boundaries and
dispatches each event to a typed ``on_*`` handler.  Subclasses override
only the handlers they care about; the default implementations are
no-ops.

Every profiler shares one lifecycle, defined here: :meth:`attach`
subscribes to a machine's bus and opens one PMU sampler per entry of
the class's ``events``; :meth:`detach` closes those samplers and
unsubscribes; :meth:`frame_resolver` resolves raw frames through the
attached machine's JVMTI surface.  A collector that was never attached
is *offline*: it can be fed recorded trace batches
(:mod:`repro.obs.replay`), and resolves frames with the trace reader's
resolver instead.

Cycle accounting: a collector charges its own simulated work to the
thread that triggered the event via :meth:`Collector.charge`, which also
accumulates ``charged_cycles`` per collector.  That per-collector total
is what lets one shared run be decomposed into per-profiler overheads
(the profiler-families benchmark): with N collectors on one bus,
``wall - sum(other collectors' charges)`` is the wall time a solo run of
this collector would have cost.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple

from repro.obs.events import (
    AccessEvent,
    AllocEvent,
    GcFinalizeEvent,
    GcMoveEvent,
    GcNotifyEvent,
    JitCompileEvent,
    MachineEvent,
    ObjectContentEvent,
    SampleEvent,
    SamplerOpenEvent,
    ThreadEndEvent,
    ThreadStartEvent,
    WatchTrapEvent,
)


class Collector:
    """Base class for event-bus subscribers."""

    #: Shown in traces/diagnostics and used to match sampler ownership.
    label = "collector"
    #: Set True to receive raw AccessEvents (full-trace profilers).
    #: The bus skips AccessEvent construction entirely when no
    #: subscriber wants them, keeping the hot path cheap.
    wants_accesses = False
    #: Set False for samples-only collectors that ignore AllocEvents.
    #: The machine skips AllocEvent construction (and the call-stack
    #: snapshot it requires) when no subscriber wants allocations.
    #: Defaults True because most collectors track object lifetimes.
    wants_allocs = True
    #: Set True to receive ObjectContentEvents: the machine digests
    #: each object's heap content as it dies and when the run ends.
    wants_contents = False
    #: PMU events :meth:`attach` opens one sampler for, each at
    #: ``sample_period`` (samples-free collectors open none).
    events: Tuple = ()
    sample_period = 0
    #: Open the samplers with ``watch=True``: each sample arms a
    #: watchpoint on its address (the JXPerf redundancy family).
    arms_watchpoints = False

    def __init__(self) -> None:
        self.bus = None
        #: The attached machine; None while offline.
        self.machine = None
        #: Handlers act only while enabled (attached, or fed a trace).
        self.enabled = False
        #: Bus sampler ids this collector owns; samples from other
        #: collectors' samplers are ignored.
        self._sampler_ids: Set[int] = set()
        #: Cycles this collector charged to simulated threads.
        self.charged_cycles = 0
        self._dispatch = {
            ThreadStartEvent: self.on_thread_start,
            ThreadEndEvent: self.on_thread_end,
            AllocEvent: self.on_alloc,
            AccessEvent: self.on_access,
            SampleEvent: self.on_sample,
            GcMoveEvent: self.on_gc_move,
            GcFinalizeEvent: self.on_gc_finalize,
            GcNotifyEvent: self.on_gc_notification,
            JitCompileEvent: self.on_jit_compile,
            SamplerOpenEvent: self.on_sampler_open,
            WatchTrapEvent: self.on_watch_trap,
            ObjectContentEvent: self.on_object_content,
        }

    # ------------------------------------------------------------------
    # Batch delivery
    # ------------------------------------------------------------------
    def handle_batch(self, events: Iterable[MachineEvent]) -> None:
        """Dispatch one flushed batch, preserving stream order."""
        dispatch = self._dispatch
        for event in events:
            handler = dispatch.get(type(event))
            if handler is not None:
                handler(event)

    # ------------------------------------------------------------------
    # Cycle accounting
    # ------------------------------------------------------------------
    def charge(self, thread: Optional[object], cycles: int) -> None:
        """Charge profiler work to the thread it runs on (may be None
        when replaying offline, where no simulated time passes)."""
        self.charged_cycles += cycles
        if thread is not None:
            thread.cycles += cycles

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, machine) -> "Collector":
        """Subscribe to ``machine``'s bus and open this collector's
        samplers.  The machine may already be running (attach mode):
        the collector sees events from now on.  Attaches once."""
        if self.machine is not None:
            raise RuntimeError(f"{self.label} collector already attached")
        self.machine = machine
        self.enabled = True
        bus = machine.bus
        bus.subscribe(self)
        for event in self.events:
            self._sampler_ids.add(
                bus.open_sampler(event, self.sample_period,
                                 owner=self.label,
                                 watch=self.arms_watchpoints))
        return self

    def detach(self) -> None:
        """Close this collector's samplers and unsubscribe; the program
        keeps running undisturbed and what was collected stays
        readable."""
        self.enabled = False
        if self.bus is not None:
            for sampler_id in self._sampler_ids:
                self.bus.close_sampler(sampler_id)
            self.bus.unsubscribe(self)

    def frame_resolver(self):
        """A :data:`~repro.core.profile.FrameResolver` for raw
        ``(method_id, bci)`` frames of the attached machine."""
        if self.machine is None:
            raise RuntimeError(
                f"{self.label} collector is not attached to a machine; "
                f"resolve a replayed trace's frames with "
                f"TraceReader.frame_resolver()")
        from repro.jvmti.agent_iface import JvmtiEnv

        return JvmtiEnv(self.machine).frame_resolver()

    def on_subscribed(self, bus) -> None:
        """Called after this collector is added to a bus."""

    def on_unsubscribed(self, bus) -> None:
        """Called after this collector is removed from a bus."""

    # ------------------------------------------------------------------
    # Typed event handlers (override as needed)
    # ------------------------------------------------------------------
    def on_thread_start(self, event: ThreadStartEvent) -> None: ...

    def on_thread_end(self, event: ThreadEndEvent) -> None: ...

    def on_alloc(self, event: AllocEvent) -> None: ...

    def on_access(self, event: AccessEvent) -> None: ...

    def on_sample(self, event: SampleEvent) -> None: ...

    def on_gc_move(self, event: GcMoveEvent) -> None: ...

    def on_gc_finalize(self, event: GcFinalizeEvent) -> None: ...

    def on_gc_notification(self, event: GcNotifyEvent) -> None: ...

    def on_jit_compile(self, event: JitCompileEvent) -> None: ...

    def on_sampler_open(self, event: SamplerOpenEvent) -> None: ...

    def on_watch_trap(self, event: WatchTrapEvent) -> None: ...

    def on_object_content(self, event: ObjectContentEvent) -> None: ...
