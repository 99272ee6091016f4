"""Collector base class: a pluggable subscriber on the event bus.

A collector receives event *batches* at scheduler-quantum boundaries and
dispatches each event to a typed ``on_*`` handler.  Subclasses override
only the handlers they care about; the default implementations are
no-ops.

Cycle accounting: a collector charges its own simulated work to the
thread that triggered the event via :meth:`Collector.charge`, which also
accumulates ``charged_cycles`` per collector.  That per-collector total
is what lets one shared run be decomposed into per-profiler overheads
(the profiler-families benchmark): with N collectors on one bus,
``wall - sum(other collectors' charges)`` is the wall time a solo run of
this collector would have cost.
"""

from __future__ import annotations

from typing import Iterable, Optional

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

    def __init__(self) -> None:
        self.bus = None
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
    # Lifecycle hooks
    # ------------------------------------------------------------------
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
