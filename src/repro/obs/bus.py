"""The observation event bus: ring-buffered, batched machine→collector path.

One :class:`EventBus` per machine.  Publishers (machine, interpreter,
GC glue, the default allocation hook) append events to a ring buffer;
the machine flushes the ring to every subscribed
:class:`~repro.obs.collector.Collector` at scheduler-quantum boundaries
(or earlier when the ring fills).  A single ordered ring carries all
event kinds, so collectors observe allocations, samples, GC moves and
finalizations in exactly the order they happened — splay-tree style
address tracking stays correct under batching.

The bus also hosts the virtualised PMU: collectors *open samplers*
(event + period + owner label) and the bus counts every non-internal
access against each armed counter synchronously — the PMU is hardware
and cannot be batched — publishing a :class:`~repro.obs.events.SampleEvent`
carrying the call path snapshot on each overflow (PEBS + async unwind).
Sampler state follows thread lifecycle exactly as ``perf_event_open``
per-thread counters do.

Skip-ahead counting
-------------------
The default counting mode pays per *sample*, not per access, the way
PEBS hardware does.  Per thread, the bus tabulates its armed counters by
outcome combo (:func:`repro.pmu.events.combo_index`): one list lookup on
the access's (level, tlb, rw, numa) combo yields exactly the counters
that count it — usually none, since the paper's preset samples L1
*misses* and most accesses hit.  A counting counter's countdown register
(:attr:`~repro.pmu.pmu.PerfCounter.remaining_until_overflow`) is
decremented in place; only at overflow does the full sample path run
(call-stack unwind, SampleEvent publication).  Bulk walks go further:
:meth:`EventBus.bulk_budget` tells the machine how many single-line
accesses provably cannot overflow any register, the hierarchy's fused
walk histograms outcomes per combo, and :meth:`EventBus.observe_bulk`
applies the whole stretch in one decrement per counter.  Events whose
count is not combo-pure (load-latency filtering), multi-line accesses,
and ``skip_ahead=False`` (the differential suite's reference arm) all
fall back to per-access :meth:`~repro.pmu.pmu.PerfCounter.observe` —
every mode produces bit-identical sample streams.

Demand-driven streams
---------------------
Collectors declare capabilities (``wants_accesses``, ``wants_allocs``)
and subscribe/unsubscribe maintain the refcounted union, so the machine
skips *constructing* per-access AccessEvents — and per-allocation
AllocEvents with their call-path snapshots — that nobody consumes
(``access_events_built`` / ``alloc_events_built`` count what was
actually built).  Trace recording opts in explicitly, restoring the
full stream.  Capability changes mid-run take effect at the next
dispatch stretch, i.e. by the next scheduler quantum.

Watchpoints
-----------
A ``watch=True`` sampler arms a simulated debug-register watchpoint at
each overflow of an access with a known value, as JXPerf does, in the
thread's ``watch`` map (at most :data:`WATCH_SLOTS`).  The thread's next
access to that address traps: :meth:`EventBus.watch_trap` disarms it and
publishes both values.  A full map reclaims its oldest watchpoint only
after :data:`WATCH_PATIENCE` untrapped events (a watch on a dead object
never fires); until then new samples go unmonitored.

Two cheap flags gate the hot path: ``active`` (any subscriber) and
``sampling`` (any armed sampler).  When both are false a memory access
costs two attribute reads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.obs.collector import Collector
from repro.obs.events import (
    AccessEvent,
    MachineEvent,
    SampleEvent,
    SamplerOpenEvent,
    ThreadEndEvent,
    ThreadStartEvent,
    WatchTrapEvent,
    canon_value,
)
from repro.pmu.events import LEVEL_INDEX, NUM_COMBOS, PmuEvent
from repro.pmu.pmu import PerfCounter, PerfEventConfig

#: Default ring capacity; a full ring force-flushes mid-quantum so
#: memory stays bounded on access-recording runs.
DEFAULT_CAPACITY = 4096

#: level name → combo-table base index (``combo_index`` top bits).
_LEVEL_BASE = {level: index * 8 for level, index in LEVEL_INDEX.items()}

#: ``bulk_budget`` result when no enabled counter constrains the walk —
#: callers seeing it may run the walk without histogramming at all.
NO_LIMIT = 1 << 60

#: Watchpoints one thread can hold at once (x86 debug registers).
WATCH_SLOTS = 4

#: Events counted on a thread's watch samplers after which its oldest
#: untrapped watchpoint yields its slot to a new sample.
WATCH_PATIENCE = 4096


class EventBus:
    """Batched pub/sub channel between one machine and its collectors."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._pending: List[MachineEvent] = []
        self._collectors: List[Collector] = []
        #: sampler_id → (config, owner label)
        self._samplers: Dict[int, Tuple[PerfEventConfig, str]] = {}
        self._next_sampler_id = 1
        #: tid → live thread (tracked even with no subscribers, so a
        #: sampler opened mid-run arms already-running threads).
        self._threads: Dict[int, object] = {}
        #: tid → [(sampler_id, counter), ...]
        self._counters: Dict[int, List[Tuple[int, PerfCounter]]] = {}
        #: One-entry memo over the per-tid counting plan for the access
        #: hot path (threads run in scheduler quanta, so consecutive
        #: accesses almost always share a tid).  Invalidated whenever
        #: the counter *lists* change shape (_arm / close_sampler /
        #: thread_ended); enabled-flag flips need no care because every
        #: use re-checks ``counter.enabled``.
        self._hot_tid = -1
        self._hot_entry: Optional[tuple] = None
        self._accesses_wanted = 0
        self._allocs_wanted = 0
        self._contents_wanted = 0
        #: Samplers whose overflows arm watchpoints.
        self._watch_samplers: Set[int] = set()
        #: Watch sampler that overflowed on the access being observed
        #: (0: none); :meth:`observe_access` arms it after counting.
        self._arm_sid = 0
        #: False switches every counter to legacy per-access counting
        #: (:meth:`PerfCounter.observe` for each access) — the
        #: differential suite's reference arm.  Sample streams are
        #: bit-identical either way.
        self.skip_ahead = True
        #: True iff at least one collector is subscribed.
        self.active = False
        #: True iff at least one sampler is armed.
        self.sampling = False
        self.events_published = 0
        self.batches_flushed = 0
        #: AccessEvents actually constructed (0 on samples-only runs).
        self.access_events_built = 0
        #: AllocEvents actually constructed (incremented by the machine's
        #: allocation hook, which skips construction when nobody wants
        #: allocation events).
        self.alloc_events_built = 0

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    def subscribe(self, collector: Collector) -> None:
        """Add a collector.  Pending events are flushed first, so a
        late subscriber (attach mode) never sees pre-attach events."""
        if collector in self._collectors:
            raise ValueError(f"collector {collector.label!r} already "
                             f"subscribed")
        self.flush()
        self._collectors.append(collector)
        collector.bus = self
        if collector.wants_accesses:
            self._accesses_wanted += 1
        if collector.wants_allocs:
            self._allocs_wanted += 1
        if collector.wants_contents:
            self._contents_wanted += 1
        self.active = True
        collector.on_subscribed(self)

    def unsubscribe(self, collector: Collector) -> None:
        """Remove a collector.  Pending events are flushed first, so a
        detaching collector still receives everything it observed."""
        if collector not in self._collectors:
            raise ValueError(f"collector {collector.label!r} is not "
                             f"subscribed")
        self.flush()
        self._collectors.remove(collector)
        if collector.wants_accesses:
            self._accesses_wanted -= 1
        if collector.wants_allocs:
            self._allocs_wanted -= 1
        if collector.wants_contents:
            self._contents_wanted -= 1
        self.active = bool(self._collectors)
        collector.bus = None
        collector.on_unsubscribed(self)

    @property
    def collectors(self) -> List[Collector]:
        return list(self._collectors)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, event: MachineEvent) -> None:
        """Queue one event for the next flush (dropped if nobody
        listens).  A full ring flushes immediately."""
        if not self.active:
            return
        self._pending.append(event)
        self.events_published += 1
        if len(self._pending) >= self.capacity:
            self.flush()

    def flush(self) -> int:
        """Deliver all pending events to every collector, in order.
        Returns the number of events delivered."""
        if not self._pending:
            return 0
        batch = self._pending
        self._pending = []
        for collector in list(self._collectors):
            collector.handle_batch(batch)
        self.batches_flushed += 1
        return len(batch)

    @property
    def pending_events(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # PMU sampler management (perf_event_open analogue)
    # ------------------------------------------------------------------
    def open_sampler(self, event: PmuEvent, period: int,
                     owner: str = "", watch: bool = False) -> int:
        """Arm a per-thread counter set for ``event`` at ``period``.

        With ``watch`` each overflow also arms a watchpoint.  Returns
        the sampler id carried by every resulting SampleEvent.
        A :class:`SamplerOpenEvent` is published so trace replay can
        re-associate sampler ids with their owning profiler.
        """
        config = PerfEventConfig(event, period)
        sampler_id = self._next_sampler_id
        self._next_sampler_id += 1
        self._samplers[sampler_id] = (config, owner)
        if watch:
            self._watch_samplers.add(sampler_id)
        for tid in self._threads:
            self._arm(sampler_id, config, tid)
        self.sampling = True
        self.publish(SamplerOpenEvent(sampler_id=sampler_id,
                                      event=event.name, period=period,
                                      owner=owner))
        return sampler_id

    def close_sampler(self, sampler_id: int) -> None:
        """Disarm one sampler, and its watchpoints, on every thread
        (counter close)."""
        self._samplers.pop(sampler_id, None)
        if sampler_id in self._watch_samplers:
            self._watch_samplers.discard(sampler_id)
            for thread in self._threads.values():
                watch = thread.watch
                for address in [a for a, w in watch.items()
                                if w[0] == sampler_id]:
                    del watch[address]
        for tid, counters in self._counters.items():
            for sid, counter in counters:
                if sid == sampler_id:
                    counter.enabled = False
            self._counters[tid] = [(sid, c) for sid, c in counters
                                   if sid != sampler_id]
        self._hot_tid = -1
        self._hot_entry = None
        self.sampling = bool(self._samplers)

    def disable_sampler(self, sampler_id: int) -> None:
        """Freeze one sampler's counters on every thread
        (``PERF_EVENT_IOC_DISABLE``): each countdown register keeps its
        exact position, so :meth:`enable_sampler` resumes with no drift.
        """
        for counters in self._counters.values():
            for sid, counter in counters:
                if sid == sampler_id:
                    counter.enabled = False

    def enable_sampler(self, sampler_id: int) -> None:
        """Re-enable a frozen sampler (``PERF_EVENT_IOC_ENABLE``)."""
        if sampler_id not in self._samplers:
            return
        for counters in self._counters.values():
            for sid, counter in counters:
                if sid == sampler_id:
                    counter.enabled = True

    def close_samplers(self, owner: str) -> None:
        """Disarm every sampler opened under ``owner``."""
        for sampler_id in [sid for sid, (_, o) in self._samplers.items()
                           if o == owner]:
            self.close_sampler(sampler_id)

    def sampler_total(self, sampler_id: int) -> int:
        """Lifetime event count across all threads for one sampler
        (counting mode: open with a huge period and read this)."""
        total = 0
        for counters in self._counters.values():
            for sid, counter in counters:
                if sid == sampler_id:
                    total += counter.total
        return total

    def _arm(self, sampler_id: int, config: PerfEventConfig,
             tid: int) -> None:
        counter = PerfCounter(config, self._make_overflow_handler(sampler_id))
        self._counters.setdefault(tid, []).append((sampler_id, counter))
        self._hot_tid = -1
        self._hot_entry = None

    def _make_overflow_handler(self, sampler_id: int):
        def handler(sample) -> None:
            if sampler_id in self._watch_samplers:
                self._arm_sid = sampler_id
            thread = sample.ucontext
            path = tuple(thread.call_stack()) if thread is not None else ()
            self.publish(SampleEvent(
                sampler_id=sampler_id, event=sample.event, tid=sample.tid,
                cpu=sample.cpu, address=sample.address, size=sample.size,
                is_write=sample.is_write, latency=sample.latency,
                level=sample.level, home_node=sample.home_node,
                remote=sample.remote, path=path, thread=thread))
        return handler

    # ------------------------------------------------------------------
    # Machine-side publish points
    # ------------------------------------------------------------------
    def thread_started(self, thread) -> None:
        """Track a new thread, arm every open sampler on it, and
        publish the start event."""
        self._threads[thread.tid] = thread
        for sampler_id, (config, _) in self._samplers.items():
            self._arm(sampler_id, config, thread.tid)
        self.publish(ThreadStartEvent(tid=thread.tid, cpu=thread.cpu,
                                      name=thread.name))

    def thread_ended(self, thread) -> None:
        """Publish the end event and disarm the thread's counters.

        Counters stay readable (``sampler_total``) after disarm, like a
        perf fd held open past thread exit; only ``close_sampler``
        discards them."""
        self.publish(ThreadEndEvent(tid=thread.tid))
        self._threads.pop(thread.tid, None)
        for _, counter in self._counters.get(thread.tid, []):
            counter.enabled = False
        self._hot_tid = -1
        self._hot_entry = None

    def _entry_for(self, tid: int) -> Optional[tuple]:
        """Build and memoise ``tid``'s counting plan.

        The plan is ``(table, generic, counters, maxweights)``:

        * ``table`` — combo index → tuple of ``(sampler_id, counter,
          weight)`` with only non-zero weights, so the common no-count
          combo costs one list lookup and an empty loop; ``None`` when
          no armed counter is combo-pure;
        * ``generic`` — counters whose event has no combo table
          (load-latency filtering) and must count via ``counts()``;
        * ``counters`` — the full arm-ordered list, for the per-access
          reference path (multi-line results, ``skip_ahead=False``, or
          any generic counter present — mixed-order sample streams stay
          exactly arm-ordered that way);
        * ``maxweights`` — ``(counter, max read-combo weight, max
          write-combo weight)`` triples for :meth:`bulk_budget`; the
          split lets a walk whose write-class no armed counter can
          count (e.g. allocation zeroing under ``L1_MISS``, whose
          write combos all weigh 0) skip counting entirely.
        """
        counters = self._counters.get(tid)
        if counters:
            rows: List[list] = [[] for _ in range(NUM_COMBOS)]
            generic = []
            maxweights = []
            has_combo = False
            for sid, counter in counters:
                weights = counter.config.event.combo_weights
                if weights is None:
                    generic.append((sid, counter))
                else:
                    has_combo = True
                    # Combo bit 1 (value 2) is the write bit.
                    maxweights.append((
                        counter,
                        max(w for i, w in enumerate(weights)
                            if not i & 2),
                        max(w for i, w in enumerate(weights) if i & 2)))
                    for i, weight in enumerate(weights):
                        if weight:
                            rows[i].append((sid, counter, weight))
            table = [tuple(row) for row in rows] if has_combo else None
            entry = (table, tuple(generic), counters, tuple(maxweights))
        else:
            entry = None
        self._hot_tid = tid
        self._hot_entry = entry
        return entry

    def observe_access(self, thread, result, value=None) -> None:
        """Hot path: count one access on armed samplers and (only when
        some collector asked for raw accesses) publish an AccessEvent.

        ``value`` is the loaded/stored value (``None`` when the access
        site does not know it); it is read only when a watch sampler
        overflows on this access, to arm the watchpoint.

        The caller pre-checks ``sampling or _accesses_wanted`` so the
        common unobserved run pays almost nothing.  With skip-ahead on,
        a single-line access is classified by its outcome combo and only
        the counters that actually count it are touched — a bare
        countdown decrement each, with the full sample path deferred to
        :meth:`_overflow`.  Multi-line results, generic (non-combo)
        counters and ``skip_ahead=False`` take the per-access reference
        path; the streams are bit-identical.
        """
        if self.sampling:
            tid = thread.tid
            if tid == self._hot_tid:
                entry = self._hot_entry
            else:
                entry = self._entry_for(tid)
            if entry is not None:
                table = entry[0]
                if (table is not None and not entry[1] and self.skip_ahead
                        and result.lines == 1):
                    hits = table[
                        _LEVEL_BASE[result.level]
                        + (4 if result.tlb_misses else 0)
                        + (2 if result.is_write else 0)
                        + (1 if result.remote else 0)]
                    for sid, counter, weight in hits:
                        if counter.enabled:
                            counter.total += weight
                            remaining = \
                                counter.remaining_until_overflow - weight
                            if remaining > 0:
                                counter.remaining_until_overflow = remaining
                            else:
                                self._overflow(sid, counter, remaining,
                                               tid, result, thread)
                else:
                    for _, counter in entry[2]:
                        counter.observe(tid, result, ucontext=thread)
            if self._arm_sid:
                self._arm_watch(thread, result, value)
        if self._accesses_wanted:
            self.access_events_built += 1
            self.publish(AccessEvent(thread.tid, result, thread))

    def _overflow(self, sampler_id: int, counter: PerfCounter,
                  remaining: int, tid: int, result, thread) -> None:
        """Deliver overflow samples for the skip-ahead fast path.

        Semantically identical to :meth:`PerfCounter.observe` overflowing
        into the bus's handler, minus the intermediate ``Sample`` object:
        same register arithmetic, same per-sample path snapshot, same
        publication order.
        """
        if sampler_id in self._watch_samplers:
            self._arm_sid = sampler_id
        period = counter.config.sample_period
        event_name = counter.config.event.name
        path = tuple(thread.call_stack()) if thread is not None else ()
        while remaining <= 0:
            remaining += period
            counter.remaining_until_overflow = remaining
            self.publish(SampleEvent(
                sampler_id=sampler_id, event=event_name, tid=tid,
                cpu=result.cpu, address=result.address, size=result.size,
                is_write=result.is_write, latency=result.latency,
                level=result.level, home_node=result.home_node,
                remote=result.remote, path=path, thread=thread))
            counter.samples_delivered += 1

    def _arm_watch(self, thread, result, value) -> None:
        """Arm the overflowing watch sampler's watchpoint on the access
        just observed, if a slot is free or may be reclaimed."""
        sampler_id = self._arm_sid
        self._arm_sid = 0
        if value is None:
            return
        watch = thread.watch
        # The thread's counted events on its watch samplers.
        clock = sum(counter.total for sid, counter in self._counters[
            thread.tid] if sid in self._watch_samplers)
        address = result.address
        if address not in watch and len(watch) >= WATCH_SLOTS:
            oldest = min(watch, key=lambda a: watch[a][3])
            if clock - watch[oldest][3] < WATCH_PATIENCE:
                return
            del watch[oldest]
        watch[address] = (sampler_id, result.is_write, canon_value(value),
                          clock)

    def watch_trap(self, thread, address: int, is_write: bool,
                   value) -> None:
        """The thread's access to a watched ``address`` traps: disarm
        the watchpoint and publish both values."""
        sampler_id, armed_write, armed_value, _ = thread.watch.pop(address)
        self.publish(WatchTrapEvent(
            sampler_id=sampler_id, tid=thread.tid, address=address,
            armed_write=armed_write, armed_value=armed_value,
            is_write=is_write, value=canon_value(value), thread=thread))

    def disarm_watches(self) -> None:
        """Drop every thread's watchpoints (a moving GC invalidates
        the watched addresses)."""
        for thread in self._threads.values():
            thread.watch.clear()

    def bulk_budget(self, tid: int, is_write: Optional[bool]) -> int:
        """How many single-line accesses of one write-class a bulk walk
        may count without any possibility of overflow, whatever their
        outcomes.

        0 forbids bulk counting (an enabled counter needs per-access
        ``counts()``).  :data:`NO_LIMIT` means no enabled counter can
        count *any* combo of this write-class — the walk need not
        histogram at all (e.g. allocation-zeroing writes while only
        ``L1_MISS``, a loads-only event, is armed).  The budget reads
        the live countdown registers: consume it immediately with
        :meth:`observe_bulk` / :meth:`observe_bulk_map` — any observed
        access in between invalidates it.

        ``is_write=None`` budgets a *mixed* walk (loads and stores
        interleaved, as a fused superinstruction block may issue): each
        counter is bounded by its worse write-class, so the budget is
        never larger than either single-class budget and the
        no-overflow guarantee holds for any interleaving.
        """
        if tid == self._hot_tid:
            entry = self._hot_entry
        else:
            entry = self._entry_for(tid)
        if entry is None:
            return NO_LIMIT
        for _sid, counter in entry[1]:
            if counter.enabled:
                return 0
        budget = NO_LIMIT
        for counter, maxw_read, maxw_write in entry[3]:
            if counter.enabled:
                if is_write is None:
                    maxweight = maxw_write if maxw_write > maxw_read \
                        else maxw_read
                else:
                    maxweight = maxw_write if is_write else maxw_read
                if maxweight:
                    b = (counter.remaining_until_overflow - 1) // maxweight
                    if b >= NO_LIMIT:
                        # A finite countdown can exceed the sentinel
                        # (huge counting-only periods); it still needs
                        # its totals counted, so keep it below it.
                        b = NO_LIMIT - 1
                    if b < budget:
                        budget = b
        return budget

    def observe_bulk(self, tid: int, combo_counts: List[int]) -> None:
        """Apply a bulk walk's outcome histogram in one skip-ahead step.

        ``combo_counts`` is a :data:`~repro.pmu.events.NUM_COMBOS`-sized
        histogram of single-line outcomes, from a walk of no more than
        :meth:`bulk_budget` lines — so no register can reach zero and no
        sample fires; every counter just skips ahead by its exact count.
        """
        if tid == self._hot_tid:
            entry = self._hot_entry
        else:
            entry = self._entry_for(tid)
        if entry is None or entry[0] is None:
            return
        table = entry[0]
        for i, n in enumerate(combo_counts):
            if n:
                for _sid, counter, weight in table[i]:
                    if counter.enabled:
                        counted = n * weight
                        counter.total += counted
                        counter.remaining_until_overflow -= counted

    def observe_bulk_map(self, tid: int, combo_map: Dict[int, int]) -> None:
        """Sparse variant of :meth:`observe_bulk` for fused blocks.

        A superinstruction block touches a handful of lines, so its
        outcome histogram is a small ``{combo_index: count}`` dict
        rather than a dense :data:`~repro.pmu.events.NUM_COMBOS` list.
        Same contract: the block ran under a :meth:`bulk_budget` big
        enough for every access, so no register can overflow here.
        """
        if tid == self._hot_tid:
            entry = self._hot_entry
        else:
            entry = self._entry_for(tid)
        if entry is None or entry[0] is None:
            return
        table = entry[0]
        for i, n in combo_map.items():
            for _sid, counter, weight in table[i]:
                if counter.enabled:
                    counted = n * weight
                    counter.total += counted
                    counter.remaining_until_overflow -= counted
