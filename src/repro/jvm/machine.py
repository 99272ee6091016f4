"""The simulated machine: CPU topology + memory hierarchy + JVM runtime.

:class:`Machine` is the composition root.  It owns the hardware models
(:mod:`repro.memsys`), the heap and collector (:mod:`repro.heap`), the
method table / JIT (:mod:`repro.jvm.jit`) and the interpreter, and runs
simulated Java threads under a deterministic round-robin scheduler.

Profilers interact with the machine exactly the way DJXPerf interacts
with a JVM + Linux: through the machine's observation
:class:`~repro.obs.bus.EventBus`, the only way events leave it.  The
substrates report to the machine by direct call — the collector through
the :class:`~repro.heap.gc.GcObserver` methods, the method table through
its compile callable — and the machine publishes typed events (thread
start/end, allocations via the default ``_djx_on_alloc`` native, GC
memmove/finalize/notification, JIT compiles), flushing batches to
subscribed collectors at scheduler-quantum boundaries.  The bus also
hosts the per-thread virtualised PMU: the access stream is counted
synchronously against armed samplers (PEBS), publishing SampleEvents on
overflow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.heap.allocator import Heap, HeapObject, Ref
from repro.heap.gc import GcCostModel, MarkCompactCollector
from repro.heap.layout import JClass, Kind
from repro.jvm.classfile import JProgram
from repro.jvm.interpreter import (
    Interpreter,
    JavaThread,
    ThreadState,
    TrapError,
)
from repro.jvm.jit import JitConfig, MethodTable
from repro.memsys.hierarchy import AccessResult, HierarchyConfig, MemoryHierarchy
from repro.memsys.numa import NumaTopology, PlacementPolicy
from repro.obs.bus import NO_LIMIT, EventBus
from repro.obs.events import (
    ALLOC_HOOK,
    AllocEvent,
    GcFinalizeEvent,
    GcMoveEvent,
    GcNotifyEvent,
    JitCompileEvent,
    ObjectContentEvent,
    content_digest,
)
from repro.pmu.events import NUM_COMBOS


class DeadlockError(Exception):
    """All live threads are waiting and none can make progress."""


@dataclass(frozen=True)
class MachineConfig:
    """Everything configurable about the simulated machine."""

    num_nodes: int = 2
    cpus_per_node: int = 4
    heap_size: int = 8 * 1024 * 1024
    heap_base: int = 0x100000
    statics_base: int = 0x10000
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    jit: JitConfig = field(default_factory=JitConfig)
    gc_cost: GcCostModel = field(default_factory=GcCostModel)
    #: Scheduler quantum in instructions.
    quantum: int = 500
    #: Touch (write) every line of a new object, as TLAB zeroing does.
    zero_on_alloc: bool = True
    #: Collector flavour: "mark-compact" (sliding) or "semispace"
    #: (copying; halves the usable heap, moves every survivor).
    gc_policy: str = "mark-compact"
    #: Production engine (fused superinstruction blocks over compiled
    #: dispatch tables) + pooled L1 fast path.  False runs the legacy
    #: one-step-at-a-time engine, the semantic oracle; both produce
    #: identical results and event streams.  A hook for tests and the
    #: bench, not a user-facing option.
    fastpath: bool = True
    #: Deterministic skip-ahead PMU counting: pay per sample, not per
    #: access (combo-table classification + bulk countdown decrements).
    #: False forces legacy per-access counting on every armed counter —
    #: the differential suite's reference arm.  Sample streams are
    #: bit-identical either way.
    skip_ahead: bool = True
    seed: int = 12345


@dataclass
class FusionStats:
    """Superinstruction engine observability (per machine).

    Deliberately *not* part of :class:`MachineResult`: results must
    compare equal across engines, and these counters exist precisely to
    differ between them.
    """

    #: Fused blocks compiled across all tables (both variants).
    blocks_fused: int = 0
    #: Fused-block closure invocations (fast or chain body).
    fused_executions: int = 0
    #: Observed blocks whose PMU guard failed, falling back to the
    #: per-handler chain inside the closure.
    guard_bailouts: int = 0


@dataclass
class MachineResult:
    """Summary of one program run."""

    wall_cycles: int
    total_instructions: int
    thread_cycles: Dict[int, int]
    heap_allocations: int
    heap_allocated_bytes: int
    heap_peak_used: int
    gc_collections: int
    gc_pause_cycles: int
    l1_misses: int
    l2_misses: int
    l3_misses: int
    tlb_misses: int
    loads: int
    stores: int
    remote_accesses: int
    local_accesses: int
    output: List[str]

    @property
    def remote_ratio(self) -> float:
        total = self.remote_accesses + self.local_accesses
        return self.remote_accesses / total if total else 0.0


class NativeCall:
    """Context handed to native-method implementations."""

    __slots__ = ("machine", "thread", "args", "consts")

    def __init__(self, machine: "Machine", thread: JavaThread,
                 args: List, consts: tuple) -> None:
        self.machine = machine
        self.thread = thread
        self.args = args
        self.consts = consts


NativeImpl = Callable[[NativeCall], object]


class Machine:
    """One simulated machine executing one :class:`JProgram`."""

    def __init__(self, program: JProgram,
                 config: Optional[MachineConfig] = None) -> None:
        self.program = program
        self.config = config or MachineConfig()
        cfg = self.config

        self.topology = NumaTopology(cfg.num_nodes, cfg.cpus_per_node)
        self.hierarchy = MemoryHierarchy(self.topology, cfg.hierarchy)
        self.heap = Heap(size=cfg.heap_size, base=cfg.heap_base)
        if cfg.gc_policy == "mark-compact":
            self.collector = MarkCompactCollector(
                self.heap, self._gc_roots, self, cfg.gc_cost)
        elif cfg.gc_policy == "semispace":
            from repro.heap.semispace import SemispaceCollector
            self.collector = SemispaceCollector(
                self.heap, self._gc_roots, self, cfg.gc_cost)
        else:
            raise ValueError(
                f"unknown gc_policy {cfg.gc_policy!r}; "
                f"expected 'mark-compact' or 'semispace'")
        self.method_table = MethodTable(cfg.jit,
                                        on_compile=self._publish_jit_compile)
        self.method_table.register_program(program)
        #: Superinstruction counters; created before the interpreter so
        #: fused-table compilation can always bind it.
        self.fusion = FusionStats()
        #: This machine's fused-codegen warm-cache lookups.  The cache
        #: is process-wide; these count only this machine's compiles.
        self.warm = {"hits": 0, "misses": 0}
        self.interpreter = Interpreter(self, fastpath=cfg.fastpath)
        self.rng = random.Random(cfg.seed)
        self._fastpath = cfg.fastpath
        self._line_size = cfg.hierarchy.line_size

        self.threads: List[JavaThread] = []
        self.statics: Dict[str, object] = dict(program.statics)
        self._static_addresses: Dict[str, int] = {}
        self._next_static_addr = cfg.statics_base
        self.output: List[str] = []
        self._current_thread: Optional[JavaThread] = None
        self._started = False
        #: Refs pinned by in-flight native code (GC roots).
        self._native_roots: List[Ref] = []

        # Observation: the event bus carries every profiler-visible
        # event.
        self.bus = EventBus()
        self.bus.skip_ahead = cfg.skip_ahead

        self.natives: Dict[str, NativeImpl] = {}
        self._register_default_natives()

    # ------------------------------------------------------------------
    # Statics
    # ------------------------------------------------------------------
    def static_address(self, key: str) -> int:
        address = self._static_addresses.get(key)
        if address is None:
            address = self._next_static_addr
            self._static_addresses[key] = address
            self._next_static_addr += 8
            if self._next_static_addr > self.config.heap_base:
                raise TrapError("statics region overflow")
        return address

    def get_static(self, key: str):
        if key not in self.statics:
            raise TrapError(f"read of undeclared static {key!r}")
        return self.statics[key]

    def set_static(self, key: str, value) -> None:
        self.statics[key] = value

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def memory_access(self, thread: JavaThread, address: int, size: int,
                      is_write: bool, value=None) -> AccessResult:
        """Route one access through the hierarchy and charge latency.

        Uses the hierarchy's pooled L1 fast path unless a collector is
        recording raw accesses — AccessEvents retain the result object,
        so recording runs get a fresh instance per access (the PMU is
        fine either way: it copies sample fields at overflow time).

        ``value`` is the loaded or stored value when the call site knows
        it (scalar interpreter accesses); bulk walks leave it ``None``.
        While a sampler is armed the access first traps any watchpoint
        the thread holds on ``address``, then counts on the PMU, whose
        watch samplers arm a watchpoint with ``value`` on overflow.
        """
        if self._fastpath and not self.bus._accesses_wanted:
            result = self.hierarchy.access_hot(
                thread.cpu, address, size, is_write)
        else:
            result = self.hierarchy.access(thread.cpu, address, size, is_write)
        thread.cycles += result.latency
        bus = self.bus
        if bus.sampling or bus._accesses_wanted:
            watch = thread.watch
            if watch and address in watch:
                bus.watch_trap(thread, address, is_write, value)
            bus.observe_access(thread, result, value)
        return result

    def touch_range(self, thread: JavaThread, start: int, end: int,
                    is_write: bool) -> None:
        """Line-granular touch of ``[start, end)`` — the shared inner
        loop of allocation zeroing, arraycopy and the streaming natives.

        When nothing observes accesses (no armed sampler, no raw-access
        collector) the loop drives the hierarchy's pooled fast path
        directly and charges the accumulated latency in one step —
        per-line hierarchy state and statistics are identical, and the
        cycle counter is only ever incremented between observations, so
        the batching is invisible.

        Sampled runs keep the fused walk by chunking it to the bus's
        overflow budget: each chunk provably fits inside every armed
        counter's countdown, so the walk histograms per-line outcome
        combos and the counters skip ahead in one step, sample-free by
        construction.  When the budget hits zero — the *next* counted
        event may overflow — exactly one observed per-line access runs,
        pinning any sample to its precise line address, and bulk
        walking resumes with the re-armed budget.  A watchpoint inside
        the range pins its line the same way: that line is walked
        observed and traps every watched address it covers, with no
        value.  The resulting event stream is identical to per-line
        observation.  Raw-access recording, ``fastpath=False`` and
        ``skip_ahead=False`` degrade to observed lines throughout.
        """
        bus = self.bus
        if self._fastpath and not (bus.sampling or bus._accesses_wanted):
            thread.cycles += self.hierarchy.touch_range(
                thread.cpu, start, end, is_write)
            return
        line = self._line_size
        watch = thread.watch
        pins = sorted(a for a in watch if start <= a < end) \
            if watch else []
        addr = start
        if (self._fastpath and bus.skip_ahead
                and not bus._accesses_wanted):
            tid = thread.tid
            cpu = thread.cpu
            hierarchy = self.hierarchy
            bulk_budget = bus.bulk_budget
            observe_bulk = bus.observe_bulk
            while addr < end:
                # Bulk-walk no further than the first pinned line.
                stop = addr + (pins[0] - addr) // line * line if pins \
                    else end
                budget = bulk_budget(tid, is_write) if stop > addr else 0
                if budget <= 0:
                    addr = self._observed_line(thread, addr, is_write, pins)
                    continue
                if budget >= NO_LIMIT:
                    # No armed counter can count this write-class at
                    # all (e.g. zeroing writes under loads-only
                    # events): the walk is observationally invisible.
                    thread.cycles += hierarchy.touch_range(
                        cpu, addr, stop, is_write)
                    addr = stop
                    continue
                nlines = (stop - addr + line - 1) // line
                chunk_end = addr + budget * line if nlines > budget else stop
                combo_counts = [0] * NUM_COMBOS
                latency = hierarchy.touch_range(
                    cpu, addr, chunk_end, is_write, combo_counts)
                if latency < 0:
                    break       # unwalkable geometry: per-line the rest
                thread.cycles += latency
                observe_bulk(tid, combo_counts)
                addr = chunk_end
        while addr < end:
            addr = self._observed_line(thread, addr, is_write, pins)

    def _observed_line(self, thread: JavaThread, addr: int, is_write: bool,
                       pins: List[int]) -> int:
        """Walk the line at ``addr`` observed, trapping each pinned
        address it covers; returns the next line's address."""
        self.memory_access(thread, addr, 8, is_write)
        nxt = addr + self._line_size
        while pins and pins[0] < nxt:
            address = pins.pop(0)
            if address in thread.watch:
                self.bus.watch_trap(thread, address, is_write, None)
        return nxt

    def _zero_touch(self, thread: JavaThread, obj: HeapObject) -> None:
        self.touch_range(thread, obj.addr, obj.end, is_write=True)

    def allocate_instance(self, jclass: JClass, thread: JavaThread) -> Ref:
        ref = self.heap.allocate_instance(jclass, thread.tid)
        if self.config.zero_on_alloc:
            self._zero_touch(thread, self.heap.get(ref))
        return ref

    def allocate_array(self, elem_kind: Kind, length: int,
                       thread: JavaThread) -> Ref:
        if length < 0:
            raise TrapError(f"negative array size {length}")
        ref = self.heap.allocate_array(elem_kind, length, thread.tid)
        if self.config.zero_on_alloc:
            self._zero_touch(thread, self.heap.get(ref))
        return ref

    def allocate_multi_array(self, elem_kind: Kind, lengths: Sequence[int],
                             thread: JavaThread) -> Ref:
        if not lengths:
            raise TrapError("multianewarray with no dimensions")
        if len(lengths) == 1:
            return self.allocate_array(elem_kind, lengths[0], thread)
        outer = self.allocate_array(Kind.REF, lengths[0], thread)
        # Pin the outer array: element stores below may trigger GC while
        # the only reference lives in this native frame.
        self._native_roots.append(outer)
        try:
            for i in range(lengths[0]):
                inner = self.allocate_multi_array(elem_kind, lengths[1:],
                                                  thread)
                obj = self.heap.get(outer)
                self.memory_access(thread, obj.element_address(i), 8,
                                   is_write=True, value=inner)
                obj.set_element(i, inner)
        finally:
            self._native_roots.pop()
        return outer

    # ------------------------------------------------------------------
    # GC integration
    # ------------------------------------------------------------------
    def _gc_roots(self):
        roots: List[int] = []
        for thread in self.threads:
            for frame in thread.frames:
                for value in frame.locals:
                    if isinstance(value, Ref):
                        roots.append(value.oid)
                for value in frame.stack:
                    if isinstance(value, Ref):
                        roots.append(value.oid)
        for value in self.statics.values():
            if isinstance(value, Ref):
                roots.append(value.oid)
        for ref in self._native_roots:
            roots.append(ref.oid)
        return roots

    # The collector's GcObserver: what the machine does with each fact
    # before publishing the collector's event unchanged.
    def gc_start(self, gc_id: int) -> None:
        # A moving collection invalidates every watched address.
        self.bus.disarm_watches()

    def gc_finalize(self, event: GcFinalizeEvent) -> None:
        if self.bus._contents_wanted:   # read before the object leaves
            self._publish_content(self.heap.objects[event.oid])
        self.bus.publish(event)

    def gc_move(self, event: GcMoveEvent) -> None:
        # GC copying pollutes the caches of the collecting CPU: the
        # collector streams through both source and destination,
        # interleaved as the copy loop would.  The pooled entry point is
        # used because the results are discarded (only the cache/TLB
        # state perturbation matters); it runs identically with the
        # fast path disabled.
        thread = self._current_thread
        if thread is not None:
            access = self.hierarchy.access_hot
            cpu = thread.cpu
            for offset in range(0, event.size, self._line_size):
                access(cpu, event.src + offset, 8, False)
                access(cpu, event.dst + offset, 8, True)
        self.bus.publish(event)

    def gc_notify(self, event: GcNotifyEvent) -> None:
        # Stop-the-world: every live thread pays the pause.
        for thread in self.threads:
            if thread.alive:
                thread.cycles += event.pause_cycles
        self.bus.publish(event)

    def _publish_content(self, obj: HeapObject) -> None:
        values = obj.elements if obj.elements is not None \
            else obj.fields.values()
        self.bus.publish(ObjectContentEvent(addr=obj.addr,
                                            digest=content_digest(values)))

    def _publish_jit_compile(self, runtime) -> None:
        self.bus.publish(JitCompileEvent(
            method_id=runtime.method_id,
            qualified_name=runtime.method.qualified_name,
            version=runtime.version))

    # ------------------------------------------------------------------
    # Natives
    # ------------------------------------------------------------------
    def register_native(self, name: str, impl: NativeImpl) -> None:
        self.natives[name] = impl

    def call_native(self, name: str, thread: JavaThread, args: List,
                    consts: tuple):
        impl = self.natives.get(name)
        if impl is None:
            raise TrapError(f"unknown native method {name!r}")
        return impl(NativeCall(self, thread, args, consts))

    def _register_default_natives(self) -> None:
        self.register_native("arraycopy", _native_arraycopy)
        self.register_native("rand", _native_rand)
        self.register_native("print", _native_print)
        self.register_native("await_static", _native_await_static)
        self.register_native("numa_interleave", _native_numa_interleave)
        self.register_native("numa_bind", _native_numa_bind)
        self.register_native("current_cpu", _native_current_cpu)
        self.register_native("blackhole", _native_blackhole)
        self.register_native("stream_array", _native_stream_array)
        self.register_native("stream_range", _native_stream_range)
        # Instrumented programs call the allocation hook on every
        # allocation; the default implementation publishes an AllocEvent
        # (and costs nothing while nobody subscribes), so instrumented
        # code runs with or without an attached profiler.
        self.register_native(ALLOC_HOOK, _native_alloc_hook)

    # ------------------------------------------------------------------
    # Warm-up
    # ------------------------------------------------------------------
    def warm_dispatch(self) -> None:
        """Precompile every registered method's dispatch table and fused
        superinstruction tables (both observation variants) so timed
        runs measure execution rather than table building.  No-op on
        the legacy engine."""
        if not self._fastpath:
            return
        from repro.jvm.dispatch import compile_tables
        for runtime in self.method_table.runtimes():
            compile_tables(self, runtime, observed=False)
            compile_tables(self, runtime, observed=True)

    # ------------------------------------------------------------------
    # Thread lifecycle & scheduling
    # ------------------------------------------------------------------
    def _start_threads(self) -> None:
        from repro.jvm.interpreter import Frame

        if not self.program.entry_points:
            raise TrapError("program has no entry points")
        for i, entry in enumerate(self.program.entry_points):
            cpu = entry.cpu if entry.cpu is not None \
                else i % self.topology.num_cpus
            thread = JavaThread(tid=i, cpu=cpu,
                                name=f"{entry.method_name}-{i}")
            runtime = self.method_table.runtime(entry.method_name)
            self.method_table.on_invoke(runtime)
            thread.frames.append(Frame(runtime, list(entry.args)))
            thread.state = ThreadState.RUNNABLE
            self.threads.append(thread)
            self.bus.thread_started(thread)
        self._started = True

    def on_thread_finished(self, thread: JavaThread) -> None:
        self.bus.thread_ended(thread)

    def run(self, max_instructions: Optional[int] = None) -> MachineResult:
        """Run until all threads finish (or the instruction budget ends).

        Calling ``run`` again after a budget-limited return resumes
        execution, which is how attach-mode profiling is exercised.
        """
        if not self._started:
            self._start_threads()
        executed_this_call = 0
        quantum = self.config.quantum
        while True:
            alive = [t for t in self.threads if t.alive]
            if not alive:
                if self.bus._contents_wanted:   # survivors' contents
                    for obj in self.heap.objects.values():
                        self._publish_content(obj)
                break
            if max_instructions is not None \
                    and executed_this_call >= max_instructions:
                break
            progressed = False
            for thread in self.threads:
                if thread.state is ThreadState.WAITING \
                        and thread.wait_predicate is not None \
                        and thread.wait_predicate():
                    thread.state = ThreadState.RUNNABLE
                    thread.wait_predicate = None
                if thread.state is ThreadState.RUNNABLE:
                    self._current_thread = thread
                    n = self.interpreter.run_quantum(thread, quantum)
                    # Quantum boundary: deliver this quantum's events
                    # while _current_thread still identifies whose
                    # quantum produced them.
                    self.bus.flush()
                    executed_this_call += n
                    progressed = progressed or n > 0
            if not progressed:
                waiting = [t.name for t in alive
                           if t.state is ThreadState.WAITING]
                raise DeadlockError(
                    f"no runnable threads; waiting: {waiting}")
        self.bus.flush()
        self._current_thread = None
        return self.result()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def wall_cycles(self) -> int:
        """Wall-clock estimate: busiest CPU's total thread cycles."""
        per_cpu: Dict[int, int] = {}
        for thread in self.threads:
            per_cpu[thread.cpu] = per_cpu.get(thread.cpu, 0) + thread.cycles
        return max(per_cpu.values(), default=0)

    def result(self) -> MachineResult:
        misses = self.hierarchy.miss_summary()
        numa = self.hierarchy.page_table.stats
        return MachineResult(
            wall_cycles=self.wall_cycles(),
            total_instructions=sum(t.instructions for t in self.threads),
            thread_cycles={t.tid: t.cycles for t in self.threads},
            heap_allocations=self.heap.stats.allocations,
            heap_allocated_bytes=self.heap.stats.allocated_bytes,
            heap_peak_used=self.heap.stats.peak_used,
            gc_collections=self.collector.stats.collections,
            gc_pause_cycles=self.collector.stats.total_pause_cycles,
            l1_misses=misses["l1_misses"],
            l2_misses=misses["l2_misses"],
            l3_misses=misses["l3_misses"],
            tlb_misses=misses["tlb_misses"],
            loads=self.hierarchy.stats.loads,
            stores=self.hierarchy.stats.stores,
            remote_accesses=numa.remote_accesses,
            local_accesses=numa.local_accesses,
            output=list(self.output))


# ----------------------------------------------------------------------
# Default native methods
# ----------------------------------------------------------------------
def _native_alloc_hook(call: NativeCall):
    """``_djx_on_alloc``: publish an AllocEvent for the fresh object.

    Snapshots everything a collector could need (address range, type,
    allocation call path) *now* — by the time the batch is delivered the
    object may have moved or died.  Collectors apply their own size
    thresholds and charge their own hook costs.
    """
    machine = call.machine
    bus = machine.bus
    if not bus.active or not bus._allocs_wanted:
        # Demand-driven: with only samples-wanting collectors attached,
        # neither the event nor its call-path snapshot is built.
        return None
    (ref,) = call.args
    obj = machine.heap.get(ref)
    thread = call.thread
    bus.alloc_events_built += 1
    bus.publish(AllocEvent(
        tid=thread.tid, addr=obj.addr, end=obj.end, size=obj.size,
        type_name=obj.type_name, path=tuple(thread.call_stack()),
        thread=thread))
    return None


def _native_arraycopy(call: NativeCall):
    """System.arraycopy(src, srcPos, dst, dstPos, length)."""
    src_ref, src_pos, dst_ref, dst_pos, length = call.args
    machine, thread = call.machine, call.thread
    src = machine.heap.get(src_ref)
    dst = machine.heap.get(dst_ref)
    if length < 0 or src_pos < 0 or dst_pos < 0 \
            or src_pos + length > src.length \
            or dst_pos + length > dst.length:
        raise TrapError(
            f"arraycopy out of bounds: src[{src_pos}:{src_pos + length}] "
            f"of {src.length}, dst[{dst_pos}:{dst_pos + length}] "
            f"of {dst.length}")
    if length == 0:
        return None
    # Touch line-granular, as a memcpy would.
    src_start = src.element_address(src_pos)
    dst_start = dst.element_address(dst_pos)
    machine.touch_range(thread, src_start,
                        src_start + length * src.elem_size(), is_write=False)
    machine.touch_range(thread, dst_start,
                        dst_start + length * dst.elem_size(), is_write=True)
    dst.elements[dst_pos:dst_pos + length] = \
        src.elements[src_pos:src_pos + length]
    return None


def _native_rand(call: NativeCall):
    """rand(bound) -> uniform int in [0, bound)."""
    (bound,) = call.args
    if bound <= 0:
        raise TrapError(f"rand bound must be positive, got {bound}")
    return call.machine.rng.randrange(bound)


def _native_print(call: NativeCall):
    call.machine.output.append(str(call.args[0]) if call.args else "")
    return None


def _native_await_static(call: NativeCall):
    """await_static[key]: park until the named static is truthy."""
    key = call.consts[0]
    machine, thread = call.machine, call.thread

    def ready() -> bool:
        value = machine.statics.get(key)
        return bool(value) if not isinstance(value, Ref) else True

    if not ready():
        thread.state = ThreadState.WAITING
        thread.wait_predicate = ready
    return None


def _native_numa_interleave(call: NativeCall):
    """numa_alloc_interleaved analogue: interleave an object's pages."""
    (ref,) = call.args
    obj = call.machine.heap.get(ref)
    call.machine.hierarchy.set_range_policy(
        obj.addr, obj.size, PlacementPolicy.INTERLEAVE)
    return None


def _native_numa_bind(call: NativeCall):
    """Bind an object's pages to one node."""
    ref, node = call.args
    obj = call.machine.heap.get(ref)
    call.machine.hierarchy.set_range_policy(
        obj.addr, obj.size, PlacementPolicy.BIND, bind_node=node)
    return None


def _native_current_cpu(call: NativeCall):
    return call.thread.cpu


def _native_blackhole(call: NativeCall):
    """Consume a value (keeps workloads honest about using results)."""
    return None


def _stream(call: NativeCall, ref, start_elem: int, n_elems: int) -> None:
    """Shared implementation of the bulk-streaming natives.

    Streams ``n_elems`` elements line-by-line through the hierarchy —
    the compiled-code equivalent of a tight read/write loop, without
    paying the simulator's per-bytecode dispatch cost.  Consts:
    ``(passes, is_write, cycles_per_element)``; the last models the
    arithmetic a real loop body would do per element.
    """
    consts = call.consts
    passes = consts[0] if len(consts) > 0 else 1
    is_write = bool(consts[1]) if len(consts) > 1 else False
    cycles_per_element = consts[2] if len(consts) > 2 else 8
    machine, thread = call.machine, call.thread
    obj = machine.heap.get(ref)
    if n_elems < 0 or start_elem < 0 \
            or start_elem + n_elems > obj.length:
        raise TrapError(
            f"stream out of bounds: [{start_elem}, {start_elem + n_elems}) "
            f"of {obj.length}")
    if n_elems == 0:
        return
    start = obj.element_address(start_elem)
    span = n_elems * obj.elem_size()
    for _ in range(passes):
        machine.touch_range(thread, start, start + span, is_write)
        thread.cycles += int(n_elems * cycles_per_element)


def _native_stream_array(call: NativeCall):
    """stream_array(arr)[passes, is_write, cpe]: stream a whole array."""
    (ref,) = call.args
    obj = call.machine.heap.get(ref)
    _stream(call, ref, 0, obj.length)
    return None


def _native_stream_range(call: NativeCall):
    """stream_range(arr, start, n)[passes, is_write, cpe]."""
    ref, start_elem, n_elems = call.args
    _stream(call, ref, start_elem, n_elems)
    return None
