"""Typed machine events published on the observation bus.

Delivery to collectors is *batched* (flushed at scheduler-quantum
boundaries), so every event snapshots the state a consumer needs **at
publish time** — the heap object behind an :class:`AllocEvent` may have
moved or died by the time the batch is delivered, and a thread's call
stack is only meaningful at the instant of the triggering access.
:class:`SampleEvent` therefore carries the unwound call path (the PEBS +
async-unwind analogue) and :class:`AllocEvent` carries the object's
address range, type and allocation path.

Every event serialises to a compact JSON array via ``to_record`` and
back via ``from_record`` so a :class:`~repro.obs.trace.TraceWriter` can
persist the stream for offline replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.memsys.hierarchy import AccessResult

#: Native hook name the Java-agent instrumentation emits; the machine
#: registers a default implementation that publishes an AllocEvent.
#: (Historically defined in :mod:`repro.core.javaagent`, which still
#: re-exports it; it lives here so the machine need not import core.)
ALLOC_HOOK = "_djx_on_alloc"

#: Raw call path as captured by async unwinding: ((method_id, bci), ...)
RawPath = Tuple[Tuple[int, int], ...]


def _encode_path(path: RawPath) -> List[List[int]]:
    return [[mid, bci] for mid, bci in path]


def _decode_path(encoded) -> RawPath:
    return tuple((int(mid), int(bci)) for mid, bci in encoded)


@dataclass(frozen=True)
class ThreadStartEvent:
    """A Java thread became runnable (JVMTI ThreadStart)."""

    kind = "thread_start"
    tid: int
    cpu: int
    name: str

    def to_record(self) -> list:
        return ["ts", self.tid, self.cpu, self.name]

    @staticmethod
    def from_record(rec) -> "ThreadStartEvent":
        return ThreadStartEvent(tid=rec[1], cpu=rec[2], name=rec[3])


@dataclass(frozen=True)
class ThreadEndEvent:
    """A Java thread finished (JVMTI ThreadEnd)."""

    kind = "thread_end"
    tid: int

    def to_record(self) -> list:
        return ["te", self.tid]

    @staticmethod
    def from_record(rec) -> "ThreadEndEvent":
        return ThreadEndEvent(tid=rec[1])


class AllocEvent:
    """One object allocation observed by the instrumentation hook.

    Published for every allocation the hook sees *while some subscribed
    collector sets* ``wants_allocs`` — the hook skips both the event
    and its call-path snapshot otherwise (demand-driven streams);
    collectors apply their own size thresholds.  ``path`` is the
    allocation call path captured at hook time (AsyncGetCallTrace).
    A plain ``__slots__`` class rather than a dataclass: one is built
    per allocation on instrumented runs, so construction cost matters.
    ``thread`` (the live thread, for cycle charging) is never
    serialised and never compared.
    """

    kind = "alloc"
    __slots__ = ("tid", "addr", "end", "size", "type_name", "path",
                 "thread")

    def __init__(self, tid: int, addr: int, end: int, size: int,
                 type_name: str, path: RawPath,
                 thread: Optional[object] = None) -> None:
        self.tid = tid
        self.addr = addr
        self.end = end
        self.size = size
        self.type_name = type_name
        self.path = path
        self.thread = thread

    def __eq__(self, other) -> bool:
        if not isinstance(other, AllocEvent):
            return NotImplemented
        return (self.tid == other.tid and self.addr == other.addr
                and self.end == other.end and self.size == other.size
                and self.type_name == other.type_name
                and self.path == other.path)

    def __hash__(self) -> int:
        return hash((self.tid, self.addr, self.end, self.size,
                     self.type_name, self.path))

    def __repr__(self) -> str:
        return (f"AllocEvent(tid={self.tid}, addr={self.addr}, "
                f"end={self.end}, size={self.size}, "
                f"type_name={self.type_name!r}, path={self.path!r})")

    def to_record(self) -> list:
        return ["al", self.tid, self.addr, self.end, self.size,
                self.type_name, _encode_path(self.path)]

    @staticmethod
    def from_record(rec) -> "AllocEvent":
        return AllocEvent(tid=rec[1], addr=rec[2], end=rec[3], size=rec[4],
                          type_name=rec[5], path=_decode_path(rec[6]))


def canon_value(value):
    """Canonicalise a heap value for events and traces.

    Watchpoint traps and content digests compare values across engines
    and replays, so a value becomes a JSON-stable primitive: ints,
    floats and strings pass through, bools collapse to ints, heap
    references encode as ``"@<oid>"`` (object ids are deterministic).
    ``None`` means *value unknown* (bulk walks carry no value).
    """
    if value is None:
        return None
    cls = value.__class__
    if cls is int or cls is float or cls is str:
        return value
    if cls is bool:
        return int(value)
    oid = getattr(value, "oid", None)
    if oid is not None:
        return f"@{oid}"
    return repr(value)


def content_digest(values) -> str:
    """Digest of one object's payload (array elements or field values,
    in layout order), stable across engines, processes and replays."""
    import hashlib

    text = repr([canon_value(v) for v in values])
    return hashlib.blake2b(text.encode(), digest_size=12).hexdigest()


class AccessEvent:
    """One raw memory access (full-trace collectors only).

    A thin ``__slots__`` wrapper over the hierarchy's
    :class:`~repro.memsys.hierarchy.AccessResult` — one is built per
    simulated access when (and only when) a subscribed collector sets
    ``wants_accesses``, so construction cost matters.  Field access
    delegates to the result, which outlives the access because nothing
    mutates it.
    """

    kind = "access"
    __slots__ = ("tid", "result", "thread")

    def __init__(self, tid: int, result: AccessResult,
                 thread: Optional[object] = None) -> None:
        self.tid = tid
        self.result = result
        self.thread = thread

    @property
    def address(self) -> int:
        return self.result.address

    @property
    def size(self) -> int:
        return self.result.size

    @property
    def is_write(self) -> bool:
        return self.result.is_write

    @property
    def cpu(self) -> int:
        return self.result.cpu

    @property
    def level(self) -> str:
        return self.result.level

    @property
    def latency(self) -> int:
        return self.result.latency

    @property
    def remote(self) -> bool:
        return self.result.remote

    @property
    def home_node(self) -> int:
        return self.result.home_node

    def __eq__(self, other) -> bool:
        if not isinstance(other, AccessEvent):
            return NotImplemented
        return self.tid == other.tid and self.to_record() == other.to_record()

    def __repr__(self) -> str:
        return f"AccessEvent(tid={self.tid}, {self.result!r})"

    def to_record(self) -> list:
        r = self.result
        return ["ac", self.tid, r.address, r.size, int(r.is_write), r.cpu,
                r.level, r.latency, r.l1_misses, r.l2_misses, r.l3_misses,
                r.tlb_misses, r.home_node, int(r.remote), r.lines]

    @staticmethod
    def from_record(rec) -> "AccessEvent":
        # Traces from before values were dropped carry a 16th element;
        # it is ignored.
        result = AccessResult(
            address=rec[2], size=rec[3], is_write=bool(rec[4]), cpu=rec[5],
            level=rec[6], latency=rec[7], l1_misses=rec[8], l2_misses=rec[9],
            l3_misses=rec[10], tlb_misses=rec[11], home_node=rec[12],
            remote=bool(rec[13]), lines=rec[14])
        return AccessEvent(tid=rec[1], result=result)


@dataclass(frozen=True)
class SampleEvent:
    """One PMU overflow sample (PEBS) with its unwound call path.

    Counting happens synchronously in the bus (the PMU lives in
    "hardware"); the call path is captured at overflow time, exactly as
    a real overflow signal handler running AsyncGetCallTrace would, so
    batched delivery loses nothing.  ``sampler_id`` identifies which
    opened sampler overflowed — collectors filter on the ids they own.
    """

    kind = "sample"
    sampler_id: int
    event: str
    tid: int
    cpu: int
    address: int
    size: int
    is_write: bool
    latency: int
    level: str
    home_node: int
    remote: bool
    path: RawPath
    thread: Optional[object] = field(default=None, compare=False,
                                     repr=False)

    def to_record(self) -> list:
        return ["sm", self.sampler_id, self.event, self.tid, self.cpu,
                self.address, self.size, int(self.is_write), self.latency,
                self.level, self.home_node, int(self.remote),
                _encode_path(self.path)]

    @staticmethod
    def from_record(rec) -> "SampleEvent":
        return SampleEvent(
            sampler_id=rec[1], event=rec[2], tid=rec[3], cpu=rec[4],
            address=rec[5], size=rec[6], is_write=bool(rec[7]),
            latency=rec[8], level=rec[9], home_node=rec[10],
            remote=bool(rec[11]), path=_decode_path(rec[12]))


@dataclass(frozen=True)
class GcMoveEvent:
    """The collector relocated one live object (memmove interposition)."""

    kind = "gc_move"
    oid: int
    src: int
    dst: int
    size: int

    def to_record(self) -> list:
        return ["gm", self.oid, self.src, self.dst, self.size]

    @staticmethod
    def from_record(rec) -> "GcMoveEvent":
        return GcMoveEvent(oid=rec[1], src=rec[2], dst=rec[3], size=rec[4])


@dataclass(frozen=True)
class GcFinalizeEvent:
    """An object is about to be reclaimed (finalize interception)."""

    kind = "gc_finalize"
    oid: int
    addr: int
    size: int
    type_name: str

    def to_record(self) -> list:
        return ["gf", self.oid, self.addr, self.size, self.type_name]

    @staticmethod
    def from_record(rec) -> "GcFinalizeEvent":
        return GcFinalizeEvent(oid=rec[1], addr=rec[2], size=rec[3],
                               type_name=rec[4])


@dataclass(frozen=True)
class GcNotifyEvent:
    """GC completed (GarbageCollectorMXBean notification)."""

    kind = "gc_notify"
    gc_id: int
    reclaimed_objects: int
    reclaimed_bytes: int
    moved_objects: int
    moved_bytes: int
    live_bytes: int
    pause_cycles: int

    def to_record(self) -> list:
        return ["gn", self.gc_id, self.reclaimed_objects,
                self.reclaimed_bytes, self.moved_objects, self.moved_bytes,
                self.live_bytes, self.pause_cycles]

    @staticmethod
    def from_record(rec) -> "GcNotifyEvent":
        return GcNotifyEvent(gc_id=rec[1], reclaimed_objects=rec[2],
                             reclaimed_bytes=rec[3], moved_objects=rec[4],
                             moved_bytes=rec[5], live_bytes=rec[6],
                             pause_cycles=rec[7])


@dataclass(frozen=True)
class JitCompileEvent:
    """The JIT compiled a method (CompiledMethodLoad)."""

    kind = "jit_compile"
    method_id: int
    qualified_name: str
    version: int

    def to_record(self) -> list:
        return ["jc", self.method_id, self.qualified_name, self.version]

    @staticmethod
    def from_record(rec) -> "JitCompileEvent":
        return JitCompileEvent(method_id=rec[1], qualified_name=rec[2],
                               version=rec[3])


@dataclass(frozen=True)
class SamplerOpenEvent:
    """A collector opened a PMU sampler on the bus.

    Recorded in traces so offline replay knows which ``sampler_id``
    values belonged to which profiler (matched by ``owner``).
    """

    kind = "sampler_open"
    sampler_id: int
    event: str
    period: int
    owner: str

    def to_record(self) -> list:
        return ["so", self.sampler_id, self.event, self.period, self.owner]

    @staticmethod
    def from_record(rec) -> "SamplerOpenEvent":
        return SamplerOpenEvent(sampler_id=rec[1], event=rec[2],
                                period=rec[3], owner=rec[4])


@dataclass(frozen=True)
class WatchTrapEvent:
    """A watchpoint armed by a sample trapped (JXPerf): the sampled
    access's kind and value (``armed_*``) and the trapping access's
    (``value`` is ``None`` for bulk walks)."""

    kind = "watch_trap"
    sampler_id: int
    tid: int
    address: int
    armed_write: bool
    armed_value: object
    is_write: bool
    value: object
    thread: Optional[object] = field(default=None, compare=False,
                                     repr=False)

    def to_record(self) -> list:
        return ["wt", self.sampler_id, self.tid, self.address,
                int(self.armed_write), self.armed_value, int(self.is_write),
                self.value]

    @staticmethod
    def from_record(rec) -> "WatchTrapEvent":
        return WatchTrapEvent(sampler_id=rec[1], tid=rec[2], address=rec[3],
                              armed_write=bool(rec[4]), armed_value=rec[5],
                              is_write=bool(rec[6]), value=rec[7])


@dataclass(frozen=True)
class ObjectContentEvent:
    """One object's :func:`content_digest`, read from the heap as it
    dies or when the run ends, while a collector ``wants_contents``."""

    kind = "object_content"
    addr: int
    digest: str

    def to_record(self) -> list:
        return ["oc", self.addr, self.digest]

    @staticmethod
    def from_record(rec) -> "ObjectContentEvent":
        return ObjectContentEvent(addr=rec[1], digest=rec[2])


MachineEvent = Union[
    ThreadStartEvent, ThreadEndEvent, AllocEvent, AccessEvent, SampleEvent,
    GcMoveEvent, GcFinalizeEvent, GcNotifyEvent, JitCompileEvent,
    SamplerOpenEvent, WatchTrapEvent, ObjectContentEvent,
]

#: Record tag → decoder, the inverse of each event's ``to_record``.
RECORD_DECODERS: Dict[str, "callable"] = {
    "ts": ThreadStartEvent.from_record,
    "te": ThreadEndEvent.from_record,
    "al": AllocEvent.from_record,
    "ac": AccessEvent.from_record,
    "sm": SampleEvent.from_record,
    "gm": GcMoveEvent.from_record,
    "gf": GcFinalizeEvent.from_record,
    "gn": GcNotifyEvent.from_record,
    "jc": JitCompileEvent.from_record,
    "so": SamplerOpenEvent.from_record,
    "wt": WatchTrapEvent.from_record,
    "oc": ObjectContentEvent.from_record,
}


def decode_record(rec: list):
    """Decode one serialised event record (``rec[0]`` is the tag)."""
    try:
        decoder = RECORD_DECODERS[rec[0]]
    except KeyError:
        raise ValueError(f"unknown event record tag {rec[0]!r}") from None
    return decoder(rec)
