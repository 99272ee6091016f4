"""Machine-state sanitizers: invariant checks on live simulator state.

Each ``check_*`` function is pure — it walks one structure and returns a
list of :class:`Violation` records naming the offending object/context —
so tests can aim them at deliberately corrupted structures.
:class:`MachineStateSanitizer` composes them into an observation-bus
:class:`~repro.obs.collector.Collector` that re-checks everything at
every quantum boundary (the batch-flush points), which is exactly when
the agent's mirrors (splay tree, relocation map) claim to be coherent
with the machine.

Checked invariants:

heap/allocator
    Every live object inside ``[base, limit)``, 8-aligned, positive
    size, no two objects overlapping, bump pointer inside bounds (and,
    under mark-compact, above every live object).
splay tree
    In-order walk strictly ordered and disjoint, no empty intervals,
    ``len`` matches the node count, and the one-entry lookup cache
    points at a node still reachable in the tree.
splay vs heap (cache coherence)
    Every *known* tracked interval matches a live heap object's exact
    ``[addr, end)`` — the agent's shadow of the heap may not go stale.
CCT
    Every node's children point back to it as ``parent`` and are keyed
    by their own ``key``; no node reachable twice (no cycles/aliasing).
relocation map
    GC move event streams are bijective (unique sources, disjoint
    destination ranges, sizes preserved) and the agent's pending
    relocation map drains by the end of every batch — a non-empty map at
    a quantum boundary is a stale entry.
cache/TLB
    No cache set over associativity, every resident line in the set its
    address maps to, TLBs within capacity, per-cache stats identities,
    and hierarchy hot-index entries that would replay a hit agree with
    the page table on placement.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.heap.layout import OBJECT_ALIGNMENT
from repro.obs.collector import Collector
from repro.obs.events import GcMoveEvent, GcNotifyEvent


class Violation:
    """One invariant violation, naming the offending object/context."""

    __slots__ = ("sanitizer", "message", "context")

    def __init__(self, sanitizer: str, message: str,
                 context: tuple = ()) -> None:
        self.sanitizer = sanitizer
        self.message = message
        self.context = context

    def __repr__(self) -> str:
        ctx = f" {self.context!r}" if self.context else ""
        return f"[{self.sanitizer}] {self.message}{ctx}"


class SanitizerError(AssertionError):
    """Raised by :class:`MachineStateSanitizer` when a check fails."""

    def __init__(self, violations: List[Violation]) -> None:
        self.violations = violations
        lines = "\n  ".join(repr(v) for v in violations)
        super().__init__(f"{len(violations)} sanitizer violation(s):\n"
                         f"  {lines}")


# ----------------------------------------------------------------------
# Pure checks
# ----------------------------------------------------------------------
def check_heap(heap, compact_top: bool = True) -> List[Violation]:
    """Allocator bounds, alignment, and no-overlap over live objects."""
    out: List[Violation] = []
    if not heap.base <= heap._top <= heap.limit:
        out.append(Violation(
            "heap", f"bump pointer {heap._top:#x} outside "
            f"[{heap.base:#x}, {heap.limit:#x}]"))
    prev = None
    for obj in sorted(heap.objects.values(), key=lambda o: o.addr):
        if obj.size <= 0:
            out.append(Violation("heap", f"non-positive size {obj.size}",
                                 (obj.oid, obj.type_name)))
        if obj.addr % OBJECT_ALIGNMENT:
            out.append(Violation(
                "heap", f"object at {obj.addr:#x} not "
                f"{OBJECT_ALIGNMENT}-aligned", (obj.oid, obj.type_name)))
        if obj.addr < heap.base or obj.end > heap.limit:
            out.append(Violation(
                "heap", f"object [{obj.addr:#x}, {obj.end:#x}) outside "
                f"heap [{heap.base:#x}, {heap.limit:#x})",
                (obj.oid, obj.type_name)))
        elif compact_top and obj.end > heap._top:
            out.append(Violation(
                "heap", f"object end {obj.end:#x} above bump pointer "
                f"{heap._top:#x}", (obj.oid, obj.type_name)))
        if prev is not None and obj.addr < prev.end:
            out.append(Violation(
                "heap", f"objects overlap: [{prev.addr:#x}, {prev.end:#x}) "
                f"and [{obj.addr:#x}, {obj.end:#x})",
                (prev.oid, obj.oid)))
        prev = obj
    return out


def _walk_splay(node, out: List[Violation], seen: set) -> Iterable:
    """Yield nodes in order; flags structure sharing (corrupt rotations)."""
    stack, cursor = [], node
    while stack or cursor is not None:
        while cursor is not None:
            if id(cursor) in seen:
                out.append(Violation(
                    "splay", "node reachable twice (tree is not a tree)",
                    (cursor.start, cursor.end)))
                cursor = None
                break
            seen.add(id(cursor))
            stack.append(cursor)
            cursor = cursor.left
        if not stack:
            break
        cursor = stack.pop()
        yield cursor
        cursor = cursor.right


def check_splay(tree) -> List[Violation]:
    """Interval-splay-tree consistency: order, disjointness, hot cache."""
    out: List[Violation] = []
    seen: set = set()
    prev = None
    count = 0
    for node in _walk_splay(tree._root, out, seen):
        count += 1
        if node.end <= node.start:
            out.append(Violation(
                "splay", f"empty interval [{node.start:#x}, {node.end:#x})",
                (node.payload,)))
        if prev is not None:
            if node.start <= prev.start:
                out.append(Violation(
                    "splay", f"BST order violated: {node.start:#x} after "
                    f"{prev.start:#x}", (node.payload,)))
            if node.start < prev.end:
                out.append(Violation(
                    "splay", f"intervals overlap: [{prev.start:#x}, "
                    f"{prev.end:#x}) and [{node.start:#x}, {node.end:#x})",
                    (prev.payload, node.payload)))
        prev = node
    if count != len(tree):
        out.append(Violation(
            "splay", f"size {len(tree)} != node count {count}"))
    hot = tree._hot
    if hot is not None and id(hot) not in seen:
        out.append(Violation(
            "splay", f"lookup cache points at evicted node "
            f"[{hot.start:#x}, {hot.end:#x})", (hot.payload,)))
    return out


def check_splay_against_heap(tree, heap) -> List[Violation]:
    """Every *known* tracked interval mirrors a live heap object."""
    out: List[Violation] = []
    by_addr = {obj.addr: obj for obj in heap.objects.values()}
    for start, end, payload in tree:
        if payload is not None and not getattr(payload, "known", True):
            continue  # attach-mode placeholder; no heap counterpart claimed
        obj = by_addr.get(start)
        if obj is None:
            out.append(Violation(
                "splay-heap", f"tracked interval [{start:#x}, {end:#x}) "
                f"has no live object at its base", (payload,)))
        elif obj.end != end:
            out.append(Violation(
                "splay-heap", f"tracked interval [{start:#x}, {end:#x}) "
                f"disagrees with object [{obj.addr:#x}, {obj.end:#x})",
                (obj.oid, payload)))
    return out


def check_cct(tree) -> List[Violation]:
    """Parent/child link integrity over a CallingContextTree."""
    out: List[Violation] = []
    seen: set = set()
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            out.append(Violation(
                "cct", "node reachable via two parents", (node.key,)))
            continue
        seen.add(id(node))
        for key, child in node.children.items():
            if child.key != key:
                out.append(Violation(
                    "cct", f"child keyed {key!r} reports key "
                    f"{child.key!r}", (key,)))
            if child.parent is not node:
                out.append(Violation(
                    "cct", f"orphan node: child {child.key!r} does not "
                    f"point back at its parent {node.key!r}",
                    (child.key,)))
            stack.append(child)
    return out


def check_relocation_moves(moves: List[GcMoveEvent]) -> List[Violation]:
    """Bijectivity of one GC's move set (unique src, disjoint dst)."""
    out: List[Violation] = []
    srcs: set = set()
    for move in moves:
        if move.size <= 0:
            out.append(Violation(
                "relocation", f"non-positive move size {move.size}",
                (move.oid,)))
        if move.src in srcs:
            out.append(Violation(
                "relocation", f"two objects moved from {move.src:#x}",
                (move.oid,)))
        srcs.add(move.src)
    by_dst = sorted(moves, key=lambda m: m.dst)
    for a, b in zip(by_dst, by_dst[1:]):
        if b.dst < a.dst + a.size:
            out.append(Violation(
                "relocation", f"destination ranges overlap: "
                f"[{a.dst:#x}, {a.dst + a.size:#x}) and "
                f"[{b.dst:#x}, {b.dst + b.size:#x})", (a.oid, b.oid)))
    return out


def check_relocation_map_drained(agent) -> List[Violation]:
    """The agent's pending relocation map must be empty between GCs."""
    stale = getattr(agent, "_relocation_map", None)
    if not stale:
        return []
    entries = tuple(sorted(stale.items()))[:4]
    return [Violation(
        "relocation", f"{len(stale)} stale relocation-map entr"
        f"{'y' if len(stale) == 1 else 'ies'} at quantum boundary "
        f"(src -> (dst, size))", entries)]


def check_hierarchy(hierarchy) -> List[Violation]:
    """Cache/TLB capacity, placement and stats invariants."""
    out: List[Violation] = []
    caches = list(hierarchy.l1) + list(hierarchy.l2) + list(hierarchy.l3)
    for cache in caches:
        resident = 0
        for index, cset in enumerate(cache._sets):
            if len(cset) > cache.associativity:
                out.append(Violation(
                    "cache", f"{cache.name} set {index} holds {len(cset)} "
                    f"lines > associativity {cache.associativity}",
                    (cache.name, index)))
            for line in cset:
                if line % cache.num_sets != index:
                    out.append(Violation(
                        "cache", f"{cache.name} line {line:#x} resident "
                        f"in set {index}, belongs in set "
                        f"{line % cache.num_sets}", (cache.name, line)))
            resident += len(cset)
        stats = cache.stats
        if stats.accesses != stats.hits + stats.misses:
            out.append(Violation(
                "cache", f"{cache.name} stats: accesses "
                f"{stats.accesses} != hits {stats.hits} + misses "
                f"{stats.misses}", (cache.name,)))
        if stats.evictions > stats.misses:
            out.append(Violation(
                "cache", f"{cache.name} stats: evictions "
                f"{stats.evictions} > misses {stats.misses}",
                (cache.name,)))
    for cpu, tlb in enumerate(hierarchy.tlb):
        if len(tlb._pages) > tlb.entries:
            out.append(Violation(
                "tlb", f"cpu {cpu} TLB holds {len(tlb._pages)} pages > "
                f"capacity {tlb.entries}", (cpu,)))
    pt = hierarchy.page_table
    for cpu, hot in enumerate(hierarchy._hot):
        for line_addr, entry in hot.items():
            (cset, line, _l1s, pages, page, _tlbs,
             home_node, remote, version) = entry
            if version != pt.version:
                continue  # stale entries are revalidated on use
            if line not in cset or page not in pages:
                continue  # evicted entries are revalidated on use
            placed = pt._page_node.get(page)
            if placed is not None and placed != home_node:
                out.append(Violation(
                    "hot-index", f"cpu {cpu} hot entry for line "
                    f"{line_addr:#x} caches home node {home_node}, page "
                    f"table says {placed}", (cpu, line_addr)))
            if remote != (home_node != hierarchy._node_of_cpu[cpu]):
                out.append(Violation(
                    "hot-index", f"cpu {cpu} hot entry for line "
                    f"{line_addr:#x} caches remote={remote} but home "
                    f"node is {home_node}", (cpu, line_addr)))
    return out


# ----------------------------------------------------------------------
# The bus collector
# ----------------------------------------------------------------------
class MachineStateSanitizer(Collector):
    """Runs every machine-state check at each quantum boundary.

    Attach *after* the profiler so each batch is checked against the
    profiler state that results from processing it.  The sanitizer charges
    no cycles and publishes nothing, so attaching it never perturbs the
    run it is checking.  Violations accumulate in ``self.violations``;
    with ``raise_on_violation`` the first bad batch raises
    :class:`SanitizerError` (the fuzzing harness wants to stop at the
    first incoherent quantum, closest to the root cause).
    """

    label = "sanitizer"
    wants_accesses = False
    wants_allocs = False

    def __init__(self, profiler=None,
                 raise_on_violation: bool = True) -> None:
        super().__init__()
        self.profiler = profiler
        self.raise_on_violation = raise_on_violation
        self.violations: List[Violation] = []
        self.batches_checked = 0
        self._pending_moves: List[GcMoveEvent] = []

    def handle_batch(self, events) -> None:
        found: List[Violation] = []
        for event in events:
            if type(event) is GcMoveEvent:
                self._pending_moves.append(event)
            elif type(event) is GcNotifyEvent:
                found.extend(check_relocation_moves(self._pending_moves))
                self._pending_moves.clear()
        machine = self.machine
        found.extend(check_heap(
            machine.heap,
            compact_top=machine.config.gc_policy == "mark-compact"))
        found.extend(check_hierarchy(machine.hierarchy))
        if self.profiler is not None:
            found.extend(check_splay(self.profiler.splay))
            found.extend(check_splay_against_heap(self.profiler.splay,
                                                  machine.heap))
            found.extend(check_relocation_map_drained(self.profiler))
        self.batches_checked += 1
        if found:
            self.violations.extend(found)
            if self.raise_on_violation:
                raise SanitizerError(found)
