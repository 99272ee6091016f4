"""The full memory hierarchy: per-CPU L1/L2, per-node shared L3, TLB, NUMA.

Every memory access issued by the simulated runtime flows through
:meth:`MemoryHierarchy.access`, which walks the cache stack, consults the
NUMA page table, and returns an :class:`AccessResult` describing the
outcome — which level served the access, whether the TLB missed, which
node owned the data, whether the access was remote, and the total latency
in cycles.  The PMU (:mod:`repro.pmu`) turns these outcomes into
countable hardware events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.memsys.batch import page_runs
from repro.memsys.cache import Cache, lines_spanned
from repro.memsys.numa import NumaTopology, PageTable, PlacementPolicy
from repro.memsys.tlb import Tlb


@dataclass(frozen=True)
class LatencyModel:
    """Access latencies in cycles, loosely calibrated to a Broadwell Xeon
    (the paper's evaluation machine: Intel Xeon E5-2650 v4)."""

    l1_hit: int = 4
    l2_hit: int = 12
    l3_hit: int = 40
    dram_local: int = 200
    dram_remote: int = 350
    tlb_miss_penalty: int = 30


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache geometry; defaults mirror the paper's evaluation machine
    (32KB private L1, 256KB private L2, shared 30MB L3), scaled to one L3
    per NUMA node."""

    line_size: int = 64
    l1_size: int = 32 * 1024
    l1_assoc: int = 8
    l2_size: int = 256 * 1024
    l2_assoc: int = 8
    l3_size: int = 30 * 1024 * 1024
    l3_assoc: int = 20
    tlb_entries: int = 64
    page_size: int = 4096
    latency: LatencyModel = field(default_factory=LatencyModel)


#: The level that ultimately served an access.
LEVEL_L1 = "L1"
LEVEL_L2 = "L2"
LEVEL_L3 = "L3"
LEVEL_DRAM = "DRAM"


class AccessResult:
    """Outcome of one memory access (possibly spanning several lines).

    A plain ``__slots__`` class (not a dataclass): one instance is built
    per simulated memory access, so construction cost matters.
    """

    __slots__ = ("address", "size", "is_write", "cpu", "level", "latency",
                 "l1_misses", "l2_misses", "l3_misses", "tlb_misses",
                 "home_node", "remote", "lines")

    def __init__(self, address: int, size: int, is_write: bool, cpu: int,
                 level: str, latency: int, l1_misses: int, l2_misses: int,
                 l3_misses: int, tlb_misses: int, home_node: int,
                 remote: bool, lines: int = 1) -> None:
        self.address = address
        self.size = size
        self.is_write = is_write
        self.cpu = cpu
        #: deepest level reached by the slowest spanned line
        self.level = level
        self.latency = latency
        self.l1_misses = l1_misses
        self.l2_misses = l2_misses
        self.l3_misses = l3_misses
        self.tlb_misses = tlb_misses
        #: node owning the page of ``address`` (first page if spanning)
        self.home_node = home_node
        #: True when home_node differs from the accessing CPU's node
        self.remote = remote
        self.lines = lines

    @property
    def tlb_missed(self) -> bool:
        return self.tlb_misses > 0

    def __repr__(self) -> str:
        return (f"AccessResult(addr={self.address:#x}, size={self.size}, "
                f"{'store' if self.is_write else 'load'}, cpu={self.cpu}, "
                f"level={self.level}, latency={self.latency}, "
                f"remote={self.remote})")


@dataclass
class HierarchyStats:
    accesses: int = 0
    loads: int = 0
    stores: int = 0
    total_latency: int = 0

    def reset(self) -> None:
        self.accesses = 0
        self.loads = 0
        self.stores = 0
        self.total_latency = 0


class MemoryHierarchy:
    """L1(d) per CPU → L2 per CPU → L3 per NUMA node → DRAM."""

    def __init__(self, topology: Optional[NumaTopology] = None,
                 config: Optional[HierarchyConfig] = None) -> None:
        self.topology = topology or NumaTopology()
        self.config = config or HierarchyConfig()
        cfg = self.config
        if cfg.line_size < 8:
            # A line holds at least one heap word, so every 8-aligned
            # 8-byte access is single-line (the fused fast bodies rely
            # on it).
            raise ValueError(
                f"line_size must be at least 8 bytes, got {cfg.line_size}")
        self.page_table = PageTable(self.topology, page_size=cfg.page_size)
        self.l1: List[Cache] = [
            Cache(f"L1d#{c}", cfg.l1_size, cfg.l1_assoc, cfg.line_size)
            for c in range(self.topology.num_cpus)]
        self.l2: List[Cache] = [
            Cache(f"L2#{c}", cfg.l2_size, cfg.l2_assoc, cfg.line_size)
            for c in range(self.topology.num_cpus)]
        self.l3: List[Cache] = [
            Cache(f"L3#{n}", cfg.l3_size, cfg.l3_assoc, cfg.line_size)
            for n in range(self.topology.num_nodes)]
        self.tlb: List[Tlb] = [
            Tlb(cfg.tlb_entries, cfg.page_size)
            for _ in range(self.topology.num_cpus)]
        self.stats = HierarchyStats()
        # Fast-path lookup tables.
        self._line_mask = ~(cfg.line_size - 1)
        self._line_low = cfg.line_size - 1
        self._node_of_cpu = [self.topology.node_of_cpu(c)
                             for c in range(self.topology.num_cpus)]
        self._num_cpus = self.topology.num_cpus
        self._line_size = cfg.line_size
        self._page_size = cfg.page_size
        lat = cfg.latency
        self._l1_hit_latency = lat.l1_hit
        self._l2_hit_latency = lat.l2_hit
        self._l3_hit_latency = lat.l3_hit
        self._dram_local_latency = lat.dram_local
        self._dram_remote_latency = lat.dram_remote
        self._tlb_penalty = lat.tlb_miss_penalty
        # The stats objects are mutated in place (reset() clears fields,
        # never replaces the object), so cached references stay live.
        self._pt_stats = self.page_table.stats
        # Per-CPU resident-set index for :meth:`access_hot`:
        # line_addr -> (cset, line, l1_stats, pages, page, tlb_stats,
        #               home_node, remote, page_table.version).
        # ``cset`` and ``pages`` are the *live* L1-set / TLB OrderedDicts,
        # so a hit can replay the legacy walk's LRU and stat updates
        # without any method calls; membership checks plus the page-table
        # version make stale entries (evictions, flushes, migrations)
        # fall back to the full walk.
        self._hot: List[Dict[int, tuple]] = [
            {} for _ in range(self.topology.num_cpus)]
        self._hot_cap = 16384
        # Pooled result returned by access_hot on a hit; every field that
        # an L1/TLB hit cannot change is preset here and never touched.
        self._scratch = AccessResult(
            address=0, size=0, is_write=False, cpu=0, level=LEVEL_L1,
            latency=cfg.latency.l1_hit, l1_misses=0, l2_misses=0,
            l3_misses=0, tlb_misses=0, home_node=0, remote=False, lines=1)
        # Second pooled result for access_hot's single-line miss fallback
        # (every field is rewritten there, so no preset invariant — kept
        # separate from ``_scratch`` so the hit path's preset fields are
        # never clobbered).
        self._scratch_miss = AccessResult(
            address=0, size=0, is_write=False, cpu=0, level=LEVEL_L1,
            latency=0, l1_misses=0, l2_misses=0, l3_misses=0,
            tlb_misses=0, home_node=0, remote=False, lines=1)

    # ------------------------------------------------------------------
    def _access_line(self, cpu: int, node: int, line_addr: int,
                     is_write: bool) -> "tuple[str, int, int, int, int]":
        """Walk one line through the stack.

        Returns (level, latency, l1_miss, l2_miss, l3_miss) where the miss
        fields are 0/1.
        """
        l1 = self.l1[cpu]
        if l1.access(line_addr, is_write):
            return LEVEL_L1, self._l1_hit_latency, 0, 0, 0
        return self._miss_walk(cpu, node, line_addr,
                               line_addr // self._line_size, is_write, l1)

    def _miss_walk(self, cpu: int, node: int, line_addr: int, line: int,
                   is_write: bool, l1: Cache
                   ) -> "tuple[str, int, int, int, int]":
        """Continue an L1-missed line down L2/L3/DRAM, filling upward.

        :meth:`Cache.access` and :meth:`Cache.fill` are inlined (via
        :meth:`_fill`) statement for statement — stats, LRU order and
        dirty-bit merging stay byte-identical with the composed calls.
        """
        fill = self._fill
        l2 = self.l2[cpu]
        l2set = l2._sets[line % l2.num_sets]
        if line in l2set:
            l2set.move_to_end(line)
            if is_write:
                l2set[line] = True
            l2.stats.hits += 1
            fill(l1, line, is_write)
            return LEVEL_L2, self._l2_hit_latency, 1, 0, 0
        l2.stats.misses += 1
        l3 = self.l3[self._node_of_cpu[cpu]]
        l3set = l3._sets[line % l3.num_sets]
        if line in l3set:
            l3set.move_to_end(line)
            if is_write:
                l3set[line] = True
            l3.stats.hits += 1
            fill(l2, line, False)
            fill(l1, line, is_write)
            return LEVEL_L3, self._l3_hit_latency, 1, 1, 0
        l3.stats.misses += 1
        # DRAM access; latency depends on whether the page is remote to
        # the accessing CPU.
        fill(l3, line, False)
        fill(l2, line, False)
        fill(l1, line, is_write)
        if node != self._node_of_cpu[cpu]:
            return LEVEL_DRAM, self._dram_remote_latency, 1, 1, 1
        return LEVEL_DRAM, self._dram_local_latency, 1, 1, 1

    @staticmethod
    def _fill(cache: Cache, line: int, dirty: bool) -> None:
        """:meth:`Cache.fill`, inlined for the miss walk (victims are
        never consumed there, so none is built)."""
        cset = cache._sets[line % cache.num_sets]
        if line in cset:
            cset.move_to_end(line)
            cset[line] = cset[line] or dirty
            return
        if len(cset) >= cache.associativity:
            _victim, victim_dirty = cset.popitem(last=False)
            stats = cache.stats
            stats.evictions += 1
            if victim_dirty:
                stats.writebacks += 1
        cset[line] = dirty

    _LEVEL_ORDER = {LEVEL_L1: 0, LEVEL_L2: 1, LEVEL_L3: 2, LEVEL_DRAM: 3}

    def access(self, cpu: int, address: int, size: int = 8,
               is_write: bool = False) -> AccessResult:
        """Perform one memory access and return its outcome."""
        if not 0 <= cpu < self.topology.num_cpus:
            raise ValueError(f"cpu {cpu} out of range")
        if address < 0:
            raise ValueError(f"negative address {address:#x}")
        cfg = self.config
        if (address & self._line_low) + size <= cfg.line_size:
            return self._access_single(cpu, address, size, is_write)

        tlb_misses = 0
        latency = 0
        worst_level = LEVEL_L1
        l1_miss_total = l2_miss_total = l3_miss_total = 0
        home_node = -1

        line_addrs = lines_spanned(address, size, cfg.line_size)
        # Each distinct page gets exactly one TLB lookup and one page-table
        # touch, whether it was already placed or is first-touched here —
        # a page-straddling access charges both its pages' lookup paths.
        # Lines straddling a page with a different placement resolve their
        # own home node.
        page_nodes: Dict[int, int] = {}
        for line_addr in line_addrs:
            page = line_addr // cfg.page_size
            line_node = page_nodes.get(page)
            if line_node is None:
                if not self.tlb[cpu].access(line_addr):
                    tlb_misses += 1
                    latency += cfg.latency.tlb_miss_penalty
                line_node = self.page_table.touch(line_addr, cpu)
                page_nodes[page] = line_node
                if home_node < 0:
                    home_node = line_node
            level, lat, m1, m2, m3 = self._access_line(
                cpu, line_node, line_addr, is_write)
            latency += lat
            l1_miss_total += m1
            l2_miss_total += m2
            l3_miss_total += m3
            if self._LEVEL_ORDER[level] > self._LEVEL_ORDER[worst_level]:
                worst_level = level
        remote = home_node != self.topology.node_of_cpu(cpu)

        self.stats.accesses += 1
        if is_write:
            self.stats.stores += 1
        else:
            self.stats.loads += 1
        self.stats.total_latency += latency

        return AccessResult(
            address=address, size=size, is_write=is_write, cpu=cpu,
            level=worst_level, latency=latency,
            l1_misses=l1_miss_total, l2_misses=l2_miss_total,
            l3_misses=l3_miss_total, tlb_misses=tlb_misses,
            home_node=home_node, remote=remote, lines=len(line_addrs))

    def _access_single(self, cpu: int, address: int, size: int,
                       is_write: bool,
                       out: Optional[AccessResult] = None) -> AccessResult:
        """Fast path: the access fits in one cache line.

        The page-table touch, TLB access and L1 probe are inlined here
        (this is the innermost simulator loop); each block replicates
        the corresponding method — :meth:`PageTable.touch`,
        :meth:`Tlb.access`, :meth:`Cache.access` — statement for
        statement, so statistics and LRU state stay byte-identical with
        the composed walk that the multi-line path still uses.

        When ``out`` is given it is mutated and returned instead of
        constructing a fresh AccessResult (pooled-result callers only).
        """
        page = address // self._page_size
        # PageTable.touch, inlined.
        pt = self.page_table
        home_node = pt._page_node.get(page)
        cpu_node = self._node_of_cpu[cpu]
        if home_node is None:
            home_node = cpu_node
            pt._page_node[page] = home_node
        pt_stats = self._pt_stats
        if home_node == cpu_node:
            pt_stats.local_accesses += 1
            remote = False
        else:
            pt_stats.remote_accesses += 1
            remote = True
        # Tlb.access, inlined.
        tlb = self.tlb[cpu]
        pages = tlb._pages
        tlb_stats = tlb.stats
        latency = 0
        tlb_misses = 0
        if page in pages:
            pages.move_to_end(page)
            tlb_stats.hits += 1
        else:
            tlb_stats.misses += 1
            if len(pages) >= tlb.entries:
                pages.popitem(last=False)
            pages[page] = True
            tlb_misses = 1
            latency = self._tlb_penalty
        # Cache.access on L1, inlined; misses continue down the stack.
        line_addr = address & self._line_mask
        l1 = self.l1[cpu]
        line = address // self._line_size
        cset = l1._sets[line % l1.num_sets]
        l1_stats = l1.stats
        if line in cset:
            cset.move_to_end(line)
            if is_write:
                cset[line] = True
            l1_stats.hits += 1
            level = LEVEL_L1
            latency += self._l1_hit_latency
            m1 = m2 = m3 = 0
        else:
            l1_stats.misses += 1
            level, lat, m1, m2, m3 = self._miss_walk(
                cpu, home_node, line_addr, line, is_write, l1)
            latency += lat
        stats = self.stats
        stats.accesses += 1
        if is_write:
            stats.stores += 1
        else:
            stats.loads += 1
        stats.total_latency += latency
        # The line is now resident in L1 and the page in the TLB, whatever
        # level served the access — index it for access_hot.
        hot = self._hot[cpu]
        if len(hot) >= self._hot_cap:
            hot.clear()
        hot[line_addr] = (cset, line, l1_stats, pages, page, tlb_stats,
                          home_node, remote, pt.version)
        if out is None:
            return AccessResult(
                address=address, size=size, is_write=is_write, cpu=cpu,
                level=level, latency=latency, l1_misses=m1, l2_misses=m2,
                l3_misses=m3, tlb_misses=tlb_misses, home_node=home_node,
                remote=remote, lines=1)
        out.address = address
        out.size = size
        out.is_write = is_write
        out.cpu = cpu
        out.level = level
        out.latency = latency
        out.l1_misses = m1
        out.l2_misses = m2
        out.l3_misses = m3
        out.tlb_misses = tlb_misses
        out.home_node = home_node
        out.remote = remote
        out.lines = 1
        return out

    def access_hot(self, cpu: int, address: int, size: int = 8,
                   is_write: bool = False) -> AccessResult:
        """:meth:`access`, short-circuiting the L1/TLB-hit common case.

        On a hit the walk's entire effect — LRU recency, dirty bit, L1 /
        TLB / NUMA / hierarchy statistics, latency — is replayed inline
        from the resident-set index, and a *pooled* AccessResult is
        returned.  Single-line misses also return a pooled result (a
        second scratch instance, filled by the full walk).  Callers must
        copy out any fields they keep before the next access (the PMU
        does; anything that retains result objects, e.g. trace
        recording, must call :meth:`access` instead).  Straddling or
        out-of-range accesses fall back to :meth:`access`, which returns
        a fresh result as always.
        """
        if (cpu < 0 or cpu >= self._num_cpus or address < 0
                or (address & self._line_low) + size > self._line_size):
            # Out-of-range inputs or straddling accesses take the full
            # entry point (same validation errors, same split walk).
            return self.access(cpu, address, size, is_write)
        entry = self._hot[cpu].get(address & self._line_mask)
        if entry is not None:
            (cset, line, l1_stats, pages, page, tlb_stats,
             home_node, remote, version) = entry
            if (line in cset and page in pages
                    and version == self.page_table.version):
                pt_stats = self._pt_stats
                if remote:
                    pt_stats.remote_accesses += 1
                else:
                    pt_stats.local_accesses += 1
                pages.move_to_end(page)
                tlb_stats.hits += 1
                cset.move_to_end(line)
                if is_write:
                    cset[line] = True
                l1_stats.hits += 1
                stats = self.stats
                stats.accesses += 1
                if is_write:
                    stats.stores += 1
                else:
                    stats.loads += 1
                stats.total_latency += self._l1_hit_latency
                r = self._scratch
                r.address = address
                r.size = size
                r.is_write = is_write
                r.cpu = cpu
                r.home_node = home_node
                r.remote = remote
                return r
        return self._access_single(cpu, address, size, is_write,
                                   self._scratch_miss)

    def touch_range(self, cpu: int, start: int, end: int,
                    is_write: bool,
                    combo_counts: Optional[List[int]] = None) -> int:
        """Fused bulk walk: one 8-byte access per line of ``[start, end)``.

        State- and statistics-identical to looping
        ``access(cpu, addr, 8, is_write)`` line by line.  The range is
        split into per-page line runs (:func:`~repro.memsys.batch.page_runs`);
        each run takes one page-table touch and one TLB step, then walks
        its lines in order, each with its own L1/L2/L3 probe, recency
        and dirty update and inline LRU fills.  Statistics, latency and
        outcome combos accumulate in locals and are applied once per
        call.  Returns the summed latency; no AccessResults are built,
        so this is for pooled callers only (allocation zeroing,
        arraycopy, the streaming natives) — anything that needs per-line
        outcomes must loop :meth:`access` itself.

        ``combo_counts``, when given, is a
        :data:`~repro.pmu.events.NUM_COMBOS`-sized histogram that each
        line's outcome combo (:func:`~repro.pmu.events.combo_index`) is
        accumulated into — exactly the combos per-line :meth:`access`
        results would classify to, with the TLB-missed bit set only on
        the first line of a page run, as per-line walks see it.  That is
        what lets sampled runs bulk skip-ahead their PMU counters over
        the walk.  If the preconditions for the fused walk fail while
        counting, ``-1`` is returned *before any state changes* so the
        caller can redo the range through observed per-line accesses.

        Same-page TLB replays skip the ``move_to_end`` (the page is
        already most recent — addresses only ascend, so a page is never
        revisited after the run leaves it).  The bulk walk does not
        register resident-set entries: a later single access to one of
        these lines re-registers it through the full walk with identical
        observable state, and bulk-touched lines are often never touched
        individually at all.
        """
        line_size = self._line_size
        if (cpu < 0 or cpu >= self._num_cpus or start < 0
                or (start & self._line_low) + 8 > line_size
                or self._page_size % line_size):
            if combo_counts is not None:
                # Counting callers need per-line outcomes they can
                # observe; nothing has been touched yet, so they can.
                return -1
            # Odd alignments or geometries: per-line slow path with the
            # same per-access semantics.
            total = 0
            addr = start
            while addr < end:
                total += self.access_hot(cpu, addr, 8, is_write).latency
                addr += line_size
            return total
        page_size = self._page_size
        page_node = self.page_table._page_node
        pt_stats = self._pt_stats
        cpu_node = self._node_of_cpu[cpu]
        tlb = self.tlb[cpu]
        l1 = self.l1[cpu]
        l1_sets = l1._sets
        l1_nsets = l1.num_sets
        l1_assoc = l1.associativity
        l2 = self.l2[cpu]
        l2_sets = l2._sets
        l2_nsets = l2.num_sets
        l2_assoc = l2.associativity
        l3 = self.l3[cpu_node]
        l3_sets = l3._sets
        l3_nsets = l3.num_sets
        l3_assoc = l3.associativity
        counting = combo_counts is not None
        wbase = 2 if is_write else 0
        n = 0
        # Lines served by L1 / L2 / L3 / DRAM (and remote DRAM), and
        # evictions and writebacks per level, over the whole call.
        h1 = h2 = h3 = hd = hd_remote = 0
        ev1 = ev2 = ev3 = wb1 = wb2 = wb3 = 0
        total = 0
        for run_addr, nlines in page_runs(start, end, line_size, page_size):
            page = run_addr // page_size
            home_node = page_node.get(page)
            if home_node is None:
                home_node = cpu_node
                page_node[page] = home_node
            remote = home_node != cpu_node
            if remote:
                pt_stats.remote_accesses += nlines
            else:
                pt_stats.local_accesses += nlines
            tlb_missed = tlb.touch_run(page, nlines)
            if tlb_missed:
                total += self._tlb_penalty
            line0 = run_addr // line_size
            n += nlines
            rd = hd
            if counting:
                r1, r2, r3 = h1, h2, h3
                if tlb_missed:
                    # The run's first line carries the TLB-missed bit;
                    # its level is what the stack holds before the walk.
                    if line0 in l1_sets[line0 % l1_nsets]:
                        first = 0
                    elif line0 in l2_sets[line0 % l2_nsets]:
                        first = 8
                    elif line0 in l3_sets[line0 % l3_nsets]:
                        first = 16
                    else:
                        first = 24
            for line in range(line0, line0 + nlines):
                cset = l1_sets[line % l1_nsets]
                if line in cset:
                    cset.move_to_end(line)
                    if is_write:
                        cset[line] = True
                    h1 += 1
                    continue
                l2set = l2_sets[line % l2_nsets]
                if line in l2set:
                    l2set.move_to_end(line)
                    if is_write:
                        l2set[line] = True
                    h2 += 1
                else:
                    l3set = l3_sets[line % l3_nsets]
                    if line in l3set:
                        l3set.move_to_end(line)
                        if is_write:
                            l3set[line] = True
                        h3 += 1
                    else:
                        hd += 1
                        # L3 fill (the line just missed L3: plain insert).
                        if len(l3set) >= l3_assoc:
                            ev3 += 1
                            if l3set.popitem(last=False)[1]:
                                wb3 += 1
                        l3set[line] = False
                    # L2 fill, clean (the line just missed L2).
                    if len(l2set) >= l2_assoc:
                        ev2 += 1
                        if l2set.popitem(last=False)[1]:
                            wb2 += 1
                    l2set[line] = False
                # L1 fill (the line just missed L1).
                if len(cset) >= l1_assoc:
                    ev1 += 1
                    if cset.popitem(last=False)[1]:
                        wb1 += 1
                cset[line] = is_write
            if remote:
                hd_remote += hd - rd
            if counting:
                base = wbase + 1 if remote else wbase
                combo_counts[base] += h1 - r1
                combo_counts[8 + base] += h2 - r2
                combo_counts[16 + base] += h3 - r3
                combo_counts[24 + base] += hd - rd
                if tlb_missed:
                    combo_counts[first + base] -= 1
                    combo_counts[first + base + 4] += 1
        l1_stats = l1.stats
        l1_stats.hits += h1
        l1_stats.misses += n - h1
        l1_stats.evictions += ev1
        l1_stats.writebacks += wb1
        l2_stats = l2.stats
        l2_stats.hits += h2
        l2_stats.misses += n - h1 - h2
        l2_stats.evictions += ev2
        l2_stats.writebacks += wb2
        l3_stats = l3.stats
        l3_stats.hits += h3
        l3_stats.misses += hd
        l3_stats.evictions += ev3
        l3_stats.writebacks += wb3
        total += (self._l1_hit_latency * h1 + self._l2_hit_latency * h2
                  + self._l3_hit_latency * h3
                  + self._dram_local_latency * (hd - hd_remote)
                  + self._dram_remote_latency * hd_remote)
        stats = self.stats
        stats.accesses += n
        if is_write:
            stats.stores += n
        else:
            stats.loads += n
        stats.total_latency += total
        return total

    # ------------------------------------------------------------------
    def set_range_policy(self, start: int, size: int,
                         policy: PlacementPolicy,
                         bind_node: Optional[int] = None) -> None:
        """Forward a placement request to the page table."""
        self.page_table.set_range_policy(start, size, policy, bind_node)

    def flush_all(self) -> None:
        """Drop all cached state (used between benchmark repetitions)."""
        for cache in self.l1 + self.l2 + self.l3:
            cache.flush()
        for tlb in self.tlb:
            tlb.flush()
        for hot in self._hot:
            hot.clear()

    def miss_summary(self) -> Dict[str, int]:
        """Aggregate per-level miss counts across all cache instances."""
        return {
            "l1_misses": sum(c.stats.misses for c in self.l1),
            "l2_misses": sum(c.stats.misses for c in self.l2),
            "l3_misses": sum(c.stats.misses for c in self.l3),
            "tlb_misses": sum(t.stats.misses for t in self.tlb),
        }
