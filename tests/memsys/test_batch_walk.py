"""Bulk walks vs per-line accesses: bit-identical state.

:meth:`MemoryHierarchy.touch_range` walks a range one page run at a
time (one page-table touch and one TLB step per run, then each line in
order) instead of issuing one full :meth:`~MemoryHierarchy.access` per
line.  The contract is *bit-identical observable state*: for any range,
write mix and revisit pattern, a bulk walk must leave every cache set's
OrderedDict (contents, LRU order, dirty bits), every stats object, the
TLB's recency order, the page table and the summed latency exactly
where the equivalent ``access(cpu, addr, 8, is_write)`` loop would —
and, when counting, produce exactly the outcome-combo histogram the
per-line AccessResults would classify to.

The twin-hierarchy property tests drive both through the same walk
schedule on identical geometries and compare full state after every
walk, on a small geometry (where a page run can have more lines than
a cache has sets) and on the default one.
"""

import copy
import random

import pytest

from repro.memsys import HierarchyConfig, MemoryHierarchy, NumaTopology
from repro.memsys import batch
from repro.pmu.events import NUM_COMBOS, combo_index


def small_config(**overrides):
    base = dict(l1_size=1024, l1_assoc=2,
                l2_size=4096, l2_assoc=4,
                l3_size=16 * 1024, l3_assoc=4,
                tlb_entries=4, page_size=4096)
    base.update(overrides)
    return HierarchyConfig(**base)


def make_twins(cfg=None, num_nodes=2, cpus_per_node=2):
    cfg = cfg or small_config()
    return (MemoryHierarchy(NumaTopology(num_nodes, cpus_per_node), cfg),
            MemoryHierarchy(NumaTopology(num_nodes, cpus_per_node), cfg))


def cache_state(cache):
    """Stats plus every set's OrderedDict.  OrderedDict equality is
    order-sensitive, so comparing two of these compares each set's
    (line, dirty) sequence in LRU order."""
    return vars(cache.stats), cache._sets


def snapshot(h):
    """Every observable the equivalence contract covers, as live views
    (``copy.deepcopy`` one to keep it across later walks)."""
    return {
        "l1": [cache_state(c) for c in h.l1],
        "l2": [cache_state(c) for c in h.l2],
        "l3": [cache_state(c) for c in h.l3],
        "tlb": [(vars(t.stats), list(t.page_map().items()))
                for t in h.tlb],
        "pt": (vars(h.page_table.stats), dict(h.page_table._page_node)),
        "stats": vars(h.stats),
    }


def reference_walk(h, cpu, start, end, is_write):
    """The per-line loop the batched walk must be indistinguishable
    from; returns (total latency, dense combo histogram)."""
    combos = [0] * NUM_COMBOS
    total = 0
    line = h.config.line_size
    addr = start
    while addr < end:
        r = h.access(cpu, addr, 8, is_write)
        total += r.latency
        combos[combo_index(r.level, r.tlb_misses > 0,
                           r.is_write, r.remote)] += 1
        addr += line
    return total, combos


#: (label, [(cpu, start, n_lines, is_write), ...]) walk schedules.
#: Line size is 64, page size 4096 (64 lines/page) throughout.
SCHEDULES = [
    ("zeroing-cold", [
        # A fresh allocation's zeroing walk: everything misses to DRAM.
        (0, 0x10000, 256, True),
    ]),
    ("warm-restream", [
        # Second pass re-streams entirely from L1 (16 lines fit).
        (0, 0x2000, 16, True),
        (0, 0x2000, 16, False),
        (0, 0x2000, 16, True),
    ]),
    ("page-straddle", [
        # Start mid-page so runs split across page boundaries.
        (0, 0x10000 + 62 * 64, 70, False),
        (0, 0x10000 + 63 * 64, 3, True),
    ]),
    ("set-overwhelm", [
        # 256 lines through a 16-set 2-way L1: a page run has more
        # lines than the cache has sets, so one run evicts its own
        # earlier lines.
        (0, 0x40000, 256, False),
        (0, 0x40000, 256, True),
    ]),
    ("revisit-interleave", [
        # Overlapping revisits with flipped write classes and a second
        # CPU pulling shared lines through its own private levels.
        (0, 0x8000, 32, False),
        (0, 0x8400, 32, True),
        (1, 0x8000, 48, False),
        (0, 0x8000, 8, True),
    ]),
    ("remote-node", [
        # First touch places pages on node 0; cpu 2 (node 1) then
        # streams them remotely.
        (0, 0x100000, 128, True),
        (2, 0x100000, 128, False),
    ]),
    ("tlb-thrash", [
        # 8 pages through a 4-entry TLB, twice: eviction + re-fill
        # order must match per-line walks exactly.
        (0, 0x200000, 8 * 64, False),
        (0, 0x200000, 8 * 64, False),
    ]),
]


# Default geometry (``HierarchyConfig()``): L1 / L2 / L3 hold 512 /
# 4096 / 491 520 lines in 64 / 512 / 24 576 sets, so every line of a
# 64-line page run lands in its own set at every level.

#: Lines this many bytes apart share an L1, an L2 and an L3 set.
L3_SPAN = 24576 * 64

DIRTY_A, DIRTY_B, DIRTY_C = 0x3000000, 0x4000000, 0x5000000

DEFAULT_SCHEDULES = [
    ("l2-restream", [
        # 128 KiB: larger than L1, so the re-streams hit L2 throughout.
        (0, 0x1000000, 2048, False),
        (0, 0x1000000, 2048, False),
        (0, 0x1000000, 2048, True),
    ]),
    ("l3-restream", [
        # 384 KiB: larger than L2, so the re-streams hit L3 throughout.
        (0, 0x2000000, 6144, False),
        (0, 0x2000000, 6144, False),
        (0, 0x2000000, 6144, True),
    ]),
    ("dirty-writeback", [
        # A write that hits L2 dirties L2 (and L1); one that hits L3
        # dirties L3.  Each later read pass evicts dirty lines from L1
        # and L2, and the walks one L3 span apart overfill the L3 sets
        # of DIRTY_B's first page, whose lines are dirty there.
        (0, DIRTY_A, 2048, False),
        (0, DIRTY_A, 2048, True),
        (0, DIRTY_B, 6144, False),
        (0, DIRTY_B, 6144, True),
        (0, DIRTY_C, 6144, False),
    ] + [(0, DIRTY_B + k * L3_SPAN, 64, False) for k in range(1, 22)]),
    ("remote-node", [
        # Pages placed on node 0, then streamed from cpu 2 (node 1).
        (0, 0x6000000, 128, True),
        (2, 0x6000000, 128, False),
        (2, 0x6000000 + 32 * 64, 200, True),
    ]),
]


def random_schedule(seed, walks=240):
    """Seeded walks over a few shared regions: mixed CPUs and write
    classes, starts anywhere in a page (and anywhere in a line that an
    8-byte access fits), lengths from one line to several pages, and
    some starts one L3 span apart so sets fill and evict."""
    rng = random.Random(seed)
    regions = [0x8000000 + i * 0x20000 for i in range(6)]
    regions += [0x8000000 + k * L3_SPAN for k in range(1, 4)]
    schedule = []
    for _ in range(walks):
        start = (rng.choice(regions) + rng.randrange(1024) * 64
                 + rng.choice((0, 0, 0, 8, 56)))
        n_lines = rng.choice((1, 2, rng.randint(3, 64),
                              rng.randint(65, 400)))
        schedule.append((rng.randrange(4), start, n_lines,
                         rng.random() < 0.5))
    return schedule


def run_twins(batched, looped, walks, label):
    """Drive both hierarchies through ``walks``; compare latency,
    combos and full state after every walk."""
    line = batched.config.line_size
    for cpu, start, n_lines, is_write in walks:
        end = start + n_lines * line
        combos = [0] * NUM_COMBOS
        got = batched.touch_range(cpu, start, end, is_write,
                                  combo_counts=combos)
        assert got != -1, f"{label}: fused preconditions failed"
        want, want_combos = reference_walk(looped, cpu, start, end,
                                           is_write)
        assert got == want, f"{label}: latency diverged"
        assert combos == want_combos, f"{label}: combos diverged"
        assert snapshot(batched) == snapshot(looped), \
            f"{label}: state diverged after walk {cpu, start, n_lines}"


class TestBatchedWalkEquivalence:
    @pytest.mark.parametrize(
        "label,walks", SCHEDULES, ids=[s[0] for s in SCHEDULES])
    def test_state_identical_to_per_line_loop(self, label, walks):
        run_twins(*make_twins(), walks, label)

    @pytest.mark.parametrize(
        "label,walks", DEFAULT_SCHEDULES,
        ids=[s[0] for s in DEFAULT_SCHEDULES])
    def test_default_geometry_identical_to_per_line_loop(self, label,
                                                         walks):
        batched, looped = make_twins(HierarchyConfig())
        run_twins(batched, looped, walks, label)
        if label == "dirty-writeback":
            for cache in (looped.l1[0], looped.l2[0], looped.l3[0]):
                assert cache.stats.writebacks > 0, cache.name

    def test_default_geometry_random_schedule(self):
        batched, looped = make_twins(HierarchyConfig())
        run_twins(batched, looped, random_schedule(seed=16), "random")
        # The schedule reaches every level of the stack.
        assert sum(c.stats.hits for c in looped.l2) > 0
        assert sum(c.stats.hits for c in looped.l3) > 0
        assert sum(c.stats.evictions for c in looped.l2) > 0

    def test_interleaved_single_accesses_see_same_world(self):
        # After a bulk walk, individual accesses (the interpreter's
        # normal traffic) must observe identical hit/miss behaviour.
        batched, looped = make_twins()
        batched.touch_range(0, 0x3000, 0x3000 + 40 * 64, True)
        reference_walk(looped, 0, 0x3000, 0x3000 + 40 * 64, True)
        for addr in (0x3000, 0x3000 + 39 * 64, 0x3000 + 17 * 64, 0x9000):
            rb = batched.access(0, addr, 8, False)
            rl = looped.access(0, addr, 8, False)
            assert (rb.level, rb.latency, rb.tlb_misses, rb.remote) == \
                (rl.level, rl.latency, rl.tlb_misses, rl.remote)
        assert snapshot(batched) == snapshot(looped)

    def test_unaligned_start_falls_back_identically(self):
        # A start whose 8-byte access straddles a line boundary fails
        # the fused preconditions: counting callers get -1 *before any
        # state changes*, non-counting callers get the per-line path.
        batched, looped = make_twins()
        start, end = 0x5000 + 60, 0x5000 + 60 + 6 * 64
        before = copy.deepcopy(snapshot(batched))
        assert batched.touch_range(0, start, end, False,
                                   combo_counts=[0] * NUM_COMBOS) == -1
        assert snapshot(batched) == before
        got = batched.touch_range(0, start, end, False)
        want, _ = reference_walk(looped, 0, start, end, False)
        assert got == want
        assert snapshot(batched) == snapshot(looped)


class TestPlannerPrimitives:
    def test_page_runs_matches_sequential_walk(self):
        for start, end, line, page in [
            (0, 4096 * 3, 64, 4096),
            (100, 9000, 64, 4096),
            (4096 - 64, 4096 + 64, 64, 4096),
            (8192, 8192 + 64 * 300, 64, 4096),
            (0, 64, 64, 4096),
        ]:
            runs = batch.page_runs(start, end, line, page)
            # Rebuild the line-address stream and check it equals the
            # sequential addr += line loop, with every run one page.
            stream = []
            for first, n in runs:
                assert n > 0
                addrs = [first + k * line for k in range(n)]
                assert len({a // page for a in addrs}) == 1
                stream.extend(addrs)
            expect = list(range(start, end, line))
            assert stream == expect, (start, end)
