"""Unit + property tests for the interval splay tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.splay import IntervalSplayTree


class TestBasics:
    def test_empty_lookup(self):
        tree = IntervalSplayTree()
        assert tree.lookup(0x100) is None
        assert len(tree) == 0

    def test_insert_and_lookup_hit(self):
        tree = IntervalSplayTree()
        tree.insert(100, 200, "a")
        assert tree.lookup(100) == "a"
        assert tree.lookup(150) == "a"
        assert tree.lookup(199) == "a"

    def test_half_open_boundaries(self):
        tree = IntervalSplayTree()
        tree.insert(100, 200, "a")
        assert tree.lookup(99) is None
        assert tree.lookup(200) is None

    def test_multiple_disjoint_intervals(self):
        tree = IntervalSplayTree()
        for i in range(10):
            tree.insert(i * 100, i * 100 + 50, i)
        for i in range(10):
            assert tree.lookup(i * 100 + 25) == i
            assert tree.lookup(i * 100 + 75) is None
        assert len(tree) == 10

    def test_empty_interval_rejected(self):
        tree = IntervalSplayTree()
        with pytest.raises(ValueError):
            tree.insert(100, 100, "x")
        with pytest.raises(ValueError):
            tree.insert(100, 50, "x")

    def test_interval_at(self):
        tree = IntervalSplayTree()
        tree.insert(100, 200, "a")
        assert tree.interval_at(150) == (100, 200)
        assert tree.interval_at(250) is None


class TestRemoval:
    def test_remove_start(self):
        tree = IntervalSplayTree()
        tree.insert(100, 200, "a")
        assert tree.remove_start(100) == "a"
        assert tree.lookup(150) is None
        assert len(tree) == 0

    def test_remove_start_misses_nonstart(self):
        tree = IntervalSplayTree()
        tree.insert(100, 200, "a")
        assert tree.remove_start(150) is None
        assert len(tree) == 1

    def test_remove_containing(self):
        tree = IntervalSplayTree()
        tree.insert(100, 200, "a")
        tree.insert(300, 400, "b")
        assert tree.remove_containing(350) == "b"
        assert tree.lookup(350) is None
        assert tree.lookup(150) == "a"

    def test_remove_containing_miss(self):
        tree = IntervalSplayTree()
        tree.insert(100, 200, "a")
        assert tree.remove_containing(500) is None

    def test_clear(self):
        tree = IntervalSplayTree()
        tree.insert(0, 10, "x")
        tree.clear()
        assert len(tree) == 0
        assert tree.lookup(5) is None


class TestOverlapEviction:
    def test_exact_overlap_replaces(self):
        tree = IntervalSplayTree()
        tree.insert(100, 200, "old")
        tree.insert(100, 200, "new")
        assert tree.lookup(150) == "new"
        assert len(tree) == 1
        assert tree.stats.evictions == 1

    def test_partial_overlap_evicts(self):
        tree = IntervalSplayTree()
        tree.insert(100, 200, "old")
        tree.insert(150, 250, "new")
        assert len(tree) == 1
        assert tree.lookup(120) is None    # old interval fully gone
        assert tree.lookup(200) == "new"

    def test_covering_insert_evicts_many(self):
        tree = IntervalSplayTree()
        tree.insert(10, 20, "a")
        tree.insert(30, 40, "b")
        tree.insert(50, 60, "c")
        tree.insert(0, 100, "big")
        assert len(tree) == 1
        assert tree.lookup(15) == "big"

    def test_adjacent_intervals_do_not_evict(self):
        tree = IntervalSplayTree()
        tree.insert(100, 200, "a")
        tree.insert(200, 300, "b")
        assert len(tree) == 2
        assert tree.lookup(199) == "a"
        assert tree.lookup(200) == "b"
        assert tree.stats.evictions == 0

    def test_adjacent_below_does_not_evict(self):
        tree = IntervalSplayTree()
        tree.insert(200, 300, "b")
        tree.insert(100, 200, "a")
        assert [s for s, _, _ in tree] == [100, 200]
        assert tree.stats.evictions == 0

    def test_equal_start_evicts(self):
        tree = IntervalSplayTree()
        tree.insert(100, 200, "old")
        tree.insert(300, 400, "keep")
        tree.insert(100, 110, "new")
        assert list(tree) == [(100, 110, "new"), (300, 400, "keep")]
        assert tree.stats.evictions == 1

    def test_insert_spanning_three_evicts_all_three(self):
        tree = IntervalSplayTree()
        for start, tag in ((10, "a"), (30, "b"), (50, "c"), (70, "d")):
            tree.insert(start, start + 10, tag)
        # Overlaps the tail of "a", all of "b" and the head of "c".
        tree.insert(15, 55, "span")
        assert list(tree) == [(15, 55, "span"), (70, 80, "d")]
        assert tree.stats.evictions == 3
        tree.check_invariants()

    def test_insert_below_every_start_evicts_covered(self):
        tree = IntervalSplayTree()
        for start in (100, 120, 140, 160):
            tree.insert(start, start + 10, start)
        tree.insert(0, 125, "low")
        assert list(tree) == [(0, 125, "low"), (140, 150, 140),
                              (160, 170, 160)]
        assert tree.stats.evictions == 2
        tree.check_invariants()


class TestSplayBehaviour:
    def test_iteration_in_order(self):
        tree = IntervalSplayTree()
        for start in (50, 10, 90, 30, 70):
            tree.insert(start, start + 5, start)
        assert [s for s, _, _ in tree] == [10, 30, 50, 70, 90]

    def test_hot_lookup_is_root(self):
        tree = IntervalSplayTree()
        for i in range(100):
            tree.insert(i * 10, i * 10 + 10, i)
        tree.lookup(555)
        assert tree._root.start == 550   # splayed to root

    def test_invariants_after_mixed_ops(self):
        tree = IntervalSplayTree()
        for i in range(50):
            tree.insert(i * 10, i * 10 + 10, i)
        for i in range(0, 50, 3):
            tree.remove_start(i * 10)
        tree.check_invariants()

    def test_stats(self):
        tree = IntervalSplayTree()
        tree.insert(0, 10, "a")
        tree.lookup(5)
        tree.lookup(50)
        assert tree.stats.inserts == 1
        assert tree.stats.lookups == 2
        assert tree.stats.hits == 1


# ----------------------------------------------------------------------
# Property tests against a naive model
# ----------------------------------------------------------------------
class NaiveIntervalMap:
    """Oracle: list of disjoint intervals with linear operations."""

    def __init__(self):
        self.intervals = []  # (start, end, payload)
        self.evictions = 0

    def insert(self, start, end, payload):
        kept = [(s, e, p) for (s, e, p) in self.intervals
                if e <= start or s >= end]
        self.evictions += len(self.intervals) - len(kept)
        self.intervals = kept + [(start, end, payload)]

    def lookup(self, addr):
        for s, e, p in self.intervals:
            if s <= addr < e:
                return p
        return None

    def remove_start(self, start):
        for i, (s, e, p) in enumerate(self.intervals):
            if s == start:
                del self.intervals[i]
                return p
        return None

    def remove_containing(self, addr):
        for i, (s, e, p) in enumerate(self.intervals):
            if s <= addr < e:
                del self.intervals[i]
                return p
        return None


operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 400),
                  st.integers(1, 40)),
        # Long enough to evict two or more intervals at once.
        st.tuples(st.just("insert"), st.integers(0, 400),
                  st.integers(40, 120)),
        st.tuples(st.just("lookup"), st.integers(0, 450)),
        st.tuples(st.just("remove"), st.integers(0, 400)),
        st.tuples(st.just("remove_containing"), st.integers(0, 450)),
    ),
    min_size=1, max_size=120)


class TestPropertyVsModel:
    @given(operations)
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_model(self, ops):
        tree = IntervalSplayTree()
        model = NaiveIntervalMap()
        tag = 0
        for op in ops:
            if op[0] == "insert":
                _, start, length = op
                tag += 1
                tree.insert(start, start + length, tag)
                model.insert(start, start + length, tag)
            elif op[0] == "lookup":
                assert tree.lookup(op[1]) == model.lookup(op[1])
            elif op[0] == "remove":
                assert tree.remove_start(op[1]) == model.remove_start(op[1])
            else:
                assert (tree.remove_containing(op[1])
                        == model.remove_containing(op[1]))
            assert list(tree) == sorted(model.intervals)
            assert tree.stats.evictions == model.evictions
        tree.check_invariants()
        assert len(tree) == len(model.intervals)
        # Full sweep equivalence at the end.
        for addr in range(0, 450, 7):
            assert tree.lookup(addr) == model.lookup(addr)

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=60,
                    unique=True))
    @settings(max_examples=100, deadline=None)
    def test_insert_then_lookup_all(self, starts):
        tree = IntervalSplayTree()
        for s in starts:
            tree.insert(s * 10, s * 10 + 10, s)
        for s in starts:
            assert tree.lookup(s * 10 + 5) == s
        tree.check_invariants()


class TestHotCache:
    """The one-entry last-hit cache in front of lookup()."""

    def test_repeated_lookups_hit_the_cache(self):
        tree = IntervalSplayTree()
        tree.insert(100, 200, "a")
        for _ in range(5):
            assert tree.lookup(150) == "a"
        stats = tree.stats
        assert stats.lookups == 5
        assert stats.hits == 5
        # First lookup descends the tree; the rest replay the cache.
        assert stats.cache_misses == 1
        assert stats.cache_hits == 4

    def test_cache_counts_partition_lookups(self):
        tree = IntervalSplayTree()
        tree.insert(0, 10, "a")
        tree.insert(100, 110, "b")
        for addr in (5, 5, 105, 105, 50):
            tree.lookup(addr)
        stats = tree.stats
        assert stats.cache_hits + stats.cache_misses == stats.lookups
        assert stats.cache_hits == 2  # the two immediate repeats
        assert stats.hits == 4        # the miss at 50 found nothing

    def test_cached_interval_respects_boundaries(self):
        tree = IntervalSplayTree()
        tree.insert(100, 200, "a")
        assert tree.lookup(150) == "a"   # primes the cache
        assert tree.lookup(200) is None  # half-open end
        assert tree.lookup(99) is None

    def test_insert_invalidates_cache(self):
        # GC relocation: the object moves, its old range is reused by a
        # new object.  A stale cache entry would return the old payload.
        tree = IntervalSplayTree()
        tree.insert(100, 200, "old")
        assert tree.lookup(150) == "old"
        tree.insert(100, 200, "new")     # overlapping insert evicts
        assert tree.lookup(150) == "new"

    def test_remove_start_invalidates_cache(self):
        tree = IntervalSplayTree()
        tree.insert(100, 200, "a")
        assert tree.lookup(150) == "a"
        tree.remove_start(100)
        assert tree.lookup(150) is None

    def test_remove_containing_invalidates_cache(self):
        tree = IntervalSplayTree()
        tree.insert(100, 200, "a")
        assert tree.lookup(150) == "a"
        tree.remove_containing(150)
        assert tree.lookup(150) is None

    def test_clear_invalidates_cache(self):
        tree = IntervalSplayTree()
        tree.insert(100, 200, "a")
        assert tree.lookup(150) == "a"
        tree.clear()
        assert tree.lookup(150) is None

    def test_gc_relocation_scenario(self):
        # finalize(old) + intercept(new) over a shifted range: lookups
        # between the two must never see the dead interval.
        tree = IntervalSplayTree()
        tree.insert(0x1000, 0x1100, "obj@old")
        assert tree.lookup(0x1080) == "obj@old"
        tree.remove_start(0x1000)
        assert tree.lookup(0x1080) is None
        tree.insert(0x1040, 0x1140, "obj@new")
        assert tree.lookup(0x1080) == "obj@new"
        assert tree.lookup(0x1000) is None
        tree.check_invariants()


class TestInsertComplexity:
    """Insert must not scan the live intervals (the paper's O(log n))."""

    def test_insert_never_walks_the_tree(self, monkeypatch):
        tree = IntervalSplayTree()
        # Descending starts keep the build cheap even for a scanning insert.
        for i in reversed(range(20_000)):
            tree.insert(i * 16, i * 16 + 8, i)

        def no_scan(_self):
            raise AssertionError("insert walked the whole tree")

        with monkeypatch.context() as patch:
            patch.setattr(IntervalSplayTree, "__iter__", no_scan)
            for k in range(1_000):
                # Strided starts and lengths: gaps, single and multiple
                # evictions, inserts above and below the root.
                start = (k * 7919) % 320_000
                tree.insert(start, start + 1 + (k % 5) * 10, -k)
        tree.check_invariants()
        assert tree.stats.evictions > 0
        assert len(tree) == 21_000 - tree.stats.evictions
