"""Unit tests for the family detection logic, fed synthetic events.

Offline profilers (never attached) driven directly through
``handle_batch`` — the same entry point trace replay uses — so these
tests pin each detector's semantics without a simulator run:

* the exact oracle's shadow-cell semantics (:mod:`tests.families.oracle`,
  fed :class:`ValueAccess` events), which the sampled families are
  checked against on whole programs;
* the sampled families' verdicts on watchpoint traps and object
  contents, and the attribution machinery both share.
"""

import json

import pytest

from repro.core import DjxConfig
from repro.core.profile import ResolvedFrame
from repro.families.redundancy import RedundancyProfiler
from repro.families.replica import ReplicaProfiler
from repro.obs.events import (
    AllocEvent,
    GcFinalizeEvent,
    GcMoveEvent,
    GcNotifyEvent,
    ObjectContentEvent,
    SampleEvent,
    SamplerOpenEvent,
    WatchTrapEvent,
)
from repro.pmu.events import ALL_LOADS, ALL_STORES, L1_MISS

from tests.families.oracle import ExactRedundancy, ExactReplica, ValueAccess


def _resolver(frame):
    return ResolvedFrame("C", "m", "C.java", frame[1])


def _offline(cls, **kwargs):
    profiler = cls(DjxConfig(**{"size_threshold": 0, **kwargs}))
    profiler.enabled = True
    return profiler


def _alloc(addr, size=64, tid=1, type_name="int[]", line=10):
    return AllocEvent(tid, addr, addr + size, size, type_name,
                      ((7, line),))


def _access(addr, value, is_write, tid=1):
    return ValueAccess(tid, addr, is_write, value)


def _store(addr, value, tid=1):
    return _access(addr, value, True, tid=tid)


def _load(addr, value, tid=1):
    return _access(addr, value, False, tid=tid)


#: Sampler ids the synthetic watch streams use.
_STORES_SID, _LOADS_SID = 1, 2


def _watch_open():
    return [SamplerOpenEvent(sampler_id=_STORES_SID, event=ALL_STORES.name,
                             period=64, owner="redundancy"),
            SamplerOpenEvent(sampler_id=_LOADS_SID, event=ALL_LOADS.name,
                             period=64, owner="redundancy")]


def _trap(addr, armed_write, armed_value, is_write, value, tid=1):
    return WatchTrapEvent(
        sampler_id=_STORES_SID if armed_write else _LOADS_SID, tid=tid,
        address=addr, armed_write=armed_write, armed_value=armed_value,
        is_write=is_write, value=value)


def _sample(addr, event, sid, tid=1):
    return SampleEvent(sampler_id=sid, event=event.name, tid=tid, cpu=0,
                       address=addr, size=8, is_write=event is ALL_STORES,
                       latency=4, level="L1", home_node=0, remote=False,
                       path=((7, 20),))


def _gc_cycle(*moves):
    events = [GcMoveEvent(oid=i, src=src, dst=dst, size=size)
              for i, (src, dst, size) in enumerate(moves)]
    events.append(GcNotifyEvent(gc_id=1, reclaimed_objects=0,
                                reclaimed_bytes=0, moved_objects=len(moves),
                                moved_bytes=sum(m[2] for m in moves),
                                live_bytes=0, pause_cycles=0))
    return events


def _site(analysis, line):
    return analysis.site_at("C", "m", line)


class TestRedundancyStateMachine:
    """The exact oracle's shadow-cell state machine."""

    def test_dead_silent_store_and_silent_load_sequence(self):
        p = _offline(ExactRedundancy)
        p.handle_batch([
            _alloc(1000),
            _store(1000, 1),      # pending
            _store(1000, 2),      # dead store (1 never loaded)
            _store(1000, 2),      # dead store + silent store
            _load(1000, 2),       # clears pending, primes loaded
            _load(1000, 2),       # silent load
        ])
        site = _site(p.analyze(_resolver), 10)
        assert site.metrics["stores"] == 3
        assert site.metrics["loads"] == 2
        assert site.metrics["dead-stores"] == 2
        assert site.metrics["silent-stores"] == 1
        assert site.metrics["silent-loads"] == 1
        assert site.metrics["redundancy"] == 4
        # 4 redundant out of 5 tracked accesses.
        assert site.metrics["redundancy-permille"] == 800

    def test_load_clears_pending_store(self):
        p = _offline(ExactRedundancy)
        p.handle_batch([
            _alloc(1000),
            _store(1000, 1),
            _load(1000, 1),
            _store(1000, 2),      # previous store was loaded: not dead
        ])
        site = _site(p.analyze(_resolver), 10)
        assert site.metrics.get("dead-stores", 0) == 0

    def test_distinct_values_are_not_silent(self):
        p = _offline(ExactRedundancy)
        p.handle_batch([
            _alloc(1000),
            _store(1000, 1),
            _load(1000, 1),
            _load(1000, 7),       # value changed (e.g. other writer)
        ])
        site = _site(p.analyze(_resolver), 10)
        assert site.metrics.get("silent-loads", 0) == 0

    def test_offsets_are_independent_cells(self):
        p = _offline(ExactRedundancy)
        p.handle_batch([
            _alloc(1000),
            _store(1000, 5),
            _store(1008, 5),      # different cell: no dead/silent store
        ])
        site = _site(p.analyze(_resolver), 10)
        assert site.metrics.get("redundancy", 0) == 0
        assert p._shadow_cells() == 2

    def test_finalize_counts_pending_stores_as_dead(self):
        p = _offline(ExactRedundancy)
        p.handle_batch([
            _alloc(1000, tid=1),
            _store(1000, 1, tid=1),
            _store(1008, 2, tid=2),   # attributed to the storing thread
            GcFinalizeEvent(oid=0, addr=1000, size=64, type_name="int[]"),
        ])
        analysis = p.analyze(_resolver)
        assert _site(analysis, 10).metrics["dead-stores"] == 2
        assert p.profiles[2].sites  # tid 2's profile carries its hit

    def test_live_pending_stores_are_not_dead(self):
        p = _offline(ExactRedundancy)
        p.handle_batch([_alloc(1000), _store(1000, 1)])
        site = _site(p.analyze(_resolver), 10)
        assert site.metrics.get("dead-stores", 0) == 0

    def test_valueless_and_untracked_accesses_skipped(self):
        p = _offline(ExactRedundancy)
        p.handle_batch([
            _alloc(1000),
            _access(1000, None, True),   # bulk walk: no value
            _store(5000, 1),             # untracked address
        ])
        assert p.accesses_untracked == 2
        site = _site(p.analyze(_resolver), 10)
        assert site.metrics.get("stores", 0) == 0

    def test_cells_follow_gc_relocation(self):
        p = _offline(ExactRedundancy)
        p.handle_batch([_alloc(1000), _store(1008, 5)])
        p.handle_batch(_gc_cycle((1000, 2000, 64)))
        p.handle_batch([_load(2008, 5), _load(2008, 5)])
        site = _site(p.analyze(_resolver), 10)
        assert site.metrics["silent-loads"] == 1
        assert p.stats.relocations_applied == 1
        assert p.splay.lookup(2008) is p.splay.lookup(2000)
        assert p.splay.lookup(1008) is None


class TestReplicaGrouping:
    """The exact oracle's write-through replica grouping."""

    def test_duplicate_contents_counted_once_canonical_free(self):
        p = _offline(ExactReplica)
        p.handle_batch([
            _alloc(1000), _store(1000, 7),
            _alloc(2000), _store(2000, 7),     # replica of the first
            _alloc(3000), _store(3000, 8),     # distinct contents
        ])
        site = _site(p.analyze(_resolver), 10)
        assert site.metrics["replicas"] == 1
        assert site.metrics["replica-bytes"] == 64

    def test_never_written_objects_are_replicas(self):
        p = _offline(ExactReplica)
        p.handle_batch([_alloc(1000), _alloc(2000), _alloc(3000)])
        site = _site(p.analyze(_resolver), 10)
        assert site.metrics["replicas"] == 2

    def test_type_and_size_split_replica_groups(self):
        p = _offline(ExactReplica)
        p.handle_batch([
            _alloc(1000, type_name="int[]"),
            _alloc(2000, type_name="long[]"),
            _alloc(3000, size=128),
        ])
        site = _site(p.analyze(_resolver), 10)
        assert site.metrics.get("replicas", 0) == 0

    def test_dead_objects_keep_contents_for_grouping(self):
        p = _offline(ExactReplica)
        p.handle_batch([
            _alloc(1000), _store(1000, 7),
            GcFinalizeEvent(oid=0, addr=1000, size=64, type_name="int[]"),
            _alloc(2000), _store(2000, 7),
        ])
        site = _site(p.analyze(_resolver), 10)
        assert site.metrics["replicas"] == 1

    def test_shadow_follows_gc_relocation(self):
        p = _offline(ExactReplica)
        p.handle_batch([_alloc(1000), _store(1000, 7)])
        p.handle_batch(_gc_cycle((1000, 2000, 64)))
        p.handle_batch([_store(2008, 9),      # offset 8 of the moved object
                        _alloc(3000), _store(3000, 7), _store(3008, 9)])
        site = _site(p.analyze(_resolver), 10)
        assert site.metrics["replicas"] == 1

    def test_sampled_misses_weight_the_score(self):
        p = _offline(ExactReplica)
        p.handle_batch([
            SamplerOpenEvent(sampler_id=3, event=L1_MISS.name, period=64,
                             owner="replica"),
            _alloc(1000), _store(1000, 7),
            _alloc(2000), _store(2000, 7),
            SampleEvent(sampler_id=3, event=L1_MISS.name, tid=1, cpu=0,
                        address=2000, size=8, is_write=False, latency=40,
                        level="DRAM", home_node=0, remote=False,
                        path=((7, 10),)),
        ])
        site = _site(p.analyze(_resolver), 10)
        # replica-bytes * (1 + misses) = 64 * 2
        assert site.metrics["replica-score"] == 128

    def test_foreign_sampler_ids_ignored(self):
        p = _offline(ExactReplica)
        p.handle_batch([
            SamplerOpenEvent(sampler_id=4, event=L1_MISS.name, period=64,
                             owner="djxperf"),
            _alloc(1000),
            SampleEvent(sampler_id=4, event=L1_MISS.name, tid=1, cpu=0,
                        address=1000, size=8, is_write=False, latency=40,
                        level="DRAM", home_node=0, remote=False,
                        path=((7, 10),)),
        ])
        assert p.stats.samples_handled == 0




class TestWatchpointVerdicts:
    """The sampled redundancy family judges each trap on its own."""

    def _profile(self, *events):
        p = _offline(RedundancyProfiler)
        p.handle_batch(_watch_open() + [_alloc(1000)] + list(events))
        return p, _site(p.analyze(_resolver), 10)

    def test_store_trapped_by_store_is_dead(self):
        _, site = self._profile(_trap(1000, True, 1, True, 2))
        assert site.metrics["dead-stores"] == 1
        assert site.metrics.get("silent-stores", 0) == 0
        assert site.metrics["redundancy"] == 1

    def test_store_trapped_by_equal_store_is_dead_and_silent(self):
        _, site = self._profile(_trap(1000, True, 5, True, 5))
        assert site.metrics["dead-stores"] == 1
        assert site.metrics["silent-stores"] == 1
        assert site.metrics["redundancy"] == 2

    def test_store_trapped_by_load_is_live(self):
        _, site = self._profile(_trap(1000, True, 5, False, 5))
        assert site.metrics.get("redundancy", 0) == 0

    def test_load_trapped_by_equal_load_is_silent(self):
        _, site = self._profile(_trap(1000, False, 5, False, 5),
                                _trap(1000, False, 5, False, 6))
        assert site.metrics["silent-loads"] == 1
        assert site.metrics["redundancy"] == 1

    def test_load_trapped_by_store_is_not_redundant(self):
        _, site = self._profile(_trap(1000, False, 5, True, 5))
        assert site.metrics.get("redundancy", 0) == 0

    def test_valueless_trap_proves_dead_but_never_silent(self):
        # A bulk walk over a watched store (e.g. arraycopy) carries no
        # value: the store is overwritten unread, silence is unknown.
        _, site = self._profile(_trap(1000, True, 0, True, None))
        assert site.metrics["dead-stores"] == 1
        assert site.metrics.get("silent-stores", 0) == 0

    def test_permille_is_per_sampled_access(self):
        _, site = self._profile(
            _sample(1000, ALL_STORES, _STORES_SID),
            _sample(1008, ALL_STORES, _STORES_SID),
            _sample(1016, ALL_LOADS, _LOADS_SID),
            _sample(1024, ALL_LOADS, _LOADS_SID),
            _trap(1000, True, 1, True, 2))
        # 1 redundancy over 4 sampled accesses.
        assert site.metrics["redundancy-permille"] == 250

    def test_untracked_and_foreign_traps_ignored(self):
        p, site = self._profile(
            _trap(5000, True, 1, True, 2),
            WatchTrapEvent(sampler_id=9, tid=1, address=1000,
                           armed_write=True, armed_value=1, is_write=True,
                           value=2))
        assert p.stats.traps_untracked == 1
        assert p.stats.traps_handled == 1
        assert site.metrics.get("redundancy", 0) == 0

    def test_traps_follow_gc_relocation(self):
        p = _offline(RedundancyProfiler)
        p.handle_batch(_watch_open() + [_alloc(1000)])
        p.handle_batch(_gc_cycle((1000, 2000, 64)))
        p.handle_batch([_trap(2008, False, 3, False, 3)])
        assert _site(p.analyze(_resolver), 10).metrics["silent-loads"] == 1

    def test_replay_refuses_another_period(self):
        p = _offline(RedundancyProfiler, sample_period=13)
        with pytest.raises(ValueError, match="recorded period"):
            p.handle_batch(_watch_open())


class TestReplicaContents:
    """The sampled replica family groups objects by content digest."""

    def test_equal_digests_are_replicas(self):
        p = _offline(ReplicaProfiler)
        p.handle_batch([
            _alloc(1000), _alloc(2000), _alloc(3000),
            ObjectContentEvent(1000, "aa"),
            ObjectContentEvent(2000, "aa"),     # replica of the first
            ObjectContentEvent(3000, "bb"),     # distinct contents
        ])
        site = _site(p.analyze(_resolver), 10)
        assert site.metrics["replicas"] == 1
        assert site.metrics["replica-bytes"] == 64

    def test_last_read_wins_and_unread_objects_are_skipped(self):
        p = _offline(ReplicaProfiler)
        p.handle_batch([
            _alloc(1000), _alloc(2000), _alloc(3000),
            ObjectContentEvent(1000, "aa"),
            ObjectContentEvent(2000, "bb"),
            ObjectContentEvent(2000, "aa"),     # re-read at run end
        ])
        site = _site(p.analyze(_resolver), 10)
        assert site.metrics["replicas"] == 1    # 3000 was never read

    def test_content_follows_gc_relocation(self):
        p = _offline(ReplicaProfiler)
        p.handle_batch([_alloc(1000), _alloc(3000)])
        p.handle_batch(_gc_cycle((1000, 2000, 64)))
        p.handle_batch([ObjectContentEvent(2000, "aa"),
                        ObjectContentEvent(3000, "aa")])
        assert _site(p.analyze(_resolver), 10).metrics["replicas"] == 1


def _signal(cls, addr):
    """The family's own input event at ``addr``."""
    if cls is RedundancyProfiler:
        return _trap(addr, True, 1, True, 2)
    return ObjectContentEvent(addr, "aa")


def _signals(cls):
    return _watch_open() if cls is RedundancyProfiler else []


class TestSharedMachinery:
    @pytest.mark.parametrize("cls", [ReplicaProfiler, RedundancyProfiler])
    def test_size_threshold_filters_allocations(self, cls):
        p = _offline(cls, size_threshold=128)
        p.handle_batch(_signals(cls)
                       + [_alloc(1000, size=64), _signal(cls, 1000)])
        assert p.stats.allocations_filtered == 1
        assert len(p.splay) == 0
        assert not p.analyze(_resolver).sites

    @pytest.mark.parametrize("cls", [ReplicaProfiler, RedundancyProfiler])
    def test_unknown_gc_moves_not_adopted(self, cls):
        p = _offline(cls)
        p.handle_batch(_gc_cycle((9000, 9500, 64)))
        assert p.stats.relocations_unknown == 1
        assert len(p.splay) == 0

    @pytest.mark.parametrize("cls", [ReplicaProfiler, RedundancyProfiler])
    def test_analyze_is_idempotent(self, cls):
        p = _offline(cls)
        p.handle_batch(_signals(cls) + [
            _alloc(1000), _signal(cls, 1000), _signal(cls, 1000),
            _alloc(2000), _signal(cls, 2000),
        ])
        first = json.dumps(p.analyze(_resolver).to_dict(), sort_keys=True)
        second = json.dumps(p.analyze(_resolver).to_dict(), sort_keys=True)
        assert first == second

    @pytest.mark.parametrize("cls", [ReplicaProfiler, RedundancyProfiler])
    def test_memory_footprint_grows_with_shadow_state(self, cls):
        # Redundancy state lives in the machine's four watchpoints per
        # thread; only the replica family holds per-object state.
        p = _offline(cls)
        empty = p.memory_footprint()
        p.handle_batch(_signals(cls) + [
            _alloc(1000), _alloc(2000),
            _signal(cls, 1000), _signal(cls, 2000)])
        assert p.memory_footprint() > empty
        assert p._shadow_cells() == (2 if cls is ReplicaProfiler else 0)
