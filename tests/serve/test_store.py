"""Tests for the persistent content-addressed profile store."""

import pytest

from repro.core import DjxConfig
from repro.core.analyzer import analyze_profiles
from repro.core.diff import diff_profiles
from repro.core.profile import ResolvedFrame, ThreadProfile
from repro.serve.store import (
    ProfileKey,
    ProfileStore,
    config_digest,
    profile_key_for,
    program_digest,
)
from repro.workloads import get_workload, run_profiled

EVENT = "MEM_LOAD_UOPS_RETIRED:L1_MISS"


def resolver(frame):
    method_id, bci = frame
    return ResolvedFrame("C", f"m{method_id}", "C.java", bci)


def analysis(site_samples):
    """site_samples: {(method_id, bci): (allocs, samples)}."""
    profile = ThreadProfile(0)
    for frame, (allocs, samples) in site_samples.items():
        stats = profile.site((frame,))
        for _ in range(allocs):
            stats.record_allocation("int[]", 128)
        for _ in range(samples):
            profile.record_total(EVENT)
            stats.record_sample(EVENT, (), remote=False)
    return analyze_profiles([profile], resolver, EVENT)


def key(variant="baseline", seed=None):
    return ProfileKey(workload="w", variant=variant, program_hash="p" * 8,
                      config_hash="c" * 8, seed=seed)


@pytest.fixture
def store(tmp_path):
    with ProfileStore(str(tmp_path / "store.sqlite")) as s:
        yield s


class TestDigests:
    def test_program_digest_stable_across_builds(self):
        w = get_workload("objectlayout")
        assert (program_digest(w.build_verified())
                == program_digest(w.build_verified()))

    def test_program_digest_separates_variants(self):
        w = get_workload("objectlayout")
        assert (program_digest(w.build_verified("baseline"))
                != program_digest(w.build_verified("hoisted")))

    def test_config_digest_sees_period(self):
        assert (config_digest(DjxConfig(sample_period=32))
                != config_digest(DjxConfig(sample_period=64)))
        assert (config_digest(DjxConfig(sample_period=32))
                == config_digest(DjxConfig(sample_period=32)))

    def test_profile_key_for(self):
        w = get_workload("objectlayout")
        k = profile_key_for(w, "baseline", DjxConfig(sample_period=32))
        assert k.workload == "objectlayout"
        assert k.variant == "baseline"
        assert len(k.program_hash) == 64
        assert len(k.config_hash) == 64


class TestRoundTrip:
    def test_store_load_is_byte_identical(self, store):
        before = analysis({(1, 5): (10, 8), (2, 7): (1, 2)})
        record = store.put_profile(key(), before, wall_cycles=123)
        loaded = store.load_analysis(record)
        assert loaded.to_dict() == before.to_dict()
        assert loaded.total() == before.total()

    def test_store_load_diff_round_trip(self, store):
        """The acceptance path: serialize -> store -> load -> diff."""
        before = analysis({(1, 5): (10, 8), (2, 7): (1, 2)})
        after = analysis({(1, 5): (1, 1), (2, 7): (1, 9)})
        r1 = store.put_profile(key(), before)
        r2 = store.put_profile(key("hoisted"), after)
        diff = diff_profiles(store.load_analysis(r1),
                             store.load_analysis(r2))
        by_loc = {d.location: d for d in diff.deltas}
        assert by_loc["C.m1:5"].share_delta < 0
        assert by_loc["C.m2:7"].share_delta > 0

    def test_real_workload_round_trip(self, store):
        w = get_workload("objectlayout")
        config = DjxConfig(sample_period=32)
        run = run_profiled(w, "baseline", config)
        k = profile_key_for(w, "baseline", config)
        record = store.put_profile(k, run.analysis,
                                   wall_cycles=run.result.wall_cycles)
        loaded = store.load_analysis(record)
        assert loaded.to_dict() == run.analysis.to_dict()
        assert (loaded.top_sites(1)[0].location
                == run.analysis.top_sites(1)[0].location)

    def test_get_profile_returns_both(self, store):
        record = store.put_profile(key(), analysis({(1, 5): (2, 3)}))
        got_record, got_analysis = store.get_profile(record.record_id)
        assert got_record.payload_hash == record.payload_hash
        assert got_analysis.total() == 3

    def test_missing_record_raises(self, store):
        with pytest.raises(KeyError):
            store.get_record(999)


class TestDeduplication:
    def test_identical_payloads_stored_once(self, store):
        a = analysis({(1, 5): (10, 8)})
        r1 = store.put_profile(key(), a)
        r2 = store.put_profile(key(), a)
        assert not r1.deduplicated
        assert r2.deduplicated
        assert r1.payload_hash == r2.payload_hash
        stats = store.stats()
        assert stats["profiles"] == 2
        assert stats["payloads"] == 1

    def test_different_payloads_stored_separately(self, store):
        store.put_profile(key(), analysis({(1, 5): (10, 8)}))
        store.put_profile(key(), analysis({(1, 5): (10, 9)}))
        assert store.stats()["payloads"] == 2

    def test_compression_shrinks_payload(self, store):
        store.put_profile(key(), analysis({(i, 5): (3, 4)
                                           for i in range(40)}))
        stats = store.stats()
        assert 0 < stats["stored_bytes"] < stats["raw_bytes"]


class TestLookup:
    def test_find_latest_exact_key(self, store):
        store.put_profile(key(), analysis({(1, 5): (1, 1)}),
                          created_at=100.0)
        newest = store.put_profile(key(), analysis({(1, 5): (2, 2)}),
                                   created_at=200.0)
        found = store.find_latest(key())
        assert found.record_id == newest.record_id

    def test_find_latest_misses_other_keys(self, store):
        store.put_profile(key("baseline"), analysis({(1, 5): (1, 1)}))
        assert store.find_latest(key("hoisted")) is None
        assert store.find_latest(key("baseline", seed=7)) is None

    def test_seeded_keys_are_distinct(self, store):
        seeded = store.put_profile(key(seed=7), analysis({(1, 5): (1, 1)}))
        assert store.find_latest(key(seed=7)).record_id == seeded.record_id
        assert store.find_latest(key()) is None

    def test_history_newest_first(self, store):
        for t in (100.0, 300.0, 200.0):
            store.put_profile(key(), analysis({(1, int(t)): (1, 1)}),
                              created_at=t)
        times = [r.created_at for r in store.history()]
        assert times == [300.0, 200.0, 100.0]

    def test_history_filters(self, store):
        store.put_profile(key("baseline"), analysis({(1, 5): (1, 1)}))
        store.put_profile(key("hoisted"), analysis({(1, 5): (1, 1)}))
        assert len(store.history(variant="hoisted")) == 1
        assert len(store.history(workload="other")) == 0

    def test_baseline_for_prefers_latest_earlier(self, store):
        first = store.put_profile(key(), analysis({(1, 5): (1, 1)}),
                                  created_at=100.0)
        second = store.put_profile(key(), analysis({(1, 5): (2, 2)}),
                                   created_at=200.0)
        third = store.put_profile(key(), analysis({(1, 5): (3, 3)}),
                                  created_at=300.0)
        assert store.baseline_for(third).record_id == second.record_id
        assert store.baseline_for(second).record_id == first.record_id
        assert store.baseline_for(first) is None


class TestPointersAndBench:
    def test_trace_path_and_meta_round_trip(self, store):
        record = store.put_profile(key(), analysis({(1, 5): (1, 1)}),
                                   trace_path="/tmp/run.trace",
                                   meta={"job_id": "j-1"})
        got = store.get_record(record.record_id)
        assert got.trace_path == "/tmp/run.trace"
        assert got.meta == {"job_id": "j-1"}

    def test_reopen_persists(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        with ProfileStore(path) as store:
            record = store.put_profile(key(), analysis({(1, 5): (1, 1)}))
        with ProfileStore(path) as store:
            assert store.load_analysis(
                store.get_record(record.record_id)).total() == 1

    def test_version_mismatch_rejected(self, tmp_path):
        import sqlite3
        path = str(tmp_path / "store.sqlite")
        ProfileStore(path).close()
        db = sqlite3.connect(path)
        db.execute("PRAGMA user_version = 99")
        db.commit()
        db.close()
        with pytest.raises(ValueError, match="version"):
            ProfileStore(path)


class TestConcurrency:
    def test_wal_journal_mode(self, store):
        assert store.journal_mode == "wal"

    def test_busy_timeout_applied(self, tmp_path):
        with ProfileStore(str(tmp_path / "s.sqlite"),
                          busy_timeout=2.5) as store:
            timeout = store._db.execute(
                "PRAGMA busy_timeout").fetchone()[0]
            assert timeout == 2500

    def test_reader_sees_committed_rows_during_writer(self, tmp_path):
        """WAL lets a second connection read while the first writes —
        the fleet's front-door reads alongside a shard daemon."""
        path = str(tmp_path / "store.sqlite")
        with ProfileStore(path) as writer, ProfileStore(path) as reader:
            writer.put_profile(key(seed=1), analysis({(1, 5): (1, 1)}))
            assert len(reader.history()) == 1
            writer.put_profile(key(seed=2), analysis({(2, 6): (1, 2)}))
            records = reader.history()
            assert len(records) == 2
            assert reader.load_analysis(records[0]).total() == 2
