"""Tests for trace serialisation: encode/decode, method meta, gzip."""

import json

import pytest

from repro.core.javaagent import instrument_program
from repro.jvm import Machine
from repro.memsys.hierarchy import AccessResult
from repro.obs.events import (
    AccessEvent,
    AllocEvent,
    GcFinalizeEvent,
    GcMoveEvent,
    GcNotifyEvent,
    JitCompileEvent,
    ObjectContentEvent,
    SampleEvent,
    SamplerOpenEvent,
    ThreadEndEvent,
    ThreadStartEvent,
    WatchTrapEvent,
    decode_record,
)
from repro.obs.trace import TraceReader, TraceWriter
from repro.workloads import get_workload


ROUND_TRIP_EVENTS = [
    ThreadStartEvent(tid=1, cpu=2, name="worker"),
    ThreadEndEvent(tid=1),
    AllocEvent(tid=1, addr=0x1000, end=0x1040, size=64,
               type_name="int[]", path=((3, 5), (4, 9))),
    SampleEvent(sampler_id=2, event="MEM_LOAD_UOPS_RETIRED:L1_MISS",
                tid=1, cpu=2, address=0x1010, size=8, is_write=False,
                latency=44, level="L3", home_node=1, remote=True,
                path=((3, 6),)),
    GcMoveEvent(oid=7, src=0x1000, dst=0x2000, size=64),
    GcFinalizeEvent(oid=8, addr=0x3000, size=32, type_name="byte[]"),
    GcNotifyEvent(gc_id=1, reclaimed_objects=3, reclaimed_bytes=96,
                  moved_objects=1, moved_bytes=64, live_bytes=4096,
                  pause_cycles=1000),
    JitCompileEvent(method_id=3, qualified_name="C.m", version=2),
    SamplerOpenEvent(sampler_id=2, event="MEM_LOAD_UOPS_RETIRED:L1_MISS",
                     period=64, owner="djxperf"),
    WatchTrapEvent(sampler_id=3, tid=1, address=0x1010, armed_write=True,
                   armed_value="@7", is_write=True, value=None),
    ObjectContentEvent(addr=0x1000, digest="00ff"),
]


class TestRecordRoundTrip:
    @pytest.mark.parametrize("event", ROUND_TRIP_EVENTS,
                             ids=lambda e: type(e).__name__)
    def test_event_round_trips(self, event):
        rec = event.to_record()
        # JSON-serialisable all the way down.
        restored = decode_record(json.loads(json.dumps(rec)))
        assert restored == event
        assert type(restored) is type(event)

    def test_access_event_round_trips(self):
        result = AccessResult(address=0x2000, size=8, is_write=True, cpu=3,
                              level="DRAM", latency=200, l1_misses=1,
                              l2_misses=1, l3_misses=1, tlb_misses=1,
                              home_node=1, remote=True, lines=2)
        event = AccessEvent(tid=4, result=result)
        restored = decode_record(json.loads(json.dumps(event.to_record())))
        assert restored == event
        # The rebuilt AccessResult supports offline re-counting.
        assert restored.result.l1_misses == 1
        assert restored.result.lines == 2

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="zz"):
            decode_record(["zz", 1])


def record_objectlayout(path, include_accesses=False):
    workload = get_workload("objectlayout")
    program = instrument_program(workload.build_verified())
    machine = Machine(program, workload.machine_config())
    writer = TraceWriter(str(path), include_accesses=include_accesses,
                         meta={"workload": "objectlayout"})
    writer.attach(machine)
    machine.run()
    writer.close()
    return writer


class TestWriterReader:
    def test_header_and_meta(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record_objectlayout(path)
        reader = TraceReader(str(path))
        assert reader.header["format"] == "djx-obs-trace"
        assert reader.header["meta"]["workload"] == "objectlayout"
        assert not reader.includes_accesses

    def test_stream_round_trips_through_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = record_objectlayout(path)
        events = TraceReader(str(path)).read_all()
        assert len(events) == writer.events_written
        assert any(isinstance(e, AllocEvent) for e in events)
        assert any(isinstance(e, ThreadStartEvent) for e in events)

    def test_gzip_suffix_compresses(self, tmp_path):
        plain = tmp_path / "t.jsonl"
        gz = tmp_path / "t.jsonl.gz"
        record_objectlayout(plain, include_accesses=True)
        record_objectlayout(gz, include_accesses=True)
        assert gz.stat().st_size < plain.stat().st_size / 4
        # Same decoded content either way.
        assert TraceReader(str(gz)).read_all() \
            == TraceReader(str(plain)).read_all()

    def test_method_meta_resolves_frames(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record_objectlayout(path)
        reader = TraceReader(str(path))
        events = reader.read_all()
        assert reader.methods          # populated during the read
        resolve = reader.frame_resolver()
        alloc = next(e for e in events
                     if isinstance(e, AllocEvent) and e.path)
        frame = resolve(alloc.path[-1])
        assert frame.class_name == "Objectlayout"
        assert frame.line > 0

    def test_unknown_method_resolves_placeholder(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record_objectlayout(path)
        reader = TraceReader(str(path))
        reader.read_all()
        frame = reader.frame_resolver()((999999, 0))
        assert frame.class_name == "<unknown>"

    def test_accesses_only_recorded_when_asked(self, tmp_path):
        lean = tmp_path / "lean.jsonl"
        full = tmp_path / "full.jsonl"
        record_objectlayout(lean, include_accesses=False)
        record_objectlayout(full, include_accesses=True)
        lean_events = TraceReader(str(lean)).read_all()
        full_events = TraceReader(str(full)).read_all()
        assert not any(isinstance(e, AccessEvent) for e in lean_events)
        accesses = [e for e in full_events if isinstance(e, AccessEvent)]
        assert accesses
        # The non-access prefix of both traces is identical.
        assert [e for e in full_events
                if not isinstance(e, AccessEvent)] == lean_events

    def test_reader_rejects_non_trace_file(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"hello": 1}\n')
        with pytest.raises(ValueError, match="not a djx-obs-trace"):
            TraceReader(str(path))

    def test_reader_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "v99.jsonl"
        path.write_text('{"format": "djx-obs-trace", "version": 99}\n')
        with pytest.raises(ValueError, match="version"):
            TraceReader(str(path))

    def test_reader_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            TraceReader(str(path))
