"""Tests for the semispace copying collector."""

import pytest

from repro.core import DJXPerf, DjxConfig
from repro.heap import (
    FieldSpec,
    Heap,
    JClass,
    Kind,
    OutOfMemoryError,
    SemispaceCollector,
)
from repro.heap.layout import Kind
from repro.jvm import JProgram, Machine, MachineConfig, MethodBuilder

from repro.workloads.base import sim_machine

from tests.jvm.helpers import counting_loop

POINT = JClass("Point", [FieldSpec("x"), FieldSpec("y")])


class RootSet:
    def __init__(self):
        self.refs = []

    def __call__(self):
        return [r.oid for r in self.refs]


def make_heap(size=8192):
    heap = Heap(size=size)
    roots = RootSet()
    collector = SemispaceCollector(heap, roots)
    return heap, roots, collector


class TestSemispace:
    def test_allocation_limited_to_half(self):
        heap, roots, collector = make_heap(size=8192)
        assert heap.limit - heap.base == 4096

    def test_every_survivor_moves_on_every_collection(self):
        heap, roots, collector = make_heap()
        refs = [heap.allocate_instance(POINT) for _ in range(5)]
        roots.refs.extend(refs)
        moves = []
        collector.on_memmove.append(moves.append)
        note = collector.collect()
        assert note.moved_objects == 5
        assert len(moves) == 5
        # Survivors now live in the other space.
        for ref in refs:
            assert heap.get(ref).addr >= collector.active_space

    def test_flip_alternates_spaces(self):
        heap, roots, collector = make_heap()
        first = collector.active_space
        collector.collect()
        second = collector.active_space
        collector.collect()
        assert collector.active_space == first
        assert second != first

    def test_dead_objects_finalized_not_copied(self):
        heap, roots, collector = make_heap()
        heap.allocate_instance(POINT)            # dead
        kept = heap.allocate_instance(POINT)
        roots.refs.append(kept)
        events = []
        collector.on_finalize.append(events.append)
        note = collector.collect()
        assert note.reclaimed_objects == 1
        assert len(events) == 1
        assert len(heap) == 1

    def test_data_survives_copies(self):
        heap, roots, collector = make_heap()
        kept = heap.allocate_array(Kind.INT, 8)
        heap.get(kept).set_element(3, 777)
        roots.refs.append(kept)
        collector.collect()
        collector.collect()
        assert heap.get(kept).get_element(3) == 777

    def test_allocation_failure_triggers_collection(self):
        heap, roots, collector = make_heap(size=4096)   # 2KB usable
        for _ in range(60):
            heap.allocate_array(Kind.INT, 6)            # garbage
        assert collector.stats.collections > 0

    def test_oom_when_survivors_exceed_space(self):
        heap, roots, collector = make_heap(size=2048)   # 1KB usable
        kept = heap.allocate_array(Kind.INT, 60)        # ~500B
        roots.refs.append(kept)
        with pytest.raises(OutOfMemoryError):
            heap.allocate_array(Kind.INT, 80)

    def test_unknown_policy_rejected(self):
        p = JProgram()
        b = MethodBuilder("C", "main")
        b.ret()
        p.add_builder(b)
        p.add_entry("main")
        with pytest.raises(ValueError, match="gc_policy"):
            Machine(p, MachineConfig(gc_policy="zgc"))


class TestProfilerUnderSemispace:
    """4.5's claim: the handling works for any collector."""

    def bloat_program(self):
        p = JProgram()
        b = MethodBuilder("App", "main", first_line=1)
        b.line(2).iconst(2048).newarray(Kind.INT).store(0)   # live victim
        def body(b):
            b.line(5).iconst(512).newarray(Kind.INT).store(1)
            b.line(6).load(0).native("stream_array", 1, False, 1)
        counting_loop(b, 60, 2, body)
        b.ret()
        p.add_builder(b)
        p.add_entry("main")
        return p

    @pytest.mark.parametrize("policy", ["mark-compact", "semispace"])
    def test_attribution_survives_either_collector(self, policy):
        profiler = DJXPerf(DjxConfig(sample_period=32, size_threshold=0))
        machine = Machine(profiler.instrument(self.bloat_program()),
                          sim_machine(heap_size=128 * 1024,
                                      gc_policy=policy))
        profiler.attach(machine)
        result = machine.run()
        assert result.gc_collections > 0
        analysis = profiler.analyze()
        victim = analysis.site_at("App", "main", line=2)
        assert victim is not None
        assert analysis.share(victim) > 0.5
        assert analysis.coverage() > 0.95

    def test_semispace_stresses_relocation_map_harder(self):
        def relocations(policy):
            profiler = DJXPerf(DjxConfig(sample_period=32,
                                         size_threshold=0))
            machine = Machine(profiler.instrument(self.bloat_program()),
                              MachineConfig(heap_size=128 * 1024,
                                            gc_policy=policy))
            profiler.attach(machine)
            machine.run()
            return profiler.stats.relocations_applied

        assert relocations("semispace") > relocations("mark-compact")

    def test_program_output_identical_across_policies(self):
        def run(policy):
            p = JProgram()
            b = MethodBuilder("C", "main")
            b.iconst(0).store(1)
            def body(b):
                b.iconst(64).newarray(Kind.INT).store(2)
                b.load(2).iconst(0).load(0).astore()
                b.load(1).load(2).iconst(0).aload().add().store(1)
            counting_loop(b, 100, 0, body)
            b.load(1).native("print", 1, False).ret()
            p.add_builder(b)
            p.add_entry("main")
            return Machine(p, MachineConfig(heap_size=64 * 1024,
                                            gc_policy=policy)).run()

        assert run("mark-compact").output == run("semispace").output
