"""Integration tests for DJXPerf: attribution, GC handling, NUMA, modes."""

import json
import os

import pytest

from repro.core import DJXPerf, DjxConfig, render_numa_report, render_report
from repro.heap.layout import Kind
from repro.jvm import JProgram, Machine, MachineConfig, MethodBuilder
from repro.pmu.events import ALL_LOADS

from tests.jvm.helpers import counting_loop


BIG = 8192          # 64KB int array — larger than the 32KB L1


def hot_array_program(iterations=10, n=BIG, line=50):
    """Allocates one big array per iteration and streams through it."""
    p = JProgram("hot")
    b = MethodBuilder("Hot", "run", first_line=line)
    def body(b):
        b.line(line + 5)
        b.iconst(n).newarray(Kind.INT).store(1)
        b.line(line + 8)
        counting_loop(b, n, 2,
                      lambda b: b.load(1).load(2).aload().pop())
        b.line(line)
    counting_loop(b, iterations, 0, body)
    b.ret()
    p.add_builder(b)
    p.add_entry("run")
    return p


def profiled_run(program, config=None, machine_config=None):
    profiler = DJXPerf(config or DjxConfig(sample_period=16))
    instrumented = profiler.instrument(program)
    machine = Machine(instrumented,
                      machine_config or MachineConfig(heap_size=4 * 1024 * 1024))
    profiler.attach(machine)
    result = machine.run()
    return profiler, machine, result


class TestAttribution:
    def test_hot_object_dominates_profile(self):
        profiler, _, _ = profiled_run(hot_array_program())
        analysis = profiler.analyze()
        top = analysis.top_sites(1)[0]
        assert analysis.share(top) > 0.9
        assert top.dominant_type() == "int[]"

    def test_allocation_site_resolved_to_source_line(self):
        profiler, _, _ = profiled_run(hot_array_program(line=50))
        analysis = profiler.analyze()
        site = analysis.top_sites(1)[0]
        assert site.leaf.class_name == "Hot"
        assert site.leaf.method_name == "run"
        assert site.leaf.line == 55   # line + 5 (the newarray line)

    def test_alloc_count_matches_iterations(self):
        profiler, _, _ = profiled_run(hot_array_program(iterations=7))
        analysis = profiler.analyze()
        assert analysis.top_sites(1)[0].alloc_count == 7

    def test_access_contexts_recorded(self):
        profiler, _, _ = profiled_run(hot_array_program())
        site = profiler.analyze().top_sites(1)[0]
        assert site.access_contexts
        access_lines = {path[-1].line
                        for path in site.access_contexts}
        assert 58 in access_lines    # line + 8 region (the read loop)

    def test_objects_allocated_in_callee_attributed_by_full_path(self):
        # Same callee called from two different call sites: the paths
        # must stay distinguishable (full calling context, paper 4.4).
        p = JProgram()
        helper = MethodBuilder("Lib", "make", first_line=5)
        helper.iconst(BIG).newarray(Kind.INT).iret()
        p.add_builder(helper)
        main = MethodBuilder("App", "main", first_line=20)
        def use(b):
            counting_loop(b, BIG, 2,
                          lambda b: b.load(1).load(2).aload().pop())
        main.line(21).invoke("make", 0).store(1)
        use(main)
        main.line(31).invoke("make", 0).store(1)
        use(main)
        main.ret()
        p.add_builder(main)
        p.add_entry("main")
        profiler, _, _ = profiled_run(p)
        analysis = profiler.analyze()
        sites = [s for s in analysis.sites if s.alloc_count > 0]
        assert len(sites) == 2
        caller_lines = sorted(s.path[-2].line for s in sites)
        assert caller_lines == [21, 31]
        for s in sites:
            assert s.path[-1].location == "Lib.make:5"

    def test_coverage_full_in_launch_mode(self):
        profiler, _, _ = profiled_run(hot_array_program())
        assert profiler.analyze().coverage() == pytest.approx(1.0)


class TestSizeThreshold:
    def test_small_objects_filtered_by_default(self):
        # 16-element arrays (≈144B) are below the 1KB default S.
        p = hot_array_program(n=16, iterations=5)
        profiler, _, _ = profiled_run(
            p, DjxConfig(sample_period=4, events=(ALL_LOADS,)))
        assert profiler.stats.allocations_filtered == 5
        analysis = profiler.analyze()
        assert all(s.alloc_count == 0 for s in analysis.sites)

    def test_s_zero_monitors_everything(self):
        p = hot_array_program(n=16, iterations=5)
        profiler, _, _ = profiled_run(
            p, DjxConfig(sample_period=4, size_threshold=0,
                         events=(ALL_LOADS,)))
        assert profiler.stats.allocations_filtered == 0
        analysis = profiler.analyze()
        assert analysis.top_sites(1)[0].alloc_count == 5

    def test_threshold_filters_exact_boundary(self):
        # Array of 120 ints = 16 + 960 = 976B < 1024; 128 ints = 1040 >= S.
        p = JProgram()
        b = MethodBuilder("C", "main")
        b.iconst(120).newarray(Kind.INT).store(0)
        b.iconst(128).newarray(Kind.INT).store(1)
        b.ret()
        p.add_builder(b)
        p.add_entry("main")
        profiler, _, _ = profiled_run(p)
        assert profiler.stats.allocations_seen == 2
        assert profiler.stats.allocations_filtered == 1


class TestGcHandling:
    def test_samples_attributed_after_object_moves(self):
        # Live array keeps getting accessed across GCs that move it.
        p = JProgram()
        b = MethodBuilder("App", "main", first_line=1)
        b.line(2).iconst(BIG).newarray(Kind.INT).store(0)   # the victim
        # churn garbage in front of it so compaction moves it
        def body(b):
            b.line(5).iconst(2048).newarray(Kind.INT).store(1)
            b.line(6)
            counting_loop(b, BIG, 3,
                          lambda b: b.load(0).load(3).aload().pop())
        counting_loop(b, 30, 2, body)
        b.ret()
        p.add_builder(b)
        p.add_entry("main")
        profiler, machine, result = profiled_run(
            p, machine_config=MachineConfig(heap_size=256 * 1024))
        assert result.gc_collections > 0
        assert profiler.stats.relocations_applied > 0
        analysis = profiler.analyze()
        victim = analysis.site_at("App", "main", line=2)
        assert victim is not None
        # The victim keeps collecting samples after being moved.
        assert analysis.share(victim) > 0.5
        # Splay stayed consistent with the heap.
        assert analysis.coverage() > 0.95

    def test_finalized_objects_removed_from_splay(self):
        p = hot_array_program(iterations=40, n=2048)
        profiler, machine, result = profiled_run(
            p, machine_config=MachineConfig(heap_size=128 * 1024))
        assert result.gc_collections > 0
        assert profiler.stats.finalized_removed > 0
        # Only live tracked objects remain in the splay tree.
        assert len(profiler.splay) <= len(machine.heap)

    def test_relocation_map_reset_after_notification(self):
        p = hot_array_program(iterations=40, n=2048)
        profiler, _, _ = profiled_run(
            p, machine_config=MachineConfig(heap_size=128 * 1024))
        assert profiler._relocation_map == {}


class TestNumaDetection:
    def numa_program(self):
        p = JProgram()
        p.statics["shared"] = None
        p.statics["ready"] = 0
        master = MethodBuilder("App", "master", first_line=10)
        master.line(11).iconst(BIG).newarray(Kind.INT).putstatic("shared")
        master.iconst(1).putstatic("ready")
        master.ret()
        p.add_builder(master)
        worker = MethodBuilder("App", "worker", first_line=20)
        worker.native("await_static", 0, False, "ready")
        worker.getstatic("shared").store(0)
        counting_loop(worker, BIG, 1,
                      lambda b: b.line(24).load(0).load(1).aload().pop())
        worker.ret()
        p.add_builder(worker)
        p.add_entry("master", cpu=0)
        p.add_entry("worker", cpu=4)
        return p

    def test_remote_object_flagged(self):
        profiler, _, _ = profiled_run(
            self.numa_program(),
            DjxConfig(sample_period=16),
            MachineConfig(num_nodes=2, cpus_per_node=4,
                          heap_size=4 * 1024 * 1024))
        analysis = profiler.analyze()
        remote_sites = analysis.top_remote_sites(3)
        assert remote_sites
        top = remote_sites[0]
        assert top.leaf.line == 11
        assert top.remote_ratio > 0.5

    def test_numa_tracking_can_be_disabled(self):
        profiler, _, _ = profiled_run(
            self.numa_program(),
            DjxConfig(sample_period=16, track_numa=False),
            MachineConfig(num_nodes=2, cpus_per_node=4,
                          heap_size=4 * 1024 * 1024))
        analysis = profiler.analyze()
        assert analysis.top_remote_sites(3) == []


class TestAttachDetach:
    def test_attach_mid_run_misses_earlier_allocations(self):
        profiler = DJXPerf(DjxConfig(sample_period=16))
        program = profiler.instrument(hot_array_program(iterations=10))
        machine = Machine(program, MachineConfig(heap_size=4 * 1024 * 1024))
        machine.run(max_instructions=40000)   # part of the program
        profiler.attach(machine)              # attach mode
        machine.run()
        analysis = profiler.analyze()
        site = analysis.top_sites(1)[0]
        assert 0 < site.alloc_count < 10
        # Samples before attach were never taken; coverage of taken
        # samples can still include unknowns from pre-attach objects.
        assert analysis.total() > 0

    def test_detach_stops_sampling(self):
        profiler = DJXPerf(DjxConfig(sample_period=16))
        program = profiler.instrument(hot_array_program(iterations=10))
        machine = Machine(program, MachineConfig(heap_size=4 * 1024 * 1024))
        profiler.attach(machine)
        machine.run(max_instructions=40000)
        taken = profiler.stats.samples_handled
        assert taken > 0
        profiler.detach()
        machine.run()
        assert profiler.stats.samples_handled == taken

    def test_double_attach_rejected(self):
        profiler = DJXPerf()
        program = profiler.instrument(hot_array_program(iterations=1))
        machine = Machine(program)
        profiler.attach(machine)
        with pytest.raises(RuntimeError):
            profiler.attach(machine)

    def test_double_attach_leaves_native_hooks_unchanged(self):
        # A rejected attach must not have clobbered the machine's native
        # hook table (the failure path runs before any machine mutation).
        profiler = DJXPerf()
        program = profiler.instrument(hot_array_program(iterations=1))
        machine = Machine(program)
        profiler.attach(machine)
        hooks_before = dict(machine.natives)
        with pytest.raises(RuntimeError):
            profiler.attach(machine)
        assert machine.natives == hooks_before
        # ...and the original attachment still works end to end.
        machine.run()
        assert profiler.analyze().total() >= 0

    def test_detach_then_reattach_fresh_profiler(self):
        # Full lifecycle: profile a prefix, detach, attach a *fresh*
        # DJXPerf to the same machine, and profile the rest.
        first = DJXPerf(DjxConfig(sample_period=16))
        program = first.instrument(hot_array_program(iterations=10))
        machine = Machine(program, MachineConfig(heap_size=4 * 1024 * 1024))
        first.attach(machine)
        machine.run(max_instructions=40000)
        first.detach()
        assert not first.enabled
        assert not machine.bus.active          # nobody left subscribed

        second = DJXPerf(DjxConfig(sample_period=16))
        second.attach(machine)
        machine.run()
        assert second.enabled
        assert second.stats.samples_handled > 0
        analysis = second.analyze()
        assert analysis.total() > 0
        # The first profiler's results survive its detach untouched.
        first_taken = first.stats.samples_handled
        assert first_taken > 0
        assert first.stats.samples_handled == first_taken

    def test_analyze_requires_attach(self):
        with pytest.raises(RuntimeError):
            DJXPerf().analyze()


class TestMultiThread:
    def test_profiles_merge_across_threads(self):
        p = JProgram()
        b = MethodBuilder("App", "worker", first_line=10)
        def body(b):
            b.line(12).iconst(BIG).newarray(Kind.INT).store(1)
            counting_loop(b, BIG, 2,
                          lambda b: b.load(1).load(2).aload().pop())
            b.line(10)
        counting_loop(b, 3, 0, body)
        b.ret()
        p.add_builder(b)
        for _ in range(4):
            p.add_entry("worker")
        profiler, _, _ = profiled_run(
            p, machine_config=MachineConfig(heap_size=8 * 1024 * 1024))
        assert len(profiler.profiles) == 4
        analysis = profiler.analyze()
        # One merged site: 4 threads x 3 allocations.
        site = analysis.top_sites(1)[0]
        assert site.alloc_count == 12
        assert analysis.thread_count == 4


class TestOutputs:
    def test_report_rendering(self):
        profiler, _, _ = profiled_run(hot_array_program())
        text = render_report(profiler.analyze(), top=3)
        assert "DJXPerf object-centric profile" in text
        assert "int[]" in text
        assert "Hot.run:55" in text
        assert "allocation context" in text

    def test_numa_report_rendering_empty(self):
        profiler, _, _ = profiled_run(hot_array_program())
        text = render_numa_report(profiler.analyze())
        assert "no remote accesses" in text

    def test_profile_dump_files(self, tmp_path):
        profiler, _, _ = profiled_run(hot_array_program())
        paths = profiler.dump_profiles(str(tmp_path))
        assert len(paths) == 1
        with open(paths[0]) as fp:
            data = json.load(fp)
        assert data["tid"] == 0
        assert data["sites"]
        site = data["sites"][0]
        assert site["alloc_count"] == 10
        assert site["path"][-1][0] == "Hot"

    def test_memory_footprint_positive_and_bounded(self):
        profiler, machine, _ = profiled_run(hot_array_program())
        footprint = profiler.memory_footprint()
        assert footprint > 0
        # Profiler memory should be far below the program's heap peak.
        assert footprint < machine.heap.stats.peak_used
