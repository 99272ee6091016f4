"""Integration tests for the Machine: scheduling, GC, NUMA, natives."""

import pytest

from repro.heap.layout import Kind
from repro.jvm import (
    DeadlockError,
    JProgram,
    Machine,
    MachineConfig,
    MethodBuilder,
    ThreadState,
)

from tests.jvm.helpers import counting_loop, point_class


def bloat_program(iterations=50, array_len=64):
    """Allocates an array per iteration and drops it (memory bloat)."""
    p = JProgram("bloat")
    b = MethodBuilder("Bloat", "main")
    counting_loop(
        b, iterations, 0,
        lambda b: (b.iconst(array_len).newarray(Kind.INT)
                   .store(1)))
    b.ret()
    p.add_builder(b)
    p.add_entry("main")
    return p


class TestRun:
    def test_runs_to_completion(self):
        p = bloat_program()
        result = Machine(p).run()
        assert result.total_instructions > 0
        assert result.heap_allocations == 50

    def test_deterministic_across_runs(self):
        r1 = Machine(bloat_program()).run()
        r2 = Machine(bloat_program()).run()
        assert r1.wall_cycles == r2.wall_cycles
        assert r1.l1_misses == r2.l1_misses

    def test_run_with_budget_then_resume(self):
        machine = Machine(bloat_program(iterations=200))
        machine.run(max_instructions=100)
        alive = [t for t in machine.threads if t.alive]
        assert alive
        result = machine.run()
        assert not [t for t in machine.threads if t.alive]
        assert result.heap_allocations == 200

    def test_no_entry_points_rejected(self):
        p = JProgram()
        b = MethodBuilder("C", "m")
        b.ret()
        p.add_builder(b)
        with pytest.raises(Exception):
            Machine(p).run()


class TestGcDuringRun:
    def test_gc_triggered_by_bloat(self):
        # Heap of 64KB; each iteration allocates 64*8B + header.
        p = bloat_program(iterations=300, array_len=64)
        config = MachineConfig(heap_size=64 * 1024)
        result = Machine(p, config).run()
        assert result.gc_collections > 0
        assert result.heap_allocations == 300

    def test_gc_pause_charged_to_threads(self):
        p = bloat_program(iterations=300, array_len=64)
        config = MachineConfig(heap_size=64 * 1024)
        machine = Machine(p, config)
        result = machine.run()
        assert result.gc_pause_cycles > 0
        assert result.wall_cycles >= result.gc_pause_cycles

    def test_live_data_survives_gc(self):
        p = JProgram()
        b = MethodBuilder("C", "main")
        # keep[] stays live in local 0 while garbage churns.
        b.iconst(8).newarray(Kind.INT).store(0)
        b.load(0).iconst(0).iconst(123).astore()
        counting_loop(b, 200, 1,
                      lambda b: b.iconst(64).newarray(Kind.INT).store(2))
        b.load(0).iconst(0).aload().native("print", 1, False)
        b.ret()
        p.add_builder(b)
        p.add_entry("main")
        result = Machine(p, MachineConfig(heap_size=32 * 1024)).run()
        assert result.output == ["123"]
        assert result.gc_collections > 0


class TestThreads:
    def multi_thread_program(self, nthreads=4):
        p = JProgram()
        b = MethodBuilder("C", "worker", num_args=1)
        b.iconst(0).store(1)
        counting_loop(b, 50, 2,
                      lambda b: b.load(1).load(0).add().store(1))
        b.ret()
        p.add_builder(b)
        for i in range(nthreads):
            p.add_entry("worker", i)
        return p

    def test_threads_round_robin_to_cpus(self):
        p = self.multi_thread_program(4)
        machine = Machine(p, MachineConfig(num_nodes=2, cpus_per_node=2))
        machine.run()
        assert [t.cpu for t in machine.threads] == [0, 1, 2, 3]

    def test_more_threads_than_cpus_share(self):
        p = self.multi_thread_program(6)
        machine = Machine(p, MachineConfig(num_nodes=1, cpus_per_node=4))
        machine.run()
        assert [t.cpu for t in machine.threads] == [0, 1, 2, 3, 0, 1]

    def test_explicit_cpu_pin(self):
        p = self.multi_thread_program(1)
        p.entry_points[0].cpu = 3
        machine = Machine(p)
        machine.run()
        assert machine.threads[0].cpu == 3

    def test_thread_start_end_callbacks(self):
        from repro.obs.collector import Collector

        started, ended = [], []

        class Threads(Collector):
            label = "threads"

            def on_thread_start(self, event):
                started.append(event.tid)

            def on_thread_end(self, event):
                ended.append(event.tid)

        machine = Machine(self.multi_thread_program(2))
        Threads().attach(machine)
        machine.run()
        assert started == [0, 1]
        assert sorted(ended) == [0, 1]

    def test_wall_cycles_accounts_for_cpu_sharing(self):
        # 2 threads on 1 cpu serialize; on 2 cpus they run in parallel.
        p1 = self.multi_thread_program(2)
        shared = Machine(p1, MachineConfig(num_nodes=1, cpus_per_node=1)).run()
        p2 = self.multi_thread_program(2)
        parallel = Machine(p2, MachineConfig(num_nodes=1, cpus_per_node=2)).run()
        assert shared.wall_cycles > parallel.wall_cycles


class TestAwaitStatic:
    def producer_consumer(self):
        p = JProgram()
        p.statics["ready"] = 0
        producer = MethodBuilder("C", "producer")
        producer.iconst(7).putstatic("value")
        producer.iconst(1).putstatic("ready")
        producer.ret()
        p.add_builder(producer)
        consumer = MethodBuilder("C", "consumer")
        consumer.native("await_static", 0, False, "ready")
        consumer.getstatic("value").native("print", 1, False)
        consumer.ret()
        p.add_builder(consumer)
        p.statics["value"] = 0
        return p

    def test_consumer_waits_for_producer(self):
        p = self.producer_consumer()
        # Consumer scheduled first: must park, then resume.
        p.add_entry("consumer")
        p.add_entry("producer")
        result = Machine(p).run()
        assert result.output == ["7"]

    def test_deadlock_detected(self):
        p = JProgram()
        p.statics["never"] = 0
        b = MethodBuilder("C", "main")
        b.native("await_static", 0, False, "never")
        b.ret()
        p.add_builder(b)
        p.add_entry("main")
        with pytest.raises(DeadlockError):
            Machine(p).run()


class TestNatives:
    def test_arraycopy(self):
        p = JProgram()
        b = MethodBuilder("C", "main")
        b.iconst(8).newarray(Kind.INT).store(0)
        b.iconst(8).newarray(Kind.INT).store(1)
        b.load(0).iconst(2).iconst(42).astore()
        b.load(0).iconst(0).load(1).iconst(0).iconst(8)
        b.native("arraycopy", 5, False)
        b.load(1).iconst(2).aload().native("print", 1, False)
        b.ret()
        p.add_builder(b)
        p.add_entry("main")
        assert Machine(p).run().output == ["42"]

    def test_arraycopy_bounds_checked(self):
        p = JProgram()
        b = MethodBuilder("C", "main")
        b.iconst(4).newarray(Kind.INT).store(0)
        b.iconst(4).newarray(Kind.INT).store(1)
        b.load(0).iconst(0).load(1).iconst(0).iconst(5)
        b.native("arraycopy", 5, False)
        b.ret()
        p.add_builder(b)
        p.add_entry("main")
        with pytest.raises(Exception, match="bounds"):
            Machine(p).run()

    def test_rand_is_seeded_and_bounded(self):
        p = JProgram()
        b = MethodBuilder("C", "main")
        counting_loop(b, 20, 0,
                      lambda b: b.iconst(10).native("rand", 1, True)
                      .native("print", 1, False))
        b.ret()
        p.add_builder(b)
        p.add_entry("main")
        out1 = Machine(p, MachineConfig(seed=7)).run().output
        out2 = Machine(p.clone(), MachineConfig(seed=7)).run().output
        assert out1 == out2
        assert all(0 <= int(v) < 10 for v in out1)

    def test_numa_interleave_spreads_pages(self):
        p = JProgram()
        b = MethodBuilder("C", "main")
        b.iconst(4096).newarray(Kind.INT).store(0)   # 32KB: 8 pages
        b.load(0).native("numa_interleave", 1, False)
        b.ret()
        p.add_builder(b)
        p.add_entry("main")
        machine = Machine(p, MachineConfig(num_nodes=2, zero_on_alloc=False))
        machine.run()
        obj = list(machine.heap.objects.values())[0]
        pt = machine.hierarchy.page_table
        nodes = {pt.node_of_address(a)
                 for a in range(obj.addr, obj.end, 4096)}
        assert nodes == {0, 1}

    def test_current_cpu(self):
        p = JProgram()
        b = MethodBuilder("C", "main")
        b.native("current_cpu", 0, True).native("print", 1, False)
        b.ret()
        p.add_builder(b)
        p.add_entry("main")
        assert Machine(p).run().output == ["0"]


class TestNumaBehaviour:
    def test_remote_accesses_counted_across_nodes(self):
        p = JProgram()
        p.statics["shared"] = None
        p.statics["ready"] = 0
        master = MethodBuilder("C", "master")
        master.iconst(2048).newarray(Kind.INT).putstatic("shared")
        master.iconst(1).putstatic("ready")
        master.ret()
        p.add_builder(master)
        worker = MethodBuilder("C", "worker")
        worker.native("await_static", 0, False, "ready")
        worker.getstatic("shared").store(0)
        counting_loop(worker, 2048, 1,
                      lambda b: b.load(0).load(1).aload().pop())
        worker.ret()
        p.add_builder(worker)
        p.add_entry("master", cpu=0)
        p.add_entry("worker", cpu=4)   # other node (cpus_per_node=4)
        result = Machine(p, MachineConfig(num_nodes=2, cpus_per_node=4)).run()
        assert result.remote_accesses > 0
        assert result.remote_ratio > 0.1
