"""Unit tests for the simulated JIT / method table."""

import pytest

from repro.jvm import JitConfig, JProgram, Machine, MachineConfig, MethodBuilder
from repro.jvm.jit import MethodTable

from tests.jvm.helpers import counting_loop


def trivial_method(name="m"):
    b = MethodBuilder("C", name)
    b.ret()
    return b.build()


class TestMethodTable:
    def test_register_assigns_unique_ids(self):
        table = MethodTable()
        r1 = table.register(trivial_method("a"))
        r2 = table.register(trivial_method("b"))
        assert r1.method_id != r2.method_id

    def test_duplicate_registration_rejected(self):
        table = MethodTable()
        table.register(trivial_method("a"))
        with pytest.raises(ValueError):
            table.register(trivial_method("a"))

    def test_resolve_roundtrip(self):
        table = MethodTable()
        r = table.register(trivial_method())
        assert table.resolve(r.method_id) is r

    def test_unknown_lookups_raise(self):
        table = MethodTable()
        with pytest.raises(KeyError):
            table.runtime("ghost")
        with pytest.raises(KeyError):
            table.resolve(404)


class TestCompilation:
    def test_compiles_at_threshold(self):
        table = MethodTable(JitConfig(compile_threshold=3))
        r = table.register(trivial_method())
        table.on_invoke(r)
        table.on_invoke(r)
        assert not r.compiled
        pause = table.on_invoke(r)
        assert r.compiled
        assert pause == table.config.compile_pause_cycles

    def test_compile_changes_method_id_and_keeps_old_resolvable(self):
        table = MethodTable(JitConfig(compile_threshold=1))
        r = table.register(trivial_method())
        old_id = r.method_id
        table.on_invoke(r)
        assert r.method_id != old_id
        # Samples taken before the compile still resolve (paper 4.4).
        assert table.resolve(old_id) is r
        assert table.resolve(r.method_id) is r

    def test_compile_event_fires(self):
        events = []
        table = MethodTable(JitConfig(compile_threshold=1),
                            on_compile=events.append)
        r = table.register(trivial_method())
        table.on_invoke(r)
        assert events == [r]

    def test_disabled_jit_never_compiles(self):
        table = MethodTable(JitConfig(compile_threshold=1, enabled=False))
        r = table.register(trivial_method())
        for _ in range(10):
            table.on_invoke(r)
        assert not r.compiled

    def test_cost_drops_after_compile(self):
        table = MethodTable(JitConfig(compile_threshold=1))
        r = table.register(trivial_method())
        before = r.cycles_per_instruction_cached
        table.on_invoke(r)
        after = r.cycles_per_instruction_cached
        assert after < before


class TestJitInMachine:
    def _hot_loop_program(self, threshold):
        p = JProgram()
        callee = MethodBuilder("C", "hot")
        # Enough work per invocation for compilation to pay off.
        counting_loop(callee, 10, 0,
                      lambda b: b.load(0).iconst(1).add().pop())
        callee.ret()
        p.add_builder(callee)
        main = MethodBuilder("C", "main")
        counting_loop(main, 200, 0,
                      lambda b: b.invoke("hot", 0).pop())
        main.ret()
        p.add_builder(main)
        p.add_entry("main")
        return p

    def test_hot_method_gets_compiled_during_run(self):
        p = self._hot_loop_program(50)
        machine = Machine(p, MachineConfig(
            jit=JitConfig(compile_threshold=50)))
        machine.run()
        assert machine.method_table.runtime("hot").compiled

    def test_jit_makes_programs_faster(self):
        p1 = self._hot_loop_program(50)
        with_jit = Machine(p1, MachineConfig(
            jit=JitConfig(compile_threshold=10))).run()
        p2 = self._hot_loop_program(50)
        no_jit = Machine(p2, MachineConfig(
            jit=JitConfig(enabled=False))).run()
        assert with_jit.wall_cycles < no_jit.wall_cycles
