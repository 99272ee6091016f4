"""Unit tests for interpreter semantics."""

import pytest

from repro.heap.layout import Kind
from repro.jvm import (
    MachineConfig,
    MethodBuilder,
    NullPointerError,
    TrapError,
)
from repro.jvm.interpreter import ArithmeticTrap

from tests.jvm.helpers import (
    counting_loop,
    point_class,
    run_method,
    run_program,
    single_method_program,
)


def result_of(builder, **kwargs):
    """Run a method whose last action prints its result; return output."""
    machine, result = run_method(builder, **kwargs)
    return result.output


def print_top(b):
    """Emit print-of-top-of-stack + return."""
    b.native("print", 1, False).ret()
    return b


class TestArithmetic:
    def test_add_sub_mul(self):
        b = MethodBuilder("C", "m")
        b.iconst(6).iconst(7).mul().iconst(2).sub().iconst(1).add()
        assert result_of(print_top(b)) == ["41"]

    def test_java_truncated_division(self):
        b = MethodBuilder("C", "m")
        b.iconst(-7).iconst(2).div()
        assert result_of(print_top(b)) == ["-3"]  # not floor (-4)

    def test_java_remainder_sign(self):
        b = MethodBuilder("C", "m")
        b.iconst(-7).iconst(2).rem()
        assert result_of(print_top(b)) == ["-1"]

    def test_division_by_zero_traps(self):
        b = MethodBuilder("C", "m")
        b.iconst(1).iconst(0).div().pop().ret()
        with pytest.raises(ArithmeticTrap):
            run_method(b)

    def test_float_arithmetic(self):
        b = MethodBuilder("C", "m")
        b.fconst(1.5).fconst(2.0).mul()
        assert result_of(print_top(b)) == ["3.0"]

    def test_conversions(self):
        b = MethodBuilder("C", "m")
        b.iconst(3).i2f().fconst(0.5).add().f2i()
        assert result_of(print_top(b)) == ["3"]

    def test_bit_ops(self):
        b = MethodBuilder("C", "m")
        b.iconst(0b1100).iconst(0b1010).band()
        assert result_of(print_top(b)) == [str(0b1000)]

    def test_shifts(self):
        b = MethodBuilder("C", "m")
        b.iconst(1).iconst(4).shl()
        assert result_of(print_top(b)) == ["16"]


class TestLocalsAndStack:
    def test_store_load_roundtrip(self):
        b = MethodBuilder("C", "m")
        b.iconst(99).store(3).load(3)
        assert result_of(print_top(b)) == ["99"]

    def test_iinc(self):
        b = MethodBuilder("C", "m")
        b.iconst(10).store(0).iinc(0, 5).load(0)
        assert result_of(print_top(b)) == ["15"]

    def test_dup_and_swap(self):
        b = MethodBuilder("C", "m")
        b.iconst(1).iconst(2).swap().sub()   # 2 - 1
        assert result_of(print_top(b)) == ["1"]

    def test_entry_args_populate_locals(self):
        b = MethodBuilder("C", "m", num_args=2)
        b.load(0).load(1).add()
        program = single_method_program(print_top(b))
        program.entry_points[0].args = (30, 12)
        _, result = run_program(program)
        assert result.output == ["42"]


class TestControlFlow:
    def test_loop_sums(self):
        b = MethodBuilder("C", "m")
        b.iconst(0).store(1)
        counting_loop(b, 10, 0,
                      lambda b: b.load(1).load(0).add().store(1))
        b.load(1)
        assert result_of(print_top(b)) == ["45"]

    def test_conditional_both_arms(self):
        for value, expected in ((0, "zero"), (1, "nonzero")):
            b = MethodBuilder("C", "m")
            nz = b.new_label()
            done = b.new_label()
            b.iconst(value).if_ne(nz)
            b.iconst(0).native("print_tag", 1, False, "zero").goto(done)
            b.place(nz)
            b.iconst(0).native("print_tag", 1, False, "nonzero")
            b.place(done)
            b.ret()
            program = single_method_program(b)
            from repro.jvm import Machine
            machine = Machine(program)
            machine.register_native(
                "print_tag",
                lambda call: call.machine.output.append(call.consts[0]))
            result = machine.run()
            assert result.output == [expected]

    def test_null_branches(self):
        b = MethodBuilder("C", "m")
        is_null = b.new_label()
        b.null().if_null(is_null)
        b.iconst(111).native("print", 1, False).ret()   # not taken
        b.place(is_null)
        b.iconst(777)
        assert result_of(print_top(b)) == ["777"]


class TestCalls:
    def test_invoke_passes_args_and_returns(self):
        from repro.jvm import JProgram, Machine
        p = JProgram()
        callee = MethodBuilder("C", "addOne", num_args=1)
        callee.load(0).iconst(1).add().iret()
        p.add_builder(callee)
        main = MethodBuilder("C", "main")
        main.iconst(41).invoke("addOne", 1).native("print", 1, False).ret()
        p.add_builder(main)
        p.add_entry("main")
        result = Machine(p).run()
        assert result.output == ["42"]

    def test_void_invoke_pushes_none(self):
        from repro.jvm import JProgram, Machine
        p = JProgram()
        callee = MethodBuilder("C", "noop")
        callee.ret()
        p.add_builder(callee)
        main = MethodBuilder("C", "main")
        main.invoke("noop", 0).pop().iconst(1).native("print", 1, False).ret()
        p.add_builder(main)
        p.add_entry("main")
        assert Machine(p).run().output == ["1"]

    def test_recursion(self):
        from repro.jvm import JProgram, Machine
        p = JProgram()
        fib = MethodBuilder("C", "fib", num_args=1)
        base = fib.new_label()
        fib.load(0).iconst(2).if_icmplt(base)
        fib.load(0).iconst(1).sub().invoke("fib", 1)
        fib.load(0).iconst(2).sub().invoke("fib", 1)
        fib.add().iret()
        fib.place(base)
        fib.load(0).iret()
        p.add_builder(fib)
        main = MethodBuilder("C", "main")
        main.iconst(10).invoke("fib", 1).native("print", 1, False).ret()
        p.add_builder(main)
        p.add_entry("main")
        assert Machine(p).run().output == ["55"]

    def test_unknown_native_traps(self):
        b = MethodBuilder("C", "m")
        b.native("no_such", 0, False).ret()
        with pytest.raises(TrapError, match="no_such"):
            run_method(b)


class TestObjects:
    def test_field_roundtrip(self):
        b = MethodBuilder("C", "m")
        b.new("Point").store(0)
        b.load(0).iconst(11).putfield("x")
        b.load(0).getfield("x")
        assert result_of(print_top(b), classes=[point_class()]) == ["11"]

    def test_array_roundtrip(self):
        b = MethodBuilder("C", "m")
        b.iconst(10).newarray(Kind.INT).store(0)
        b.load(0).iconst(3).iconst(55).astore()
        b.load(0).iconst(3).aload()
        assert result_of(print_top(b)) == ["55"]

    def test_arraylength(self):
        b = MethodBuilder("C", "m")
        b.iconst(17).newarray(Kind.INT).arraylength()
        assert result_of(print_top(b)) == ["17"]

    def test_null_dereference_traps(self):
        b = MethodBuilder("C", "m")
        b.null().getfield("x").pop().ret()
        with pytest.raises(NullPointerError):
            run_method(b, classes=[point_class()])

    def test_negative_array_length_traps(self):
        b = MethodBuilder("C", "m")
        b.iconst(-1).newarray(Kind.INT).pop().ret()
        with pytest.raises(TrapError, match="negative"):
            run_method(b)

    def test_index_out_of_bounds_traps(self):
        b = MethodBuilder("C", "m")
        b.iconst(4).newarray(Kind.INT).store(0)
        b.load(0).iconst(4).aload().pop().ret()
        with pytest.raises(TrapError):
            run_method(b)

    def test_multianewarray(self):
        b = MethodBuilder("C", "m")
        b.iconst(3).iconst(4).multianewarray(Kind.INT, 2).store(0)
        b.load(0).iconst(2).aload().store(1)         # row 2
        b.load(1).iconst(1).iconst(9).astore()       # row2[1] = 9
        b.load(1).iconst(1).aload()
        assert result_of(print_top(b)) == ["9"]

    def test_statics_roundtrip(self):
        b = MethodBuilder("C", "m")
        b.iconst(5).putstatic("counter")
        b.getstatic("counter")
        out = result_of(print_top(b), statics={"counter": 0})
        assert out == ["5"]

    def test_undeclared_static_read_traps(self):
        b = MethodBuilder("C", "m")
        b.getstatic("ghost").pop().ret()
        with pytest.raises(TrapError, match="ghost"):
            run_method(b)

    def test_memory_accesses_reach_hierarchy(self):
        b = MethodBuilder("C", "m")
        b.iconst(64).newarray(Kind.INT).store(0)
        counting_loop(b, 64, 1,
                      lambda b: b.load(0).load(1).iconst(1).astore())
        b.ret()
        machine, result = run_method(b)
        assert result.stores > 64   # element stores + zeroing


class TestLegacyDecoder:
    def test_handler_table_covers_every_opcode(self):
        from repro.jvm.bytecode import Op
        from repro.jvm.interpreter import LEGACY_HANDLERS
        assert set(LEGACY_HANDLERS) == set(Op)

    def test_one_production_definition_per_opcode(self):
        """The production engine writes each op once: the fused-code
        emitter writes every fusable op (its blocks and its size-1
        entries) and compile_dispatch hand-writes the rest."""
        from repro.jvm.bytecode import Instruction, Op
        from repro.jvm.dispatch import _FUSABLE, _HAND_WRITTEN, _Param, _emit

        assert not _FUSABLE & _HAND_WRITTEN
        assert _FUSABLE | _HAND_WRITTEN == set(Op)
        operands = (_Param("a0"), _Param("a1"))
        for op in Op:
            ins = Instruction(op, operands)
            if op in _FUSABLE:
                assert _emit([ins], 0, "    ", {}, exact=True)
            else:
                with pytest.raises(AssertionError, match="unfusable"):
                    _emit([ins], 0, "    ", {}, exact=True)

    def test_fusable_entries_are_bound_templates(self):
        from repro.jvm import Machine
        from repro.jvm.dispatch import _HAND_WRITTEN, _TEMPLATES, \
            compile_dispatch

        b = MethodBuilder("C", "m")
        b.iconst(4).newarray(Kind.INT).dup().arraylength().iconst(1).sub()
        b.iconst(9).astore().iconst(2).store(0).iinc(0, 3).ret()
        machine = Machine(single_method_program(b))
        runtime = machine.method_table.runtime("m")
        table = compile_dispatch(machine, runtime)
        templates = set(_TEMPLATES.values())
        for ins, h in zip(runtime.method.code, table):
            assert (h.__code__ in templates) \
                is (ins.op not in _HAND_WRITTEN), ins

    def test_decode_cache_is_per_runtime(self):
        """Programs whose methods share qualified names but not bytecode
        (constants, loop bounds, branch targets) each run their own
        decode, even when one build's freed objects are reused by the
        next."""
        import gc

        from repro.jvm import JProgram, Machine

        def build(k):
            p = JProgram()
            step = MethodBuilder("C", "step", num_args=1)
            step.load(0).iconst(k).add().iret()
            p.add_builder(step)
            main = MethodBuilder("C", "main")
            for _ in range(k % 3):     # shifts every branch target
                main.nop()
            main.iconst(k).store(0)
            counting_loop(main, k, 1,
                          lambda b: b.load(0).invoke("step", 1).store(0))
            main.load(0).native("print", 1, False).ret()
            p.add_builder(main)
            p.add_entry("main")
            return p

        for k in range(1, 25):
            gc.collect()
            legacy = Machine(build(k), MachineConfig(fastpath=False))
            result = legacy.run()
            assert result.output == [str(k + k * k)]
            assert result == Machine(build(k)).run()
            for name in ("main", "step"):
                runtime = legacy.method_table.runtime(name)
                assert [ins for _, ins in runtime.legacy_table] \
                    == runtime.method.code
