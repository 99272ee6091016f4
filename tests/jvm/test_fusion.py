"""Superinstruction fusion (repro.jvm.dispatch.compile_fused).

Three layers of coverage:

* block discovery — :func:`fused_blocks` respects the verifier's
  basic-block leaders and the fusability rules (no stretch enders or
  allocation sites inside a block, branches only as the final
  instruction, minimum size 2);
* table shape — the compiled fused table has ``(closure, k)`` entries
  exactly at block starts and ``None`` everywhere else, and
  ``warm_dispatch`` precompiles both observation variants;
* equivalence — for arithmetic, array, field, static and branchy
  programs the production (fused) engine and the legacy one-step
  interpreter, the semantic oracle, produce identical MachineResults
  and memory-system state across scheduling quanta, traps surface with
  identical messages and partial-progress accounting, and the
  bulk-budget guard's bailout path (forced by disabling skip-ahead
  under an armed sampler) falls back to per-handler execution without
  changing any observable.
"""

import pytest

from repro.core import DJXPerf, DjxConfig
from repro.heap.layout import Kind
from repro.jvm import Machine, MachineConfig, MethodBuilder
from repro.jvm.bytecode import BRANCH_OPS, Op
from repro.jvm.dispatch import _FUSABLE_TAIL, fused_blocks
from repro.jvm.interpreter import TrapError
from repro.jvm.verifier import _LEADER_AFTER, block_leaders
from tests.jvm.helpers import (
    counting_loop,
    point_class,
    single_method_program,
)


# ----------------------------------------------------------------------
# Program zoo: each exercises a different fused-block shape.
# ----------------------------------------------------------------------

def arith_program(n=400):
    """Pure register arithmetic: the longest fusable blocks."""
    b = MethodBuilder("Fuse", "main")
    b.iconst(1).store(1)
    counting_loop(b, n, 0, lambda b: (
        b.load(1).load(0).add().iconst(3).mul()
         .iconst(8191).band().store(1)))
    b.ret()
    return single_method_program(b)


def array_program(passes=6, length=64):
    """Read-modify-write array sweeps: access-bearing fused blocks."""
    b = MethodBuilder("Fuse", "main")
    b.line(1).iconst(length).newarray(Kind.INT).store(1)

    def inner(b):
        # a[j] = a[j] * 2 + j, one source line per access so samples
        # tell the two apart.
        (b.line(2).load(1).load(2)
          .load(1).load(2).line(3).aload()
          .iconst(2).mul().load(2).add()
          .line(4).astore().line(5))

    counting_loop(b, passes, 0, lambda b: counting_loop(b, length, 2, inner))
    b.load(1).arraylength().store(3)
    b.ret()
    return single_method_program(b)


def field_program(n=300):
    """GETFIELD/PUTFIELD traffic against one live object."""
    b = MethodBuilder("Fuse", "main")
    b.new("Point").store(1)
    b.load(1).iconst(1).putfield("y")
    counting_loop(b, n, 0, lambda b: (
        b.load(1).load(1).getfield("x").load(1).getfield("y")
         .add().putfield("x"),
        b.load(1).load(1).getfield("y").load(0).add()
         .iconst(1023).band().putfield("y")))
    b.ret()
    return single_method_program(b, classes=(point_class(),))


def static_program(n=200):
    """GETSTATIC/PUTSTATIC accumulate loop."""
    b = MethodBuilder("Fuse", "main")
    counting_loop(b, n, 0, lambda b: (
        b.getstatic("S.v").load(0).add().putstatic("S.v")))
    b.ret()
    return single_method_program(b, statics={"S.v": 5})


def mixed_program(n=300):
    """Branches, DIV/REM, DUP/SWAP/NEG shuffles: worst-case shapes."""
    b = MethodBuilder("Fuse", "main")
    b.iconst(1).store(1)

    def body(b):
        odd = b.new_label()
        done = b.new_label()
        b.load(0).iconst(1).band().if_ne(odd)
        (b.load(1).load(0).iconst(7).mul().add()
          .iconst(997).rem().iconst(1).add().store(1))
        b.goto(done)
        b.place(odd)
        (b.load(0).iconst(3).div()
          .load(1).swap().bxor()
          .dup().pop().neg().neg()
          .load(1).add().store(1))
        b.place(done)

    counting_loop(b, n, 0, body)
    b.ret()
    return single_method_program(b)


def opcode_program(n=40):
    """The fusable ops the other programs leave out: FCONST, I2F/F2I,
    SHL/SHR/OR, NOP, ACONST_NULL with IF_NULL/IF_NONNULL, and every
    zero and compare branch, each taken on some iterations and not on
    others."""
    b = MethodBuilder("Fuse", "main")
    b.iconst(1).store(1)
    b.fconst(0.5).store(2)
    b.null().store(3)

    def body(b):
        (b.load(0).iconst(2).shl().iconst(1).shr()
          .load(1).bor().iconst(4095).band().store(1))
        (b.load(2).load(0).i2f().add().fconst(1.5).mul()
          .f2i().load(1).add().iconst(8191).band().store(1))
        b.nop()
        for branch in ("if_eq", "if_ne", "if_lt", "if_ge", "if_gt",
                       "if_le"):
            skip = b.new_label()
            b.load(0).iconst(n // 2).sub()
            getattr(b, branch)(skip)
            b.iinc(1, 3)
            b.place(skip)
        for branch in ("if_icmpeq", "if_icmpne", "if_icmplt", "if_icmpge",
                       "if_icmpgt", "if_icmple"):
            skip = b.new_label()
            b.load(0).iconst(n // 3)
            getattr(b, branch)(skip)
            b.iinc(1, 5)
            b.place(skip)
        for branch in ("if_null", "if_nonnull"):
            skip = b.new_label()
            b.load(3)
            getattr(b, branch)(skip)
            b.iinc(1, 7)
            b.place(skip)
        # Local 3 is null on the first iteration only.
        b.load(0).store(3)

    counting_loop(b, n, 0, body)
    b.load(1).putstatic("S.out")
    b.ret()
    return single_method_program(b, statics={"S.out": 0})


def sweep_program():
    """array_program over 64 KB: its sweeps miss L1, so profiled runs
    take samples and attribute them to the accesses' lines."""
    return array_program(passes=2, length=8192)


PROGRAMS = {
    "arith": arith_program,
    "array": array_program,
    "field": field_program,
    "static": static_program,
    "mixed": mixed_program,
    "opcodes": opcode_program,
}


def _run(factory, **cfg):
    machine = Machine(factory(), MachineConfig(**cfg))
    return machine, machine.run()


# ----------------------------------------------------------------------
# Block discovery
# ----------------------------------------------------------------------

class TestFusedBlocks:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_blocks_respect_leaders_and_fusability(self, name):
        code = PROGRAMS[name]().methods["main"].code
        leaders = block_leaders(code)
        blocks = fused_blocks(code)
        assert blocks, f"{name}: no fusable blocks found"
        for start, end in blocks:
            assert start in leaders
            assert end - start >= 2
            # A block never extends past the next leader: control can
            # only enter a superinstruction at its head.
            assert all(i not in leaders for i in range(start + 1, end))
            # Stretch enders and allocation sites are never fused.
            assert all(code[i].op not in _LEADER_AFTER
                       for i in range(start, end))
            # A branch may only terminate a block.
            assert all(code[i].op not in _FUSABLE_TAIL
                       for i in range(start, end - 1))

    def test_blocks_never_overlap(self):
        code = mixed_program().methods["main"].code
        covered = set()
        for start, end in fused_blocks(code):
            span = set(range(start, end))
            assert not span & covered
            covered |= span

    def test_single_instruction_runs_not_fused(self):
        # ret-only method: nothing to fuse.
        b = MethodBuilder("Tiny", "main")
        b.iconst(0).pop().ret()
        code = single_method_program(b).methods["main"].code
        # ICONST+POP fuse; the lone RET does not appear in any block.
        for start, end in fused_blocks(code):
            assert all(code[i].op not in _LEADER_AFTER
                       for i in range(start, end))


# ----------------------------------------------------------------------
# Table shape & warm-up
# ----------------------------------------------------------------------

class TestFusedTable:
    def test_warm_dispatch_precompiles_both_variants(self):
        machine = Machine(arith_program(), MachineConfig())
        machine.warm_dispatch()
        runtime = machine.method_table.runtime("main")
        assert runtime.fused_table is not None
        assert runtime.fused_table_observed is not None
        assert machine.fusion.blocks_fused > 0

    def test_entries_exactly_at_block_starts(self):
        machine = Machine(mixed_program(), MachineConfig())
        machine.warm_dispatch()
        runtime = machine.method_table.runtime("main")
        code = runtime.method.code
        starts = {s for s, _ in fused_blocks(code)}
        for table in (runtime.fused_table, runtime.fused_table_observed):
            assert len(table) == len(code)
            populated = {i for i, e in enumerate(table) if e is not None}
            assert populated == starts
            for start, end in fused_blocks(code):
                closure, k = table[start]
                assert callable(closure)
                assert k == end - start

    def test_counters_track_execution(self):
        machine, _ = _run(arith_program)
        assert machine.fusion.blocks_fused > 0
        assert machine.fusion.fused_executions > 0
        assert machine.fusion.guard_bailouts == 0


# ----------------------------------------------------------------------
# Production engine vs legacy oracle
# ----------------------------------------------------------------------

class TestEquivalence:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_engines_agree(self, name):
        factory = PROGRAMS[name]
        _, fused = _run(factory)
        _, legacy = _run(factory, fastpath=False)
        assert fused == legacy, f"{name}: fused vs legacy diverged"

    @pytest.mark.parametrize("quantum", [1, 2, 3, 5, 500])
    def test_quantum_sweep(self, quantum):
        # Tiny quanta make stretch budgets expire mid-block-chain;
        # fused block entry must honour the remaining budget exactly
        # like one-step execution does.  At quantum 1 no block fits,
        # so every instruction runs as its size-1 per-handler entry.
        for name, factory in sorted(PROGRAMS.items()):
            _, fused = _run(factory, quantum=quantum)
            _, legacy = _run(factory, fastpath=False, quantum=quantum)
            assert fused == legacy, f"{name} at quantum {quantum}"

    def test_opcode_program_covers_the_missing_ops(self):
        ops = {ins.op for ins in opcode_program().methods["main"].code}
        assert {Op.FCONST, Op.ACONST_NULL, Op.I2F, Op.F2I, Op.SHL,
                Op.SHR, Op.OR, Op.NOP} <= ops
        assert BRANCH_OPS <= ops

    def test_memory_state_identical(self):
        m_fused, _ = _run(array_program)
        m_legacy, _ = _run(array_program, fastpath=False)
        assert vars(m_fused.hierarchy.stats) == \
            vars(m_legacy.hierarchy.stats)


# ----------------------------------------------------------------------
# Trap parity
# ----------------------------------------------------------------------

def div_trap_program():
    """Divide by zero mid-block, after a fused prefix."""
    b = MethodBuilder("Trap", "main")
    b.iconst(6).iconst(7).mul().iconst(1).iconst(1).sub().div().store(1)
    b.ret()
    return single_method_program(b)


def loop_trap_program():
    """Faults at iteration 5 of a warm fused loop: 100 / (5 - i)."""
    b = MethodBuilder("Trap", "main")
    counting_loop(b, 10, 0, lambda b: (
        b.iconst(100).iconst(5).load(0).sub().div().store(1)))
    b.ret()
    return single_method_program(b)


def npe_trap_program():
    """Null deref inside a fused block."""
    b = MethodBuilder("Trap", "main")
    b.iconst(3).store(1)
    b.null().getfield("x").store(2)
    b.ret()
    return single_method_program(b, classes=(point_class(),))


TRAPS = {
    "div": div_trap_program,
    "loop-div": loop_trap_program,
    "npe": npe_trap_program,
}


#: The default quantum faults inside fused blocks; quantum 1 faults in
#: the size-1 per-handler entries.
TRAP_QUANTA = ({}, {"quantum": 1})


class TestTrapParity:
    @pytest.mark.parametrize("name", sorted(TRAPS))
    def test_identical_trap_messages(self, name):
        factory = TRAPS[name]
        for quantum in TRAP_QUANTA:
            messages = {}
            for label, kw in (("fused", {}), ("legacy", {"fastpath": False})):
                machine = Machine(factory(), MachineConfig(**kw, **quantum))
                with pytest.raises(TrapError) as excinfo:
                    machine.run()
                messages[label] = str(excinfo.value)
            assert messages["fused"] == messages["legacy"], quantum

    def test_partial_progress_accounting_matches(self):
        # The accesses and cycles charged before the faulting bci must
        # match one-step execution exactly (fault protocol), down to
        # the faulting thread's cycle and instruction counters.
        for quantum in TRAP_QUANTA:
            stats = {}
            for label, kw in (("fused", {}), ("legacy", {"fastpath": False})):
                machine = Machine(loop_trap_program(),
                                  MachineConfig(**kw, **quantum))
                with pytest.raises(TrapError):
                    machine.run()
                thread = machine.threads[0]
                stats[label] = (vars(machine.hierarchy.stats),
                                thread.cycles, thread.instructions,
                                thread.frames[-1].pc)
            assert stats["fused"] == stats["legacy"], quantum


# ----------------------------------------------------------------------
# Guard bailouts
# ----------------------------------------------------------------------

def _profiled_result(factory, **cfg):
    profiler = DJXPerf(DjxConfig(sample_period=16, size_threshold=0))
    program = profiler.instrument(factory())
    machine = Machine(program, MachineConfig(**cfg))
    profiler.attach(machine)
    return machine, machine.run(), profiler


class TestGuardBailout:
    def test_disabled_skip_ahead_forces_bailouts(self):
        # With an armed sampler and skip_ahead off, the bulk-budget
        # guard can never pass: every observed fused-block entry must
        # bail to the per-handler chain — and the run must still be
        # indistinguishable from the legacy engine.
        m_bail, r_bail, p_bail = _profiled_result(sweep_program,
                                                  skip_ahead=False)
        assert m_bail.fusion.guard_bailouts > 0
        _, r_legacy, p_legacy = _profiled_result(
            sweep_program, skip_ahead=False, fastpath=False)
        assert r_bail == r_legacy
        # The chain's entries expose each access's bci to the samples.
        assert p_bail.analyze().to_dict() == p_legacy.analyze().to_dict()

    def test_skip_ahead_run_matches_bailout_run(self):
        _, r_fast, _ = _profiled_result(array_program, skip_ahead=True)
        _, r_bail, _ = _profiled_result(array_program, skip_ahead=False)
        assert r_fast == r_bail

    def test_profiled_size_one_entries_match_legacy(self):
        # Quantum 1 runs every instruction as its exact-observation
        # entry, with skip-ahead counting on and samples firing.
        runs = {}
        for label, kw in (("fused", {}), ("legacy", {"fastpath": False})):
            _, result, profiler = _profiled_result(
                sweep_program, quantum=1, skip_ahead=True, **kw)
            runs[label] = (result, profiler.analyze().to_dict())
        assert runs["fused"][1]["total_samples"]
        assert runs["fused"] == runs["legacy"]


# ----------------------------------------------------------------------
# Warm codegen cache (process-wide reuse of fused artifacts)
# ----------------------------------------------------------------------

class TestWarmCodegenCache:
    def setup_method(self):
        from repro.jvm.dispatch import reset_warm_cache

        reset_warm_cache()

    def test_second_machine_reuses_compiled_artifacts(self):
        from repro.jvm.dispatch import warm_cache_stats

        first = Machine(arith_program())
        first.warm_dispatch()
        after_first = warm_cache_stats()
        assert after_first["misses"] > 0
        cold_misses = after_first["misses"]

        second = Machine(arith_program())
        second.warm_dispatch()
        after_second = warm_cache_stats()
        # Same bytecode: every artifact comes from the cache.
        assert after_second["misses"] == cold_misses
        assert after_second["hits"] >= cold_misses

    def test_warm_machine_results_identical_to_cold(self):
        cold = Machine(arith_program())
        cold.warm_dispatch()
        cold_result = cold.run()
        warm = Machine(arith_program())
        warm.warm_dispatch()
        warm_result = warm.run()
        assert warm_result == cold_result
        assert warm.fusion.blocks_fused == cold.fusion.blocks_fused

    def test_different_programs_do_not_collide(self):
        from repro.jvm.dispatch import warm_cache_stats

        Machine(arith_program()).warm_dispatch()
        misses_one = warm_cache_stats()["misses"]
        # Same class/method name, different bytecode: distinct keys.
        Machine(mixed_program()).warm_dispatch()
        assert warm_cache_stats()["misses"] > misses_one

    def test_sub_word_cache_line_rejected(self):
        """Fused bodies treat every 8-aligned 8-byte access as
        single-line, so a cache line narrower than one heap word is
        rejected when the machine is built, not compiled around."""
        from repro.memsys.hierarchy import HierarchyConfig

        with pytest.raises(ValueError, match="at least 8 bytes"):
            Machine(array_program(),
                    MachineConfig(hierarchy=HierarchyConfig(line_size=4)))
        Machine(array_program(),
                MachineConfig(hierarchy=HierarchyConfig(line_size=8))).run()

    def test_lru_capacity_bounds_entries(self):
        from repro.jvm.dispatch import FusedCodegenCache

        cache = FusedCodegenCache(capacity=1)
        m_arith = arith_program().methods["main"]
        m_mixed = mixed_program().methods["main"]
        cache.get(m_arith, True)
        cache.get(m_mixed, True)   # evicts arith
        cache.get(m_arith, True)   # recompiles
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["misses"] == 3
        assert stats["hits"] == 0

    def test_lru_touch_keeps_hot_entries(self):
        from repro.jvm.dispatch import FusedCodegenCache

        cache = FusedCodegenCache(capacity=2)
        m_arith = arith_program().methods["main"]
        m_mixed = mixed_program().methods["main"]
        m_field = field_program().methods["main"]
        cache.get(m_arith, True)
        cache.get(m_mixed, True)
        cache.get(m_arith, True)   # touch: arith is now hot
        cache.get(m_field, True)   # evicts mixed, not arith
        assert cache.stats() == {"hits": 1, "misses": 3, "entries": 2}
        cache.get(m_arith, True)
        assert cache.stats()["hits"] == 2

    def test_reset_clears_entries_and_counters(self):
        from repro.jvm.dispatch import (
            reset_warm_cache,
            warm_cache_stats,
        )

        Machine(arith_program()).warm_dispatch()
        assert warm_cache_stats()["entries"] > 0
        reset_warm_cache()
        assert warm_cache_stats() == {"hits": 0, "misses": 0,
                                      "entries": 0}

    def test_equal_but_distinct_constants_do_not_share_artifacts(self):
        """0.0 == -0.0, but a fused block binds the constant by name:
        an artifact compiled for one must not serve the other."""
        import math

        def stored(c, **cfg):
            b = MethodBuilder("Fuse", "main")
            b.fconst(c).fconst(c).add().putstatic("out")
            b.ret()
            machine = Machine(single_method_program(b, statics={"out": 1.0}),
                              MachineConfig(**cfg))
            machine.run()
            return machine.get_static("out")

        for c in (0.0, -0.0):
            fused = stored(c)
            legacy = stored(c, fastpath=False)
            assert math.copysign(1.0, fused) == math.copysign(1.0, legacy)
            assert math.copysign(1.0, fused) == math.copysign(1.0, c)

    def test_rebuilt_nan_constant_hits_the_cache(self):
        from repro.jvm.dispatch import FusedCodegenCache

        def method():
            b = MethodBuilder("Fuse", "main")
            b.fconst(float("nan")).fconst(1.0).add().putstatic("out")
            b.ret()
            return single_method_program(b).methods["main"]

        cache = FusedCodegenCache()
        cache.get(method(), True)
        cache.get(method(), True)
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}


# ----------------------------------------------------------------------
# Codegen memory: one code object per block, not one large module
# ----------------------------------------------------------------------

def test_large_method_codegen_peak_memory_is_bounded():
    """compile()'s transient memory grows with the module it compiles;
    compiling each fused block on its own keeps mnemonics.run (1063
    instructions, 153 blocks) far below the ~19 MB a single module
    needs."""
    import tracemalloc

    from repro.jvm.dispatch import FusedCodegenCache
    from repro.workloads import get_workload

    program = get_workload("mnemonics").build_verified("baseline")
    method = program.methods["run"]
    assert len(method.code) == 1063
    cache = FusedCodegenCache(capacity=1)
    tracemalloc.start()
    try:
        art = cache.get(method, observed=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 1024 * 1024, f"codegen peaked at {peak} bytes"
    assert len(art.code) == len(fused_blocks(method.code))
