"""System-level property tests: verifier⇔interpreter agreement, GC
consistency, and profiler/heap invariants under random workloads."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DJXPerf, DjxConfig
from repro.heap import FieldSpec, Heap, JClass, Kind, MarkCompactCollector
from repro.jvm import (
    JProgram,
    Machine,
    MachineConfig,
    MethodBuilder,
    verify_program,
)


# ----------------------------------------------------------------------
# Random straight-line arithmetic: verifier accepts ⇒ interpreter runs,
# and the result matches a Python oracle.
# ----------------------------------------------------------------------
arith_ops = st.sampled_from(["add", "sub", "mul", "or", "and", "xor"])


@st.composite
def arith_programs(draw):
    """A random expression tree flattened to stack code + its oracle."""
    values = draw(st.lists(st.integers(-1000, 1000), min_size=1,
                           max_size=8))
    ops = draw(st.lists(arith_ops, min_size=len(values) - 1,
                        max_size=len(values) - 1))
    return values, ops


def oracle(values, ops):
    stack = []
    for v in values:
        stack.append(v)
    # Apply ops exactly as the stack machine will: fold left-to-right
    # over the final stack.
    result = stack[0]
    for v, op in zip(stack[1:], ops):
        if op == "add":
            result = result + v
        elif op == "sub":
            result = result - v
        elif op == "mul":
            result = result * v
        elif op == "or":
            result = result | v
        elif op == "and":
            result = result & v
        else:
            result = result ^ v
    return result


class TestArithmeticAgainstOracle:
    @given(arith_programs())
    @settings(max_examples=60, deadline=None)
    def test_random_expressions(self, case):
        values, ops = case
        b = MethodBuilder("Rand", "m")
        b.iconst(values[0])
        for v, op in zip(values[1:], ops):
            b.iconst(v)
            getattr(b, {"or": "bor", "and": "band",
                        "xor": "bxor"}.get(op, op))()
        b.native("print", 1, False).ret()
        p = JProgram()
        p.add_builder(b)
        p.add_entry("m")
        verify_program(p)
        result = Machine(p).run()
        assert result.output == [str(oracle(values, ops))]


# ----------------------------------------------------------------------
# GC consistency under random allocate/retain/drop sequences
# ----------------------------------------------------------------------
gc_scripts = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 64)),
        st.tuples(st.just("retain")),
        st.tuples(st.just("drop"), st.integers(0, 30)),
        st.tuples(st.just("gc")),
    ),
    min_size=1, max_size=60)


class TestGcConsistency:
    @given(gc_scripts)
    @settings(max_examples=60, deadline=None)
    def test_random_mutation_sequences(self, script):
        heap = Heap(size=512 * 1024)
        roots = []
        collector = MarkCompactCollector(heap, lambda: [r.oid for r in roots])
        last = None
        payload = {}
        for step in script:
            if step[0] == "alloc":
                last = heap.allocate_array(Kind.INT, step[1])
                payload[last.oid] = step[1] * 7
                heap.get(last).set_element(0, step[1] * 7)
            elif step[0] == "retain" and last is not None \
                    and last.oid in heap.objects:
                roots.append(last)
            elif step[0] == "drop" and roots:
                removed = roots.pop(step[1] % len(roots))
            elif step[0] == "gc":
                collector.collect()
        collector.collect()
        # Every root survives with its payload intact; object count
        # equals the unique retained set.
        for ref in roots:
            obj = heap.get(ref)
            assert obj.get_element(0) == payload[ref.oid]
        assert len(heap) == len({r.oid for r in roots})
        # Compaction invariant: objects tile from the heap base.
        expected_addr = heap.base
        for obj in heap.live_objects_in_address_order():
            assert obj.addr == expected_addr
            expected_addr += obj.size

    @given(gc_scripts)
    @settings(max_examples=30, deadline=None)
    def test_memmove_stream_is_replayable(self, script):
        """Applying the memmove events to a shadow map reproduces the
        final heap layout — the property DJXPerf's 4.5 handling needs."""
        heap = Heap(size=512 * 1024)
        roots = []
        collector = MarkCompactCollector(heap, lambda: [r.oid for r in roots])
        shadow = {}   # oid -> addr, maintained purely from events

        def on_alloc(obj, tid):
            shadow[obj.oid] = obj.addr

        def on_move(event):
            # The real tool keys by address; oid is used here only to
            # check the final state.
            shadow[event.oid] = event.dst

        def on_finalize(event):
            shadow.pop(event.oid, None)

        heap.alloc_hooks.append(on_alloc)
        collector.on_memmove.append(on_move)
        collector.on_finalize.append(on_finalize)

        last = None
        for step in script:
            if step[0] == "alloc":
                last = heap.allocate_array(Kind.INT, step[1])
            elif step[0] == "retain" and last is not None:
                roots.append(last)
            elif step[0] == "drop" and roots:
                roots.pop(step[1] % len(roots))
            elif step[0] == "gc":
                collector.collect()
        collector.collect()
        assert shadow == {obj.oid: obj.addr
                          for obj in heap.objects.values()}


# ----------------------------------------------------------------------
# Profiler invariant: the splay tree always mirrors the live tracked set
# ----------------------------------------------------------------------
class TestProfilerHeapInvariant:
    @given(st.integers(2, 40), st.integers(64, 1024))
    @settings(max_examples=20, deadline=None)
    def test_splay_matches_heap_after_run(self, iterations, length):
        from repro.workloads.dsl import for_range

        p = JProgram()
        b = MethodBuilder("P", "main")
        for_range(b, 0, iterations,
                  lambda b: b.iconst(length).newarray(Kind.INT).store(1))
        b.ret()
        p.add_builder(b)
        p.add_entry("main")

        profiler = DJXPerf(DjxConfig(sample_period=64, size_threshold=0))
        machine = Machine(profiler.instrument(p),
                          MachineConfig(heap_size=128 * 1024))
        profiler.attach(machine)
        machine.run()

        # Every interval in the splay tree corresponds to a live object
        # at exactly that address range.
        for start, end, payload in profiler.splay:
            obj = machine.heap.object_at(start)
            assert obj is not None
            assert (obj.addr, obj.end) == (start, end)
        profiler.splay.check_invariants()
