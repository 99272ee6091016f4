"""Tests for the optimizer's transform catalog."""

import pytest

from repro.jvm import Machine, Op
from repro.optim import advise
from repro.optim.transforms import (
    FAMILY_TRANSFORMS,
    KIND_TRANSFORMS,
    TRANSFORMS,
    transforms_for,
)
from repro.workloads import get_workload
from repro.workloads.runner import profile_program


def advised(name, family="djxperf", threshold=0):
    """Build, profile, and advise one workload; returns (program, advices)."""
    from repro.core import DjxConfig

    workload = get_workload(name)
    program = workload.build_verified("baseline")
    run = profile_program(program, workload.machine_config(),
                          config=DjxConfig(size_threshold=threshold),
                          family=family)
    return program, advise(run.analysis)


class TestRegistry:
    def test_catalog_names(self):
        assert set(TRANSFORMS) == {"hoist", "presize", "reorder-fields",
                                   "swap-boxed-array",
                                   "eliminate-dead-stores"}

    def test_every_family_maps_to_registered_transforms(self):
        for family, names in FAMILY_TRANSFORMS.items():
            for name in names:
                assert name in TRANSFORMS, (family, name)

    def test_every_kind_entry_is_registered(self):
        for kind, names in KIND_TRANSFORMS.items():
            for name in names:
                assert name in TRANSFORMS, (kind, name)
                assert kind in TRANSFORMS[name].advice_kinds

    def test_box_swap_precedes_hoist_for_hoist_advice(self):
        from repro.optim import AdviceKind

        names = KIND_TRANSFORMS[AdviceKind.HOIST_ALLOCATION]
        assert names.index("swap-boxed-array") < names.index("hoist")


class TestTransformsFor:
    def test_family_defaults(self):
        assert "presize" in transforms_for("djxperf")
        assert transforms_for("redundancy") == ("eliminate-dead-stores",)

    def test_pin_valid_transform(self):
        assert transforms_for("djxperf", "presize") == ("presize",)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="no optimization transforms"):
            transforms_for("no-such-family")

    def test_unknown_transform_rejected(self):
        with pytest.raises(ValueError, match="unknown transform"):
            transforms_for("djxperf", "frobnicate")

    def test_mismatched_combination_rejected(self):
        with pytest.raises(ValueError,
                           match="not applicable to family 'redundancy'"):
            transforms_for("redundancy", "presize")


def apply_first(name, program, advices, *, capacity=None):
    transform = TRANSFORMS[name]
    kwargs = {"capacity": capacity} if capacity is not None else {}
    for advice in advices:
        if advice.kind not in transform.advice_kinds:
            continue
        result = transform.apply(program, advice, **kwargs)
        if result is not None:
            return result
    return None


class TestPresize:
    def test_rewrites_initial_capacity(self):
        program, advices = advised("unsized-growth")
        result = apply_first("presize", program, advices)
        assert result is not None
        assert "2048" in result.detail
        # The original program is untouched; the rewrite is a copy.
        before = Machine(program.clone()).run()
        after = Machine(result.program.clone()).run()
        assert after.output == before.output
        assert after.heap_allocations < before.heap_allocations

    def test_explicit_capacity_override(self):
        program, advices = advised("unsized-growth")
        result = apply_first("presize", program, advices, capacity=256)
        assert result is not None
        assert "256" in result.detail


class TestReorderFields:
    def test_packs_hot_fields(self):
        program, advices = advised("padded-layout")
        result = apply_first("reorder-fields", program, advices)
        assert result is not None
        before = Machine(program.clone()).run()
        after = Machine(result.program.clone()).run()
        assert after.output == before.output


class TestSwapBoxedArray:
    def test_unboxes_counter_array(self):
        program, advices = advised("boxed-counters")
        result = apply_first("swap-boxed-array", program, advices)
        assert result is not None
        before = Machine(program.clone()).run()
        after = Machine(result.program.clone()).run()
        assert after.output == before.output
        # The boxes are gone: one backing array allocation remains.
        assert after.heap_allocations < before.heap_allocations
        ops = {ins.op for m in result.program.methods.values()
               for ins in m.code}
        assert Op.ANEWARRAY not in ops

    def test_declines_when_box_escapes_shape(self):
        # unsized-growth has no boxed-array idiom at all.
        program, advices = advised("unsized-growth")
        assert apply_first("swap-boxed-array", program, advices) is None


class TestEliminateDeadStores:
    def test_elides_overwritten_fill(self):
        program, advices = advised("redundant-fill", family="redundancy")
        result = apply_first("eliminate-dead-stores", program, advices)
        assert result is not None
        assert "overwritten before any read" in result.detail
        before = Machine(program.clone()).run()
        after = Machine(result.program.clone()).run()
        assert after.output == before.output
        assert after.stores < before.stores

    def test_declines_on_workload_without_dead_fill(self):
        program, advices = advised("redundant-fill", family="redundancy")
        # Point the transform at a workload whose advised sites don't
        # carry the dead-fill idiom.
        other, _ = advised("unsized-growth")
        assert apply_first("eliminate-dead-stores", other, advices) is None


def double_fill_method(name, length, rounds, dead_value):
    """Silent JXPerf dead-store shape: per round, fill a fresh buffer
    with ``dead_value``, overwrite every element before any read, then
    sum it into the blackhole."""
    from repro.heap.layout import Kind
    from repro.jvm import MethodBuilder
    from repro.workloads.dsl import consume, for_range, sum_array

    buf, i, acc, r = 0, 1, 2, 3
    b = MethodBuilder("Graft", name, source_file="Graft.java",
                      first_line=1)

    def round_body(b):
        b.line(2).iconst(length).newarray(Kind.INT).store(buf)
        for_range(b, i, length,
                  lambda b: b.line(3).load(buf).load(i)
                  .iconst(dead_value).astore())
        for_range(b, i, length,
                  lambda b: b.line(4).load(buf).load(i).load(i).astore())
        sum_array(b, buf, length, i, acc)
        consume(b, acc)

    for_range(b, r, rounds, round_body)
    b.ret()
    return b


class TestDeadStoreFuzzGeneratorSweep:
    """Dead-store elimination, driven by the sampled redundancy
    profile, must be output-preserving on arbitrary generated programs
    (mirroring the hoist sweep in ``test_hoist.py``).  Each generated
    program gets a silent double-fill method grafted in as a side
    thread; the program is profiled with the redundancy family, and the
    transform applies the first dead-store advice it can.  The graft
    prints nothing, so output equality isolates the generated program's
    own behaviour under the rewrite."""

    def test_dead_store_elimination_is_output_preserving_over_seeds(self):
        from repro.core import DjxConfig
        from repro.fuzz.generator import (
            FuzzKnobs,
            build_program,
            generate_spec,
        )
        from repro.jvm import MachineConfig

        knobs = FuzzKnobs(allow_multithread=False)
        eliminations = 0
        for seed in range(8):
            program = build_program(generate_spec(seed, knobs))
            program.add_builder(double_fill_method(
                "refill", length=256 + 128 * (seed % 3),
                rounds=4 + seed % 3, dead_value=seed))
            program.add_entry("refill")
            baseline = Machine(program.clone()).run()
            run = profile_program(program.clone(), MachineConfig(),
                                  config=DjxConfig(size_threshold=0),
                                  family="redundancy")
            result = apply_first("eliminate-dead-stores", program,
                                 advise(run.analysis))
            if result is None:
                continue
            eliminations += 1
            after = Machine(result.program).run()
            assert after.output == baseline.output, f"seed {seed}"
            assert after.stores < baseline.stores, f"seed {seed}"
        # The sweep must actually exercise the transform.
        assert eliminations >= 8
