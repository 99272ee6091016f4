"""Sanitizer true positives: inject corruptions, expect precise reports.

Each test corrupts one structure the way a real bug would and asserts
the matching sanitizer fires *and names the offending object/context* —
a sanitizer that only says "something is wrong" is not worth running.
"""

import pytest

from repro.core import DJXPerf, DjxConfig
from repro.core.cct import CallingContextTree
from repro.core.splay import IntervalSplayTree, _Node
from repro.fuzz.generator import build_program, generate_spec
from repro.fuzz.oracles import machine_config
from repro.fuzz.sanitizers import (
    MachineStateSanitizer,
    SanitizerError,
    check_cct,
    check_relocation_map_drained,
    check_splay,
)
from repro.fuzz.shrinker import shrink_spec
from repro.jvm.machine import Machine


class TestSplayInjection:
    def test_overlapping_intervals_reported(self):
        tree = IntervalSplayTree()
        tree.insert(0x100, 0x140, "a")
        # insert() evicts overlaps, so graft the corrupt node directly —
        # the state a buggy rotation or missed eviction would leave.
        tree._root.right = _Node(0x120, 0x160, "b")
        tree._size = 2
        violations = check_splay(tree)
        overlap = [v for v in violations if "overlap" in v.message]
        assert overlap, violations
        assert overlap[0].context == ("a", "b")

    def test_stale_hot_cache_reported(self):
        tree = IntervalSplayTree()
        tree.insert(0x100, 0x140, "a")
        tree._hot = _Node(0x200, 0x240, "ghost")  # points outside the tree
        violations = check_splay(tree)
        assert any("cache" in v.message and v.context == ("ghost",)
                   for v in violations), violations

    def test_clean_tree_passes(self):
        tree = IntervalSplayTree()
        tree.insert(0x100, 0x140, "a")
        tree.insert(0x140, 0x180, "b")
        assert check_splay(tree) == []


class TestRelocationInjection:
    def test_stale_entry_reported_by_pure_check(self):
        class FakeAgent:
            _relocation_map = {0x1000: (0x2000, 32)}

        violations = check_relocation_map_drained(FakeAgent())
        assert len(violations) == 1
        assert "stale" in violations[0].message
        assert (0x1000, (0x2000, 32)) in violations[0].context

    def test_stale_entry_fires_live_at_quantum_boundary(self):
        # A relocation-map entry with no GC to drain it must trip the
        # sanitizer at the first batch flush of a real run.
        spec = generate_spec(1)
        profiler = DJXPerf(DjxConfig(sample_period=64, size_threshold=0))
        program = profiler.instrument(build_program(spec))
        machine = Machine(program, machine_config(spec))
        profiler.attach(machine)
        profiler._relocation_map[0x1234] = (0x5678, 64)
        sanitizer = MachineStateSanitizer(profiler).attach(machine)
        with pytest.raises(SanitizerError) as exc:
            machine.run()
        assert "stale relocation-map" in str(exc.value)
        assert any(v.sanitizer == "relocation"
                   and (0x1234, (0x5678, 64)) in v.context
                   for v in exc.value.violations)


class TestCctInjection:
    def test_orphan_node_reported(self):
        tree = CallingContextTree()
        tree.record(("main", "a", "b"), "samples")
        tree.record(("main", "a", "c"), "samples")
        orphan = tree.root.children["main"].children["a"].children["b"]
        orphan.parent = tree.root  # detached from its real parent
        violations = check_cct(tree)
        assert any("orphan" in v.message and v.context == ("b",)
                   for v in violations), violations

    def test_clean_tree_passes(self):
        tree = CallingContextTree()
        tree.record(("main", "a", "b"), "samples")
        tree.record(("main", "a", "c"), "samples")
        assert check_cct(tree) == []


class TestShrinker:
    def test_shrinks_below_30_instructions(self):
        # Property-style predicate ("the spec still allocates a linked
        # list") stands in for a real failure; the shrinker must strip
        # everything else and land on a tiny reproducer.
        def has_list_build(spec):
            return any(b[0] == "list_build"
                       for m in spec.methods for b in m.blocks)

        spec = next(s for s in (generate_spec(seed) for seed in range(100))
                    if has_list_build(s))
        assert build_program(spec).total_instructions() >= 30
        shrunk = shrink_spec(spec, has_list_build)
        assert has_list_build(shrunk)
        assert build_program(shrunk).total_instructions() < 30
