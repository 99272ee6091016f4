"""Ablations on DJXPerf's design choices.

Not a paper table, but the design decisions the paper argues for in
prose; each ablation quantifies one of them on this implementation:

* **splay tree vs linear lookup** (§4.2): PMU-sample address lookup is
  the hot operation; the self-adjusting tree beats a linear scan of the
  object table by orders of magnitude at realistic object counts.  At
  threshold 0 every allocation is also an insert, so insert churn with
  address reuse is timed too.
* **sampling period** (§5.3): cheaper sampling costs accuracy — the top
  object's measured share stays stable across periods while overhead
  falls.
* **mechanical hoisting** (repro extension): the bytecode hoisting pass
  matches the hand-applied singleton fix.
* **GC handling on/off** (§4.5): disabling the memmove/finalize
  machinery mis-attributes samples once the collector moves objects.
* **allocation zeroing walk** (repro implementation): the per-line cost
  of ``touch_range`` zeroing fresh memory on the default geometry, the
  bulk walk that dominates access-bound profiling runs.
* **legacy-engine dispatch** (repro implementation): the per-instruction
  cost of the semantic oracle (``fastpath=False``) on an arithmetic
  kernel with no memory accesses, where decode and dispatch are all the
  work there is.
"""

import dataclasses

import pytest

from repro.core import DJXPerf, DjxConfig
from repro.core.splay import IntervalSplayTree
from repro.jvm import Machine
from repro.memsys import HierarchyConfig, MemoryHierarchy, NumaTopology
from repro.obs.events import GcFinalizeEvent, GcMoveEvent
from repro.optim import hoist_program
from repro.workloads import get_workload, run_native, run_profiled

from benchmarks.conftest import format_table


# ----------------------------------------------------------------------
# Splay tree vs linear scan
# ----------------------------------------------------------------------
NUM_OBJECTS = 2000
LOOKUPS = 4000


def _build_intervals():
    tree = IntervalSplayTree()
    linear = []
    for i in range(NUM_OBJECTS):
        start = i * 128
        tree.insert(start, start + 96, i)
        linear.append((start, start + 96, i))
    # A hot-object access pattern: 90% of lookups hit one object.
    hot = (NUM_OBJECTS // 2) * 128 + 48
    addresses = [hot if k % 10 else (k * 37 % NUM_OBJECTS) * 128 + 5
                 for k in range(LOOKUPS)]
    return tree, linear, addresses


def test_ablation_splay_lookup(benchmark):
    tree, _linear, addresses = _build_intervals()

    def splay_lookups():
        return sum(1 for a in addresses if tree.lookup(a) is not None)

    hits = benchmark(splay_lookups)
    assert hits == LOOKUPS


def test_ablation_linear_lookup(benchmark):
    _tree, linear, addresses = _build_intervals()

    def linear_lookups():
        hits = 0
        for a in addresses:
            for start, end, _payload in linear:
                if start <= a < end:
                    hits += 1
                    break
        return hits

    hits = benchmark(linear_lookups)
    assert hits == LOOKUPS


CHURN_INSERTS = 4000


def test_ablation_splay_insert_churn(benchmark):
    """Threshold-0 allocation churn: every allocation is an insert, and
    an object over a reused address range evicts the dead ones there."""

    def churn():
        tree = IntervalSplayTree()
        for i in range(NUM_OBJECTS):
            tree.insert(i * 128, i * 128 + 96, i)
        for k in range(CHURN_INSERTS):
            start = (k * 37 % NUM_OBJECTS) * 128 + (k % 3) * 48
            tree.insert(start, start + 96, NUM_OBJECTS + k)
        return tree

    tree = benchmark(churn)
    tree.check_invariants()
    assert tree.stats.inserts == NUM_OBJECTS + CHURN_INSERTS
    assert tree.stats.evictions > CHURN_INSERTS // 2
    assert len(tree) == tree.stats.inserts - tree.stats.evictions


# ----------------------------------------------------------------------
# Allocation zeroing: touch_range over fresh memory
# ----------------------------------------------------------------------
ZERO_BYTES = 64 * 1024
ZERO_RANGES = 4


def test_ablation_touch_range_zeroing(benchmark):
    """Zero fresh 64 KiB ranges, as TLAB zeroing does for a new large
    array: every line misses all three levels and fills each of them."""

    def fresh_hierarchy():
        return MemoryHierarchy(NumaTopology(2, 2), HierarchyConfig())

    def zero(h):
        for k in range(ZERO_RANGES):
            start = 0x100000 + k * ZERO_BYTES
            h.touch_range(0, start, start + ZERO_BYTES, True)
        return h

    benchmark.pedantic(zero, setup=lambda: ((fresh_hierarchy(),), {}),
                       rounds=20)
    lines = ZERO_RANGES * ZERO_BYTES // 64
    if benchmark.stats is not None:     # None under --benchmark-disable
        ns_per_line = benchmark.stats.stats.median / lines * 1e9
        print(f"\ntouch_range zeroing: {ns_per_line:.0f} ns/line (median)")
    h = zero(fresh_hierarchy())
    assert h.l3[0].stats.misses == lines
    assert h.l1[0].stats.evictions == lines - 512


# ----------------------------------------------------------------------
# Legacy-engine dispatch: the oracle's cost per instruction
# ----------------------------------------------------------------------

def test_ablation_legacy_dispatch(benchmark):
    """kernel-arith (1.56 M instructions, no memory accesses) on the
    legacy engine: every instruction is one decoded-handler call, and
    the result must equal the production engine's."""
    workload = get_workload("kernel-arith")
    config = workload.machine_config()
    legacy_config = dataclasses.replace(config, fastpath=False)

    result = benchmark.pedantic(
        run_native, args=(workload,),
        kwargs={"machine_config": legacy_config}, rounds=3)
    if benchmark.stats is not None:     # None under --benchmark-disable
        ns_per_instr = (benchmark.stats.stats.median
                        / result.total_instructions * 1e9)
        print(f"\nlegacy dispatch: {ns_per_instr:.0f} ns/instruction "
              f"(median)")
    assert result.total_instructions == 1_560_010
    assert result.loads == result.stores == 0
    assert result == run_native(workload, machine_config=config)


# ----------------------------------------------------------------------
# Sampling-period sensitivity (5.3)
# ----------------------------------------------------------------------
PERIODS = (16, 64, 256)


def test_ablation_sampling_period(benchmark, archive):
    def sweep():
        rows = []
        workload = get_workload("objectlayout")
        native = run_native(workload).wall_cycles
        for period in PERIODS:
            run = run_profiled(workload,
                               config=DjxConfig(sample_period=period))
            top = run.analysis.top_sites(1)[0]
            rows.append((period,
                         run.analysis.total(),
                         run.analysis.share(top),
                         run.result.wall_cycles / native))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    archive("ablation_sampling_period", format_table(
        "Ablation: sampling period vs accuracy and overhead",
        ["period", "samples", "top-object share", "runtime overhead"],
        [(p, n, f"{s:.1%}", f"{o:.3f}x") for p, n, s, o in rows]))

    shares = [s for _, _, s, _ in rows]
    overheads = [o for _, _, _, o in rows]
    # The ranking signal is stable across a 16x period range...
    assert max(shares) - min(shares) < 0.15
    # ...while sparser sampling is strictly cheaper.
    assert overheads[0] > overheads[-1]


# ----------------------------------------------------------------------
# Mechanical hoisting pass ≈ hand-applied singleton fix
# ----------------------------------------------------------------------
def test_ablation_hoist_pass_matches_manual(benchmark, archive):
    def compare():
        workload = get_workload("cache2k")
        baseline_cycles = run_native(workload, "baseline").wall_cycles
        manual_cycles = run_native(workload, "hoisted").wall_cycles
        program, hoisted_count = hoist_program(
            workload.build_verified("baseline"))
        machine = Machine(program, workload.machine_config())
        pass_cycles = machine.run().wall_cycles
        return baseline_cycles, manual_cycles, pass_cycles, hoisted_count

    baseline, manual, via_pass, count = benchmark.pedantic(
        compare, rounds=1, iterations=1)
    archive("ablation_hoist_pass", format_table(
        "Ablation: hoisting pass vs hand-applied singleton",
        ["variant", "cycles", "speedup vs baseline"],
        [("baseline", baseline, "1.00x"),
         ("hand-hoisted", manual, f"{baseline / manual:.2f}x"),
         ("hoisting pass", via_pass, f"{baseline / via_pass:.2f}x")]))

    assert count >= 1
    # The pass recovers (at least) the manual fix's benefit.
    assert via_pass < baseline
    assert abs(via_pass - manual) / manual < 0.10


# ----------------------------------------------------------------------
# GC handling on/off (4.5)
# ----------------------------------------------------------------------
def test_ablation_gc_handling(benchmark, archive):
    def compare():
        workload = get_workload("objectlayout")

        def run_with(gc_handling: bool):
            profiler = DJXPerf(DjxConfig(sample_period=32))
            program = profiler.instrument(workload.build_verified())
            machine = Machine(program, workload.machine_config())
            profiler.attach(machine)
            if not gc_handling:
                # Sever the 4.5 machinery: drop GC move/finalize events
                # from the agent's dispatch table, so the bus still
                # delivers them but the agent never updates its
                # relocation map or removes finalized intervals.
                profiler._dispatch[GcMoveEvent] = lambda event: None
                profiler._dispatch[GcFinalizeEvent] = \
                    lambda event: None
            result = machine.run()
            analysis = profiler.analyze()
            return result.gc_collections, analysis.coverage()

        gcs, with_handling = run_with(True)
        _, without_handling = run_with(False)
        return gcs, with_handling, without_handling

    gcs, with_handling, without = benchmark.pedantic(
        compare, rounds=1, iterations=1)
    archive("ablation_gc_handling", format_table(
        "Ablation: GC handling (4.5) on vs off",
        ["configuration", "GC runs", "attributed samples"],
        [("memmove+finalize handled", gcs, f"{with_handling:.1%}"),
         ("GC ignored", gcs, f"{without:.1%}")]))

    assert gcs > 0, "workload must exercise the collector"
    assert with_handling > 0.95
    # Ignoring GC degrades (or at best matches) attribution quality.
    assert without <= with_handling
