"""Extension: head-to-head of the four profiler families (§2 framing).

The paper's related-work argument in one experiment.  On the same
workload (ObjectLayout) with the same planted problem:

* **DJXPerf** (PMU-sampled, object-centric) — finds the object, ~10%
  overhead;
* **code-centric** (perf/VTune analogue) — sees the misses but cannot
  name the object; its top entries are access locations;
* **allocation-frequency** (prior bloat detectors) — names allocation
  sites but ranks by a misleading metric and pays instrumentation cost
  on every allocation;
* **reuse-distance** (ViRDA-style trace analysis) — finds the object
  with an architecture-independent metric, at trace-everything cost
  (the 30-200x family).

Since the observation event bus, all four families subscribe to ONE
simulated run: the machine executes once and each collector accounts
its own hypothetical cycles (``charged_cycles``), from which the
per-family overheads are decomposed.  The old harness re-simulated the
workload once per profiler; the test asserts the shared arm simulates
fewer instructions (a deterministic count: the native run plus one
profiled run, against four profiled runs) as well as equivalent
verdicts.  Both arms' wall-clock times are recorded, not asserted.
"""

import time

import pytest

from repro.baselines import (
    AllocFrequencyProfiler,
    CodeCentricProfiler,
    ReuseDistanceProfiler,
)
from repro.core import DJXPerf, DjxConfig
from repro.core.javaagent import instrument_program
from repro.jvm import Machine
from repro.workloads import get_workload, run_native

from benchmarks.conftest import format_table

WORKLOAD = "objectlayout"
CULPRIT = "Objectlayout.run:292"
PERIOD = 48


def fresh_machine(instrumented=True):
    workload = get_workload(WORKLOAD)
    program = workload.build_verified()
    if instrumented:
        program = instrument_program(program)
    return Machine(program, workload.machine_config())


def make_profilers():
    return (DJXPerf(DjxConfig(sample_period=PERIOD)),
            CodeCentricProfiler(sample_period=PERIOD),
            AllocFrequencyProfiler(),
            ReuseDistanceProfiler(modelled_cache_lines=128))


def run_families_shared():
    """ONE simulation feeds all four profiler families via the bus.

    Returns the table rows and the instructions simulated: the native
    run's plus the shared run's.
    """
    native_result = run_native(get_workload(WORKLOAD))
    native = native_result.wall_cycles
    djx, perf, freq, reuse = make_profilers()

    machine = fresh_machine()
    djx.attach(machine)
    perf.attach(machine)
    freq.attach(machine)
    reuse.attach(machine)
    shared = machine.run()
    shared_wall = shared.wall_cycles

    charges = {
        "djx": djx.charged_cycles,
        "perf": perf.charged_cycles,
        "freq": freq.charged_cycles,
        "reuse": reuse.charged_cycles,
    }
    # The run minus every collector's charges is the bare instrumented
    # execution; each family's solo cost is that base plus its own
    # charges (code-centric needs no bytecode instrumentation, so its
    # solo baseline is the uninstrumented native run).
    base_instr = shared_wall - sum(charges.values())
    overheads = {
        "djx": (base_instr + charges["djx"]) / native,
        "perf": (native + charges["perf"]) / native,
        "freq": (base_instr + charges["freq"]) / native,
        "reuse": (base_instr + charges["reuse"]) / native,
    }

    resolver = djx.frame_resolver()
    rows = [
        ("DJXPerf (object-centric, PMU)",
         djx.analyze().top_sites(1)[0].location, overheads["djx"]),
        ("code-centric (perf-style, PMU)",
         perf.analyze(resolver).top_locations(1)[0].location.location,
         overheads["perf"]),
        ("allocation-frequency (instrumented)",
         freq.analyze(resolver).top_sites(1)[0].location,
         overheads["freq"]),
        ("reuse-distance (trace-based)",
         reuse.analyze(resolver).top_sites(1)[0].location,
         overheads["reuse"]),
    ]
    return rows, (native_result.total_instructions
                  + shared.total_instructions)


def run_families_resimulated():
    """The pre-bus harness: one full simulation per profiler family.

    Returns the instructions simulated over the four runs.
    """
    djx, perf, freq, reuse = make_profilers()
    instructions = 0
    for profiler, instrumented in ((djx, True), (perf, False),
                                   (freq, True), (reuse, True)):
        machine = fresh_machine(instrumented=instrumented)
        profiler.attach(machine)
        instructions += machine.run().total_instructions
    return instructions


def test_profiler_families(benchmark, archive):
    timings = {}
    instructions = {}

    def run_both():
        start = time.perf_counter()
        instructions["resimulated"] = run_families_resimulated()
        timings["resimulated"] = time.perf_counter() - start
        start = time.perf_counter()
        rows, instructions["shared"] = run_families_shared()
        timings["shared"] = time.perf_counter() - start
        return rows

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)

    archive("profiler_families", format_table(
        "Profiler families sharing one simulated run (objectlayout)",
        ["profiler", "top-ranked entity", "runtime overhead"],
        [(name, loc, f"{oh:.2f}x") for name, loc, oh in rows]
    ) + (f"\n\nsimulated instructions: shared run "
         f"{instructions['shared']} vs per-profiler re-simulation "
         f"{instructions['resimulated']}"
         f"\nwall-clock (one run each, recorded, not asserted): shared "
         f"run {timings['shared']:.2f}s vs per-profiler re-simulation "
         f"{timings['resimulated']:.2f}s"))

    by_name = {name: (loc, oh) for name, loc, oh in rows}

    djx_loc, djx_oh = by_name["DJXPerf (object-centric, PMU)"]
    assert djx_loc == CULPRIT
    assert djx_oh < 1.3

    # Code-centric: cheap, but its top entry is an *access* location,
    # not the allocation site a developer must fix.
    code_loc, code_oh = by_name["code-centric (perf-style, PMU)"]
    assert code_loc != CULPRIT
    assert code_oh < 1.1

    # Allocation frequency: names an allocation site, pays per-alloc
    # cost; on this workload the hottest site also allocates the most,
    # but Table 2 shows the metric itself misleads.
    _freq_loc, freq_oh = by_name["allocation-frequency (instrumented)"]
    assert freq_oh > djx_oh

    # Reuse distance: finds the culprit but at trace-everything cost.
    reuse_loc, reuse_oh = by_name["reuse-distance (trace-based)"]
    assert reuse_loc == CULPRIT
    assert reuse_oh > 3.0
    assert reuse_oh > 10 * (djx_oh - 1) + 1

    # The point of the shared bus: one simulation instead of four.
    # Counted in simulated instructions, which are deterministic; the
    # fast-path collectors make the re-simulated arm's wall clock too
    # close to the shared arm's to assert on.
    assert instructions["shared"] < instructions["resimulated"]
