#!/usr/bin/env python
"""Attach/detach mode: profiling an already-running service (§5.1).

The paper designs DJXPerf so it can attach to a long-running JVM, sample
for a while, and detach — allocations made before attach are unknown to
it, and the GC-move fallback (§4.5) keeps the splay tree usable anyway.
This example runs a "service", attaches mid-flight, samples a window,
detaches, and lets the service keep running undisturbed.

Run:  python examples/attach_mode.py
"""

from repro.core import DJXPerf, DjxConfig, render_report
from repro.heap.layout import Kind
from repro.jvm import Machine, JProgram, MethodBuilder
from repro.workloads.base import sim_machine
from repro.workloads.dsl import for_range


def build_service() -> JProgram:
    """A long-running request loop with a per-request buffer."""
    program = JProgram("service")
    b = MethodBuilder("Service", "loop", source_file="Service.java",
                      first_line=30)

    def handle_request(b: MethodBuilder) -> None:
        b.line(33).iconst(2048).newarray(Kind.INT).store(1)
        b.line(35).load(1).native("stream_array", 1, False, 2)

    for_range(b, 0, 300, handle_request)
    b.ret()
    program.add_builder(b)
    program.add_entry("loop")
    return program


def main() -> None:
    profiler = DJXPerf(DjxConfig(sample_period=64))
    # Instrumentation happens up front (class retransformation on a real
    # JVM); the hook publishes to nobody until the profiler attaches.
    program = profiler.instrument(build_service())
    machine = Machine(program, sim_machine(heap_size=1024 * 1024))

    print("service running unprofiled...")
    machine.run(max_instructions=3_000)

    print("attaching DJXPerf to the running service...")
    profiler.attach(machine)
    machine.run(max_instructions=6_000)       # sampling window

    print("detaching; service continues...")
    profiler.detach()
    machine.run()                             # to completion, unprofiled

    analysis = profiler.analyze()
    print()
    print(render_report(analysis, top=2))
    stats = profiler.stats
    print(f"\nsampling window stats: {stats.samples_handled} samples, "
          f"{stats.allocations_seen} allocations seen "
          f"(pre-attach allocations were missed, as in the paper), "
          f"{stats.relocations_applied} GC moves applied")


if __name__ == "__main__":
    main()
