"""The system's layers, the boundaries timed for each, and their metrics.

Layers are named after the ``repro`` modules they cover.  Each boundary
is a public function of that layer (the HTTP front door's two request
handlers are the exception: the public entry point is a coroutine, and
a coroutine's wall time includes every other task the loop ran).

:data:`PER_LAYER` is the fixed list of per-layer metrics every traced
run reports, whatever the workload; a layer a workload never enters
reads 0 there.  The fleet adds :data:`FLEET_PER_LAYER`.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional

from perf.stats import nearest_rank
from perf.tracer import Boundary, SpanCost, Tracer

OPTIMIZE = "repro.optim.engine:optimize_workload"
PROFILE_PROGRAM = "repro.workloads.runner:profile_program"
MACHINE_RUN = "repro.jvm.machine:Machine.run"


# -- after-hooks: counts read off arguments and results ------------------
def _after_machine_run(tracer: Tracer, args: tuple, result) -> None:
    machine = args[0]
    tracer.add("jvm.instructions", result.total_instructions)
    tracer.add("jvm.guard_bailouts", machine.fusion.guard_bailouts)
    tracer.add("memsys.accesses", result.loads + result.stores)
    tracer.add("memsys.l1_misses", result.l1_misses)
    tracer.add("heap.allocations", result.heap_allocations)
    tracer.add("heap.gc_count", result.gc_collections)
    tracer.add("core.alloc_events", machine.bus.alloc_events_built)
    tracer.add("pmu.samples", sum(
        getattr(getattr(c, "stats", None), "samples_handled", 0)
        for c in machine.bus.collectors))


def _after_splay_init(tracer: Tracer, args: tuple, _result) -> None:
    tracer.keep("splay", args[0].stats)


def _after_analyze(tracer: Tracer, _args: tuple, result) -> None:
    tracer.add("core.sites", len(result.sites))


def _after_optimize(tracer: Tracer, _args: tuple, verdict) -> None:
    tracer.add("optim.verdicts", 1)
    tracer.add("optim.accepted", 1 if verdict.status == "accepted" else 0)


def _after_claim(tracer: Tracer, _args: tuple, spec) -> None:
    tracer.add("serve.queue.claims", 1)
    if spec is None:
        tracer.add("serve.queue.empty_claims", 1)
    else:
        tracer.keep("serve.queue.wait_ms",
                    (time.time() - spec.submitted_at) * 1000.0)


def _after_find(tracer: Tracer, _args: tuple, record) -> None:
    tracer.add("serve.store.lookups", 1)
    if record is not None:
        tracer.add("serve.store.hits", 1)


def _after_index_lookup(tracer: Tracer, _args: tuple, hit) -> None:
    if hit is not None:
        tracer.add("serve.store.hits", 1)


def _payload_job(args: tuple) -> Optional[str]:
    payload = args[0] if args else None
    return payload.get("job_id") if isinstance(payload, dict) else None


def _spec_job(args: tuple) -> Optional[str]:
    return getattr(args[1], "job_id", None) if len(args) > 1 else None


def _arg_job(args: tuple) -> Optional[str]:
    return args[1] if len(args) > 1 and isinstance(args[1], str) else None


#: Boundaries every workload's traced run installs.
CORE: List[Boundary] = [
    Boundary("jvm", MACHINE_RUN, after=_after_machine_run),
    Boundary("jvm", "repro.jvm.machine:Machine.__init__", hot=True),
    Boundary("jvm", "repro.jvm.interpreter:Interpreter.run_quantum",
             hot=True),
    Boundary("jvm.codegen", "repro.jvm.dispatch:FusedCodegenCache.get",
             hot=True),
    Boundary("memsys", "repro.memsys.hierarchy:MemoryHierarchy.access",
             hot=True),
    Boundary("memsys", "repro.memsys.hierarchy:MemoryHierarchy.access_hot",
             hot=True),
    Boundary("memsys", "repro.memsys.hierarchy:MemoryHierarchy.touch_range",
             hot=True),
    Boundary("heap", "repro.heap.allocator:Heap.allocate_instance",
             hot=True),
    Boundary("heap", "repro.heap.allocator:Heap.allocate_array", hot=True),
    Boundary("heap", "repro.heap.gc:MarkCompactCollector.collect"),
    Boundary("heap", "repro.heap.semispace:SemispaceCollector.collect"),
    Boundary("pmu", "repro.obs.bus:EventBus.observe_access", hot=True),
    Boundary("pmu", "repro.obs.bus:EventBus.observe_bulk", hot=True),
    Boundary("pmu", "repro.obs.bus:EventBus.observe_bulk_map", hot=True),
    Boundary("pmu", "repro.obs.bus:EventBus.bulk_budget", hot=True),
    Boundary("core.collect", "repro.obs.bus:EventBus.flush", hot=True),
    Boundary("core.collect", "repro.core.splay:IntervalSplayTree.__init__",
             after=_after_splay_init),
    Boundary("core.collect", "repro.core.profiler:DJXPerf.attach"),
    Boundary("core.analyze", "repro.core.profiler:DJXPerf.analyze",
             after=_after_analyze),
    Boundary("core.analyze",
             "repro.families.base:ObjectFamilyProfiler.analyze",
             after=_after_analyze),
    Boundary("core.analyze", "repro.core.report:render_report"),
    Boundary("workloads", "repro.workloads.base:Workload.build_verified",
             hot=True),
    Boundary("workloads", "repro.core.javaagent:instrument_program",
             hot=True),
    Boundary("workloads", PROFILE_PROGRAM),
    Boundary("workloads", "repro.workloads.runner:run_profiled"),
    Boundary("optim", OPTIMIZE, after=_after_optimize),
]

#: The serving tier's boundaries (the traced fleet host only).
SERVE: List[Boundary] = [
    Boundary("serve.http", "repro.serve.http:HttpFrontDoor._handle_submit"),
    Boundary("serve.http", "repro.serve.http:HttpFrontDoor._handle_status"),
    Boundary("serve.router", "repro.serve.router:Fleet.submit"),
    Boundary("serve.router", "repro.serve.router:Fleet.status",
             job=_arg_job),
    Boundary("serve.queue", "repro.serve.queue:SpoolQueue.submit"),
    Boundary("serve.queue", "repro.serve.queue:SpoolQueue.claim",
             after=_after_claim),
    Boundary("serve.queue", "repro.serve.queue:SpoolQueue.complete",
             job=_spec_job),
    Boundary("serve.queue", "repro.serve.queue:SpoolQueue.sweep"),
    Boundary("serve.service", "repro.serve.service:execute_job",
             job=_payload_job),
    Boundary("serve.service",
             "repro.serve.service:ProfilingService.run_once"),
    # A shard thread's whole poll loop: the traced host's clock is CPU
    # time, so the loop's idle sleeps cost nothing.
    Boundary("serve.service",
             "repro.serve.service:ProfilingService.serve_forever"),
    Boundary("serve.store", "repro.serve.store:ProfileStore.put_profile"),
    Boundary("serve.store", "repro.serve.store:ProfileStore.find_latest",
             after=_after_find),
    Boundary("serve.store", "repro.serve.store:ProfileStore.get_record"),
    Boundary("serve.store", "repro.serve.router:FleetIndex.lookup",
             after=_after_index_lookup),
    Boundary("serve.store", "repro.serve.router:FleetIndex.register"),
]


def boundaries(serve: bool = False) -> List[Boundary]:
    """Boundaries to install: the core layers, each catalog transform's
    ``apply`` (every transform overrides it), and with ``serve`` the
    serving tier."""
    from repro.optim.transforms import TRANSFORMS

    transforms = [
        Boundary("optim", f"{cls.__module__}:{cls.__qualname__}.apply")
        for cls in dict.fromkeys(type(t) for t in TRANSFORMS.values())]
    return CORE + transforms + (SERVE if serve else [])


#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("jvm.self_s", "s"), ("jvm.instructions", "count"),
    ("jvm.ns_per_instr", "ns"), ("jvm.guard_bailouts", "count"),
    ("jvm.codegen_s", "s"), ("jvm.codegen_hit_ratio", "ratio"),
    ("memsys.self_s", "s"), ("memsys.accesses", "count"),
    ("memsys.ns_per_access", "ns"), ("memsys.l1_miss_ratio", "ratio"),
    ("heap.self_s", "s"), ("heap.allocations", "count"),
    ("heap.gc_count", "count"),
    ("pmu.self_s", "s"), ("pmu.samples", "count"),
    ("core.collect_s", "s"), ("core.alloc_events", "count"),
    ("core.splay_evictions", "count"),
    ("core.splay_cache_hit_ratio", "ratio"),
    ("core.analyze_s", "s"), ("core.report_s", "s"),
    ("core.sites", "count"),
    ("workloads.build_s", "s"),
    ("optim.self_s", "s"), ("optim.transform_s", "s"),
    ("optim.profile_s", "s"), ("optim.verify_s", "s"),
    ("optim.accept_ratio", "ratio"),
    ("trace.other_s", "s"), ("trace.subtracted_s", "s"),
    ("trace.coverage", "ratio"), ("trace.overhead_ratio", "ratio"),
]

#: (name, unit) of the serving tier's metrics, reported by the fleet.
FLEET_PER_LAYER = [
    ("serve.http.submit_rtt_ms.p50", "ms"),
    ("serve.http.submit_rtt_ms.p90", "ms"),
    ("serve.http.status_rtt_ms.p50", "ms"),
    ("serve.http.status_rtt_ms.p90", "ms"),
    ("serve.http.throttled", "count"),
    ("serve.http.status_errors", "count"),
    ("serve.http.self_s", "s"),
    ("serve.router.submit_s", "s"), ("serve.router.status_s", "s"),
    ("serve.queue.wait_ms.p50", "ms"), ("serve.queue.wait_ms.p90", "ms"),
    ("serve.queue.empty_claim_ratio", "ratio"),
    ("serve.queue.self_s", "s"),
    ("serve.service.execute_s", "s"), ("serve.service.self_s", "s"),
    ("serve.store.put_s", "s"), ("serve.store.find_s", "s"),
    ("serve.store.dedupe_ratio", "ratio"),
    ("loadgen.lag_ms.max", "ms"),
]


def codegen_snapshot() -> Dict[str, int]:
    """Process-wide fused-codegen cache counters."""
    from repro.jvm.dispatch import warm_cache_stats

    stats = warm_cache_stats()
    return {"hits": stats["hits"], "misses": stats["misses"]}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_summary(tracer: Tracer, cost: SpanCost, timed: float,
                  codegen_before: Dict[str, int],
                  codegen_after: Dict[str, int]) -> dict:
    """Per-layer times and the per-layer metrics of one traced run.

    ``timed`` is the time the layers must cover, in the tracer's clock
    units (ns): wall time of the timed loop, or the host process's CPU
    time when the clock is per-thread CPU time.  ``timed_s`` in the
    summary has the subtracted wrapper cost taken out.
    """
    boundaries = tracer.boundary_report(cost)
    layers = tracer.layer_report(cost)
    covered = sum(layer["self"] for layer in layers.values())
    subtracted = sum(layer["subtracted"] for layer in layers.values())
    # The wrappers' own cost is inside `timed` too: leave it out of the
    # time the layers must cover.
    timed = max(covered, timed - subtracted)
    other = timed - covered

    def self_s(*names: str) -> float:
        return sum(boundaries.get(name, {}).get("self", 0.0)
                   for name in names) / 1e9

    def layer_s(name: str) -> float:
        return layers.get(name, {}).get("self", 0.0) / 1e9

    c = tracer.counters
    splay = tracer.kept.get("splay", [])
    lookups = sum(s.lookups for s in splay)
    hits = codegen_after["hits"] - codegen_before["hits"]
    misses = codegen_after["misses"] - codegen_before["misses"]
    waits = sorted(tracer.kept.get("serve.queue.wait_ms", []))
    metrics = {
        "jvm.self_s": layer_s("jvm"),
        "jvm.instructions": c["jvm.instructions"],
        "jvm.ns_per_instr": _ratio(layer_s("jvm") * 1e9,
                                   c["jvm.instructions"]),
        "jvm.guard_bailouts": c["jvm.guard_bailouts"],
        "jvm.codegen_s": layer_s("jvm.codegen"),
        "jvm.codegen_hit_ratio": _ratio(hits, hits + misses),
        "memsys.self_s": layer_s("memsys"),
        "memsys.accesses": c["memsys.accesses"],
        "memsys.ns_per_access": _ratio(layer_s("memsys") * 1e9,
                                       c["memsys.accesses"]),
        "memsys.l1_miss_ratio": _ratio(c["memsys.l1_misses"],
                                       c["memsys.accesses"]),
        "heap.self_s": layer_s("heap"),
        "heap.allocations": c["heap.allocations"],
        "heap.gc_count": c["heap.gc_count"],
        "pmu.self_s": layer_s("pmu"),
        "pmu.samples": c["pmu.samples"],
        "core.collect_s": layer_s("core.collect"),
        "core.alloc_events": c["core.alloc_events"],
        "core.splay_evictions": sum(s.evictions for s in splay),
        "core.splay_cache_hit_ratio": _ratio(
            sum(s.cache_hits for s in splay), lookups),
        "core.analyze_s": self_s(
            "repro.core.profiler:DJXPerf.analyze",
            "repro.families.base:ObjectFamilyProfiler.analyze"),
        "core.report_s": self_s("repro.core.report:render_report"),
        "core.sites": c["core.sites"],
        "workloads.build_s": self_s(
            "repro.workloads.base:Workload.build_verified",
            "repro.core.javaagent:instrument_program"),
        "optim.self_s": self_s(OPTIMIZE),
        "optim.transform_s": sum(
            entry["self"] for name, entry in boundaries.items()
            if entry["layer"] == "optim" and name != OPTIMIZE) / 1e9,
        "optim.profile_s": tracer.edge_wall_ns(PROFILE_PROGRAM,
                                               OPTIMIZE) / 1e9,
        "optim.verify_s": tracer.edge_wall_ns(MACHINE_RUN, OPTIMIZE) / 1e9,
        "optim.accept_ratio": _ratio(c["optim.accepted"],
                                     c["optim.verdicts"]),
        "serve.http.self_s": layer_s("serve.http"),
        "serve.router.submit_s": self_s("repro.serve.router:Fleet.submit"),
        "serve.router.status_s": self_s("repro.serve.router:Fleet.status"),
        "serve.queue.wait_ms.p50": nearest_rank(waits, 50) if waits else 0.0,
        "serve.queue.wait_ms.p90": nearest_rank(waits, 90) if waits else 0.0,
        "serve.queue.empty_claim_ratio": _ratio(
            c["serve.queue.empty_claims"], c["serve.queue.claims"]),
        "serve.queue.self_s": layer_s("serve.queue"),
        "serve.service.execute_s": boundaries.get(
            "repro.serve.service:execute_job", {}).get("incl", 0) / 1e9,
        "serve.service.self_s": layer_s("serve.service"),
        "serve.store.put_s": self_s(
            "repro.serve.store:ProfileStore.put_profile",
            "repro.serve.router:FleetIndex.register"),
        "serve.store.find_s": self_s(
            "repro.serve.store:ProfileStore.find_latest",
            "repro.serve.store:ProfileStore.get_record",
            "repro.serve.router:FleetIndex.lookup"),
        "serve.store.dedupe_ratio": _ratio(c["serve.store.hits"],
                                           c["serve.store.lookups"]),
        "trace.other_s": other / 1e9,
        "trace.subtracted_s": subtracted / 1e9,
        "trace.coverage": _ratio(covered, timed),
    }
    return {
        "layers": {name: {"self_s": layer["self"] / 1e9,
                          "calls": layer["calls"],
                          "subtracted_s": layer["subtracted"] / 1e9}
                   for name, layer in layers.items()},
        "other_s": other / 1e9,
        "timed_s": timed / 1e9,
        "span_cost_ns": dataclasses.asdict(cost),
        "metrics": metrics,
    }
