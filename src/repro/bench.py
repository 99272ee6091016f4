"""Simulator throughput benchmark: the tracked perf harness.

Measures how fast the *simulator itself* executes — simulated bytecode
instructions per wall-clock second (ips) and memory accesses per second
(aps) — for every suite workload, across these arms:

``fastpath``
    The production engine: compiled dispatch with superinstruction
    fusion (straight-line handler runs execute as single fused
    closures), the hierarchy's pooled L1 fast path and the batched
    memory-system walk; no profilers attached.
``legacy``
    The per-instruction decoded interpreter and composed hierarchy
    walk (``MachineConfig.fastpath=False``), the semantic oracle.
    Measured against ``fastpath`` as ``speedup_vs_legacy``; the two
    arms' MachineResults are compared on every run, so the bench
    doubles as an equivalence check.
``profiled``
    The fast path with DJXPerf attached at the paper's default sampling
    period (64) on the instrumented program — the configuration a user
    actually profiles with, running on the skip-ahead PMU boundary.
``profiled_peraccess``
    The same profiled configuration with skip-ahead disabled
    (``MachineConfig.skip_ahead=False``): every access walks every
    armed counter.  This is the reference arm the skip-ahead fast path
    is measured against; the two arms' MachineResults are compared on
    every run, so the bench doubles as an equivalence check.
``allfamilies``
    One shared run feeding the five sampled profiler families (DJXPerf,
    code-centric, allocation-frequency, object-replica,
    load/store-redundancy).  Its time is recorded, not gated; its
    ``allfamilies_access_events_built`` is gated exactly at 0.  The
    full-trace reuse-distance profiler is not in it.

Every run times all five arms, serially, with each workload's own
seed, so a run always measures what the committed baseline recorded and
every gate applies.  Each arm runs ``repeat`` times on a freshly built
machine and keeps the best wall time (the workloads are deterministic,
so best-of-N measures the code, not the scheduler).  Dispatch tables
are precompiled with :meth:`~repro.jvm.machine.Machine.warm_dispatch`
before the timer starts, so the first repeat is not skewed by table
building.

The aggregate row divides total instructions by total best-time across
workloads, weighting long workloads naturally.  ``BENCH_throughput.json``
at the repo root is the committed reference produced by this harness
(see ``python -m repro bench --help``); CI re-runs it on
:data:`SMALL_SUITE` and fails when a measured speedup *ratio* —
fastpath-over-legacy, or skip-ahead-over-per-access on the profiled
arms — falls more than :data:`TOLERANCE` below the committed one.
Ratios are compared, not absolute ips, because each ratio's two arms
run on the same machine in the same process, which cancels hardware
differences between the machine that committed the baseline and the
machine checking it.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.jvm.machine import Machine, MachineResult
from repro.workloads.base import Workload, get_workload

#: Schema tag written into every report (bump on breaking change).
#: ``/2`` added the profiled arms and per-arm instruction counts;
#: ``/3`` added the serving-layer store arm (profile write/read cost);
#: ``/4`` added the fused superinstruction arm and fusion counters;
#: ``/5`` added the serve-load fleet arm (p50/p99 submit-to-verdict
#: latency, dedupe hit rate, cross-shard reshard check);
#: ``/6`` added the fleet scaling arm (jobs/sec at 1 vs N shards,
#: warm compile-cache hit rate);
#: ``/7`` added the profile-guided optimization arm (per-workload
#: verdict, before/after simulated cycles, verified speedup);
#: ``/8`` dropped the separate fused arm: ``fastpath`` times the
#: production (fused) engine, which carries the fusion counters;
#: ``/9`` merged ``serve_load`` and ``fleet_scaling`` into one ``fleet``
#: section (one load run per fleet size plus the reshard phase) and
#: records the ``seed`` override the engine counters depend on;
#: ``/10`` dropped the store arm and the ``seed`` override: every run
#: times the same arms with each workload's own seed;
#: ``/11`` dropped reuse distance from ``allfamilies`` and records that
#: arm's ``allfamilies_access_events_built``.
SCHEMA = "repro-bench-throughput/11"

#: Allowed fractional drop of a gated ratio below its committed value.
TOLERANCE = 0.20

#: Allowed relative growth of the fleet's p99/p50 tail ratio: fail only
#: when the tail more than doubles, because serving latency under a
#: thread scheduler is far noisier than in-process engine timing.
TAIL_TOLERANCE = 1.0

#: Per-workload counts the seeded simulator reproduces exactly;
#: ``--check`` compares them, and every ``fusion`` counter, exactly.
EXACT_COUNTS = ("instructions", "accesses", "profiled_instructions",
                "profiled_accesses", "allfamilies_access_events_built")

#: The workloads a run times unless others are named: the heaviest row
#: of each flavour, two streaming-native rows, and the engine-bound
#: interpreter kernels.
#: The suite rows weight the aggregate towards allocation/native cost;
#: the kernels weight it towards dispatch, which is what the
#: fastpath-over-legacy ratio gate needs to resolve.
SMALL_SUITE = ("mnemonics", "akka-uct", "avrora", "crypto",
               "kernel-arith", "kernel-array", "kernel-field",
               "kernel-mixed")

#: The paper's default PMU sampling period, used by the profiled arms.
DJX_PERIOD = 64

#: The profile-guided optimization arm's workloads, each paired with
#: the profiler family whose advice drives its rewrite.  All four carry
#: a planted inefficiency the transform catalog verifiably removes:
#: unsized-growth (capacity presizing), padded-layout (field
#: reordering), boxed-counters (boxed-array swap), redundant-fill
#: (dead-store elimination, driven by the redundancy family).
OPTIMIZE_SUITE = (("unsized-growth", "djxperf"),
                  ("padded-layout", "djxperf"),
                  ("boxed-counters", "djxperf"),
                  ("redundant-fill", "redundancy"))

#: Every run times every arm, in this order, on every workload.
ARMS = ("fastpath", "legacy", "profiled", "profiled_peraccess",
        "allfamilies")


@dataclass(frozen=True)
class ArmTiming:
    """One arm's timing for one workload."""

    seconds: float
    ips: float
    aps: float


@dataclass(frozen=True)
class BenchRow:
    """One workload's measurement across the five arms.

    ``instructions``/``accesses`` count the plain (uninstrumented)
    program; ``profiled_instructions``/``profiled_accesses`` count the
    instrumented program the profiled arms execute (allocation hooks
    add bytecode, so the two differ).
    """

    name: str
    instructions: int
    accesses: int
    fastpath: ArmTiming
    legacy: ArmTiming
    profiled_instructions: int
    profiled_accesses: int
    profiled: ArmTiming
    profiled_peraccess: ArmTiming
    allfamilies: ArmTiming
    #: Superinstruction observability from the fastpath arm's machine:
    #: blocks_fused / fused_executions / guard_bailouts.
    fusion: Dict[str, int]
    #: AccessEvents the allfamilies arm built (0: all sampled).
    allfamilies_access_events_built: int = 0

    @property
    def speedup_vs_legacy(self) -> float:
        return self.legacy.seconds / self.fastpath.seconds

    @property
    def profiled_speedup(self) -> float:
        """Skip-ahead over per-access counting, profilers attached."""
        return self.profiled_peraccess.seconds / self.profiled.seconds


@dataclass(frozen=True)
class BenchReport:
    """A full harness run: per-workload rows plus the aggregate.

    ``fleet`` (a :meth:`repro.serve.loadgen.FleetLoadResult.to_dict`
    payload) rides alongside the engine rows when the serving-layer arm
    ran — fleet latency and scaling are tracked in the same report, and
    gated by the same ``--check``, as engine speedups.  ``rows`` is
    empty only for a fleet-only run.
    """

    rows: List[BenchRow]
    repeat: int
    fleet: Optional[Dict] = None
    #: Per-workload profile-guided optimization verdicts (see
    #: :func:`bench_optimize`): workload name -> {family, transform,
    #: status, baseline_cycles, optimized_cycles, speedup}.  Cycles are
    #: simulated, so unlike the wall-time arms they are deterministic
    #: and transfer exactly between machines.
    optimize: Optional[Dict] = None

    def _aggregate(self, arm: Callable[[BenchRow], ArmTiming],
                   profiled: bool = False) -> ArmTiming:
        seconds = sum(arm(r).seconds for r in self.rows)
        if profiled:
            instructions = sum(r.profiled_instructions for r in self.rows)
            accesses = sum(r.profiled_accesses for r in self.rows)
        else:
            instructions = sum(r.instructions for r in self.rows)
            accesses = sum(r.accesses for r in self.rows)
        return ArmTiming(seconds=seconds, ips=instructions / seconds,
                         aps=accesses / seconds)

    @property
    def aggregate_fastpath(self) -> ArmTiming:
        return self._aggregate(lambda r: r.fastpath)

    @property
    def aggregate_legacy(self) -> ArmTiming:
        return self._aggregate(lambda r: r.legacy)

    @property
    def aggregate_profiled(self) -> ArmTiming:
        return self._aggregate(lambda r: r.profiled, profiled=True)

    @property
    def aggregate_profiled_peraccess(self) -> ArmTiming:
        return self._aggregate(lambda r: r.profiled_peraccess,
                               profiled=True)

    @property
    def aggregate_allfamilies(self) -> ArmTiming:
        return self._aggregate(lambda r: r.allfamilies, profiled=True)

    @property
    def aggregate_speedup(self) -> float:
        return self.aggregate_legacy.seconds / self.aggregate_fastpath.seconds

    @property
    def aggregate_profiled_speedup(self) -> float:
        return (self.aggregate_profiled_peraccess.seconds
                / self.aggregate_profiled.seconds)

    def to_dict(self) -> Dict:
        def arm(t: ArmTiming) -> Dict:
            return {"seconds": round(t.seconds, 6),
                    "ips": round(t.ips, 1), "aps": round(t.aps, 1)}

        out: Dict = {"schema": SCHEMA, "repeat": self.repeat,
                     "workloads": {}}
        for row in self.rows:
            out["workloads"][row.name] = {
                "instructions": row.instructions,
                "accesses": row.accesses,
                "profiled_instructions": row.profiled_instructions,
                "profiled_accesses": row.profiled_accesses,
                "allfamilies_access_events_built":
                    row.allfamilies_access_events_built,
                **{name: arm(getattr(row, name)) for name in ARMS},
                "speedup_vs_legacy": round(row.speedup_vs_legacy, 3),
                "profiled_speedup": round(row.profiled_speedup, 3),
                "fusion": dict(row.fusion)}
        if self.rows:
            out["aggregate"] = {
                "instructions": sum(r.instructions for r in self.rows),
                "accesses": sum(r.accesses for r in self.rows),
                "profiled_instructions": sum(
                    r.profiled_instructions for r in self.rows),
                "profiled_accesses": sum(
                    r.profiled_accesses for r in self.rows),
                **{name: arm(getattr(self, f"aggregate_{name}"))
                   for name in ARMS},
                "speedup_vs_legacy": round(self.aggregate_speedup, 3),
                "profiled_speedup": round(
                    self.aggregate_profiled_speedup, 3)}
        if self.fleet is not None:
            out["fleet"] = self.fleet
        if self.optimize is not None:
            out["optimize"] = self.optimize
        return out


class EquivalenceError(AssertionError):
    """Two arms that must agree produced different MachineResults."""


def _time_run(program, config, repeat: int,
              attach: Optional[Callable[[Machine], None]] = None
              ) -> "tuple[MachineResult, float, Machine]":
    """Best-of-``repeat`` wall time for one arm.

    A fresh machine (and, via ``attach``, fresh collectors) is built per
    repeat; dispatch and superinstruction tables are warmed before the
    timer starts so the first repeat measures execution, not table
    compilation.  The last repeat's machine is returned alongside for
    post-run counters (the fastpath arm reports its fusion stats).
    """
    best: Optional[float] = None
    result: Optional[MachineResult] = None
    machine: Optional[Machine] = None
    for _ in range(repeat):
        machine = Machine(program, config)
        if attach is not None:
            attach(machine)
        machine.warm_dispatch()
        started = time.perf_counter()
        result = machine.run()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    assert result is not None and best is not None and machine is not None
    return result, best, machine


def _timing(result: MachineResult, seconds: float) -> "tuple[ArmTiming, int, int]":
    instructions = result.total_instructions
    accesses = result.loads + result.stores
    return (ArmTiming(seconds=seconds, ips=instructions / seconds,
                      aps=accesses / seconds), instructions, accesses)


def _profiled_arms(workload: Workload, repeat: int
                   ) -> "tuple[ArmTiming, ArmTiming, ArmTiming, int, int, int]":
    """Time the three profiled arms on the instrumented program; the
    last element is the AccessEvents the allfamilies arm built.

    Raises :class:`EquivalenceError` if the skip-ahead and per-access
    counting boundaries disagree on the MachineResult or on the number
    of samples DJXPerf handled — they must be bit-identical.
    """
    # Imported lazily: a fleet-only run never needs the profiler stack.
    from repro.baselines import AllocFrequencyProfiler, CodeCentricProfiler
    from repro.core import DJXPerf, DjxConfig
    from repro.core.javaagent import instrument_program

    program = instrument_program(workload.build_verified())
    base_config = dataclasses.replace(workload.machine_config(),
                                      fastpath=True)

    def djx_attach(machine: Machine) -> "DJXPerf":
        profiler = DJXPerf(DjxConfig(sample_period=DJX_PERIOD))
        profiler.attach(machine)
        return profiler

    agents = []

    def attach_skip(machine: Machine) -> None:
        agents.append(djx_attach(machine))

    skip_result, skip_seconds, _ = _time_run(
        program, dataclasses.replace(base_config, skip_ahead=True),
        repeat, attach_skip)
    skip_samples = agents[-1].stats.samples_handled

    agents.clear()
    peraccess_result, peraccess_seconds, _ = _time_run(
        program, dataclasses.replace(base_config, skip_ahead=False),
        repeat, attach_skip)
    peraccess_samples = agents[-1].stats.samples_handled

    if (peraccess_result != skip_result
            or peraccess_samples != skip_samples):
        raise EquivalenceError(
            f"{workload.name}: skip-ahead and per-access counting "
            f"disagree (skip={skip_result!r}/{skip_samples} samples, "
            f"peraccess={peraccess_result!r}/{peraccess_samples} samples)")

    def attach_families(machine: Machine) -> None:
        from repro.families import RedundancyProfiler, ReplicaProfiler

        djx_attach(machine)
        CodeCentricProfiler(sample_period=DJX_PERIOD).attach(machine)
        AllocFrequencyProfiler().attach(machine)
        family_config = DjxConfig(sample_period=DJX_PERIOD,
                                  size_threshold=0)
        ReplicaProfiler(family_config).attach(machine)
        RedundancyProfiler(family_config).attach(machine)

    _, families_seconds, families_machine = _time_run(
        program, dataclasses.replace(base_config, skip_ahead=True),
        repeat, attach_families)

    skip_timing, instructions, accesses = _timing(skip_result, skip_seconds)
    peraccess_timing, _, _ = _timing(peraccess_result, peraccess_seconds)
    families_timing = ArmTiming(seconds=families_seconds,
                                ips=instructions / families_seconds,
                                aps=accesses / families_seconds)
    return (skip_timing, peraccess_timing, families_timing,
            instructions, accesses,
            families_machine.bus.access_events_built)


def bench_workload(workload: Workload, repeat: int = 3) -> BenchRow:
    """Measure one workload on every arm; raises
    :class:`EquivalenceError` if the legacy arm disagrees with the fast
    path on any result field, or if the profiled arms' counting
    boundaries disagree."""
    program = workload.build_verified()
    config = dataclasses.replace(workload.machine_config(), fastpath=True)
    fast_result, fast_seconds, fast_machine = _time_run(program, config,
                                                        repeat)
    fast, instructions, accesses = _timing(fast_result, fast_seconds)
    legacy_result, legacy_seconds, _ = _time_run(
        program, dataclasses.replace(config, fastpath=False), repeat)
    if legacy_result != fast_result:
        raise EquivalenceError(
            f"{workload.name}: fastpath and legacy engines disagree "
            f"(fast={fast_result!r}, legacy={legacy_result!r})")
    legacy, _, _ = _timing(legacy_result, legacy_seconds)
    (profiled, peraccess, families, profiled_instructions,
     profiled_accesses, families_events) = _profiled_arms(workload, repeat)
    return BenchRow(name=workload.name, instructions=instructions,
                    accesses=accesses, fastpath=fast, legacy=legacy,
                    profiled_instructions=profiled_instructions,
                    profiled_accesses=profiled_accesses,
                    profiled=profiled, profiled_peraccess=peraccess,
                    allfamilies=families,
                    fusion=dataclasses.asdict(fast_machine.fusion),
                    allfamilies_access_events_built=families_events)


def bench_suite(names: Sequence[str] = SMALL_SUITE, repeat: int = 3,
                progress: Optional[Callable[[BenchRow], None]] = None
                ) -> BenchReport:
    """Run the harness over ``names``, one workload after another."""
    if not names:
        raise ValueError("no workloads to benchmark")
    rows: List[BenchRow] = []
    for name in names:
        row = bench_workload(get_workload(name), repeat=repeat)
        rows.append(row)
        if progress is not None:
            progress(row)
    return BenchReport(rows=rows, repeat=repeat)


def bench_optimize(suite=OPTIMIZE_SUITE,
                   progress: Optional[Callable[[str, Dict], None]] = None
                   ) -> Dict:
    """Run the profile-guided optimizer over its workload suite.

    Each ``(workload, family)`` pair goes through the full
    :func:`repro.optim.engine.optimize_workload` loop — profile,
    rewrite, verify, re-measure — and the arm records the verdict plus
    before/after *simulated* cycles.  Simulated cycles are
    deterministic, so the committed baseline's speedups reproduce
    exactly on any machine; the gate (:func:`_check_optimize`) fails
    when a committed ``accepted`` verdict flips or a verified speedup
    shrinks below the floor.
    """
    from repro.optim.engine import optimize_workload

    out: Dict = {}
    for name, family in suite:
        verdict = optimize_workload(name, family=family)
        entry = {
            "family": family,
            "transform": verdict.transform,
            "status": verdict.status,
            "baseline_cycles": verdict.baseline_cycles,
            "optimized_cycles": verdict.optimized_cycles,
        }
        if verdict.speedup is not None:
            entry["speedup"] = round(verdict.speedup, 3)
        out[name] = entry
        if progress is not None:
            progress(name, entry)
    return out


def write_report(report: BenchReport, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> Dict:
    with open(path) as fh:
        data = json.load(fh)
    if data.get("schema") != SCHEMA:
        raise ValueError(f"{path}: unexpected schema "
                         f"{data.get('schema')!r} (want {SCHEMA!r})")
    return data


def _floor_failure(label: str, measured: float,
                   committed: float) -> List[str]:
    """One failure if ``measured`` fell below ``committed`` by more
    than :data:`TOLERANCE` (a fraction of ``committed``), else none."""
    floor = committed * (1.0 - TOLERANCE)
    if measured >= floor:
        return []
    return [f"{label} regressed: measured {measured:.3f} < floor "
            f"{floor:.3f} (committed {committed:.3f} - {TOLERANCE:.0%})"]


def _check_engine_ratios(report: BenchReport,
                         baseline: Dict) -> List[str]:
    aggregate = baseline.get("aggregate", {})
    failures: List[str] = []
    for key, label, measured in (
            ("speedup_vs_legacy", "aggregate fastpath speedup",
             report.aggregate_speedup),
            ("profiled_speedup", "profiled skip-ahead speedup",
             report.aggregate_profiled_speedup)):
        committed = aggregate.get(key)
        if committed is None:
            failures.append(f"baseline has no aggregate.{key} field")
        else:
            failures += _floor_failure(label, measured, committed)
    return failures


def _check_counters(report: BenchReport, baseline: Dict) -> List[str]:
    """Gate the deterministic per-workload counts, exactly.

    They come out of the seeded simulator, not a clock, so a block that
    stops fusing or a guard that starts bailing out fails here without
    any timing.  Rows present in only one report are skipped.
    """
    failures: List[str] = []
    committed_rows = baseline.get("workloads", {})
    for name, row in report.to_dict()["workloads"].items():
        committed = committed_rows.get(name)
        if committed is None:
            continue
        pairs = [(key, row.get(key), committed.get(key))
                 for key in EXACT_COUNTS]
        pairs += [(f"fusion.{key}", value,
                   (committed.get("fusion") or {}).get(key))
                  for key, value in (row.get("fusion") or {}).items()]
        for key, measured, want in pairs:
            if measured is not None and want is not None \
                    and measured != want:
                failures.append(f"{name} {key} changed: measured "
                                f"{measured}, committed {want}")
    return failures


def _check_fleet(fleet: Dict, base: Dict) -> List[str]:
    """Gate the fleet load arm on machine-transferable quantities.

    Absolute latencies and jobs/sec do not transfer between machines,
    but ratios of two numbers measured back to back in one run do: the
    largest fleet's p99/p50 *tail ratio* may grow by
    :data:`TAIL_TOLERANCE`, and the *scaling ratio* (largest fleet's
    jobs/sec over the 1-shard fleet's) keeps a :data:`TOLERANCE` floor.
    Shards simulate on threads, so a healthy scaling ratio sits near
    1.0 on any core count; what drags it down is a front door or router
    that serialises the fleet on one shard.  The dedupe and warm hit
    rates are fixed by the job mix and get the same floor.  The rest is
    pass/fail: every job of every phase finishes ``done``, the reshard
    burst draws exactly one 429 with ``Retry-After``, and a committed
    cross-shard hit is never lost.
    """
    failures: List[str] = []
    measured_tail = fleet.get("tail_ratio")
    committed_tail = base.get("tail_ratio")
    if measured_tail is not None and committed_tail is not None:
        ceiling = committed_tail * (1.0 + TAIL_TOLERANCE)
        if measured_tail > ceiling:
            failures.append(
                f"fleet p99/p50 tail ratio regressed: measured "
                f"{measured_tail:.2f} > ceiling {ceiling:.2f} "
                f"(committed {committed_tail:.2f} + {TAIL_TOLERANCE:.0%})")
    for key, label in (("scaling_ratio", "fleet scaling ratio"),
                       ("dedupe_hit_rate", "fleet dedupe hit rate"),
                       ("warm_hit_rate", "warm compile-cache hit rate")):
        measured = fleet.get(key)
        committed = base.get(key)
        if measured is None:
            failures.append(f"fleet run has no {key}")
        elif committed is not None:
            failures += _floor_failure(label, measured, committed)
    reshard = fleet.get("reshard") or {}
    for phase in fleet.get("points", []) + [reshard]:
        if phase.get("jobs_failed"):
            failures.append(
                f"fleet load at shards={phase.get('shards')} had "
                f"{phase['jobs_failed']} failed jobs")
    if reshard.get("throttled") != 1:
        failures.append(
            f"backpressure: the over-quota burst drew "
            f"{reshard.get('throttled', 0)} 429s, expected exactly 1")
    elif not reshard.get("retry_after"):
        failures.append("backpressure: 429 without a Retry-After header")
    if (base.get("reshard") or {}).get("hit") and not reshard.get("hit"):
        failures.append(
            "cross-shard dedupe lost: the resharded duplicates were not "
            "all served from the fleet index with zero simulation")
    return failures


def _check_optimize(optimize: Dict, base: Dict) -> List[str]:
    """Gate the optimization arm on verdicts and verified speedups.

    Both quantities transfer exactly: verdicts and cycle counts come
    out of the deterministic simulator, not wall clocks.  A workload
    whose committed verdict is ``accepted`` must stay accepted — losing
    a verified rewrite (transform stops matching, or the engine's
    safety/improvement gates start rejecting it) is a regression in the
    optimizer itself.  The measured speedup keeps the usual relative
    floor so small deliberate cost-model changes don't trip the gate,
    but a rewrite that stops helping does.
    """
    failures: List[str] = []
    for name, committed in sorted(base.items()):
        measured = optimize.get(name)
        if measured is None:
            failures.append(
                f"optimize arm dropped workload {name} "
                f"(committed verdict: {committed.get('status')})")
            continue
        if committed.get("status") == "accepted":
            if measured.get("status") != "accepted":
                failures.append(
                    f"optimize verdict for {name} regressed: committed "
                    f"accepted ({committed.get('transform')}), measured "
                    f"{measured.get('status')}")
                continue
            if committed.get("speedup") and measured.get("speedup"):
                failures += _floor_failure(
                    f"verified speedup for {name}", measured["speedup"],
                    committed["speedup"])
    return failures


def check_regression(report: BenchReport, baseline: Dict) -> List[str]:
    """Compare a fresh run against a committed baseline report.

    Returns a list of human-readable failures (empty = pass).  Speedup
    *ratios* are compared, not absolute throughput: each ratio's two
    arms are measured within one process on one machine, so the ratio
    transfers between the committing machine and the checking machine,
    while raw ips does not.  Engine rows gate the fastpath-over-legacy
    and skip-ahead-over-per-access ratios, and their deterministic
    counts exactly (see :func:`_check_counters`); a ``fleet`` section gates
    the fleet load arm (see :func:`_check_fleet`); an ``optimize``
    section gates the profile-guided optimizer's verdicts and verified
    simulated-cycle speedups (see :func:`_check_optimize`).
    """
    failures: List[str] = []
    if report.rows:
        failures.extend(_check_engine_ratios(report, baseline))
        failures.extend(_check_counters(report, baseline))
    fleet = report.fleet
    base_fleet = baseline.get("fleet")
    if fleet is not None and base_fleet is not None:
        failures.extend(_check_fleet(fleet, base_fleet))
    optimize = report.optimize
    base_optimize = baseline.get("optimize")
    if optimize is not None and base_optimize is not None:
        failures.extend(_check_optimize(optimize, base_optimize))
    if not report.rows and fleet is None and optimize is None:
        failures.append("nothing to check: the run has neither engine "
                        "rows nor a serve arm section")
    return failures
