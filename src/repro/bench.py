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
    One shared run feeding all six profiler families (DJXPerf,
    code-centric, allocation-frequency, reuse-distance, object-replica,
    load/store-redundancy) — the heaviest realistic bus load, including
    full-trace and value-carrying ``wants_accesses`` collectors.
``store``
    The serving layer's per-profile persistence cost (``--store``):
    serialise + gzip + SQLite write of the workload's profile into a
    fresh :class:`repro.serve.store.ProfileStore`, and the read +
    deserialise back — tracked so payload-size or codec regressions in
    the continuous-profiling service show up alongside simulator
    throughput.

Each arm runs ``repeat`` times on a freshly built machine and keeps the
best wall time (the workloads are deterministic, so best-of-N measures
the code, not the scheduler).  Dispatch tables are precompiled with
:meth:`~repro.jvm.machine.Machine.warm_dispatch` before the timer
starts, so the first repeat is not skewed by table building.

The aggregate row divides total instructions by total best-time across
workloads, weighting long workloads naturally.  ``BENCH_throughput.json``
at the repo root is the committed reference produced by this harness
(see ``python -m repro bench --help``); CI re-runs a small subset and
fails when a measured speedup *ratio* — fastpath-over-legacy, or
skip-ahead-over-per-access on the profiled arms — falls more than the
tolerance below the committed one.  Ratios are compared, not absolute
ips, because each ratio's two arms run on the same machine in the same
process, which cancels hardware differences between the machine that
committed the baseline and the machine checking it.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.jvm.machine import Machine, MachineResult
from repro.workloads.base import Workload, get_workload
from repro.workloads.suite import suite_names

#: Schema tag written into every report (bump on breaking change).
#: ``/2`` added the profiled arms and per-arm instruction counts;
#: ``/3`` added the serving-layer store arm (profile write/read cost);
#: ``/4`` added the fused superinstruction arm and fusion counters;
#: ``/5`` added the serve-load fleet arm (p50/p99 submit-to-verdict
#: latency, dedupe hit rate, cross-shard reshard check);
#: ``/6`` added the fleet-scaling arm (jobs/sec at 1 vs N shards,
#: warm compile-cache hit rate);
#: ``/7`` added the profile-guided optimization arm (per-workload
#: verdict, before/after simulated cycles, verified speedup);
#: ``/8`` dropped the separate fused arm: ``fastpath`` times the
#: production (fused) engine, which carries the fusion counters.
SCHEMA = "repro-bench-throughput/8"

#: Quick subset for CI: the heaviest row of each flavour, two
#: streaming-native rows, and the engine-bound interpreter kernels.
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


@dataclass(frozen=True)
class ArmTiming:
    """One arm's timing for one workload."""

    seconds: float
    ips: float
    aps: float


@dataclass(frozen=True)
class StoreTiming:
    """Serving-layer cost of persisting one workload's profile.

    ``write_seconds`` covers serialise + gzip + SQLite insert into a
    fresh store; ``read_seconds`` covers select + gunzip + deserialise.
    Best-of-``repeat``, like the execution arms.
    """

    write_seconds: float
    read_seconds: float
    raw_bytes: int
    stored_bytes: int

    @property
    def write_mbps(self) -> float:
        """Raw payload megabytes persisted per second."""
        return self.raw_bytes / self.write_seconds / 1e6

    @property
    def read_mbps(self) -> float:
        return self.raw_bytes / self.read_seconds / 1e6


@dataclass(frozen=True)
class BenchRow:
    """One workload's measurement across the enabled arms.

    ``instructions``/``accesses`` count the plain (uninstrumented)
    program; ``profiled_instructions``/``profiled_accesses`` count the
    instrumented program the profiled arms execute (allocation hooks
    add bytecode, so the two differ).
    """

    name: str
    instructions: int
    accesses: int
    fastpath: ArmTiming
    legacy: Optional[ArmTiming]
    profiled_instructions: int = 0
    profiled_accesses: int = 0
    profiled: Optional[ArmTiming] = None
    profiled_peraccess: Optional[ArmTiming] = None
    allfamilies: Optional[ArmTiming] = None
    store: Optional[StoreTiming] = None
    #: Superinstruction observability from the fastpath arm's machine:
    #: blocks_fused / fused_executions / guard_bailouts.
    fusion: Optional[Dict[str, int]] = None

    @property
    def speedup_vs_legacy(self) -> Optional[float]:
        if self.legacy is None:
            return None
        return self.legacy.seconds / self.fastpath.seconds

    @property
    def profiled_speedup(self) -> Optional[float]:
        """Skip-ahead over per-access counting, profilers attached."""
        if self.profiled is None or self.profiled_peraccess is None:
            return None
        return self.profiled_peraccess.seconds / self.profiled.seconds


@dataclass(frozen=True)
class BenchReport:
    """A full harness run: per-workload rows plus the aggregate.

    ``serve_load`` (a :meth:`repro.serve.loadgen.ServeLoadResult.
    to_dict` payload) rides alongside the engine rows when the
    serving-layer arm ran — fleet latency is tracked in the same
    report, and gated by the same ``--check``, as engine speedups.
    ``fleet_scaling`` (a :meth:`repro.serve.loadgen.
    FleetScalingResult.to_dict` payload) likewise carries the
    fleet's jobs/sec scaling curve when ``--fleet-scaling`` ran.
    """

    rows: List[BenchRow]
    repeat: int
    serve_load: Optional[Dict] = None
    fleet_scaling: Optional[Dict] = None
    #: Per-workload profile-guided optimization verdicts (see
    #: :func:`bench_optimize`): workload name -> {family, transform,
    #: status, baseline_cycles, optimized_cycles, speedup}.  Cycles are
    #: simulated, so unlike the wall-time arms they are deterministic
    #: and transfer exactly between machines.
    optimize: Optional[Dict] = None

    def _aggregate(self, arm: Callable[[BenchRow], Optional[ArmTiming]],
                   profiled: bool = False) -> Optional[ArmTiming]:
        timings = [arm(r) for r in self.rows]
        if not timings or any(t is None for t in timings):
            return None
        seconds = sum(t.seconds for t in timings)  # type: ignore[union-attr]
        if profiled:
            instructions = sum(r.profiled_instructions for r in self.rows)
            accesses = sum(r.profiled_accesses for r in self.rows)
        else:
            instructions = sum(r.instructions for r in self.rows)
            accesses = sum(r.accesses for r in self.rows)
        return ArmTiming(seconds=seconds, ips=instructions / seconds,
                         aps=accesses / seconds)

    @property
    def aggregate_fastpath(self) -> Optional[ArmTiming]:
        return self._aggregate(lambda r: r.fastpath)

    @property
    def aggregate_legacy(self) -> Optional[ArmTiming]:
        return self._aggregate(lambda r: r.legacy)

    @property
    def aggregate_profiled(self) -> Optional[ArmTiming]:
        return self._aggregate(lambda r: r.profiled, profiled=True)

    @property
    def aggregate_profiled_peraccess(self) -> Optional[ArmTiming]:
        return self._aggregate(lambda r: r.profiled_peraccess,
                               profiled=True)

    @property
    def aggregate_allfamilies(self) -> Optional[ArmTiming]:
        return self._aggregate(lambda r: r.allfamilies, profiled=True)

    @property
    def aggregate_store(self) -> Optional[StoreTiming]:
        timings = [r.store for r in self.rows]
        if not timings or any(t is None for t in timings):
            return None
        return StoreTiming(
            write_seconds=sum(t.write_seconds for t in timings),
            read_seconds=sum(t.read_seconds for t in timings),
            raw_bytes=sum(t.raw_bytes for t in timings),
            stored_bytes=sum(t.stored_bytes for t in timings))

    @property
    def aggregate_speedup(self) -> Optional[float]:
        fast, legacy = self.aggregate_fastpath, self.aggregate_legacy
        if fast is None or legacy is None:
            return None
        return legacy.seconds / fast.seconds

    @property
    def aggregate_profiled_speedup(self) -> Optional[float]:
        skip = self.aggregate_profiled
        peraccess = self.aggregate_profiled_peraccess
        if skip is None or peraccess is None:
            return None
        return peraccess.seconds / skip.seconds

    def to_dict(self) -> Dict:
        def arm(t: Optional[ArmTiming]) -> Optional[Dict]:
            if t is None:
                return None
            return {"seconds": round(t.seconds, 6),
                    "ips": round(t.ips, 1), "aps": round(t.aps, 1)}

        def store_arm(t: Optional[StoreTiming]) -> Optional[Dict]:
            if t is None:
                return None
            return {"write_seconds": round(t.write_seconds, 6),
                    "read_seconds": round(t.read_seconds, 6),
                    "raw_bytes": t.raw_bytes,
                    "stored_bytes": t.stored_bytes}

        workloads = {}
        for row in self.rows:
            entry = {"instructions": row.instructions,
                     "accesses": row.accesses,
                     "fastpath": arm(row.fastpath),
                     "legacy": arm(row.legacy)}
            if row.speedup_vs_legacy is not None:
                entry["speedup_vs_legacy"] = round(row.speedup_vs_legacy, 3)
            if row.fusion is not None:
                entry["fusion"] = dict(row.fusion)
            if row.profiled is not None:
                entry["profiled_instructions"] = row.profiled_instructions
                entry["profiled_accesses"] = row.profiled_accesses
                entry["profiled"] = arm(row.profiled)
                entry["profiled_peraccess"] = arm(row.profiled_peraccess)
                entry["allfamilies"] = arm(row.allfamilies)
            if row.profiled_speedup is not None:
                entry["profiled_speedup"] = round(row.profiled_speedup, 3)
            if row.store is not None:
                entry["store"] = store_arm(row.store)
            workloads[row.name] = entry
        out = {"schema": SCHEMA, "repeat": self.repeat,
               "workloads": workloads,
               "aggregate": {
                   "instructions": sum(r.instructions for r in self.rows),
                   "accesses": sum(r.accesses for r in self.rows),
                   "fastpath": arm(self.aggregate_fastpath),
                   "legacy": arm(self.aggregate_legacy)}}
        agg = out["aggregate"]
        if self.aggregate_speedup is not None:
            agg["speedup_vs_legacy"] = round(self.aggregate_speedup, 3)
        if self.aggregate_profiled is not None:
            agg["profiled_instructions"] = sum(
                r.profiled_instructions for r in self.rows)
            agg["profiled_accesses"] = sum(
                r.profiled_accesses for r in self.rows)
            agg["profiled"] = arm(self.aggregate_profiled)
            agg["profiled_peraccess"] = arm(self.aggregate_profiled_peraccess)
            agg["allfamilies"] = arm(self.aggregate_allfamilies)
        if self.aggregate_profiled_speedup is not None:
            agg["profiled_speedup"] = round(
                self.aggregate_profiled_speedup, 3)
        if self.aggregate_store is not None:
            agg["store"] = store_arm(self.aggregate_store)
        if self.serve_load is not None:
            out["serve_load"] = self.serve_load
        if self.fleet_scaling is not None:
            out["fleet_scaling"] = self.fleet_scaling
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


def _profiled_arms(workload: Workload, repeat: int, variant: str,
                   seed: Optional[int] = None
                   ) -> "tuple[ArmTiming, ArmTiming, ArmTiming, int, int]":
    """Time the three profiled arms on the instrumented program.

    Raises :class:`EquivalenceError` if the skip-ahead and per-access
    counting boundaries disagree on the MachineResult or on the number
    of samples DJXPerf handled — they must be bit-identical.
    """
    # Imported lazily: plain fastpath/legacy benching should not pull
    # the whole profiler stack in.
    from repro.baselines import (
        AllocFrequencyProfiler,
        CodeCentricProfiler,
        ReuseDistanceProfiler,
    )
    from repro.core import DJXPerf, DjxConfig
    from repro.core.javaagent import instrument_program

    program = instrument_program(workload.build_verified(variant))
    base_config = dataclasses.replace(workload.machine_config(),
                                      fastpath=True)
    if seed is not None:
        base_config = dataclasses.replace(base_config, seed=seed)

    def djx_attach(machine: Machine) -> "DJXPerf":
        profiler = DJXPerf(DjxConfig(sample_period=DJX_PERIOD))
        profiler.attach(machine)
        return profiler

    agents = []

    def attach_skip(machine: Machine) -> None:
        agents.append(djx_attach(machine).agent)

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
        ReuseDistanceProfiler().attach(machine)
        ReplicaProfiler(sample_period=DJX_PERIOD).attach(machine)
        RedundancyProfiler(sample_period=DJX_PERIOD).attach(machine)

    _, families_seconds, _ = _time_run(
        program, dataclasses.replace(base_config, skip_ahead=True),
        repeat, attach_families)

    skip_timing, instructions, accesses = _timing(skip_result, skip_seconds)
    peraccess_timing, _, _ = _timing(peraccess_result, peraccess_seconds)
    families_timing = ArmTiming(seconds=families_seconds,
                                ips=instructions / families_seconds,
                                aps=accesses / families_seconds)
    return (skip_timing, peraccess_timing, families_timing,
            instructions, accesses)


def _store_arm(workload: Workload, repeat: int, variant: str,
               seed: Optional[int] = None) -> StoreTiming:
    """Time persisting this workload's profile through the store.

    One profiled run produces the analysis; each repeat then writes it
    into a fresh store file and reads it back, keeping the best times.
    The write path is serialise + gzip + insert, the read path is
    select + gunzip + deserialise — the serving layer's per-profile
    cost, tracked so regressions in payload size or codec show up in
    ``BENCH_throughput.json`` like any throughput regression.
    """
    import os
    import tempfile

    from repro.core import DjxConfig
    from repro.serve.store import ProfileStore, profile_key_for
    from repro.workloads.runner import run_profiled

    config = DjxConfig(sample_period=DJX_PERIOD)
    run = run_profiled(workload, variant=variant, config=config, seed=seed)
    key = profile_key_for(workload, variant, config, seed=seed)

    best_write: Optional[float] = None
    best_read: Optional[float] = None
    raw_bytes = stored_bytes = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(repeat):
            path = os.path.join(tmp, f"bench-{i}.sqlite")
            with ProfileStore(path) as store:
                started = time.perf_counter()
                record = store.put_profile(
                    key, run.analysis,
                    wall_cycles=run.result.wall_cycles)
                write_elapsed = time.perf_counter() - started
                started = time.perf_counter()
                _, loaded = store.get_profile(record.record_id)
                read_elapsed = time.perf_counter() - started
                if loaded.total() != run.analysis.total():
                    raise EquivalenceError(
                        f"{workload.name}: store round-trip changed the "
                        f"profile ({loaded.total()} != "
                        f"{run.analysis.total()} samples)")
                raw_bytes = record.payload_bytes
                stored_bytes = store.stats()["stored_bytes"]
            if best_write is None or write_elapsed < best_write:
                best_write = write_elapsed
            if best_read is None or read_elapsed < best_read:
                best_read = read_elapsed
    assert best_write is not None and best_read is not None
    return StoreTiming(write_seconds=best_write, read_seconds=best_read,
                       raw_bytes=raw_bytes, stored_bytes=stored_bytes)


def bench_workload(workload: Workload, repeat: int = 3,
                   legacy: bool = True, profiled: bool = False,
                   variant: str = "baseline",
                   seed: Optional[int] = None,
                   store: bool = False) -> BenchRow:
    """Measure one workload; raises :class:`EquivalenceError` if the
    legacy arm disagrees with the fast path on any result field, or if
    the profiled arms' counting boundaries disagree.  ``seed``
    overrides the machine seed identically on every arm."""
    program = workload.build_verified(variant)
    config = dataclasses.replace(workload.machine_config(), fastpath=True)
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    fast_result, fast_seconds, fast_machine = _time_run(program, config,
                                                        repeat)
    fast, instructions, accesses = _timing(fast_result, fast_seconds)
    legacy_timing: Optional[ArmTiming] = None
    if legacy:
        legacy_result, legacy_seconds, _ = _time_run(
            program, dataclasses.replace(config, fastpath=False), repeat)
        if legacy_result != fast_result:
            raise EquivalenceError(
                f"{workload.name}: fastpath and legacy engines disagree "
                f"(fast={fast_result!r}, legacy={legacy_result!r})")
        legacy_timing = ArmTiming(seconds=legacy_seconds,
                                  ips=instructions / legacy_seconds,
                                  aps=accesses / legacy_seconds)
    profiled_timing = peraccess_timing = families_timing = None
    profiled_instructions = profiled_accesses = 0
    if profiled:
        (profiled_timing, peraccess_timing, families_timing,
         profiled_instructions, profiled_accesses) = _profiled_arms(
            workload, repeat, variant, seed=seed)
    store_timing = (_store_arm(workload, repeat, variant, seed=seed)
                    if store else None)
    return BenchRow(name=workload.name, instructions=instructions,
                    accesses=accesses, fastpath=fast, legacy=legacy_timing,
                    profiled_instructions=profiled_instructions,
                    profiled_accesses=profiled_accesses,
                    profiled=profiled_timing,
                    profiled_peraccess=peraccess_timing,
                    allfamilies=families_timing,
                    store=store_timing,
                    fusion=dataclasses.asdict(fast_machine.fusion))


def _bench_worker(task) -> BenchRow:
    """One suite fan-out task: ``(name, repeat, legacy, profiled,
    variant, seed, store)``.  Module-level so the worker stays
    picklable across the process pool; BenchRow and its timings are
    frozen dataclasses of primitives, so results pickle cleanly too."""
    name, repeat, legacy, profiled, variant, seed, store = task
    return bench_workload(get_workload(name), repeat=repeat, legacy=legacy,
                          profiled=profiled, variant=variant, seed=seed,
                          store=store)


def bench_suite(names: Optional[Sequence[str]] = None, repeat: int = 3,
                legacy: bool = True, profiled: bool = False,
                progress: Optional[Callable[[BenchRow], None]] = None,
                seed: Optional[int] = None,
                store: bool = False,
                jobs: int = 1) -> BenchReport:
    """Run the harness over ``names`` (default: the full suite).

    ``jobs > 1`` fans the per-workload measurements over a
    :class:`repro.serve.workers.WorkerPool` process pool (one workload
    per task, rows returned in ``names`` order; ``progress`` fires as
    the ordered results are collected).  Wall-time measurements from
    parallel workers are noisier than serial ones — use fan-out for
    quick comparative runs, keep the committed baseline serial.
    """
    if names is None:
        names = suite_names()
    if not names:
        raise ValueError("no workloads to benchmark")
    rows: List[BenchRow] = []
    if jobs > 1 and len(names) > 1:
        from repro.serve.workers import WorkerPool

        tasks = [(name, repeat, legacy, profiled, "baseline", seed,
                  store) for name in names]
        with WorkerPool(_bench_worker,
                        jobs=min(jobs, len(tasks))) as pool:
            outcomes = pool.map(tasks)
        failures = [(names[o.index], o.error)
                    for o in outcomes if not o.ok]
        if failures:
            detail = "; ".join(f"{n}: {e}" for n, e in failures)
            raise RuntimeError(
                f"{len(failures)} of {len(tasks)} bench workload(s) "
                f"failed ({detail})")
        for outcome in outcomes:
            rows.append(outcome.value)
            if progress is not None:
                progress(outcome.value)
        return BenchReport(rows=rows, repeat=repeat)
    for name in names:
        row = bench_workload(get_workload(name), repeat=repeat,
                             legacy=legacy, profiled=profiled, seed=seed,
                             store=store)
        rows.append(row)
        if progress is not None:
            progress(row)
    return BenchReport(rows=rows, repeat=repeat)


def bench_optimize(suite=OPTIMIZE_SUITE, seed: Optional[int] = None,
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
        verdict = optimize_workload(name, family=family, seed=seed)
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


def _check_engine_ratios(report: BenchReport, baseline: Dict,
                         tolerance: float) -> List[str]:
    failures: List[str] = []
    measured = report.aggregate_speedup
    if measured is None:
        return ["regression check needs both engines: "
                "run without --no-legacy"]
    committed = baseline.get("aggregate", {}).get("speedup_vs_legacy")
    if committed is None:
        return ["baseline has no aggregate.speedup_vs_legacy field"]
    floor = committed * (1.0 - tolerance)
    if measured < floor:
        failures.append(
            f"aggregate fastpath speedup regressed: measured "
            f"{measured:.3f}x < floor {floor:.3f}x "
            f"(committed {committed:.3f}x - {tolerance:.0%})")
    profiled_measured = report.aggregate_profiled_speedup
    profiled_committed = baseline.get("aggregate", {}).get(
        "profiled_speedup")
    if profiled_measured is not None and profiled_committed is not None:
        profiled_floor = profiled_committed * (1.0 - tolerance)
        if profiled_measured < profiled_floor:
            failures.append(
                f"profiled skip-ahead speedup regressed: measured "
                f"{profiled_measured:.3f}x < floor {profiled_floor:.3f}x "
                f"(committed {profiled_committed:.3f}x - {tolerance:.0%})")
    return failures


def _check_serve_load(serve: Dict, base: Dict, tolerance: float,
                      serve_tolerance: float) -> List[str]:
    """Gate the fleet arm on machine-transferable quantities.

    Absolute p50/p99 latencies do not transfer between the committing
    machine and the checking machine, but the *tail ratio* (p99/p50)
    does — both percentiles come from the same clients on the same
    machine.  ``serve_tolerance`` is the allowed relative growth of the
    tail ratio (default 1.0: fail only when the tail more than doubles
    relative to the committed ratio — serving latency under a thread
    scheduler is far noisier than in-process engine timing).  The
    dedupe hit rate is deterministic (fixed duplicate schedule), so it
    gets the ordinary ``tolerance`` as a floor, and the cross-shard
    reshard hit is pass/fail: once committed as working it must not be
    lost.
    """
    failures: List[str] = []
    measured_tail = serve.get("tail_ratio")
    committed_tail = base.get("tail_ratio")
    if measured_tail is None:
        failures.append("serve_load run has no tail_ratio")
    elif committed_tail is not None:
        ceiling = committed_tail * (1.0 + serve_tolerance)
        if measured_tail > ceiling:
            failures.append(
                f"serve p99/p50 tail ratio regressed: measured "
                f"{measured_tail:.2f} > ceiling {ceiling:.2f} "
                f"(committed {committed_tail:.2f} + "
                f"{serve_tolerance:.0%})")
    measured_hits = serve.get("dedupe_hit_rate")
    committed_hits = base.get("dedupe_hit_rate")
    if measured_hits is not None and committed_hits is not None:
        hit_floor = committed_hits * (1.0 - tolerance)
        if measured_hits < hit_floor:
            failures.append(
                f"fleet dedupe hit rate regressed: measured "
                f"{measured_hits:.3f} < floor {hit_floor:.3f} "
                f"(committed {committed_hits:.3f} - {tolerance:.0%})")
    if (base.get("cross_shard") or {}).get("hit") and \
            not (serve.get("cross_shard") or {}).get("hit"):
        failures.append(
            "cross-shard dedupe lost: the resharded duplicate was "
            "simulated instead of served from the fleet index")
    return failures


def _check_fleet_scaling(fleet: Dict, base: Dict,
                         tolerance: float) -> List[str]:
    """Gate the fleet scaling arm on transferable ratios.

    Absolute jobs/sec depends on the machine, but the *scaling ratio*
    (N-shard jobs/sec over 1-shard jobs/sec, both measured back-to-back
    on the same machine) transfers.  Both points run the in-process
    fleet, whose shards simulate on threads, so a healthy ratio sits
    near 1.0 on any core count; what drags it down is a front door or
    router that serialises the fleet on one shard (a shared lock, a
    request that blocks on one shard's daemon).  The floor is relative
    to the *committed* ratio.  The warm compile-cache hit rate is
    deterministic for a fixed request mix, so it gets the same
    relative floor.
    """
    failures: List[str] = []
    measured = fleet.get("scaling_ratio")
    committed = base.get("scaling_ratio")
    if measured is None:
        failures.append("fleet_scaling run has no scaling_ratio")
    elif committed is not None:
        floor = committed * (1.0 - tolerance)
        if measured < floor:
            failures.append(
                f"fleet scaling ratio regressed: measured "
                f"{measured:.3f}x < floor {floor:.3f}x "
                f"(committed {committed:.3f}x - {tolerance:.0%})")
    measured_warm = fleet.get("warm_hit_rate")
    committed_warm = base.get("warm_hit_rate")
    if measured_warm is not None and committed_warm is not None:
        warm_floor = committed_warm * (1.0 - tolerance)
        if measured_warm < warm_floor:
            failures.append(
                f"warm compile-cache hit rate regressed: measured "
                f"{measured_warm:.3f} < floor {warm_floor:.3f} "
                f"(committed {committed_warm:.3f} - {tolerance:.0%})")
    for point in fleet.get("points", []):
        if point.get("jobs_failed"):
            failures.append(
                f"fleet scaling point shards={point.get('shards')} "
                f"had {point['jobs_failed']} failed jobs")
    return failures


def _check_optimize(optimize: Dict, base: Dict,
                    tolerance: float) -> List[str]:
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
            committed_speedup = committed.get("speedup")
            measured_speedup = measured.get("speedup")
            if committed_speedup and measured_speedup:
                floor = committed_speedup * (1.0 - tolerance)
                if measured_speedup < floor:
                    failures.append(
                        f"verified speedup for {name} regressed: "
                        f"measured {measured_speedup:.3f}x < floor "
                        f"{floor:.3f}x (committed "
                        f"{committed_speedup:.3f}x - {tolerance:.0%})")
    return failures


def check_regression(report: BenchReport, baseline: Dict,
                     tolerance: float = 0.20,
                     serve_tolerance: float = 1.0) -> List[str]:
    """Compare a fresh run against a committed baseline report.

    Returns a list of human-readable failures (empty = pass).  Speedup
    *ratios* are compared, not absolute throughput: each ratio's two
    arms are measured within one process on one machine, so the ratio
    transfers between the committing machine and the checking machine,
    while raw ips does not.  Engine rows gate fastpath-over-legacy and
    — if both the run and the baseline carry profiled arms —
    skip-ahead-over-per-access ratios; a ``serve_load`` section gates
    the fleet arm's p99/p50 tail ratio (ceiling ``serve_tolerance``),
    dedupe hit rate (floor ``tolerance``), and the cross-shard reshard
    hit (see :func:`_check_serve_load`); a ``fleet_scaling`` section
    gates the fleet scaling ratio and warm compile-cache hit
    rate (see :func:`_check_fleet_scaling`); an ``optimize`` section
    gates the profile-guided optimizer's verdicts and verified
    simulated-cycle speedups (see :func:`_check_optimize`).
    """
    failures: List[str] = []
    if report.rows:
        failures.extend(_check_engine_ratios(report, baseline, tolerance))
    serve = report.serve_load
    base_serve = baseline.get("serve_load")
    if serve is not None and base_serve is not None:
        failures.extend(_check_serve_load(serve, base_serve, tolerance,
                                          serve_tolerance))
    fleet = report.fleet_scaling
    base_fleet = baseline.get("fleet_scaling")
    if fleet is not None and base_fleet is not None:
        failures.extend(_check_fleet_scaling(fleet, base_fleet,
                                             tolerance))
    optimize = report.optimize
    base_optimize = baseline.get("optimize")
    if optimize is not None and base_optimize is not None:
        failures.extend(_check_optimize(optimize, base_optimize,
                                        tolerance))
    if not report.rows and serve is None and fleet is None \
            and optimize is None:
        failures.append("nothing to check: the run has neither engine "
                        "rows nor a serve arm section")
    return failures
