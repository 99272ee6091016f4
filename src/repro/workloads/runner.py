"""Run workloads natively or under a profiler; measure speedups/overheads.

The experiment harnesses in ``benchmarks/`` are thin layers over these
helpers, which in turn follow the paper's methodology: run the baseline
and the optimised variant, compare simulated wall cycles, and (for
profiling studies) compare profiled vs native runs.

Suite-scale measurements (Figure 4 covers two dozen workloads) fan out
over a process pool: each worker simulates one workload and returns its
:class:`OverheadMeasurement`; with ``trace_dir`` set it also records the
observation-event trace, so any later analysis question (different
threshold, different period) is answered by replaying the trace instead
of re-simulating.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.analyzer import AnalysisResult
from repro.core.profiler import DjxConfig
from repro.jvm.machine import Machine, MachineConfig, MachineResult
from repro.workloads.base import Workload

#: Profiler family run_profiled uses when none is named.
DEFAULT_FAMILY = "djxperf"


def _resolve_machine_config(workload: Workload,
                            machine_config: Optional[MachineConfig],
                            seed: Optional[int]) -> MachineConfig:
    """The workload's machine config, with ``seed`` overriding if given."""
    config = machine_config or workload.machine_config()
    if seed is not None and config.seed != seed:
        config = dataclasses.replace(config, seed=seed)
    return config


@dataclass
class ProfiledRun:
    """A workload run under a profiler (DJXPerf or another family).

    ``profiler`` is the :class:`~repro.core.profiler.DJXPerf` agent, or
    the :class:`~repro.families.ObjectFamilyProfiler` subclass of it
    that ``family`` names.
    """

    profiler: object
    machine: Machine
    result: MachineResult
    analysis: AnalysisResult
    #: Observation trace recorded alongside the run, if requested.
    trace_path: Optional[str] = None
    #: Which profiler family produced ``analysis``.
    family: str = DEFAULT_FAMILY


def run_native(workload: Workload, variant: str = "baseline",
               machine_config: Optional[MachineConfig] = None,
               seed: Optional[int] = None) -> MachineResult:
    """Run a variant without any profiler attached.

    ``seed`` overrides the machine's deterministic RNG seed (scheduler
    tie-breaking, NUMA placement) without replacing the whole config.
    """
    workload.check_variant(variant)
    program = workload.build_verified(variant)
    machine = Machine(program,
                      _resolve_machine_config(workload, machine_config, seed))
    return machine.run()


def profile_program(program, machine_config: MachineConfig,
                    config: Optional[DjxConfig] = None,
                    trace_path: Optional[str] = None,
                    trace_accesses: bool = False,
                    family: str = DEFAULT_FAMILY,
                    trace_meta: Optional[dict] = None) -> ProfiledRun:
    """Run an already-built program under a profiler and analyze.

    The program-level core of :func:`run_profiled`, exposed for callers
    that construct or rewrite programs themselves (the profile-guided
    optimizer re-profiles transformed programs through this).  The
    program must be verified and UNinstrumented — instrumentation for
    the selected family happens here.
    """
    from repro.families import make_family

    profiler = make_family(family, config or DjxConfig())
    machine = Machine(profiler.instrument(program), machine_config)
    writer = None
    if trace_path is not None:
        from repro.obs.trace import TraceWriter

        # Attach the writer before the profiler so the profiler's
        # SamplerOpenEvents land in the trace (replay needs them to
        # adopt the recorded sampler ids).
        meta = dict(trace_meta or {})
        meta.setdefault("family", family)
        writer = TraceWriter(trace_path, include_accesses=trace_accesses,
                             meta=meta)
        writer.attach(machine)
    profiler.attach(machine)
    try:
        result = machine.run()
    finally:
        if writer is not None:
            writer.close()
    return ProfiledRun(profiler=profiler, machine=machine, result=result,
                       analysis=profiler.analyze(), trace_path=trace_path,
                       family=family)


def run_profiled(workload: Workload, variant: str = "baseline",
                 config: Optional[DjxConfig] = None,
                 machine_config: Optional[MachineConfig] = None,
                 trace_path: Optional[str] = None,
                 trace_accesses: bool = False,
                 seed: Optional[int] = None,
                 family: str = DEFAULT_FAMILY) -> ProfiledRun:
    """Run a variant under a profiler (launch mode) and analyze.

    ``family`` selects the profiler by its name in
    :data:`repro.families.FAMILIES`: ``"djxperf"`` (default),
    ``"replica"`` or ``"redundancy"``.  Family profilers take their
    sampling period and size threshold from ``config``.

    With ``trace_path`` the machine's observation events are also
    recorded (see :mod:`repro.obs.trace`); ``trace_accesses`` adds the
    raw access stream so a DJXPerf trace supports period resampling.
    A family's trace replays at its recorded period without it.
    ``seed`` overrides the machine seed, as in :func:`run_native`.
    """
    workload.check_variant(variant)
    return profile_program(
        workload.build_verified(variant),
        _resolve_machine_config(workload, machine_config, seed),
        config=config, trace_path=trace_path,
        trace_accesses=trace_accesses, family=family,
        trace_meta={"workload": workload.name, "variant": variant,
                    "family": family})


def measure_speedup(workload: Workload,
                    optimized_variant: Optional[str] = None,
                    baseline_variant: Optional[str] = None
                    ) -> "tuple[float, MachineResult, MachineResult]":
    """Whole-program speedup of the optimisation (paper's WS column).

    Returns (speedup, baseline_result, optimized_result); speedup > 1
    means the optimisation won.
    """
    base = run_native(workload, baseline_variant or workload.baseline_variant)
    opt = run_native(workload, optimized_variant or workload.optimized_variant)
    if opt.wall_cycles == 0:
        raise ZeroDivisionError(f"{workload.name}: optimised run took 0 cycles")
    return base.wall_cycles / opt.wall_cycles, base, opt


@dataclass
class OverheadMeasurement:
    """Profiled-vs-native cost of DJXPerf on one workload."""

    name: str
    native_cycles: int
    profiled_cycles: int
    native_peak_memory: int
    profiler_memory: int
    #: Observation trace recorded by the profiled run, if requested.
    trace_path: Optional[str] = None

    @property
    def runtime_overhead(self) -> float:
        """Profiled / native runtime ratio (1.0 = free)."""
        if self.native_cycles == 0:
            raise ZeroDivisionError(
                f"{self.name}: native run took 0 cycles")
        return self.profiled_cycles / self.native_cycles

    @property
    def memory_overhead(self) -> float:
        """(app peak + profiler) / app peak memory ratio."""
        if self.native_peak_memory == 0:
            return 1.0
        return (self.native_peak_memory + self.profiler_memory) \
            / self.native_peak_memory


def measure_overhead(workload: Workload, variant: str = "baseline",
                     config: Optional[DjxConfig] = None,
                     trace_path: Optional[str] = None,
                     seed: Optional[int] = None,
                     family: str = DEFAULT_FAMILY) -> OverheadMeasurement:
    """Figure-4 style measurement: run native, then run profiled.

    The same ``seed`` is applied to both arms so the comparison is over
    identical schedules.
    """
    native = run_native(workload, variant, seed=seed)
    if native.wall_cycles == 0:
        raise ZeroDivisionError(f"{workload.name}: native run took 0 cycles")
    profiled = run_profiled(workload, variant, config,
                            trace_path=trace_path, seed=seed, family=family)
    return OverheadMeasurement(
        name=workload.name,
        native_cycles=native.wall_cycles,
        profiled_cycles=profiled.result.wall_cycles,
        native_peak_memory=native.heap_peak_used,
        profiler_memory=profiled.profiler.memory_footprint(),
        trace_path=trace_path)


# ----------------------------------------------------------------------
# Suite-scale parallel measurement
# ----------------------------------------------------------------------
#: (workload name, variant, config, trace_path, seed, family) —
#: module-level so the task tuples and the worker stay picklable across
#: the process pool.
_SuiteTask = Tuple[str, str, Optional[DjxConfig], Optional[str],
                   Optional[int], str]


def _suite_overhead_worker(task: _SuiteTask) -> OverheadMeasurement:
    from repro.workloads.base import get_workload

    name, variant, config, trace_path, seed, family = task
    return measure_overhead(get_workload(name), variant, config,
                            trace_path=trace_path, seed=seed, family=family)


def _trace_path_for(trace_dir: Optional[str], name: str,
                    variant: str) -> Optional[str]:
    if trace_dir is None:
        return None
    return os.path.join(trace_dir, f"{name}-{variant}.trace.jsonl.gz")


class SuiteMeasurementError(RuntimeError):
    """Some workloads failed; the ones that finished are attached."""

    def __init__(self, message: str,
                 completed: "List[tuple[str, OverheadMeasurement]]"):
        super().__init__(message)
        #: (name, measurement) for every workload that did finish.
        self.completed = completed


def measure_suite_overheads(names: Sequence[str], variant: str = "baseline",
                            config: Optional[DjxConfig] = None,
                            jobs: Optional[int] = None,
                            trace_dir: Optional[str] = None,
                            seed: Optional[int] = None,
                            timeout: Optional[float] = None,
                            retries: int = 1,
                            family: str = DEFAULT_FAMILY
                            ) -> List[OverheadMeasurement]:
    """Measure overhead for many workloads, fanned over a worker pool.

    ``jobs`` defaults to the CPU count (capped at the workload count);
    ``jobs <= 1`` runs serially in-process.  With ``trace_dir`` each
    profiled run records its observation trace to
    ``<trace_dir>/<name>-<variant>.trace.jsonl.gz`` and the returned
    measurements carry the paths — re-analysis then replays the traces
    instead of re-simulating (:func:`repro.obs.replay.replay_analyze`).

    The fan-out runs on :class:`repro.serve.workers.WorkerPool`, so one
    hung or crashed workload cannot stall the suite: with ``timeout``
    set, a task that exceeds it is killed and retried up to ``retries``
    times.  If any workload still fails, every other result is computed
    first and a :class:`SuiteMeasurementError` is raised naming each
    failure (the finished measurements ride on the exception).

    Results are returned in ``names`` order regardless of which worker
    finished first.
    """
    from repro.serve.workers import WorkerPool

    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    tasks: List[_SuiteTask] = [
        (name, variant, config,
         _trace_path_for(trace_dir, name, variant), seed, family)
        for name in names]
    if jobs is None:
        jobs = min(len(tasks), os.cpu_count() or 1)
    if len(tasks) <= 1:
        jobs = 1
    with WorkerPool(_suite_overhead_worker, jobs=jobs, timeout=timeout,
                    retries=retries) as pool:
        outcomes = pool.map(tasks)
    failures = [(names[o.index], o.error) for o in outcomes if not o.ok]
    if failures:
        completed = [(names[o.index], o.value) for o in outcomes if o.ok]
        detail = "; ".join(f"{name}: {error}" for name, error in failures)
        raise SuiteMeasurementError(
            f"{len(failures)} of {len(tasks)} workload(s) failed "
            f"({detail})", completed)
    return [o.value for o in outcomes]
