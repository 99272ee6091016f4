"""Multi-oracle differential harness for generated programs.

One generated program is run under a matrix of configurations that must
be observationally equivalent, and every divergence is an oracle
failure:

``engine``
    Two-way execution-engine differential: the production engine
    (fused superinstruction blocks over compiled dispatch tables) vs the
    legacy one-step interpreter (``MachineConfig.fastpath`` off), the
    semantic oracle: identical MachineResult, identical analyzer top-10,
    byte-identical recorded trace.
``counting``
    Per-access vs skip-ahead PMU counting
    (``MachineConfig.skip_ahead``) at the paper-default period, a prime
    period and period 1: same checks as ``engine``.
``replay``
    Offline re-analysis of the recorded trace
    (:func:`repro.obs.replay.replay_analyze`) must reproduce the live
    run's analyzer ranking.
``native``
    The instrumented program with no profiler attached must agree with
    the profiled run on every MachineResult field except cycle totals —
    scheduling quanta count *instructions*, so profiler cycle charges
    may stretch simulated time but must never perturb the instruction,
    access, allocation or GC streams, nor program output.

The base arm (fast path, skip-ahead, period 64) additionally carries a
:class:`~repro.fuzz.sanitizers.MachineStateSanitizer` checking machine
state at every quantum boundary, and its thread profiles are folded
into a CCT whose link integrity is checked after the run.
"""

from __future__ import annotations

import dataclasses
import gzip
import os
import tempfile
from typing import Optional, Sequence

from repro.core import DJXPerf, DjxConfig
from repro.core.cct import CallingContextTree
from repro.core.javaagent import instrument_program
from repro.core.report import render_report
from repro.fuzz.generator import ProgramSpec, build_program
from repro.fuzz.sanitizers import (
    MachineStateSanitizer,
    SanitizerError,
    check_cct,
)
from repro.jvm.machine import Machine, MachineConfig
from repro.jvm.verifier import verify_program
from repro.memsys.hierarchy import HierarchyConfig
from repro.obs.trace import TraceWriter

#: Oracle names accepted by :func:`run_oracles` and the CLI ``--oracles``.
ORACLE_NAMES = ("engine", "counting", "replay", "native")

#: Paper default, a prime (chunk boundaries never align), and 1
#: (every counted event overflows).
COUNTING_PERIODS = (64, 13, 1)
BASE_PERIOD = 64

#: MachineResult fields the ``native`` oracle ignores: the profiler
#: charges agent cycles to threads, so only time-valued fields may
#: legitimately differ between profiled and native runs.
CYCLE_FIELDS = ("wall_cycles", "thread_cycles")


class OracleFailure(Exception):
    """One oracle's equivalence (or the run itself) broke."""

    def __init__(self, oracle: str, message: str) -> None:
        super().__init__(f"[{oracle}] {message}")
        self.oracle = oracle
        self.message = message


def fuzz_hierarchy() -> HierarchyConfig:
    """Small caches so generated programs see misses and evictions."""
    return HierarchyConfig(
        l1_size=8 * 1024, l1_assoc=8,
        l2_size=32 * 1024, l2_assoc=8,
        l3_size=512 * 1024, l3_assoc=16,
        tlb_entries=32)


def machine_config(spec: ProgramSpec, fastpath: bool = True,
                   skip_ahead: bool = True) -> MachineConfig:
    return MachineConfig(
        num_nodes=spec.num_nodes, cpus_per_node=2,
        heap_size=spec.heap_size, hierarchy=fuzz_hierarchy(),
        quantum=spec.quantum, gc_policy=spec.gc_policy,
        fastpath=fastpath, skip_ahead=skip_ahead, seed=spec.seed)


@dataclasses.dataclass
class ArmRun:
    """One configuration's observable outcome."""

    result: object
    report: str
    trace: bytes
    trace_path: str
    sanitizer: Optional[MachineStateSanitizer] = None
    profiles: Optional[list] = None


def _read_trace(path: str) -> bytes:
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rb") as fh:
        return fh.read()


def _profiled_arm(spec: ProgramSpec, trace_path: str, *,
                  fastpath: bool = True, skip_ahead: bool = True,
                  period: int = BASE_PERIOD,
                  sanitize: bool = False) -> ArmRun:
    profiler = DJXPerf(DjxConfig(sample_period=period, size_threshold=0))
    program = profiler.instrument(build_program(spec))
    machine = Machine(program, machine_config(spec, fastpath, skip_ahead))
    # Writer first so SamplerOpenEvents land in the trace; sanitizer
    # last so it checks the agent state *after* each batch is applied.
    writer = TraceWriter(trace_path, machine=machine,
                         meta={"fuzz_seed": spec.seed})
    writer.attach(machine)
    profiler.attach(machine)
    sanitizer = None
    if sanitize:
        sanitizer = MachineStateSanitizer(machine, agent=profiler.agent)
        machine.bus.subscribe(sanitizer)
    try:
        result = machine.run()
    finally:
        writer.close()
    analysis = profiler.analyze()
    return ArmRun(result=result, report=render_report(analysis, top=10),
                  trace=_read_trace(trace_path), trace_path=trace_path,
                  sanitizer=sanitizer, profiles=profiler.profiles())


def _native_arm(spec: ProgramSpec) -> object:
    program = instrument_program(build_program(spec))
    machine = Machine(program, machine_config(spec))
    return machine.run()


def _first_trace_diff(a: bytes, b: bytes) -> str:
    a_lines, b_lines = a.splitlines(), b.splitlines()
    for i, (la, lb) in enumerate(zip(a_lines, b_lines)):
        if la != lb:
            return (f"first diff at record {i}: "
                    f"{la[:120]!r} vs {lb[:120]!r}")
    return (f"lengths differ: {len(a_lines)} vs {len(b_lines)} records")


def _compare_arms(name: str, label: str, base: ArmRun,
                  other: ArmRun) -> None:
    if other.result != base.result:
        raise OracleFailure(name, f"{label}: MachineResult diverged "
                                  f"({base.result!r} vs {other.result!r})")
    if other.report != base.report:
        raise OracleFailure(name, f"{label}: analyzer top-10 diverged")
    if other.trace != base.trace:
        raise OracleFailure(
            name, f"{label}: traces diverged; "
            + _first_trace_diff(base.trace, other.trace))


def _check_cct_integrity(profiles: list) -> None:
    """Fold every thread's sampled/allocation paths into one CCT."""
    tree = CallingContextTree()
    for profile in profiles:
        for path in profile.sites:
            tree.record(path, "samples")
    violations = check_cct(tree)
    if violations:
        raise SanitizerError(violations)


def run_oracles(spec: ProgramSpec,
                oracles: Sequence[str] = ORACLE_NAMES,
                tmp_dir: Optional[str] = None) -> Optional[OracleFailure]:
    """Run one spec through the oracle matrix.

    Returns ``None`` when every requested oracle passes, otherwise the
    first :class:`OracleFailure`.  The base profiled arm (with the
    machine-state sanitizer attached) always runs — build errors, traps
    and sanitizer violations are reported under the pseudo-oracles
    ``build``, ``run`` and ``sanitizer``.
    """
    for oracle in oracles:
        if oracle not in ORACLE_NAMES:
            raise ValueError(f"unknown oracle {oracle!r}; "
                             f"have {ORACLE_NAMES}")
    try:
        verify_program(build_program(spec))
    except Exception as exc:
        return OracleFailure("build", f"{type(exc).__name__}: {exc}")

    own_tmp = None
    if tmp_dir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="djx-fuzz-")
        tmp_dir = own_tmp.name

    def path(tag: str) -> str:
        return os.path.join(tmp_dir, f"{tag}.trace.jsonl.gz")

    try:
        try:
            base = _profiled_arm(spec, path("base"), sanitize=True)
            _check_cct_integrity(base.profiles)
        except SanitizerError as exc:
            return OracleFailure("sanitizer", str(exc))
        except Exception as exc:
            return OracleFailure("run", f"{type(exc).__name__}: {exc}")

        try:
            if "engine" in oracles:
                legacy = _profiled_arm(spec, path("legacy"),
                                       fastpath=False)
                _compare_arms("engine", "legacy vs production", base,
                              legacy)
            if "counting" in oracles:
                for period in COUNTING_PERIODS:
                    skip = base if period == BASE_PERIOD else \
                        _profiled_arm(spec, path(f"skip{period}"),
                                      period=period)
                    peracc = _profiled_arm(spec, path(f"per{period}"),
                                           period=period, skip_ahead=False)
                    _compare_arms("counting",
                                  f"period={period} per-access vs "
                                  f"skip-ahead", skip, peracc)
            if "replay" in oracles:
                from repro.obs.replay import replay_analyze

                analysis = replay_analyze(
                    base.trace_path,
                    config=DjxConfig(sample_period=BASE_PERIOD,
                                     size_threshold=0))
                if render_report(analysis, top=10) != base.report:
                    raise OracleFailure(
                        "replay", "offline trace replay ranked sites "
                        "differently from the live run")
            if "native" in oracles:
                native = _native_arm(spec)
                base_fields = dataclasses.asdict(base.result)
                native_fields = dataclasses.asdict(native)
                for field in CYCLE_FIELDS:
                    base_fields.pop(field, None)
                    native_fields.pop(field, None)
                if base_fields != native_fields:
                    diffs = [k for k in base_fields
                             if base_fields[k] != native_fields.get(k)]
                    raise OracleFailure(
                        "native", f"profiled run perturbed the program: "
                        f"fields {diffs} differ "
                        f"(profiled={ {k: base_fields[k] for k in diffs} }, "
                        f"native={ {k: native_fields.get(k) for k in diffs} })")
        except OracleFailure as exc:
            return exc
        except Exception as exc:
            return OracleFailure("run", f"{type(exc).__name__}: {exc}")
        return None
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()
