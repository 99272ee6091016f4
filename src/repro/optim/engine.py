"""Profile-guided optimization engine: close the profile → fix loop.

The paper's workflow ends with a human reading the ranked profile and
editing source.  This engine mechanises that last step for the transform
shapes the catalog knows (:mod:`repro.optim.transforms`) and — more
importantly — *verifies* the edit before anyone keeps it:

1. **Profile** the workload under the requested family and triage the
   ranked sites into :class:`~repro.optim.advice.Advice`.
2. **Transform**: walk the advice in rank order; for each, try the
   catalog transforms its kind maps to (gated by family, or pinned by
   an explicit ``--transform``).  The first transform that produces a
   verified rewrite wins.
3. **Gate** the rewrite:

   * *semantics*: the transformed program's printed output must equal
     the baseline's;
   * *engine differential*: the transformed program must produce an
     identical :class:`~repro.jvm.machine.MachineResult` under the
     legacy interpreter (the semantic oracle) and the production fused
     engine (``MachineResult`` deliberately excludes engine-private
     counters so dataclass equality is exactly "same observables");
   * *profile delta* (the PR-5 regress engine run in reverse): the
     planted metric must **drop** — at the advised site and in total —
     and wall cycles must not regress past the
     :class:`~repro.serve.regress.RegressPolicy` threshold.

4. **Verdict**: ``accepted`` keeps the rewrite; any gate failure rolls
   back to the original program and reports ``rejected`` with the gate
   that fired; ``no-candidate`` means no transform matched any advised
   site.  Rollback is trivial by construction — transforms never mutate
   their input, so the original program object is untouched.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core.profiler import DjxConfig
from repro.jvm.machine import Machine, MachineConfig, MachineResult
from repro.jvm.verifier import VerificationError
from repro.optim.advice import Advice, AdviceThresholds, advise
from repro.optim.transforms import KIND_TRANSFORMS, TRANSFORMS, transforms_for
from repro.serve.regress import RegressPolicy, regress_analyses
from repro.workloads.base import Workload, get_workload
from repro.workloads.runner import profile_program, resolve_machine_config

#: Verdict states.
ACCEPTED = "accepted"
REJECTED = "rejected"
NO_CANDIDATE = "no-candidate"

#: The two execution engines every accepted rewrite must agree on: the
#: legacy oracle and the production (fused) engine.
ENGINE_VARIANTS: Tuple[Tuple[str, Dict[str, bool]], ...] = (
    ("legacy", {"fastpath": False}),
    ("fused", {"fastpath": True}),
)


@dataclass
class OptimizationVerdict:
    """Machine-readable outcome of one optimize run."""

    workload: str
    variant: str
    family: str
    status: str
    #: Name of the transform that was applied (None for no-candidate).
    transform: Optional[str] = None
    #: Advised site location the transform targeted.
    target: Optional[str] = None
    advice_kind: Optional[str] = None
    #: Human-readable description of the edit the transform made.
    detail: Optional[str] = None
    reason: str = ""
    event: str = ""
    baseline_cycles: int = 0
    optimized_cycles: int = 0
    metric_total_before: int = 0
    metric_total_after: int = 0
    site_metric_before: int = 0
    site_metric_after: int = 0
    #: Regress-engine site deltas (dicts of RegressionFinding.to_dict).
    improvements: List[dict] = field(default_factory=list)
    findings: List[dict] = field(default_factory=list)
    engines_checked: Tuple[str, ...] = ()
    output_equal: Optional[bool] = None
    rolled_back: bool = False
    #: One entry per (advice, transform) pair tried, in order.
    attempts: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == ACCEPTED

    @property
    def speedup(self) -> Optional[float]:
        """baseline / optimized wall cycles; > 1 means faster."""
        if self.baseline_cycles > 0 and self.optimized_cycles > 0:
            return self.baseline_cycles / self.optimized_cycles
        return None

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "variant": self.variant,
            "family": self.family,
            "status": self.status,
            "transform": self.transform,
            "target": self.target,
            "advice_kind": self.advice_kind,
            "detail": self.detail,
            "reason": self.reason,
            "event": self.event,
            "baseline_cycles": self.baseline_cycles,
            "optimized_cycles": self.optimized_cycles,
            "speedup": self.speedup,
            "metric_total_before": self.metric_total_before,
            "metric_total_after": self.metric_total_after,
            "site_metric_before": self.site_metric_before,
            "site_metric_after": self.site_metric_after,
            "improvements": list(self.improvements),
            "findings": list(self.findings),
            "engines_checked": list(self.engines_checked),
            "output_equal": self.output_equal,
            "rolled_back": self.rolled_back,
            "attempts": list(self.attempts),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizationVerdict":
        return cls(
            workload=data["workload"], variant=data["variant"],
            family=data["family"], status=data["status"],
            transform=data.get("transform"), target=data.get("target"),
            advice_kind=data.get("advice_kind"),
            detail=data.get("detail"), reason=data.get("reason", ""),
            event=data.get("event", ""),
            baseline_cycles=int(data.get("baseline_cycles", 0)),
            optimized_cycles=int(data.get("optimized_cycles", 0)),
            metric_total_before=int(data.get("metric_total_before", 0)),
            metric_total_after=int(data.get("metric_total_after", 0)),
            site_metric_before=int(data.get("site_metric_before", 0)),
            site_metric_after=int(data.get("site_metric_after", 0)),
            improvements=list(data.get("improvements", ())),
            findings=list(data.get("findings", ())),
            engines_checked=tuple(data.get("engines_checked", ())),
            output_equal=data.get("output_equal"),
            rolled_back=bool(data.get("rolled_back", False)),
            attempts=list(data.get("attempts", ())))

    def render(self) -> str:
        lines = [f"optimize verdict: {self.status.upper()} "
                 f"({self.workload}/{self.variant}, family {self.family})"]
        if self.transform:
            lines.append(f"  transform : {self.transform} @ {self.target} "
                         f"[{self.advice_kind}]")
        if self.detail:
            lines.append(f"  edit      : {self.detail}")
        if self.reason:
            lines.append(f"  reason    : {self.reason}")
        if self.baseline_cycles and self.optimized_cycles:
            lines.append(
                f"  cycles    : {self.baseline_cycles} -> "
                f"{self.optimized_cycles} ({self.speedup:.2f}x)")
        if self.event:
            lines.append(
                f"  {self.event:10s}: total {self.metric_total_before} -> "
                f"{self.metric_total_after}, site "
                f"{self.site_metric_before} -> {self.site_metric_after}")
        if self.engines_checked:
            lines.append(
                f"  engines   : identical observables on "
                f"{', '.join(self.engines_checked)}")
        if self.rolled_back:
            lines.append("  (rewrite rolled back; original program kept)")
        for attempt in self.attempts:
            lines.append(
                f"  tried {attempt['transform']:22s} "
                f"@ {attempt['target']:32s} {attempt['outcome']}")
        return "\n".join(lines)


def _site_metric(analysis, advice: Advice, event: str) -> int:
    leaf = advice.site.leaf
    if leaf is None:
        return 0
    site = analysis.site_at(leaf.class_name, leaf.method_name, leaf.line)
    return site.metric(event) if site is not None else 0


def optimize_workload(workload: Union[str, Workload],
                      variant: str = "baseline",
                      family: str = "djxperf",
                      transform: Optional[str] = None,
                      config: Optional[DjxConfig] = None,
                      machine_config: Optional[MachineConfig] = None,
                      seed: Optional[int] = None,
                      capacity: Optional[int] = None,
                      policy: Optional[RegressPolicy] = None,
                      thresholds: Optional[AdviceThresholds] = None,
                      top: int = 8) -> OptimizationVerdict:
    """Profile ``workload``, apply the best catalog transform, verify.

    Raises ``ValueError`` for family/transform combinations the catalog
    rejects (see :func:`repro.optim.transforms.transforms_for`) and for
    unknown workloads or variants; every other outcome — including "the
    rewrite made things worse" — is an :class:`OptimizationVerdict`.

    ``capacity`` pins the presize transform's target capacity instead
    of deriving it from the observed growth chain (the knob the
    rollback tests use to force a deliberately-worse rewrite).
    """
    if isinstance(workload, str):
        workload = get_workload(workload)
    allowed = transforms_for(family, transform)
    workload.check_variant(variant)
    # Track every sized object: optimization targets include small
    # boxes and records the default 1 KiB reporting threshold hides.
    config = config or DjxConfig(size_threshold=0)
    policy = policy or RegressPolicy()
    mconfig = resolve_machine_config(workload, machine_config, seed)
    program = workload.build_verified(variant)

    native_base = Machine(program.clone(), mconfig).run()
    base_run = profile_program(program.clone(), mconfig, config=config,
                               family=family)
    event = base_run.analysis.primary_event
    advices = advise(base_run.analysis, thresholds, top=top)

    verdict = OptimizationVerdict(
        workload=workload.name, variant=variant, family=family,
        status=NO_CANDIDATE, event=event,
        baseline_cycles=native_base.wall_cycles,
        metric_total_before=base_run.analysis.total())

    applied = None
    applied_advice = None
    for advice in advices:
        names = [name for name in KIND_TRANSFORMS.get(advice.kind, ())
                 if name in allowed]
        for name in names:
            attempt = {"transform": name, "target": advice.location,
                       "advice_kind": advice.kind.value}
            try:
                result = TRANSFORMS[name].apply(program, advice,
                                                capacity=capacity)
            except VerificationError as exc:
                attempt["outcome"] = f"verification failed: {exc}"
                verdict.attempts.append(attempt)
                continue
            if result is None:
                attempt["outcome"] = "no matching bytecode shape"
                verdict.attempts.append(attempt)
                continue
            attempt["outcome"] = "applied"
            verdict.attempts.append(attempt)
            applied, applied_advice = result, advice
            break
        if applied is not None:
            break

    if applied is None:
        verdict.reason = (
            "no catalog transform matched any advised site "
            f"({len(advices)} advice entries, "
            f"transforms tried: {', '.join(allowed)})")
        return verdict

    verdict.transform = applied.transform
    verdict.target = applied.target
    verdict.advice_kind = applied_advice.kind.value
    verdict.detail = applied.detail
    verdict.site_metric_before = _site_metric(base_run.analysis,
                                              applied_advice, event)

    # Gate 0: the rewrite must run at all.  A transform whose static
    # safety checks were too optimistic (out-of-bounds after a capacity
    # rewrite, a trap in NOPed-over code) is a rejection, not a crash.
    try:
        native_opt = Machine(applied.program.clone(), mconfig).run()
    except Exception as exc:
        verdict.status = REJECTED
        verdict.rolled_back = True
        verdict.reason = (f"runtime-trap: transformed program failed "
                          f"({type(exc).__name__}: {exc}); rewrite "
                          f"discarded")
        return verdict

    # Gate 1: semantics — printed output must be unchanged.
    verdict.optimized_cycles = native_opt.wall_cycles
    verdict.output_equal = native_opt.output == native_base.output
    if not verdict.output_equal:
        verdict.status = REJECTED
        verdict.rolled_back = True
        verdict.reason = (
            "semantics-changed: transformed program printed different "
            "output; rewrite discarded")
        return verdict

    # Gate 2: engine differential — identical observables everywhere.
    # An engine whose config is the one Gate 0 ran is not run again:
    # the simulation is deterministic, so ``native_opt`` is its result.
    reference: Optional[MachineResult] = None
    for engine_name, overrides in ENGINE_VARIANTS:
        engine_config = dataclasses.replace(mconfig, **overrides)
        try:
            result = (native_opt if engine_config == mconfig else
                      Machine(applied.program.clone(), engine_config).run())
        except Exception as exc:
            verdict.status = REJECTED
            verdict.rolled_back = True
            verdict.reason = (
                f"runtime-trap: transformed program failed on the "
                f"{engine_name} engine ({type(exc).__name__}: {exc}); "
                f"rewrite discarded")
            return verdict
        if reference is None:
            reference = result
        elif result != reference:
            verdict.status = REJECTED
            verdict.rolled_back = True
            verdict.reason = (
                f"engine-divergence: {engine_name} engine disagrees "
                f"with {ENGINE_VARIANTS[0][0]} on the transformed "
                f"program; rewrite discarded")
            return verdict
    verdict.engines_checked = tuple(name for name, _ in ENGINE_VARIANTS)

    # Gate 3: the regress engine in reverse — re-profile and demand a
    # measured improvement without a throughput regression.
    opt_run = profile_program(applied.program.clone(), mconfig,
                              config=config, family=family)
    verdict.metric_total_after = opt_run.analysis.total()
    verdict.site_metric_after = _site_metric(opt_run.analysis,
                                             applied_advice, event)
    regress = regress_analyses(
        base_run.analysis, opt_run.analysis,
        workload=workload.name, variant=variant,
        baseline_cycles=native_base.wall_cycles,
        candidate_cycles=native_opt.wall_cycles, policy=policy)
    verdict.improvements = [f.to_dict() for f in regress.improvements]
    verdict.findings = [f.to_dict() for f in regress.findings]

    throughput_drops = [f for f in regress.findings
                        if f.kind == "throughput-drop"]
    metric_dropped = (
        verdict.metric_total_after < verdict.metric_total_before
        and verdict.site_metric_after < verdict.site_metric_before)
    if throughput_drops:
        verdict.status = REJECTED
        verdict.rolled_back = True
        verdict.reason = f"throughput regressed: {throughput_drops[0].detail}"
    elif not metric_dropped:
        verdict.status = REJECTED
        verdict.rolled_back = True
        verdict.reason = (
            f"no measured improvement: {event} total "
            f"{verdict.metric_total_before} -> "
            f"{verdict.metric_total_after}, advised site "
            f"{verdict.site_metric_before} -> {verdict.site_metric_after}")
    else:
        verdict.status = ACCEPTED
        verdict.reason = (
            f"verified: {event} total "
            f"{verdict.metric_total_before} -> "
            f"{verdict.metric_total_after}, advised site "
            f"{verdict.site_metric_before} -> {verdict.site_metric_after}, "
            f"cycles {verdict.baseline_cycles} -> "
            f"{verdict.optimized_cycles}")
    return verdict
