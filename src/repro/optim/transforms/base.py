"""Transform catalog plumbing: base class, registry, family gating.

A transform consumes one piece of :class:`~repro.optim.advice.Advice`
(the profiler's ranked finding, carrying the resolved allocation site)
plus the *uninstrumented* program, and either returns a rewritten
program or ``None`` when the advised site does not match the shape the
transform knows how to fix.  Every successful application re-verifies
the rewritten program before returning — a transform that emits
unverifiable bytecode must fail at the transform, not downstream.

Transforms never mutate their input: they work on
:meth:`~repro.jvm.classfile.JProgram.clone` copies and replace methods
or classes in the clone.  Rollback in the engine is therefore "keep the
original object".
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.jvm.bytecode import Instruction, Op
from repro.jvm.classfile import JMethod, JProgram
from repro.jvm.verifier import verify_program
from repro.optim.advice import Advice, AdviceKind


@dataclass(frozen=True)
class TransformResult:
    """One successful rewrite: the new program plus provenance."""

    program: JProgram
    transform: str
    target: str          # advised site location ("Class.method:line")
    detail: str          # human-readable description of the edit


class Transform(abc.ABC):
    """One catalog entry."""

    #: Registry name (also the CLI ``--transform`` value).
    name: str = ""
    #: Advice kinds this transform knows how to act on.
    advice_kinds: Tuple[AdviceKind, ...] = ()
    description: str = ""

    @abc.abstractmethod
    def apply(self, program: JProgram, advice: Advice,
              capacity: Optional[int] = None) -> Optional[TransformResult]:
        """Rewrite ``program`` for ``advice``; None if no candidate.

        ``capacity`` is an explicit override for capacity-style
        transforms (presizing); others ignore it.  Implementations must
        call :func:`verify_program` on the rewritten program before
        returning it.
        """

    def _result(self, program: JProgram, advice: Advice,
                detail: str) -> TransformResult:
        """Verify the rewrite and package it (the mandatory round-trip)."""
        verify_program(program)
        return TransformResult(program=program, transform=self.name,
                               target=advice.location, detail=detail)

    def __repr__(self) -> str:
        return f"<transform {self.name}>"


# ----------------------------------------------------------------------
# Shared site-to-bytecode mapping helpers
# ----------------------------------------------------------------------
def site_method(program: JProgram, advice: Advice) -> Optional[JMethod]:
    """The method containing the advised site's allocation leaf."""
    leaf = advice.site.leaf
    if leaf is None:
        return None
    method = program.methods.get(leaf.method_name)
    if method is None or method.class_name != leaf.class_name:
        return None
    return method


def replace_method(program: JProgram, method: JMethod,
                   code: Sequence[Instruction]) -> JProgram:
    """Clone ``program`` with ``method``'s code swapped for ``code``."""
    out = program.clone()
    out.methods[method.name] = JMethod(
        method.class_name, method.name, method.num_args, list(code),
        method.source_file, method.max_locals)
    return out


def pushes_one_operand(ins: Instruction) -> bool:
    """Whether ``ins`` pushes exactly one value and pops none."""
    return ins.op in (Op.ICONST, Op.FCONST, Op.GETSTATIC) \
        or ins.op is Op.LOAD


# ----------------------------------------------------------------------
# Registry + family gating
# ----------------------------------------------------------------------
#: name → transform instance; populated by the concrete modules via
#: :func:`register_transform` at import time.
TRANSFORMS: Dict[str, Transform] = {}


def register_transform(transform: Transform) -> Transform:
    if not transform.name:
        raise ValueError(f"{transform!r} has no name")
    if transform.name in TRANSFORMS:
        raise ValueError(f"duplicate transform {transform.name!r}")
    TRANSFORMS[transform.name] = transform
    return transform


#: Profiler family → transform names its advice can drive.  Families
#: absent here have no mechanical transforms yet (their advice is
#: human-facing only), and the engine rejects them with a clear error.
FAMILY_TRANSFORMS: Dict[str, Tuple[str, ...]] = {
    "djxperf": ("hoist", "presize", "reorder-fields", "swap-boxed-array"),
    "replica": ("hoist",),
    "redundancy": ("eliminate-dead-stores",),
}

#: Advice kind → transform names to try, in order.  A kind may chain
#: several transforms: e.g. a bloat (hoist-advised) site whose
#: allocation escapes into an array cannot be hoisted, but may be a
#: box-swap or layout-packing candidate.  Most-rigid first: the box
#: swap only fires on its exact idiom, while hoisting matches broadly
#: (and relies on the engine's gates to catch escaping allocations),
#: so it goes last.
KIND_TRANSFORMS: Dict[AdviceKind, Tuple[str, ...]] = {
    AdviceKind.HOIST_ALLOCATION:
        ("swap-boxed-array", "reorder-fields", "hoist"),
    AdviceKind.GROW_INITIAL_CAPACITY: ("presize",),
    AdviceKind.IMPROVE_ACCESS_PATTERN: ("reorder-fields",),
    AdviceKind.NUMA_PLACEMENT: (),
    AdviceKind.DEDUPLICATE_REPLICAS: ("hoist",),
    AdviceKind.ELIMINATE_DEAD_STORES: ("eliminate-dead-stores",),
    AdviceKind.REDUCE_REDUNDANT_LOADS: (),
}


def transforms_for(family: str,
                   transform: Optional[str] = None) -> Tuple[str, ...]:
    """Transform names usable with ``family``, validating the combo.

    With ``transform`` given, validates that single name against the
    family and returns a one-element tuple.  Raises ``ValueError`` with
    an actionable message for unsupported families or combinations —
    the ``repro optimize --family``/``--transform`` contract.
    """
    allowed = FAMILY_TRANSFORMS.get(family)
    if allowed is None:
        supported = ", ".join(sorted(FAMILY_TRANSFORMS))
        raise ValueError(
            f"family {family!r} has no optimization transforms; "
            f"families with transforms: {supported}")
    if transform is None:
        return allowed
    if transform not in TRANSFORMS:
        known = ", ".join(sorted(TRANSFORMS))
        raise ValueError(
            f"unknown transform {transform!r}; catalog: {known}")
    if transform not in allowed:
        raise ValueError(
            f"transform {transform!r} is not applicable to family "
            f"{family!r}; its transforms: {', '.join(allowed)}")
    return (transform,)
