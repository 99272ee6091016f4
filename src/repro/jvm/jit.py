"""Simulated tiered execution: interpreter → JIT compilation.

HotSpot compiles a method once its invocation counter crosses a
threshold; each compilation produces a distinct JITted instance with its
own method ID, which is why DJXPerf's calling-context machinery keys
frames by *method ID* rather than method name (§4.4: "an individual
method may be JITted multiple times").  This module reproduces that ID
scheme and the interpreted-vs-compiled cost difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.jvm.classfile import JMethod


@dataclass(frozen=True)
class JitConfig:
    """Tiering parameters."""

    #: Invocations before a method is compiled.
    compile_threshold: int = 50
    #: Cycles per bytecode when interpreted.
    interp_cycles_per_instruction: int = 3
    #: Cycles per bytecode once compiled.
    jit_cycles_per_instruction: int = 1
    #: One-off compile pause in cycles, charged to the invoking thread.
    compile_pause_cycles: int = 500
    #: When False, methods never get compiled (pure interpreter).
    enabled: bool = True


class MethodRuntime:
    """Per-method execution state: counters and the current method ID."""

    __slots__ = ("method", "invocation_count", "compiled", "method_id",
                 "version", "cycles_per_instruction_cached",
                 "dispatch_table", "fused_table", "fused_table_observed",
                 "legacy_table")

    def __init__(self, method: JMethod, method_id: int) -> None:
        self.method = method
        self.invocation_count = 0
        self.compiled = False
        self.method_id = method_id
        self.version = 0     # number of (re)compilations
        #: Kept in sync by the owning MethodTable (interpreter fast path).
        self.cycles_per_instruction_cached = 0
        #: Lazily built by :func:`repro.jvm.dispatch.compile_tables`:
        #: one bound handler per bytecode.  The bytecode never
        #: changes, so the tables survive (re)compilations — only the
        #: per-instruction cycle cost above varies by tier.
        self.dispatch_table = None
        #: Superinstruction tables (:func:`repro.jvm.dispatch
        #: .compile_fused`), parallel to the plain table above: an
        #: entry per bytecode, ``(closure, count)`` at each fused-block
        #: leader and ``None`` elsewhere.  Two variants, unobserved and
        #: observed (guarded); the interpreter picks per stretch.
        self.fused_table = None
        self.fused_table_observed = None
        #: The legacy engine's decoded method (``fastpath=False``): one
        #: ``(handler, instruction)`` pair per bytecode, built on first
        #: entry by :meth:`repro.jvm.interpreter.Interpreter.run_quantum`.
        #: Per runtime, so per machine: never shared across programs.
        self.legacy_table = None

    def __repr__(self) -> str:
        tier = "jit" if self.compiled else "interp"
        return (f"MethodRuntime({self.method.qualified_name} "
                f"id={self.method_id} {tier} v{self.version})")


class MethodTable:
    """Owns every method's runtime state and the method-ID namespace.

    The JVMTI layer resolves method IDs back to (class, method, version)
    through :meth:`resolve` — the ``GetMethodName`` analogue.
    ``on_compile`` is called with the MethodRuntime after each compile
    (the JVMTI CompiledMethodLoad analogue; the machine publishes it).
    """

    def __init__(self, config: Optional[JitConfig] = None,
                 on_compile: Optional[Callable[[MethodRuntime], None]] = None
                 ) -> None:
        self.config = config or JitConfig()
        self._next_id = 1
        self._runtimes: Dict[str, MethodRuntime] = {}
        self._by_id: Dict[int, MethodRuntime] = {}
        self.on_compile = on_compile

    def register(self, method: JMethod) -> MethodRuntime:
        if method.name in self._runtimes:
            raise ValueError(f"method {method.name!r} already registered")
        runtime = MethodRuntime(method, self._next_id)
        runtime.cycles_per_instruction_cached = \
            self.config.interp_cycles_per_instruction
        self._next_id += 1
        self._runtimes[method.name] = runtime
        self._by_id[runtime.method_id] = runtime
        return runtime

    def register_program(self, program) -> None:
        for method in program.methods.values():
            self.register(method)

    def runtime(self, method_name: str) -> MethodRuntime:
        try:
            return self._runtimes[method_name]
        except KeyError:
            raise KeyError(f"unregistered method {method_name!r}") from None

    def runtimes(self) -> "List[MethodRuntime]":
        """Every registered method's runtime (warm-up iteration)."""
        return list(self._runtimes.values())

    def resolve(self, method_id: int) -> MethodRuntime:
        """Method ID → runtime (current or historic JITted instance)."""
        try:
            return self._by_id[method_id]
        except KeyError:
            raise KeyError(f"unknown method id {method_id}") from None

    # ------------------------------------------------------------------
    def on_invoke(self, runtime: MethodRuntime) -> int:
        """Count an invocation; compile if hot.  Returns pause cycles."""
        runtime.invocation_count += 1
        if (self.config.enabled and not runtime.compiled
                and runtime.invocation_count >= self.config.compile_threshold):
            return self._compile(runtime)
        return 0

    def _compile(self, runtime: MethodRuntime) -> int:
        # A fresh method ID for the new JITted instance, as in HotSpot.
        del self._by_id[runtime.method_id]
        old_id = runtime.method_id
        runtime.method_id = self._next_id
        self._next_id += 1
        runtime.compiled = True
        runtime.version += 1
        runtime.cycles_per_instruction_cached = \
            self.config.jit_cycles_per_instruction
        self._by_id[runtime.method_id] = runtime
        # Historic IDs must stay resolvable: samples taken before the
        # compile still carry the old ID.
        self._by_id[old_id] = runtime
        if self.on_compile is not None:
            self.on_compile(runtime)
        return self.config.compile_pause_cycles
