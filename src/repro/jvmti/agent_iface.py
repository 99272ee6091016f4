"""JVMTI-style tool interface over the simulated machine.

Exposes exactly the JVM surface DJXPerf consumes (paper §3, §4):

* event callbacks — thread start/end, GC start/end;
* ``AsyncGetCallTrace`` — safe asynchronous unwinding into
  (method-id, BCI) frames, usable from a PMU overflow handler;
* ``GetLineNumberTable`` — BCI → source line per JITted method instance;
* method-id resolution to class/method names;
* the ``GarbageCollectorMXBean`` notification channel, plus the two
  native observables the paper leans on for GC handling: ``memmove``
  interposition and ``finalize`` interception.

An agent can attach to a machine that is already running (attach mode,
§5.1) — callbacks only see events from attach time onward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.jvm.interpreter import JavaThread
from repro.jvm.machine import Machine


@dataclass(frozen=True)
class CallFrame:
    """One frame of an async call trace."""

    method_id: int
    bci: int


@dataclass(frozen=True)
class MethodInfo:
    """Resolution of a method ID (``GetMethodName`` + friends)."""

    method_id: int
    class_name: str
    method_name: str
    source_file: str
    version: int          # which JITted instance
    compiled: bool

    @property
    def qualified_name(self) -> str:
        return f"{self.class_name}.{self.method_name}"


class JvmtiEnv:
    """One agent's view of the VM (a loaded JVMTI environment)."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine

    # ------------------------------------------------------------------
    # Event subscription
    # ------------------------------------------------------------------
    def on_thread_start(self, callback: Callable[[JavaThread], None]) -> None:
        self.machine.on_thread_start.append(callback)

    def on_thread_end(self, callback: Callable[[JavaThread], None]) -> None:
        self.machine.on_thread_end.append(callback)

    def on_gc_start(self, callback: Callable[[int], None]) -> None:
        self.machine.collector.on_gc_start.append(callback)

    def on_gc_end(self, callback: Callable[[int], None]) -> None:
        self.machine.collector.on_gc_end.append(callback)

    def on_gc_notification(self, callback) -> None:
        """``GarbageCollectorMXBean`` notification (paper §4.5)."""
        self.machine.collector.on_notification.append(callback)

    def on_memmove(self, callback) -> None:
        """Interpose on GC object moves (the ``memmove`` overload)."""
        self.machine.collector.on_memmove.append(callback)

    def on_finalize(self, callback) -> None:
        """Intercept ``finalize`` before reclamation."""
        self.machine.collector.on_finalize.append(callback)

    def on_compiled_method_load(self, callback) -> None:
        self.machine.method_table.on_compile.append(callback)

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    def async_get_call_trace(self, ucontext) -> List[CallFrame]:
        """Unwind a thread at an arbitrary point (no safepoint needed).

        ``ucontext`` is the thread object carried in the PMU sample —
        the analogue of the signal ucontext handed to AsyncGetCallTrace.
        Frames are returned root-first, leaf last.
        """
        thread: JavaThread = ucontext
        return [CallFrame(method_id, bci)
                for method_id, bci in thread.call_stack()]

    def get_line_number_table(self, method_id: int) -> Dict[int, int]:
        runtime = self.machine.method_table.resolve(method_id)
        return runtime.method.line_number_table()

    def get_method_info(self, method_id: int) -> MethodInfo:
        runtime = self.machine.method_table.resolve(method_id)
        return MethodInfo(
            method_id=method_id,
            class_name=runtime.method.class_name,
            method_name=runtime.method.name,
            source_file=runtime.method.source_file,
            version=runtime.version,
            compiled=runtime.compiled)

    def line_of(self, frame: CallFrame) -> int:
        """Source line of one call-trace frame."""
        return self.frame_resolver()((frame.method_id, frame.bci)).line

    def frame_resolver(self):
        """A :data:`~repro.core.profile.FrameResolver` mapping raw
        ``(method_id, bci)`` frames to source terms — the one resolver
        every live profiler hands to its analyzer."""
        from repro.core.profile import ResolvedFrame

        def resolve(frame) -> ResolvedFrame:
            method_id, bci = frame
            info = self.get_method_info(method_id)
            table = self.get_line_number_table(method_id)
            return ResolvedFrame(info.class_name, info.method_name,
                                 info.source_file, table.get(bci, 0))

        return resolve

    def live_threads(self) -> List[JavaThread]:
        return [t for t in self.machine.threads if t.alive]

    # ------------------------------------------------------------------
    # NUMA helpers (libnuma surface)
    # ------------------------------------------------------------------
    def move_pages_query(self, addresses: List[int]) -> List[Optional[int]]:
        """``numa_move_pages`` query mode: current node of each page."""
        return self.machine.hierarchy.page_table.move_pages(addresses)

    def node_of_cpu(self, cpu: int) -> int:
        return self.machine.topology.node_of_cpu(cpu)
