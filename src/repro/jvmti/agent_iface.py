"""JVMTI-style method resolution over the simulated machine.

Exposes the JVM queries DJXPerf's offline attribution consumes (paper
§4.4): method-id resolution to class/method names and
``GetLineNumberTable`` (BCI → source line per JITted method instance).
Everything an agent *observes* — thread start/end, allocations, GC
``memmove``/``finalize``/notification, compiles and PMU samples with
their ``AsyncGetCallTrace`` paths — reaches it as events on the
machine's :class:`~repro.obs.bus.EventBus`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.jvm.machine import Machine


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
