"""DJXPerf front-end: configuration, launch/attach, profile export.

Typical launch-mode session (profile from JVM start, §5.1)::

    from repro.core import DJXPerf, DjxConfig

    profiler = DJXPerf(DjxConfig(sample_period=64))
    program = profiler.instrument(program)      # the Java agent pass
    machine = Machine(program)
    profiler.attach(machine)                    # the JVMTI agent
    machine.run()
    report = profiler.analyze()                 # offline analyzer

Attach mode profiles a machine that is already running: run part of the
program, then ``attach``; allocations made before attach are unknown to
the profiler, exercising the fallback paths the paper describes (§4.5,
§5.1).  ``detach`` stops sampling while the program keeps running.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.analyzer import AnalysisResult, analyze_profiles
from repro.core.javaagent import ALLOC_HOOK, instrument_program
from repro.core.jvmtiagent import AgentCostModel, DjxJvmtiAgent
from repro.core.profile import FrameResolver, ThreadProfile
from repro.jvm.classfile import JProgram
from repro.jvm.machine import Machine
from repro.jvmti.agent_iface import JvmtiEnv
from repro.pmu.events import L1_MISS, PmuEvent


@dataclass(frozen=True)
class DjxConfig:
    """Profiler configuration.

    The paper presets the event to L1 cache misses
    (``MEM_LOAD_UOPS_RETIRED:L1_MISS``) and chooses the sampling period
    so each thread yields 20–200 samples/second; simulated programs are
    ~10^5–10^6 events long, so the default period is scaled down
    accordingly.  The default size threshold ``S`` is 1KB (§5.1).
    """

    events: "tuple[PmuEvent, ...]" = (L1_MISS,)
    sample_period: int = 64
    #: Object-size filter S in bytes; 0 monitors every allocation.
    size_threshold: int = 1024
    track_numa: bool = True
    collect_access_contexts: bool = True
    costs: AgentCostModel = field(default_factory=AgentCostModel)

    def __post_init__(self) -> None:
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")
        if self.size_threshold < 0:
            raise ValueError("size_threshold must be >= 0")
        if not self.events:
            raise ValueError("at least one PMU event is required")


class DJXPerf:
    """The profiler: Java agent + JVMTI agent + offline analyzer."""

    def __init__(self, config: Optional[DjxConfig] = None) -> None:
        self.config = config or DjxConfig()
        self.agent: Optional[DjxJvmtiAgent] = None
        self.machine: Optional[Machine] = None

    # ------------------------------------------------------------------
    # Java agent (instrumentation)
    # ------------------------------------------------------------------
    def instrument(self, program: JProgram) -> JProgram:
        """Insert allocation hooks (run before creating the machine)."""
        return instrument_program(program)

    @staticmethod
    def install_noop_hook(machine: Machine) -> None:
        """Compatibility shim: machines now register a default
        ``_djx_on_alloc`` native at construction (it publishes to the
        observation bus and is free while nobody subscribes), so an
        instrumented program always runs without a profiler.  This
        re-registers that default."""
        from repro.jvm.machine import _native_alloc_hook
        machine.register_native(ALLOC_HOOK, _native_alloc_hook)

    # ------------------------------------------------------------------
    # JVMTI agent (measurement)
    # ------------------------------------------------------------------
    def attach(self, machine: Machine) -> None:
        """Attach to a (possibly already running) machine.

        Subscribes the agent to the machine's observation bus; the
        machine's native hook table is left untouched (the default
        ``_djx_on_alloc`` native already publishes AllocEvents).
        """
        if self.agent is not None:
            raise RuntimeError("profiler already attached")
        agent = DjxJvmtiAgent(
            machine,
            events=list(self.config.events),
            sample_period=self.config.sample_period,
            size_threshold=self.config.size_threshold,
            track_numa=self.config.track_numa,
            collect_access_contexts=self.config.collect_access_contexts,
            costs=self.config.costs)
        agent.start()
        self.machine = machine
        self.agent = agent

    def detach(self) -> None:
        """Stop measuring; the program keeps running undisturbed."""
        if self.agent is None:
            raise RuntimeError("profiler not attached")
        self.agent.stop()

    @property
    def attached(self) -> bool:
        return self.agent is not None and self.agent.enabled

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def profiles(self) -> List[ThreadProfile]:
        self._require_agent()
        return list(self.agent.profiles.values())

    def frame_resolver(self) -> FrameResolver:
        """Resolver mapping raw (method_id, bci) frames to source terms."""
        self._require_agent()
        return JvmtiEnv(self.machine).frame_resolver()

    def analyze(self, event: Optional[str] = None) -> AnalysisResult:
        """Run the offline analyzer over all thread profiles."""
        self._require_agent()
        return analyze_profiles(
            self.profiles(), self.frame_resolver(),
            primary_event=event or self.config.events[0].name)

    def dump_profiles(self, directory: str) -> List[str]:
        """Write one JSON profile file per thread (the collector output)."""
        self._require_agent()
        os.makedirs(directory, exist_ok=True)
        resolver = self.frame_resolver()
        paths = []
        for profile in self.profiles():
            path = os.path.join(directory, f"djxperf-thread-{profile.tid}.json")
            with open(path, "w") as fp:
                profile.dump(fp, resolver)
            paths.append(path)
        return paths

    def memory_footprint(self) -> int:
        """Profiler memory use in bytes (for memory-overhead studies)."""
        self._require_agent()
        return self.agent.memory_footprint()

    def _require_agent(self) -> None:
        if self.agent is None:
            raise RuntimeError("profiler not attached to a machine")
