"""DJXPerf reproduction: object-centric memory profiling for Java,
rebuilt on a simulated managed runtime.

Public entry points:

* :class:`repro.core.DJXPerf` / :class:`repro.core.DjxConfig` — the profiler,
  which is the JVMTI agent itself: ``instrument``, ``attach``, ``detach``,
  ``analyze``.
* :mod:`repro.families` — the profiler registry (``FAMILIES``: DJXPerf and
  the replica and redundancy families built on it).
* :mod:`repro.obs.replay` — offline re-analysis of a recorded trace.
* :class:`repro.jvm.Machine` / :class:`repro.jvm.JProgram` — the runtime.
* :mod:`repro.workloads` — the paper's evaluation programs.
* :mod:`repro.optim` — profile-driven advice and the hoisting pass.
"""

__version__ = "1.0.0"

from repro.core import DJXPerf, DjxConfig, render_numa_report, render_report
from repro.jvm import JProgram, Machine, MachineConfig, MethodBuilder

__all__ = [
    "DJXPerf",
    "DjxConfig",
    "JProgram",
    "Machine",
    "MachineConfig",
    "MethodBuilder",
    "render_numa_report",
    "render_report",
    "__version__",
]
