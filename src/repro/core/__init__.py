"""DJXPerf core: object-centric profiling (the paper's contribution).

The paper's three parts (§4): the Java agent's allocation
instrumentation (:mod:`repro.core.javaagent`), the JVMTI agent that
samples and attributes — :class:`DJXPerf` itself, a bus collector
(:mod:`repro.core.profiler`) — and the offline analyzer
(:mod:`repro.core.analyzer`, rendered by :mod:`repro.core.report`).
"""

from repro.core.analyzer import AnalysisResult, analyze_profiles
from repro.core.cct import CallingContextTree, CctNode
from repro.core.javaagent import (
    ALLOC_HOOK,
    AllocationSite,
    allocation_site_count,
    instrument_method,
    instrument_program,
)
from repro.core.profile import (
    ObjectSiteStats,
    ResolvedFrame,
    ResolvedSite,
    ThreadProfile,
    TrackedObject,
)
from repro.core.profiler import AgentCostModel, AgentStats, DJXPerf, DjxConfig
from repro.core.report import render_numa_report, render_report, render_site
from repro.core.splay import IntervalSplayTree
from repro.core.tuning import (
    CalibrationResult,
    calibrate_period,
    clamp_period_to_window,
)
from repro.core.diff import ProfileDiff, SiteDelta, diff_profiles
from repro.core.htmlreport import render_html, write_html

__all__ = [
    "ALLOC_HOOK",
    "AgentCostModel",
    "AgentStats",
    "AllocationSite",
    "AnalysisResult",
    "CallingContextTree",
    "CctNode",
    "DJXPerf",
    "DjxConfig",
    "IntervalSplayTree",
    "ObjectSiteStats",
    "ResolvedFrame",
    "ResolvedSite",
    "ThreadProfile",
    "TrackedObject",
    "allocation_site_count",
    "analyze_profiles",
    "calibrate_period",
    "clamp_period_to_window",
    "diff_profiles",
    "ProfileDiff",
    "SiteDelta",
    "CalibrationResult",
    "render_html",
    "write_html",
    "instrument_method",
    "instrument_program",
    "render_numa_report",
    "render_report",
    "render_site",
]
