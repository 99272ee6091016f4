"""Per-thread object-centric profiles.

During collection every thread owns a :class:`ThreadProfile`: allocation
sites it executed, PMU metrics it sampled (attributed to the *allocation
call path* of the touched object, wherever that object was allocated),
and the access call paths under each object.  The offline analyzer
(:mod:`repro.core.analyzer`) merges these across threads.

A call path is a root-first tuple of ``(method_id, bci)`` frames during
collection; serialisation resolves frames to source locations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Raw frame and path types used during collection.
RawFrame = Tuple[int, int]             # (method_id, bci)
RawPath = Tuple[RawFrame, ...]


@dataclass(frozen=True)
class ResolvedFrame:
    """A frame resolved to source terms (stable across JIT instances)."""

    class_name: str
    method_name: str
    source_file: str
    line: int

    @property
    def location(self) -> str:
        return f"{self.class_name}.{self.method_name}:{self.line}"

    def as_tuple(self) -> Tuple[str, str, str, int]:
        return (self.class_name, self.method_name, self.source_file,
                self.line)


ResolvedPath = Tuple[ResolvedFrame, ...]
#: Resolves a raw frame to a ResolvedFrame (backed by JVMTI queries).
FrameResolver = Callable[[RawFrame], ResolvedFrame]


@dataclass
class TrackedObject:
    """Splay-tree payload: what DJXPerf knows about a monitored object."""

    alloc_path: RawPath
    alloc_tid: int
    type_name: str
    size: int
    #: None for objects discovered via GC moves in attach mode.
    known: bool = True


@dataclass
class ObjectSiteStats:
    """Aggregated stats for one allocation call path, in one thread."""

    path: RawPath
    alloc_count: int = 0
    allocated_bytes: int = 0
    min_size: int = 0
    max_size: int = 0
    type_names: Dict[str, int] = field(default_factory=dict)
    #: PMU metric name → sampled count attributed to this object.
    metrics: Dict[str, int] = field(default_factory=dict)
    remote_samples: int = 0
    local_samples: int = 0
    #: access call path → (metric name → sampled count)
    access_contexts: Dict[RawPath, Dict[str, int]] = field(
        default_factory=dict)

    def record_allocation(self, type_name: str, size: int) -> None:
        self.alloc_count += 1
        self.allocated_bytes += size
        self.min_size = size if self.min_size == 0 else min(self.min_size, size)
        self.max_size = max(self.max_size, size)
        self.type_names[type_name] = self.type_names.get(type_name, 0) + 1

    def record_sample(self, event: str, access_path: RawPath,
                      remote: bool) -> None:
        self.metrics[event] = self.metrics.get(event, 0) + 1
        if remote:
            self.remote_samples += 1
        else:
            self.local_samples += 1
        ctx = self.access_contexts.setdefault(access_path, {})
        ctx[event] = ctx.get(event, 0) + 1

    def metric(self, event: str) -> int:
        return self.metrics.get(event, 0)

    @property
    def total_samples(self) -> int:
        return self.remote_samples + self.local_samples


class ThreadProfile:
    """Everything one thread collected (one profile file per thread)."""

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.sites: Dict[RawPath, ObjectSiteStats] = {}
        #: metric → samples whose address matched no tracked object.
        self.unknown_samples: Dict[str, int] = {}
        #: metric → all samples this thread took.
        self.total_samples: Dict[str, int] = {}

    def site(self, path: RawPath) -> ObjectSiteStats:
        stats = self.sites.get(path)
        if stats is None:
            stats = ObjectSiteStats(path)
            self.sites[path] = stats
        return stats

    def record_unknown(self, event: str) -> None:
        self.unknown_samples[event] = self.unknown_samples.get(event, 0) + 1

    def record_total(self, event: str) -> None:
        self.total_samples[event] = self.total_samples.get(event, 0) + 1

    # ------------------------------------------------------------------
    # Serialisation (a "profile file", resolved for portability)
    # ------------------------------------------------------------------
    def to_dict(self, resolver: FrameResolver) -> dict:
        def enc_path(path: RawPath) -> List[list]:
            return [list(resolver(frame).as_tuple()) for frame in path]

        return {
            "tid": self.tid,
            "unknown_samples": dict(self.unknown_samples),
            "total_samples": dict(self.total_samples),
            "sites": [
                {
                    "path": enc_path(stats.path),
                    "alloc_count": stats.alloc_count,
                    "allocated_bytes": stats.allocated_bytes,
                    "min_size": stats.min_size,
                    "max_size": stats.max_size,
                    "type_names": dict(stats.type_names),
                    "metrics": dict(stats.metrics),
                    "remote_samples": stats.remote_samples,
                    "local_samples": stats.local_samples,
                    "access_contexts": [
                        {"path": enc_path(path), "metrics": dict(metrics)}
                        for path, metrics in stats.access_contexts.items()
                    ],
                }
                for stats in self.sites.values()
            ],
        }

    def dump(self, fp, resolver: FrameResolver) -> None:
        json.dump(self.to_dict(resolver), fp, indent=1)


def encode_resolved_path(path: ResolvedPath) -> List[list]:
    """Encode an already-resolved path (same wire format as
    :meth:`ThreadProfile.to_dict`, which resolves as it encodes)."""
    return [list(frame.as_tuple()) for frame in path]


def decode_resolved_path(encoded: List[list]) -> ResolvedPath:
    """Inverse of the path encoding in :meth:`ThreadProfile.to_dict`."""
    return tuple(ResolvedFrame(frame[0], frame[1], frame[2], int(frame[3]))
                 for frame in encoded)


@dataclass
class ResolvedSite:
    """An allocation site after offline resolution and merging."""

    path: ResolvedPath
    alloc_count: int = 0
    allocated_bytes: int = 0
    min_size: int = 0
    max_size: int = 0
    type_names: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, int] = field(default_factory=dict)
    remote_samples: int = 0
    local_samples: int = 0
    access_contexts: Dict[ResolvedPath, Dict[str, int]] = field(
        default_factory=dict)

    @property
    def leaf(self) -> Optional[ResolvedFrame]:
        return self.path[-1] if self.path else None

    @property
    def location(self) -> str:
        return self.leaf.location if self.leaf else "<unknown>"

    @property
    def total_samples(self) -> int:
        return self.remote_samples + self.local_samples

    @property
    def remote_ratio(self) -> float:
        total = self.total_samples
        return self.remote_samples / total if total else 0.0

    def metric(self, event: str) -> int:
        return self.metrics.get(event, 0)

    @property
    def size_spread(self) -> float:
        """max/min allocation size ratio; >1 signals a growth chain."""
        if self.min_size <= 0:
            return 1.0
        return self.max_size / self.min_size

    def dominant_type(self) -> str:
        if not self.type_names:
            return "<unknown>"
        return max(self.type_names.items(), key=lambda kv: kv[1])[0]

    # ------------------------------------------------------------------
    # Serialisation (resolved sites are the unit the profile store keeps)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "path": encode_resolved_path(self.path),
            "alloc_count": self.alloc_count,
            "allocated_bytes": self.allocated_bytes,
            "min_size": self.min_size,
            "max_size": self.max_size,
            "type_names": dict(self.type_names),
            "metrics": dict(self.metrics),
            "remote_samples": self.remote_samples,
            "local_samples": self.local_samples,
            "access_contexts": [
                {"path": encode_resolved_path(path),
                 "metrics": dict(metrics)}
                for path, metrics in self.access_contexts.items()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResolvedSite":
        return cls(
            path=decode_resolved_path(data["path"]),
            alloc_count=int(data["alloc_count"]),
            allocated_bytes=int(data["allocated_bytes"]),
            min_size=int(data["min_size"]),
            max_size=int(data["max_size"]),
            type_names={k: int(v)
                        for k, v in data.get("type_names", {}).items()},
            metrics={k: int(v) for k, v in data.get("metrics", {}).items()},
            remote_samples=int(data["remote_samples"]),
            local_samples=int(data["local_samples"]),
            access_contexts={
                decode_resolved_path(ctx["path"]):
                    {k: int(v) for k, v in ctx["metrics"].items()}
                for ctx in data.get("access_contexts", [])
            })
