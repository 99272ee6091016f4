"""Continuous-profiling service (the serving layer).

The paper's workflow is iterative — profile, fix the top object,
re-profile, confirm the misses moved — which only works if profiles
outlive the process that produced them.  This package turns the
one-shot CLI profiler into a service:

:mod:`repro.serve.store`
    Persistent, content-addressed profile store (SQLite index over
    gzipped JSON payloads) keyed by
    ``(workload, variant, program-hash, config-hash, seed)``.
:mod:`repro.serve.queue`
    Spool-directory job queue: ``submit`` drops a JSON job file,
    the daemon claims it with an atomic rename, outcomes land in
    ``done/``/``failed/``.
:mod:`repro.serve.workers`
    Process worker pool with per-task timeouts, bounded retries with
    backoff, and crashed/hung-worker recycling.
:mod:`repro.serve.regress`
    Cross-run regression engine over :mod:`repro.core.diff`: new top-N
    objects, sample-share swings, throughput drops → machine-readable
    verdicts.
:mod:`repro.serve.service`
    The daemon: poll the spool (with jittered idle backoff), fan jobs
    over the pool, persist results, heartbeat to a JSONL status file.
:mod:`repro.serve.router`
    The fleet tier: stable shard placement over N shard directories,
    the fleet-wide ``(program-hash, config-hash, seed)`` dedupe index,
    and the :class:`~repro.serve.router.Fleet` assembly.
:mod:`repro.serve.http`
    Asyncio HTTP front door: submit / status / history / regress /
    fleet endpoints over stdlib streams, with 429 + ``Retry-After``
    backpressure from the queue's fairness policy.
:mod:`repro.serve.loadgen`
    Load generator behind ``bench --serve-load``: K concurrent HTTP
    clients, p50/p99 submit-to-verdict latency, dedupe hit rate, and
    the reshard cross-shard dedupe check — plus the jobs/sec scaling
    curve behind ``bench --fleet-scaling``.

There is one serving topology: the in-process fleet, with shard
polling on threads and simulations on :mod:`repro.serve.workers`
processes when a shard has ``jobs > 1``.
"""

from repro.serve.queue import (
    FLEET_POLICY,
    FairnessPolicy,
    JobSpec,
    QuotaExceeded,
    SpoolQueue,
)
from repro.serve.regress import (
    RegressionFinding,
    RegressionVerdict,
    RegressPolicy,
    regress_records,
)
from repro.serve.store import (
    ProfileKey,
    ProfileRecord,
    ProfileStore,
    config_digest,
    profile_key_for,
    program_digest,
)
from repro.serve.workers import TaskOutcome, WorkerPool
from repro.serve.service import ProfilingService
from repro.serve.router import Fleet, FleetIndex, ShardRouter, shard_for
from repro.serve.http import HttpFrontDoor
from repro.serve.loadgen import (
    FleetScalingPoint,
    FleetScalingResult,
    ServeLoadResult,
    run_fleet_scaling,
    run_serve_load,
)

__all__ = [
    "FLEET_POLICY",
    "FairnessPolicy",
    "Fleet",
    "FleetIndex",
    "FleetScalingPoint",
    "FleetScalingResult",
    "HttpFrontDoor",
    "JobSpec",
    "QuotaExceeded",
    "ServeLoadResult",
    "ShardRouter",
    "shard_for",
    "run_fleet_scaling",
    "run_serve_load",
    "ProfileKey",
    "ProfileRecord",
    "ProfileStore",
    "ProfilingService",
    "RegressPolicy",
    "RegressionFinding",
    "RegressionVerdict",
    "SpoolQueue",
    "TaskOutcome",
    "WorkerPool",
    "config_digest",
    "profile_key_for",
    "program_digest",
    "regress_records",
]
