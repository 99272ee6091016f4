"""Serving-layer load generator: the ``bench --serve-load`` arm.

Engine speedups are tracked in ``BENCH_throughput.json``; this module
gives serving scalability the same treatment.  One run drives a real
in-process fleet — N shard daemons on threads, the asyncio HTTP front
door, K concurrent clients speaking actual HTTP over localhost — and
measures what a user of the fleet experiences:

* **p50/p99 submit-to-verdict latency** — from the first POST /submit
  attempt (429 retries included: backpressure is part of the latency a
  throttled tenant sees) until GET /status reports ``done``;
* **dedupe hit rate** — the fraction of verdicts served from the
  store (exact-key or fleet-wide) instead of the simulator;
* **jobs/sec** — completed verdicts over wall time;
* **backpressure** — a deliberate burst over one tenant's pending
  quota before the daemons start, proving the front door answers 429
  with a ``Retry-After`` the client can obey;
* **cross-shard dedupe** — after the main phase the fleet is re-built
  over the same root with more shards (the scale-out event that remaps
  placement); an identical submission then lands on a *different*
  shard and must be served from the original shard's store through the
  fleet index with zero simulator work.

Latency percentiles from a small run are noisy in absolute terms, but
the *tail ratio* (p99/p50) and the dedupe hit rate are structural:
they are what the CI gate compares against the committed baseline.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.http import HttpFrontDoor, http_request
from repro.serve.queue import FLEET_POLICY, FairnessPolicy
from repro.serve.router import Fleet, shard_for

#: Seed shared by every duplicate submission of a workload — the key
#: the dedupe tiers collapse.
_DUP_SEED = 9999


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..1) of a non-empty sample."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class ServeLoadResult:
    """One load-generator run against an in-process fleet."""

    clients: int
    shards: int
    requests_per_client: int
    workloads: Tuple[str, ...]
    jobs_total: int
    jobs_ok: int
    jobs_failed: int
    dedupe_hits: int
    fleet_hits: int
    throttled: int
    p50_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    jobs_per_sec: float
    elapsed_seconds: float
    per_shard_jobs: Dict[int, int] = field(default_factory=dict)
    #: The scale-out check: resharding moved the key's home, and the
    #: repeat was served from the old shard's store via the index.
    cross_shard: Dict = field(default_factory=dict)

    @property
    def dedupe_hit_rate(self) -> float:
        return self.dedupe_hits / self.jobs_ok if self.jobs_ok else 0.0

    @property
    def tail_ratio(self) -> float:
        """p99 over p50 — the machine-transferable latency shape."""
        return self.p99_ms / self.p50_ms if self.p50_ms else 0.0

    def to_dict(self) -> dict:
        return {
            "clients": self.clients,
            "shards": self.shards,
            "requests_per_client": self.requests_per_client,
            "workloads": list(self.workloads),
            "jobs_total": self.jobs_total,
            "jobs_ok": self.jobs_ok,
            "jobs_failed": self.jobs_failed,
            "dedupe_hits": self.dedupe_hits,
            "dedupe_hit_rate": round(self.dedupe_hit_rate, 4),
            "fleet_hits": self.fleet_hits,
            "throttled": self.throttled,
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "mean_ms": round(self.mean_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "tail_ratio": round(self.tail_ratio, 3),
            "jobs_per_sec": round(self.jobs_per_sec, 3),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "per_shard_jobs": {str(k): v
                               for k, v in sorted(
                                   self.per_shard_jobs.items())},
            "cross_shard": dict(self.cross_shard),
        }


class _Client:
    """One synthetic tenant-attributed client coroutine."""

    def __init__(self, index: int, host: str, port: int, tenant: str,
                 poll_interval: float) -> None:
        self.index = index
        self.host = host
        self.port = port
        self.tenant = tenant
        self.poll_interval = poll_interval
        self.latencies: List[float] = []
        self.results: List[dict] = []
        self.throttled = 0
        self.failed = 0

    async def submit(self, payload: dict) -> dict:
        """POST /submit, obeying Retry-After on 429 backpressure."""
        while True:
            status, data, headers = await http_request(
                self.host, self.port, "POST", "/submit", payload)
            if status == 202:
                return data
            if status == 429:
                self.throttled += 1
                await asyncio.sleep(
                    float(headers.get("retry-after", "0.1")))
                continue
            raise RuntimeError(f"submit rejected: {status} {data}")

    async def await_verdict(self, job_id: str) -> dict:
        while True:
            status, data, _headers = await http_request(
                self.host, self.port, "GET", f"/status/{job_id}")
            if status == 200 and data["state"] in ("done", "failed"):
                return data
            await asyncio.sleep(self.poll_interval)

    async def run(self, jobs: List[dict]) -> None:
        for payload in jobs:
            started = time.perf_counter()
            accepted = await self.submit(payload)
            verdict = await self.await_verdict(accepted["job_id"])
            self.latencies.append(time.perf_counter() - started)
            self.results.append(verdict)
            if verdict["state"] != "done":
                self.failed += 1


@contextlib.asynccontextmanager
async def _serving(root: str, shards: int,
                   policy: Optional[FairnessPolicy] = None):
    """An in-process fleet behind a started front door (not polling).

    Every phase of both benches runs the same topology ``repro fleet``
    serves: shard daemons on threads, simulating in-process (``jobs=1``).
    """
    fleet = Fleet(root, shards=shards, jobs=1, queue_policy=policy)
    door = HttpFrontDoor(fleet)
    try:
        await door.start()
        yield fleet, door
    finally:
        await door.stop()
        fleet.close()


async def _run_clients(runners: Sequence[_Client],
                       batches: Sequence[List[dict]]) -> float:
    """Run every client over its batch concurrently; wall seconds."""
    started = time.perf_counter()
    await asyncio.gather(*(runner.run(batch) for runner, batch
                           in zip(runners, batches)))
    return time.perf_counter() - started


def _per_shard(results: Sequence[dict]) -> Dict[int, int]:
    per_shard: Dict[int, int] = {}
    for r in results:
        if "shard" in r:
            per_shard[r["shard"]] = per_shard.get(r["shard"], 0) + 1
    return per_shard


def _client_jobs(client: int, requests: int, workloads: Sequence[str],
                 duplicate_fraction: float, tenant: str,
                 period: int) -> List[dict]:
    """The submission mix for one client: unique seeds force the
    simulator, duplicate seeds (shared across all clients) exercise
    the dedupe tiers."""
    dups = round(requests * duplicate_fraction)
    jobs = []
    for i in range(requests):
        workload = workloads[(client + i) % len(workloads)]
        # Interleave duplicates among uniques so hits and misses mix.
        duplicate = (i % 2 == 1) if dups * 2 >= requests else i < dups
        seed = _DUP_SEED if duplicate else 17 + client * 1009 + i * 13
        jobs.append({"workload": workload, "tenant": tenant,
                     "period": period, "seed": seed})
    return jobs


async def _drive(root: str, clients: int, shards: int,
                 requests_per_client: int, workloads: Sequence[str],
                 duplicate_fraction: float, tenants: int,
                 period: int, poll_interval: float,
                 policy: FairnessPolicy) -> ServeLoadResult:
    burst_ids: List[str] = []
    burst_throttled = 0
    async with _serving(root, shards, policy) as (fleet, door):
        # -- backpressure phase (daemons not yet polling, so the
        # pending quota fills deterministically) ------------------------
        quota = policy.max_pending_per_tenant or 0
        for i in range(quota + 1):
            status, data, headers = await http_request(
                door.host, door.port, "POST", "/submit",
                {"workload": workloads[0], "tenant": "burst",
                 "period": period, "seed": _DUP_SEED})
            if status == 202:
                burst_ids.append(data["job_id"])
            elif status == 429:
                burst_throttled += 1
                if "retry-after" not in headers:
                    raise RuntimeError("429 without Retry-After header")
            else:
                raise RuntimeError(f"burst submit: {status} {data}")
        if quota and not burst_throttled:
            raise RuntimeError(
                f"quota {quota} did not trigger backpressure")

        # -- main load phase -------------------------------------------
        # Cap idle backoff near the poll interval: the bench measures
        # latency, and an uncapped backoff would charge post-lull
        # submissions for the daemon's deep sleep.
        fleet.start(poll_interval=poll_interval,
                    max_backoff=poll_interval * 4)
        runners = [
            _Client(c, door.host, door.port,
                    tenant=f"tenant-{c % max(1, tenants)}",
                    poll_interval=poll_interval)
            for c in range(clients)
        ]
        elapsed = await _run_clients(runners, [
            _client_jobs(runner.index, requests_per_client, workloads,
                         duplicate_fraction, runner.tenant, period)
            for runner in runners])

        # The burst jobs count like any other: each ends done or
        # failed, and one still unfinished at the deadline is failed.
        burst: List[dict] = []
        deadline = time.monotonic() + 60.0
        for job_id in burst_ids:
            final = {"state": "failed"}
            while time.monotonic() < deadline:
                status, data, _h = await http_request(
                    door.host, door.port, "GET", f"/status/{job_id}")
                if status == 200 and data["state"] in ("done", "failed"):
                    final = data
                    break
                await asyncio.sleep(poll_interval)
            burst.append(final)

    latencies = [lat for runner in runners for lat in runner.latencies]
    results = [res for runner in runners for res in runner.results]
    every = results + burst
    ok = [r for r in every if r["state"] == "done"]
    client_ok = sum(1 for r in results if r["state"] == "done")
    dedupe_hits = sum(
        1 for r in ok if r["job"].get("result", {}).get("cached"))
    fleet_hits = sum(
        1 for r in ok if r["job"].get("result", {}).get("fleet"))
    throttled = burst_throttled + sum(r.throttled for r in runners)

    cross = await _cross_shard_phase(root, shards, workloads[0], period,
                                     poll_interval)

    latencies_ms = [lat * 1e3 for lat in latencies]
    return ServeLoadResult(
        clients=clients, shards=shards,
        requests_per_client=requests_per_client,
        workloads=tuple(workloads),
        jobs_total=len(every),
        jobs_ok=len(ok), jobs_failed=len(every) - len(ok),
        dedupe_hits=dedupe_hits, fleet_hits=fleet_hits,
        throttled=throttled,
        p50_ms=percentile(latencies_ms, 0.50),
        p99_ms=percentile(latencies_ms, 0.99),
        mean_ms=sum(latencies_ms) / len(latencies_ms),
        max_ms=max(latencies_ms),
        jobs_per_sec=client_ok / elapsed if elapsed > 0 else 0.0,
        elapsed_seconds=elapsed,
        per_shard_jobs=_per_shard(every),
        cross_shard=cross)


async def _cross_shard_phase(root: str, shards: int, workload: str,
                             period: int,
                             poll_interval: float) -> dict:
    """Reshard the fleet and prove the dedupe index spans shards.

    Rebuilds the fleet over the same root with a shard count chosen so
    the workload's placement *moves*, then resubmits the duplicate key.
    The verdict must be a fleet-index hit served from the original
    shard's store — zero simulator work on the new home shard.
    """
    fleet = Fleet(root, shards=shards, jobs=1)
    try:
        program_hash, origin = fleet._route_key(workload, "baseline")
    finally:
        fleet.close()
    new_shards = shards + 1
    while shard_for(workload, program_hash, new_shards) == origin:
        new_shards += 1

    async with _serving(root, new_shards) as (fleet, door):
        fleet.start(poll_interval=poll_interval)
        _status, accepted, _h = await http_request(
            door.host, door.port, "POST", "/submit",
            {"workload": workload, "period": period, "seed": _DUP_SEED,
             "tenant": "reshard"})
        serving_shard = accepted["shard"]
        while True:
            status, data, _h = await http_request(
                door.host, door.port, "GET",
                f"/status/{accepted['job_id']}")
            if status == 200 and data["state"] in ("done", "failed"):
                break
            await asyncio.sleep(poll_interval)
        result = data["job"].get("result", {})
        simulated = fleet.services[serving_shard].pool.stats["tasks"]
    return {
        "reshard_to": new_shards,
        "origin_shard": result.get("origin_shard"),
        "serving_shard": serving_shard,
        "hit": bool(result.get("fleet"))
               and result.get("origin_shard") != serving_shard,
        "simulator_tasks": simulated,
    }


def run_serve_load(clients: int = 8, shards: int = 2,
                   requests_per_client: int = 5,
                   # These two hash onto different shards of a 2-shard
                   # fleet, so the default run exercises both daemons.
                   workloads: Sequence[str] = ("objectlayout",
                                               "kernel-array"),
                   duplicate_fraction: float = 0.5,
                   tenants: int = 2,
                   period: int = 32,
                   poll_interval: float = 0.02,
                   root: Optional[str] = None,
                   policy: Optional[FairnessPolicy] = None
                   ) -> ServeLoadResult:
    """Run the load bench; see the module docstring for what it proves.

    ``root`` defaults to a temporary directory torn down afterwards;
    pass a path to keep the fleet state for inspection.  The default
    policy gives each tenant a small pending quota so the backpressure
    phase triggers and bounds per-tenant in-flight at 2.
    """
    if clients < 1 or requests_per_client < 1:
        raise ValueError("clients and requests_per_client must be >= 1")
    if policy is None:
        policy = FairnessPolicy(max_pending_per_tenant=2,
                                max_inflight_per_tenant=2,
                                max_queue_depth=max(64, clients * 8),
                                retry_after=poll_interval * 2)

    async def drive(run_root: str) -> ServeLoadResult:
        return await _drive(run_root, clients, shards,
                            requests_per_client, workloads,
                            duplicate_fraction, tenants, period,
                            poll_interval, policy)

    if root is not None:
        return asyncio.run(drive(root))
    with tempfile.TemporaryDirectory(prefix="djx-serve-load-") as tmp:
        return asyncio.run(drive(tmp))


# ----------------------------------------------------------------------
# Fleet scaling (the ``bench --fleet-scaling`` arm)
# ----------------------------------------------------------------------

#: Default workload mix for the scaling curve: enough distinct
#: programs that ``sha256(workload ++ program_hash) mod N`` populates
#: every shard of a 4-shard fleet, engine-bound so jobs/sec measures
#: simulation, repeated so the warm compile cache gets exercised.
FLEET_SCALING_WORKLOADS = ("kernel-arith", "kernel-array",
                           "kernel-field", "kernel-mixed",
                           "objectlayout", "mnemonics",
                           "crypto", "montecarlo")


@dataclass(frozen=True)
class FleetScalingPoint:
    """Throughput of one fleet size."""

    shards: int
    jobs_ok: int
    jobs_failed: int
    elapsed_seconds: float
    jobs_per_sec: float
    #: Fused-codegen warm-cache totals of this point's jobs (the
    #: process-wide cache, emptied before the point starts).
    warm_hits: int
    warm_misses: int
    per_shard_jobs: Dict[int, int] = field(default_factory=dict)

    @property
    def warm_hit_rate(self) -> float:
        total = self.warm_hits + self.warm_misses
        return self.warm_hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "shards": self.shards,
            "jobs_ok": self.jobs_ok,
            "jobs_failed": self.jobs_failed,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "jobs_per_sec": round(self.jobs_per_sec, 3),
            "warm_hits": self.warm_hits,
            "warm_misses": self.warm_misses,
            "warm_hit_rate": round(self.warm_hit_rate, 4),
            "per_shard_jobs": {str(k): v for k, v in
                               sorted(self.per_shard_jobs.items())},
        }


@dataclass(frozen=True)
class FleetScalingResult:
    """The jobs/sec scaling curve across fleet sizes (1 vs N)."""

    requests: int
    clients: int
    workloads: Tuple[str, ...]
    points: Tuple[FleetScalingPoint, ...]

    def _point(self, shards: int) -> Optional[FleetScalingPoint]:
        return next((p for p in self.points if p.shards == shards),
                    None)

    @property
    def max_shards(self) -> int:
        return max(p.shards for p in self.points)

    @property
    def scaling_ratio(self) -> float:
        """Largest fleet's jobs/sec over the single-shard baseline."""
        base = self._point(1)
        peak = max(self.points, key=lambda p: p.shards)
        if base is None or base.jobs_per_sec <= 0:
            return 0.0
        return peak.jobs_per_sec / base.jobs_per_sec

    @property
    def warm_hit_rate(self) -> float:
        """Warm compile hit rate at the largest fleet size."""
        return max(self.points,
                   key=lambda p: p.shards).warm_hit_rate

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "clients": self.clients,
            "workloads": list(self.workloads),
            "max_shards": self.max_shards,
            "scaling_ratio": round(self.scaling_ratio, 3),
            "warm_hit_rate": round(self.warm_hit_rate, 4),
            "points": [p.to_dict() for p in self.points],
        }


async def _drive_fleet_point(root: str, shards: int, clients: int,
                             jobs: List[dict], poll_interval: float
                             ) -> FleetScalingPoint:
    """Drive one fleet size over real sockets; measure jobs/sec."""
    from repro.jvm.dispatch import reset_warm_cache, warm_cache_stats

    # Shards simulate in this process, so the codegen cache is shared
    # across points: empty it, or a later point starts warm.
    reset_warm_cache()
    async with _serving(root, shards, FLEET_POLICY) as (fleet, door):
        fleet.start(poll_interval=poll_interval,
                    max_backoff=poll_interval * 4)
        runners = [_Client(c, door.host, door.port, tenant="scale",
                           poll_interval=poll_interval)
                   for c in range(min(clients, len(jobs)))]
        batches: List[List[dict]] = [[] for _ in runners]
        for i, payload in enumerate(jobs):
            batches[i % len(runners)].append(payload)
        elapsed = await _run_clients(runners, batches)
    warm = warm_cache_stats()

    results = [res for runner in runners for res in runner.results]
    ok = sum(1 for r in results if r["state"] == "done")
    return FleetScalingPoint(
        shards=shards,
        jobs_ok=ok,
        jobs_failed=len(results) - ok,
        elapsed_seconds=elapsed,
        jobs_per_sec=ok / elapsed if elapsed > 0 else 0.0,
        warm_hits=warm["hits"],
        warm_misses=warm["misses"],
        per_shard_jobs=_per_shard(results))


def run_fleet_scaling(shards: Sequence[int] = (1, 4),
                      requests: int = 24,
                      clients: int = 8,
                      workloads: Sequence[str] =
                      FLEET_SCALING_WORKLOADS,
                      period: int = 32,
                      poll_interval: float = 0.05,
                      root: Optional[str] = None
                      ) -> FleetScalingResult:
    """Measure the fleet's jobs/sec scaling curve.

    Every point is a fresh :class:`~repro.serve.router.Fleet` of N
    shards over its own root, behind the HTTP front door, driven by the
    same ``requests``-job mix through real sockets — the topology
    :func:`run_serve_load` drives.  Seeds are unique per point so every
    job simulates (no dedupe shortcut); workloads repeat so the warm
    compile cache is exercised and its hit rate lands in the point.
    The headline numbers are the ``scaling_ratio`` (largest-N jobs/sec
    over 1-shard jobs/sec) and the ``warm_hit_rate`` at the largest
    size.  Shards simulate on their own threads, so the ratio stays
    near 1.0 whatever the core count; what it catches is a front door
    or router that serialises the fleet on one shard.
    """
    if requests < 1:
        raise ValueError("requests must be >= 1")
    sizes = sorted(set(int(n) for n in shards))
    if not sizes or sizes[0] < 1:
        raise ValueError(f"bad shard sizes {shards!r}")
    if 1 not in sizes:
        sizes.insert(0, 1)

    def measure(base_root: str) -> FleetScalingResult:
        points: List[FleetScalingPoint] = []
        for idx, size in enumerate(sizes):
            jobs = [{"workload": workloads[i % len(workloads)],
                     "period": period,
                     "seed": 500_000 * (idx + 1) + i}
                    for i in range(requests)]
            points.append(asyncio.run(_drive_fleet_point(
                os.path.join(base_root, f"fleet-{size:02d}"), size,
                clients, jobs, poll_interval)))
        return FleetScalingResult(requests=requests, clients=clients,
                                  workloads=tuple(workloads),
                                  points=tuple(points))

    if root is not None:
        os.makedirs(root, exist_ok=True)
        return measure(root)
    with tempfile.TemporaryDirectory(prefix="djx-fleet-scale-") as tmp:
        return measure(tmp)
