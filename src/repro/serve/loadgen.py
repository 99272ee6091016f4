"""Serving-layer load generator: the ``bench --serve-load`` arm.

Engine speedups are tracked in ``BENCH_throughput.json``; this module
gives serving the same treatment.  One run drives the production fleet
— shard daemons on threads behind the asyncio HTTP front door, under
:data:`~repro.serve.queue.FLEET_POLICY` — once per fleet size (1 shard,
then N), each time a fresh fleet over its own root, with K concurrent
clients speaking actual HTTP over localhost.  Per fleet size it
measures what a user of the fleet experiences:

* **p50/p99 submit-to-verdict latency** — from the first POST /submit
  attempt (429 retries included) until GET /status reports a final
  state;
* **jobs/sec** — completed verdicts over wall time;
* **dedupe hit rate** — the fraction of verdicts served from the
  store instead of the simulator;
* **warm compile-cache hit rate** — as the fleet reports it in
  ``GET /fleet``.

A final **reshard phase** re-builds the largest fleet over the same
root with more shards (the scale-out event that remaps placement).
Before its daemons start, one tenant submits one more copy of an
already-stored key than its pending quota allows: exactly the last
copy must get 429 with ``Retry-After``, and every accepted copy must
land on a *different* shard and be served from the original shard's
store through the fleet index with zero simulator work.

Absolute latencies and jobs/sec do not transfer between machines, but
the *tail ratio* (p99/p50) and the *scaling ratio* (N-shard over
1-shard jobs/sec) do, and the dedupe and warm hit rates are fixed by
the job mix: those are what the CI gate compares against the committed
baseline.  Every wait is bounded by :data:`DEADLINE_S`; a job still
unfinished then counts as failed.
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
from repro.serve.queue import FLEET_POLICY
from repro.serve.router import Fleet, shard_for
from repro.serve.store import program_digest

#: Seconds each phase of the run may take; a job still unfinished at
#: the deadline counts as failed, so a stuck shard cannot hang a bench.
DEADLINE_S = 60.0

#: Seconds between a client's status polls.
_POLL_S = 0.05

#: Clients alternate between two tenants, so the fairness policy's
#: per-tenant in-flight cap (4) admits eight concurrent clients.
_TENANTS = 2

#: The client mix's workloads: enough distinct programs that
#: ``sha256(workload ++ program_hash) mod N`` populates every shard of
#: a 4-shard fleet, engine-bound so jobs/sec measures simulation.
FLEET_WORKLOADS = ("kernel-arith", "kernel-array", "kernel-field",
                   "kernel-mixed", "objectlayout", "mnemonics",
                   "crypto", "montecarlo")


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..1) of a non-empty sample."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class FleetLoadPoint:
    """One fleet size driven by the client mix."""

    shards: int
    jobs_ok: int
    jobs_failed: int
    dedupe_hits: int
    fleet_hits: int
    throttled: int
    #: Fused-codegen warm-cache totals, as ``GET /fleet`` reports them.
    warm_hits: int
    warm_misses: int
    p50_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    jobs_per_sec: float
    elapsed_seconds: float
    per_shard_jobs: Dict[int, int] = field(default_factory=dict)

    @property
    def dedupe_hit_rate(self) -> float:
        return self.dedupe_hits / self.jobs_ok if self.jobs_ok else 0.0

    @property
    def tail_ratio(self) -> float:
        """p99 over p50 — the machine-transferable latency shape."""
        return self.p99_ms / self.p50_ms if self.p50_ms else 0.0

    @property
    def warm_hit_rate(self) -> float:
        total = self.warm_hits + self.warm_misses
        return self.warm_hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "shards": self.shards,
            "jobs_ok": self.jobs_ok,
            "jobs_failed": self.jobs_failed,
            "dedupe_hits": self.dedupe_hits,
            "dedupe_hit_rate": round(self.dedupe_hit_rate, 4),
            "fleet_hits": self.fleet_hits,
            "throttled": self.throttled,
            "warm_hits": self.warm_hits,
            "warm_misses": self.warm_misses,
            "warm_hit_rate": round(self.warm_hit_rate, 4),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "mean_ms": round(self.mean_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "tail_ratio": round(self.tail_ratio, 3),
            "jobs_per_sec": round(self.jobs_per_sec, 3),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "per_shard_jobs": {str(k): v for k, v in
                               sorted(self.per_shard_jobs.items())},
        }


@dataclass(frozen=True)
class FleetLoadResult:
    """Every fleet size of one run, plus the reshard phase."""

    clients: int
    requests_per_client: int
    workloads: Tuple[str, ...]
    points: Tuple[FleetLoadPoint, ...]
    #: The reshard phase: the over-quota burst's 429 and the
    #: cross-shard hits of its accepted copies.
    reshard: Dict = field(default_factory=dict)

    @property
    def largest(self) -> FleetLoadPoint:
        return max(self.points, key=lambda p: p.shards)

    @property
    def scaling_ratio(self) -> float:
        """Largest fleet's jobs/sec over the single-shard fleet's."""
        base = next((p for p in self.points if p.shards == 1), None)
        if base is None or base.jobs_per_sec <= 0:
            return 0.0
        return self.largest.jobs_per_sec / base.jobs_per_sec

    def to_dict(self) -> dict:
        largest = self.largest
        return {
            "clients": self.clients,
            "requests_per_client": self.requests_per_client,
            "workloads": list(self.workloads),
            "max_shards": largest.shards,
            "scaling_ratio": round(self.scaling_ratio, 3),
            "tail_ratio": round(largest.tail_ratio, 3),
            "dedupe_hit_rate": round(largest.dedupe_hit_rate, 4),
            "warm_hit_rate": round(largest.warm_hit_rate, 4),
            "points": [p.to_dict() for p in self.points],
            "reshard": dict(self.reshard),
        }


async def _await_final(host: str, port: int, job_id: str,
                       deadline: float) -> dict:
    """Poll GET /status until the job is done or failed; a job still
    unfinished at ``deadline`` comes back failed."""
    while time.monotonic() < deadline:
        status, data, _headers = await http_request(
            host, port, "GET", f"/status/{job_id}")
        if status == 200 and data["state"] in ("done", "failed"):
            return data
        await asyncio.sleep(_POLL_S)
    return {"state": "failed", "job_id": job_id, "timed_out": True}


class _Client:
    """One synthetic client coroutine."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.latencies: List[float] = []
        self.results: List[dict] = []
        self.throttled = 0

    async def complete(self, payload: dict, deadline: float) -> dict:
        """Submit (obeying Retry-After on 429) and wait for the verdict."""
        while time.monotonic() < deadline:
            status, data, headers = await http_request(
                self.host, self.port, "POST", "/submit", payload)
            if status == 202:
                return await _await_final(self.host, self.port,
                                          data["job_id"], deadline)
            if status != 429:
                raise RuntimeError(f"submit rejected: {status} {data}")
            self.throttled += 1
            await asyncio.sleep(float(headers.get("retry-after", "0.1")))
        return {"state": "failed", "timed_out": True}

    async def run(self, jobs: List[dict], deadline: float) -> None:
        for payload in jobs:
            started = time.perf_counter()
            verdict = await self.complete(payload, deadline)
            if not verdict.get("timed_out"):
                self.latencies.append(time.perf_counter() - started)
            self.results.append(verdict)


@contextlib.asynccontextmanager
async def _serving(root: str, shards: int):
    """A fleet behind a started front door (not yet polling), exactly
    as ``repro fleet`` serves: shard daemons on threads, simulating
    in-process (``jobs=1``), under :data:`FLEET_POLICY`."""
    fleet = Fleet(root, shards=shards, jobs=1, queue_policy=FLEET_POLICY)
    door = HttpFrontDoor(fleet)
    try:
        await door.start()
        yield fleet, door
    finally:
        await door.stop()
        fleet.close()


def _client_jobs(client: int, requests: int,
                 workloads: Sequence[str]) -> List[dict]:
    """One client's submissions.

    Even-numbered jobs have seeds unique to the client, so they
    simulate; odd-numbered ones repeat the client's first job, so they
    are served from the store.  A client waits for each verdict before
    it submits the next, so every repeat finds its original stored and
    the dedupe hit count is fixed by the mix — a copy racing its
    original through the queue would simulate twice.
    """
    jobs = []
    for i in range(requests):
        n = 0 if i % 2 else i
        jobs.append({"workload": workloads[(client + n) % len(workloads)],
                     "tenant": f"tenant-{client % _TENANTS}",
                     "period": 32,
                     "seed": 17 + client * 1009 + n * 13})
    return jobs


async def _drive_point(root: str, shards: int, clients: int,
                       requests_per_client: int,
                       workloads: Sequence[str]) -> FleetLoadPoint:
    """Drive one fresh fleet of ``shards`` shards with the client mix."""
    from repro.jvm.dispatch import reset_warm_cache

    # Shards simulate in this process, so the codegen cache is shared
    # across fleet sizes: empty it, or a later size starts warm.
    reset_warm_cache()
    async with _serving(root, shards) as (fleet, door):
        fleet.start()
        runners = [_Client(door.host, door.port) for _ in range(clients)]
        deadline = time.monotonic() + DEADLINE_S
        started = time.perf_counter()
        await asyncio.gather(*(
            runner.run(_client_jobs(c, requests_per_client, workloads),
                       deadline)
            for c, runner in enumerate(runners)))
        elapsed = time.perf_counter() - started
        _status, stats, _h = await http_request(door.host, door.port,
                                                "GET", "/fleet")

    results = [res for runner in runners for res in runner.results]
    ok = [r for r in results if r["state"] == "done"]
    per_shard: Dict[int, int] = {}
    for r in results:
        if "shard" in r:
            per_shard[r["shard"]] = per_shard.get(r["shard"], 0) + 1
    latencies_ms = [lat * 1e3 for runner in runners
                    for lat in runner.latencies] or [0.0]
    return FleetLoadPoint(
        shards=shards,
        jobs_ok=len(ok), jobs_failed=len(results) - len(ok),
        dedupe_hits=sum(1 for r in ok
                        if r["job"].get("result", {}).get("cached")),
        fleet_hits=sum(1 for r in ok
                       if r["job"].get("result", {}).get("fleet")),
        throttled=sum(runner.throttled for runner in runners),
        warm_hits=stats["warm"]["hits"],
        warm_misses=stats["warm"]["misses"],
        p50_ms=percentile(latencies_ms, 0.50),
        p99_ms=percentile(latencies_ms, 0.99),
        mean_ms=sum(latencies_ms) / len(latencies_ms),
        max_ms=max(latencies_ms),
        jobs_per_sec=len(ok) / elapsed if elapsed > 0 else 0.0,
        elapsed_seconds=elapsed,
        per_shard_jobs=per_shard)


async def _reshard_phase(root: str, shards: int, payload: dict) -> dict:
    """Reshard the fleet and prove backpressure and cross-shard dedupe.

    Rebuilds the fleet over ``root`` with a shard count chosen so
    ``payload``'s placement *moves*.  Before the daemons start (so the
    pending quota fills deterministically) one tenant submits
    ``max_pending_per_tenant + 1`` copies of ``payload``, a key the
    old fleet already stored: the last copy must get 429 with
    ``Retry-After``, and every accepted copy must be served from the
    original shard's store through the fleet index — zero simulator
    work anywhere in the resharded fleet.
    """
    from repro.workloads import get_workload

    workload = payload["workload"]
    program_hash = program_digest(
        get_workload(workload).build_verified("baseline"))
    origin = shard_for(workload, program_hash, shards)
    new_shards = shards + 1
    while shard_for(workload, program_hash, new_shards) == origin:
        new_shards += 1

    burst = dict(payload, tenant="reshard")
    accepted: List[str] = []
    throttled = 0
    retry_after = False
    async with _serving(root, new_shards) as (fleet, door):
        for _ in range(FLEET_POLICY.max_pending_per_tenant + 1):
            status, data, headers = await http_request(
                door.host, door.port, "POST", "/submit", burst)
            if status == 202:
                accepted.append(data["job_id"])
            elif status == 429:
                throttled += 1
                retry_after = "retry-after" in headers
            else:
                raise RuntimeError(f"burst submit: {status} {data}")
        fleet.start()
        deadline = time.monotonic() + DEADLINE_S
        finals = [await _await_final(door.host, door.port, job_id,
                                     deadline)
                  for job_id in accepted]
        simulated = sum(service.pool.stats["tasks"]
                        for service in fleet.services)
    served = [r for r in finals if r["state"] == "done"
              and r["job"].get("result", {}).get("fleet")
              and r["job"]["result"].get("origin_shard") != r["shard"]]
    return {
        "shards": new_shards,
        "origin_shard": origin,
        "serving_shard": shard_for(workload, program_hash, new_shards),
        "accepted": len(accepted),
        "throttled": throttled,
        "retry_after": retry_after,
        "jobs_failed": sum(1 for r in finals if r["state"] != "done"),
        "simulator_tasks": simulated,
        "hit": bool(accepted) and len(served) == len(accepted)
               and simulated == 0,
    }


def run_fleet_load(shards: Sequence[int] = (1, 4), clients: int = 8,
                   requests_per_client: int = 3,
                   workloads: Sequence[str] = FLEET_WORKLOADS,
                   root: Optional[str] = None) -> FleetLoadResult:
    """Run the load bench; see the module docstring for what it proves.

    ``shards`` lists the fleet sizes; the 1-shard fleet is always
    measured, as the scaling ratio's baseline.  ``root`` defaults to a
    temporary directory torn down afterwards; pass a path to keep each
    fleet's state (``fleet-NN/``) for inspection.
    """
    if clients < 1 or requests_per_client < 1:
        raise ValueError("clients and requests_per_client must be >= 1")
    sizes = sorted(set(int(n) for n in shards))
    if not sizes or sizes[0] < 1:
        raise ValueError(f"bad shard sizes {shards!r}")
    if 1 not in sizes:
        sizes.insert(0, 1)

    def measure(base_root: str) -> FleetLoadResult:
        points = [asyncio.run(_drive_point(
            os.path.join(base_root, f"fleet-{size:02d}"), size, clients,
            requests_per_client, workloads)) for size in sizes]
        # Client 0's first job: stored by the largest fleet, and the
        # job its odd-numbered repeats were served from.
        stored = _client_jobs(0, 1, workloads)[0]
        reshard = asyncio.run(_reshard_phase(
            os.path.join(base_root, f"fleet-{sizes[-1]:02d}"), sizes[-1],
            stored))
        return FleetLoadResult(clients=clients,
                               requests_per_client=requests_per_client,
                               workloads=tuple(workloads),
                               points=tuple(points), reshard=reshard)

    if root is not None:
        os.makedirs(root, exist_ok=True)
        return measure(root)
    with tempfile.TemporaryDirectory(prefix="djx-fleet-load-") as tmp:
        return measure(tmp)
