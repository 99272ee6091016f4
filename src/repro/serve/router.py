"""Shard router and fleet-wide dedupe index (the fleet tier).

One :class:`~repro.serve.service.ProfilingService` over one SQLite file
and one spool directory saturates long before the simulator does.  The
fleet tier runs N of them side by side:

:class:`ShardRouter`
    Owns the fleet root directory and the stable placement function:
    a submission for ``(workload, program_hash)`` always lands on
    ``sha256(workload ++ program_hash) mod N``.  Each shard directory
    holds its own spool and profile store, so shards never contend on
    a writer lock — scaling the front door is adding a directory.

:class:`FleetIndex`
    The cross-shard dedupe index: one WAL SQLite file at the fleet
    root mapping ``(program_hash, config_hash, seed)`` to the shard
    and record that already profiled it.  The key deliberately drops
    the workload/variant *labels* — identity is content.  Every shard
    registers each profile it persists; every shard consults the index
    before simulating.  A submission that any shard has already
    answered — including a shard it no longer routes to after a
    reshard — is served from the store with zero simulator work.

:class:`Fleet`
    The assembly: router + index + one service per shard (each
    polling its spool on its own thread, simulating in-process or on
    its own :class:`~repro.serve.workers.WorkerPool` processes when
    ``jobs > 1``), plus the merged status/history/regress views the
    HTTP front door serves.  It is the only serving topology: threads
    keep the routing, polling and store bookkeeping in one process, and
    the pool processes take the simulations off the GIL.

Resharding is the reason the index earns its keep: growing a fleet
from N to N+1 shards remaps most keys, so a naively-sharded fleet
would re-simulate its whole working set.  With the fleet index, the
new home shard finds the old shard's record and serves it from disk.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.serve.queue import FairnessPolicy, JobSpec
from repro.serve.service import ProfilingService
from repro.serve.store import (
    ProfileKey,
    ProfileRecord,
    ProfileStore,
    program_digest,
)

#: Fleet index schema version (PRAGMA user_version).
FLEET_INDEX_VERSION = 1

#: Seconds an idle shard waits between polls.  Every job enters a
#: fleet through :meth:`Fleet.submit`, which wakes the owning shard, so
#: this only sets the cadence of the idle retention sweep and
#: heartbeat: a fleet holding a day of ``done/`` files does not re-read
#: them every second.
FLEET_IDLE_TIMEOUT = 30.0


def shard_for(workload: str, program_hash: str, shards: int) -> int:
    """Stable shard placement for a submission.

    Hashes the workload name and program content hash — not Python's
    salted ``hash()`` — so placement agrees across processes, restarts,
    and machines.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    digest = hashlib.sha256(
        f"{workload}\x00{program_hash}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


class ShardRouter:
    """Directory layout + placement for an N-shard fleet root."""

    def __init__(self, root: str, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.root = root
        self.shards = shards
        os.makedirs(root, exist_ok=True)
        for shard in range(shards):
            os.makedirs(self.spool_dir(shard), exist_ok=True)

    def shard_dir(self, shard: int) -> str:
        return os.path.join(self.root, f"shard-{shard:02d}")

    def spool_dir(self, shard: int) -> str:
        return os.path.join(self.shard_dir(shard), "spool")

    def store_path(self, shard: int) -> str:
        return os.path.join(self.shard_dir(shard), "store.sqlite")

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, "fleet-index.sqlite")

    def route(self, workload: str, program_hash: str) -> int:
        return shard_for(workload, program_hash, self.shards)


# ----------------------------------------------------------------------
# Fleet-wide dedupe index
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetHit:
    """Where an identical submission was already answered."""

    shard: int
    record_id: int
    store_path: str
    workload: str
    variant: str
    created_at: float


_INDEX_SCHEMA = """
CREATE TABLE IF NOT EXISTS dedupe (
    program_hash TEXT NOT NULL,
    config_hash  TEXT NOT NULL,
    seed         TEXT NOT NULL,
    shard        INTEGER NOT NULL,
    record_id    INTEGER NOT NULL,
    store_path   TEXT NOT NULL,
    workload     TEXT NOT NULL,
    variant      TEXT NOT NULL,
    created_at   REAL NOT NULL,
    PRIMARY KEY (program_hash, config_hash, seed)
);
"""


def _seed_text(seed: Optional[int]) -> str:
    """Canonical TEXT form of a seed (SQLite PKs reject NULL)."""
    return "" if seed is None else str(seed)


class FleetIndex:
    """WAL SQLite index of every profile any shard has persisted.

    Shared by all shard daemons in-process (thread-safe via one lock)
    and across processes (WAL + busy timeout).  Registration is
    last-writer-wins: identical content, so either record serves.
    """

    def __init__(self, path: str, busy_timeout: float = 10.0) -> None:
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        self._db = sqlite3.connect(path, check_same_thread=False,
                                   timeout=busy_timeout)
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute(f"PRAGMA busy_timeout={int(busy_timeout * 1000)}")
        self._db.executescript(_INDEX_SCHEMA)
        version = self._db.execute("PRAGMA user_version").fetchone()[0]
        if version == 0:
            self._db.execute(f"PRAGMA user_version = {FLEET_INDEX_VERSION}")
        elif version != FLEET_INDEX_VERSION:
            raise ValueError(
                f"{path}: fleet index version {version} unsupported "
                f"(want {FLEET_INDEX_VERSION})")
        self._db.commit()

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "FleetIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def register(self, key: ProfileKey, shard: int, record_id: int,
                 store_path: str,
                 created_at: Optional[float] = None) -> None:
        """Record that ``shard`` holds a profile for ``key``'s content."""
        with self._lock:
            self._db.execute(
                "INSERT OR REPLACE INTO dedupe (program_hash, config_hash, "
                "seed, shard, record_id, store_path, workload, variant, "
                "created_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (key.program_hash, key.config_hash, _seed_text(key.seed),
                 shard, record_id, os.path.abspath(store_path),
                 key.workload, key.variant,
                 time.time() if created_at is None else created_at))
            self._db.commit()

    def lookup(self, program_hash: str, config_hash: str,
               seed: Optional[int]) -> Optional[FleetHit]:
        """The shard/record that already answered this content, if any."""
        with self._lock:
            row = self._db.execute(
                "SELECT shard, record_id, store_path, workload, variant, "
                "created_at FROM dedupe WHERE program_hash = ? AND "
                "config_hash = ? AND seed = ?",
                (program_hash, config_hash, _seed_text(seed))).fetchone()
        if row is None:
            return None
        return FleetHit(shard=row[0], record_id=row[1], store_path=row[2],
                        workload=row[3], variant=row[4], created_at=row[5])

    def count(self) -> int:
        with self._lock:
            return self._db.execute(
                "SELECT COUNT(*) FROM dedupe").fetchone()[0]


# ----------------------------------------------------------------------
# The assembled fleet
# ----------------------------------------------------------------------
class Fleet:
    """N shard services behind one submission/status/history surface.

    Construction opens every shard's spool and store and the shared
    fleet index; :meth:`start` spawns one daemon thread per shard
    (each running :meth:`ProfilingService.serve_forever`, woken by
    :meth:`submit` and :meth:`stop`).  Front-door reads go through
    separate read connections (``_front_stores``) so the HTTP thread
    never shares a SQLite connection with a shard daemon mid-write —
    WAL makes those concurrent reads safe.
    """

    def __init__(self, root: str, shards: int = 2,
                 jobs: Optional[int] = 1,
                 job_timeout: Optional[float] = None,
                 queue_policy: Optional[FairnessPolicy] = None,
                 retention: Optional[float] = None) -> None:
        self.router = ShardRouter(root, shards)
        self.index = FleetIndex(self.router.index_path)
        self.services: List[ProfilingService] = [
            ProfilingService(self.router.spool_dir(shard),
                             self.router.store_path(shard),
                             jobs=jobs, job_timeout=job_timeout,
                             fleet_index=self.index, shard_id=shard,
                             queue_policy=queue_policy,
                             retention=retention)
            for shard in range(shards)
        ]
        self._front_stores: List[ProfileStore] = [
            ProfileStore(self.router.store_path(shard))
            for shard in range(shards)
        ]
        self._threads: List[threading.Thread] = []
        self._route_cache: Dict[Tuple[str, str], Tuple[str, int]] = {}
        self._started = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Spawn one daemon thread per shard."""
        if self._started:
            return
        self._started = True
        for service in self.services:
            thread = threading.Thread(
                target=service.serve_forever, args=(FLEET_IDLE_TIMEOUT,),
                name=f"shard-{service.shard_id:02d}", daemon=True)
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 30.0) -> None:
        """Drain every shard daemon and close all handles."""
        for service in self.services:
            service.request_stop()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()
        self._started = False

    def close(self) -> None:
        self.stop()
        for service in self.services:
            service.close()
        for store in self._front_stores:
            store.close()
        self.index.close()

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- routing --------------------------------------------------------
    def _route_key(self, workload: str, variant: str) -> Tuple[str, int]:
        """(program_hash, shard) for a workload/variant, cached.

        Building the program to hash it is deterministic, so one build
        per (workload, variant) serves every later submission.  Raises
        ``KeyError``/``ValueError`` for unknown names — the front door
        maps those to 400s before anything is enqueued.
        """
        cache_key = (workload, variant)
        cached = self._route_cache.get(cache_key)
        if cached is not None:
            return cached
        from repro.workloads import get_workload

        program_hash = program_digest(
            get_workload(workload).build_verified(variant))
        entry = (program_hash, self.router.route(workload, program_hash))
        self._route_cache[cache_key] = entry
        return entry

    def submit(self, spec: JobSpec) -> Tuple[JobSpec, int]:
        """Route and enqueue; returns (spec-with-id, shard).

        Raises :class:`~repro.serve.queue.QuotaExceeded` on
        backpressure and ``KeyError`` on an unknown workload.
        """
        _program_hash, shard = self._route_key(spec.workload, spec.variant)
        spec.meta["shard"] = shard
        return self.services[shard].queue.submit(spec), shard

    # -- merged views ---------------------------------------------------
    def status(self, job_id: str) -> Optional[dict]:
        """Lifecycle state of a job on whichever shard holds it.

        States are read in lifecycle order (pending → running →
        done/failed) with no separate existence check: a claim or
        completion that lands mid-lookup moves the job file *forward*,
        into a state read later, so a file that vanishes is skipped
        rather than served as an error or a spurious miss.
        """
        for shard, service in enumerate(self.services):
            queue = service.queue
            for state in ("pending", "running", "done", "failed"):
                try:
                    job = queue._read(queue._path(state, job_id))
                except FileNotFoundError:
                    continue
                return {"state": state, "shard": shard, "job": job}
        return None

    def history(self, workload: Optional[str] = None,
                variant: Optional[str] = None,
                limit: int = 50) -> List[dict]:
        """Stored profiles across every shard, newest first."""
        merged: List[dict] = []
        for shard, store in enumerate(self._front_stores):
            for record in store.history(workload=workload,
                                        variant=variant, limit=limit):
                entry = record.to_dict()
                entry["shard"] = shard
                merged.append(entry)
        merged.sort(key=lambda r: (r["created_at"], r["record_id"]),
                    reverse=True)
        return merged[:limit]

    def latest_record(self, workload: str,
                      variant: Optional[str] = None
                      ) -> Optional[Tuple[int, ProfileRecord]]:
        """(shard, record) of the newest stored profile for a workload."""
        newest: Optional[Tuple[int, ProfileRecord]] = None
        for shard, store in enumerate(self._front_stores):
            records = store.history(workload=workload, variant=variant,
                                    limit=1)
            if not records:
                continue
            if newest is None or records[0].created_at > newest[1].created_at:
                newest = (shard, records[0])
        return newest

    def regress(self, workload: str, variant: Optional[str] = None,
                policy=None) -> Optional[dict]:
        """Regression verdict for the newest stored profile, fleet-wide."""
        from repro.serve.regress import regress_records

        newest = self.latest_record(workload, variant=variant)
        if newest is None:
            return None
        shard, candidate = newest
        verdict = regress_records(self._front_stores[shard], candidate,
                                  policy=policy)
        out = verdict.to_dict()
        out["shard"] = shard
        return out

    def optimize_verdict(self, job_id: str) -> Optional[dict]:
        """Stored optimizer verdict for a job, on whichever shard ran it."""
        for shard, store in enumerate(self._front_stores):
            row = store.get_optimize(job_id)
            if row is not None:
                row["shard"] = shard
                return row
        return None

    def optimize_history(self, workload: Optional[str] = None,
                         status: Optional[str] = None,
                         limit: int = 50) -> List[dict]:
        """Stored optimizer verdicts across every shard, newest first."""
        merged: List[dict] = []
        for shard, store in enumerate(self._front_stores):
            for row in store.optimize_history(workload=workload,
                                              status=status, limit=limit):
                row["shard"] = shard
                merged.append(row)
        merged.sort(key=lambda r: (r["created_at"], r["id"]), reverse=True)
        return merged[:limit]

    def stats(self) -> dict:
        """Fleet-wide health: per-shard queues, dedupe counters, stores.

        ``alive`` is whether the shard's daemon thread is running: a
        shard whose serve loop raised keeps its spool and store, and
        the front door keeps routing to it, but nothing claims its
        jobs until the fleet restarts.
        """
        shards = []
        for shard, service in enumerate(self.services):
            shards.append({
                "shard": shard,
                "alive": bool(self._threads)
                         and self._threads[shard].is_alive(),
                "queue": service.queue.counts(),
                "completed": service.completed,
                "failed": service.failed,
                "cached_hits": service.cached_hits,
                "fleet_hits": service.fleet_hits,
                "fleet_misses": service.fleet_misses,
                "warm": {"hits": service.warm_hits,
                         "misses": service.warm_misses},
                "store": self._front_stores[shard].stats(),
            })
        return {
            "shards": shards,
            "shard_count": self.router.shards,
            "dedupe": {"hits": sum(s["fleet_hits"] for s in shards),
                       "misses": sum(s["fleet_misses"] for s in shards),
                       "indexed": self.index.count()},
            "warm": {"hits": sum(s["warm"]["hits"] for s in shards),
                     "misses": sum(s["warm"]["misses"] for s in shards)},
        }
