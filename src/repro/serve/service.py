"""The continuous-profiling daemon.

One service instance owns a spool queue, a worker pool, and a profile
store.  Each poll claims one job per worker, serves exact-key repeats
straight from the store (no re-simulation, no worker), runs the rest
on the pool, persists and completes each job as soon as its own
simulation ends, and appends a heartbeat line to
``<spool>/status.jsonl`` so an operator (or the CI smoke job) can
watch it without attaching a debugger.  Between polls an idle daemon
waits on its queue's wake event, which a submit in the same process
sets, so a job is claimed when it arrives.

Job outcomes are written back into the spool (``done/``/``failed/``),
so ``submit`` callers can poll for their job id.  Failed jobs are
requeued with a counted attempt until ``max_attempts`` is exhausted.
"""

from __future__ import annotations

import json
import os
import signal
import time
from typing import Dict, List, Optional

from repro.core.analyzer import AnalysisResult
from repro.core.profiler import DjxConfig
from repro.serve.queue import FairnessPolicy, JobSpec, SpoolQueue
from repro.serve.store import ProfileKey, ProfileStore, profile_key_for
from repro.serve.workers import WorkerPool

#: Heartbeat file name inside the spool directory.
STATUS_FILE = "status.jsonl"

#: Seconds ``repro serve`` waits between idle polls.  Its jobs come
#: from ``repro submit`` in another process, which cannot set the wake
#: event, so this is its pickup latency; it also bounds how long a
#: SIGTERM takes to end the wait.
SPOOL_IDLE_TIMEOUT = 1.0


# ----------------------------------------------------------------------
# Job execution (runs inside worker processes — must stay picklable)
# ----------------------------------------------------------------------
def _job_config(spec: JobSpec) -> DjxConfig:
    return DjxConfig(sample_period=spec.period,
                     size_threshold=spec.threshold)


def execute_job(payload: dict) -> dict:
    """Run one job and return a JSON-able result (worker entry point)."""
    spec = JobSpec.from_dict(payload)
    if spec.kind == "optimize":
        return _execute_optimize(spec)
    return _execute_profile(spec)


def _execute_profile(spec: JobSpec) -> dict:
    from repro.workloads import get_workload, run_profiled

    workload = get_workload(spec.workload)
    trace_path = spec.meta.get("trace_path")
    run = run_profiled(workload, variant=spec.variant,
                       config=_job_config(spec), seed=spec.seed,
                       trace_path=trace_path, family=spec.family)
    return {
        "kind": "profile",
        "family": spec.family,
        "analysis": run.analysis.to_dict(),
        "wall_cycles": run.result.wall_cycles,
        "total_samples": run.analysis.total(),
        "trace_path": trace_path,
        # This job's fused-codegen warm-cache lookups, counted on its
        # own machine so shards compiling at once never mix: a
        # long-lived daemon compiles each (method, variant) once, so
        # repeat traffic shows hits > 0 and misses == 0 here.
        "warm": dict(run.machine.warm),
    }


def _execute_optimize(spec: JobSpec) -> dict:
    from repro.optim.engine import optimize_workload

    capacity = spec.meta.get("capacity")
    verdict = optimize_workload(
        spec.workload, variant=spec.variant, family=spec.family,
        transform=spec.meta.get("transform"),
        config=_job_config(spec), seed=spec.seed,
        capacity=None if capacity is None else int(capacity))
    return {"kind": "optimize", "verdict": verdict.to_dict()}


# ----------------------------------------------------------------------
# The daemon
# ----------------------------------------------------------------------
class ProfilingService:
    """Poll the spool, execute jobs, persist profiles, heartbeat."""

    def __init__(self, spool_dir: str, store_path: str,
                 jobs: Optional[int] = None,
                 job_timeout: Optional[float] = None,
                 heartbeat_path: Optional[str] = None,
                 fleet_index=None, shard_id: int = 0,
                 queue_policy: Optional[FairnessPolicy] = None,
                 retention: Optional[float] = None,
                 heartbeat_max_bytes: int = 262144) -> None:
        self.queue = SpoolQueue(spool_dir, policy=queue_policy)
        self.store = ProfileStore(store_path)
        self.pool = WorkerPool(execute_job, jobs=jobs, timeout=job_timeout,
                               retries=0)
        self.heartbeat_path = heartbeat_path or os.path.join(
            spool_dir, STATUS_FILE)
        #: Fleet-wide dedupe index (:class:`repro.serve.router.FleetIndex`)
        #: when this daemon is one shard of a fleet; None standalone.
        self.fleet_index = fleet_index
        self.shard_id = shard_id
        #: Outcome files (done/failed) older than this many seconds are
        #: swept at startup and on idle polls; None keeps them forever.
        self.retention = retention
        #: Heartbeat file size (bytes) that triggers a roll to ``.1``.
        self.heartbeat_max_bytes = heartbeat_max_bytes
        self.completed = 0
        self.failed = 0
        self.cached_hits = 0
        #: Fused-codegen warm-cache totals aggregated over executed
        #: jobs (see ``_execute_profile``'s per-job ``warm`` count).
        self.warm_hits = 0
        self.warm_misses = 0
        #: Outcome files removed by retention sweeps.
        self.swept = 0
        #: Cross-shard dedupe counters (consults of the fleet index
        #: after a local store miss), surfaced in every heartbeat.
        self.fleet_hits = 0
        self.fleet_misses = 0
        #: Read handles on other shards' stores, opened on first
        #: cross-shard hit (WAL keeps these reads safe under writers).
        self._remote_stores: Dict[str, ProfileStore] = {}
        self._stopping = False
        # A crashed predecessor's running/ claims must not stay
        # stranded until an operator intervenes: reclaim at startup.
        recovered = self.queue.recover()
        if recovered:
            self._heartbeat("recovered",
                            extra={"recovered": len(recovered)})
        self.swept += self.queue.sweep(self.retention)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        self.pool.shutdown()
        self.store.close()
        for remote in self._remote_stores.values():
            remote.close()
        self._remote_stores.clear()

    def __enter__(self) -> "ProfilingService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request_stop(self) -> None:
        """Ask the serve loop to drain and exit, ending an idle wait.

        For other threads (``Fleet.stop``).  A signal handler must not
        call it: setting the wake event takes the event's lock, which
        the interrupted thread may hold.
        """
        self._stopping = True
        self.queue.wake.set()

    def _stop_on_signal(self, *_signal_args) -> None:
        """SIGTERM/SIGINT: only raise the flag; the wait's timeout
        bounds how long the loop takes to see it."""
        self._stopping = True

    # -- the work -------------------------------------------------------
    def _profile_key(self, spec: JobSpec) -> ProfileKey:
        from repro.workloads import get_workload

        return profile_key_for(get_workload(spec.workload), spec.variant,
                               _job_config(spec), seed=spec.seed,
                               family=spec.family)

    def _serve_from_store(self, spec: JobSpec) -> Optional[dict]:
        """A completed result for an exact-key repeat, or None.

        Two tiers: the shard's own store by exact key first, then the
        fleet-wide dedupe index by ``(program_hash, config_hash,
        seed)`` — content identity, not labels — so a submission that
        any shard already answered (e.g. its old home before a
        reshard) never touches the simulator.
        """
        if spec.kind != "profile" or spec.force:
            return None
        try:
            key = self._profile_key(spec)
        except (KeyError, ValueError) as exc:
            # Unknown workload/variant: fall through to the worker,
            # which fails the job with the same message.
            spec.meta["key_error"] = str(exc)
            return None
        record = self.store.find_latest(key)
        if record is not None:
            self.cached_hits += 1
            return {"kind": "profile", "cached": True,
                    "record_id": record.record_id,
                    "payload_hash": record.payload_hash,
                    "wall_cycles": record.wall_cycles,
                    "total_samples": record.total_samples}
        return self._serve_from_fleet(key)

    def _serve_from_fleet(self, key: ProfileKey) -> Optional[dict]:
        """Cross-shard dedupe: serve from whichever shard has it."""
        if self.fleet_index is None:
            return None
        hit = self.fleet_index.lookup(key.program_hash, key.config_hash,
                                      key.seed)
        if hit is None:
            self.fleet_misses += 1
            return None
        try:
            store = self._store_for(hit.store_path)
            record = store.get_record(hit.record_id)
        except (KeyError, OSError):
            # The owning shard's store moved or lost the row; the
            # index entry is stale — simulate and re-register.
            self.fleet_misses += 1
            return None
        self.fleet_hits += 1
        return {"kind": "profile", "cached": True, "fleet": True,
                "origin_shard": hit.shard, "shard": self.shard_id,
                "record_id": record.record_id,
                "payload_hash": record.payload_hash,
                "wall_cycles": record.wall_cycles,
                "total_samples": record.total_samples}

    def _store_for(self, store_path: str) -> ProfileStore:
        """This shard's own store, or a cached read handle on another's."""
        if os.path.abspath(store_path) == os.path.abspath(self.store.path):
            return self.store
        store = self._remote_stores.get(store_path)
        if store is None:
            store = ProfileStore(store_path)
            self._remote_stores[store_path] = store
        return store

    def _persist(self, spec: JobSpec, result: dict) -> dict:
        """Store a worker result; returns the (augmented) job result."""
        if result.get("kind") == "profile":
            analysis = AnalysisResult.from_dict(result["analysis"])
            key = self._profile_key(spec)
            record = self.store.put_profile(
                key, analysis,
                wall_cycles=result["wall_cycles"],
                trace_path=result.get("trace_path"),
                meta={"job_id": spec.job_id})
            if self.fleet_index is not None:
                self.fleet_index.register(key, self.shard_id,
                                          record.record_id,
                                          self.store.path)
            warm = result.get("warm") or {}
            self.warm_hits += int(warm.get("hits", 0))
            self.warm_misses += int(warm.get("misses", 0))
            return {"kind": "profile", "cached": False,
                    "record_id": record.record_id,
                    "payload_hash": record.payload_hash,
                    "deduplicated": record.deduplicated,
                    "wall_cycles": result["wall_cycles"],
                    "total_samples": result["total_samples"],
                    "warm": warm}
        verdict = result["verdict"]
        row_id = self.store.put_optimize(spec.job_id, verdict)
        return {"kind": "optimize", "verdict_row_id": row_id,
                "status": verdict.get("status"),
                "transform": verdict.get("transform"),
                "speedup": verdict.get("speedup"),
                "verdict": verdict}

    def run_once(self) -> List[dict]:
        """One poll: claim, execute, persist.  Returns job summaries.

        Claims until it holds one job per worker to simulate; store and
        fleet-index hits are completed as they are claimed and take no
        worker.  Each simulated job is persisted and completed as soon
        as its own outcome returns.  Empty when nothing was claimable.
        """
        summaries: List[dict] = []
        to_run: List[JobSpec] = []
        while len(to_run) < max(1, self.pool.jobs):
            spec = self.queue.claim()
            if spec is None:
                break
            cached = self._serve_from_store(spec)
            if cached is None:
                to_run.append(spec)
            else:
                self.queue.complete(spec, cached)
                self.completed += 1
                summaries.append({"job_id": spec.job_id, "ok": True,
                                  **cached})

        if to_run:
            self._heartbeat("working", extra={"in_flight": len(to_run)})
            for outcome in self.pool.as_completed(
                    [spec.to_dict() for spec in to_run]):
                summaries.append(self._settle(to_run[outcome.index],
                                              outcome))
        if summaries:
            self._heartbeat("idle")
        return summaries

    def _settle(self, spec: JobSpec, outcome) -> dict:
        """Complete, requeue or fail one simulated job; its summary."""
        if outcome.ok:
            stored = self._persist(spec, outcome.value)
            self.queue.complete(spec, stored)
            self.completed += 1
            return {"job_id": spec.job_id, "ok": True, **stored}
        spec.attempts = max(spec.attempts, outcome.attempts)
        requeued = spec.attempts < spec.max_attempts
        if requeued:
            self.queue.requeue(spec, reason=outcome.error or "")
        else:
            self.queue.fail(spec, outcome.error or "failed")
            self.failed += 1
        return {"job_id": spec.job_id, "ok": False, "requeued": requeued,
                "error": outcome.error}

    def drain(self) -> int:
        """Run polls until one claims nothing; returns jobs completed."""
        before = self.completed
        while self.run_once():
            pass
        return self.completed - before

    def serve_forever(self, idle_timeout: float,
                      max_polls: Optional[int] = None,
                      install_signal_handlers: bool = False) -> None:
        """Poll until stopped (SIGINT/SIGTERM with handlers installed).

        A poll that claims nothing sweeps, heartbeats and waits on the
        queue's wake event for at most ``idle_timeout`` seconds.  The
        event is cleared before each poll, so a submit or
        :meth:`request_stop` that lands while the poll runs ends the
        wait at once.  The timeout finds jobs that another process
        wrote into the spool, and sets the idle sweep's cadence.
        """
        if install_signal_handlers:
            signal.signal(signal.SIGTERM, self._stop_on_signal)
            signal.signal(signal.SIGINT, self._stop_on_signal)
        polls = 0
        self._heartbeat("started")
        while True:
            self.queue.wake.clear()
            if self._stopping or (max_polls is not None
                                  and polls >= max_polls):
                break
            polls += 1
            if self.run_once():
                continue
            # Idle polls double as housekeeping: sweep aged outcome
            # files so long-running fleets don't grow the spool
            # without bound, and heartbeat so an operator can tell an
            # idle daemon from a hung one (run_once only heartbeats
            # when it claimed work).
            self.swept += self.queue.sweep(self.retention)
            self._heartbeat("idle")
            self.queue.wake.wait(idle_timeout)
        # Graceful drain: finish what is already queued, then stop.
        self.drain()
        self._heartbeat("stopped")

    # -- observability --------------------------------------------------
    def _heartbeat(self, state: str,
                   extra: Optional[Dict] = None) -> None:
        line = {
            "ts": time.time(),
            "pid": os.getpid(),
            "state": state,
            "queue": self.queue.counts(),
            "completed": self.completed,
            "failed": self.failed,
            "cached_hits": self.cached_hits,
            "warm": {"hits": self.warm_hits, "misses": self.warm_misses},
            "swept": self.swept,
            "pool": dict(self.pool.stats),
        }
        if self.fleet_index is not None:
            line["fleet"] = {"shard": self.shard_id,
                             "dedupe_hits": self.fleet_hits,
                             "dedupe_misses": self.fleet_misses}
        if extra:
            line.update(extra)
        self._rotate_heartbeat()
        with open(self.heartbeat_path, "a") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")

    def _rotate_heartbeat(self) -> None:
        """Size-capped roll: ``status.jsonl`` → ``status.jsonl.1``.

        ``serve_forever`` appends a line per poll forever; one rolled
        generation bounds disk use at ~2x the cap while keeping recent
        history for operators.
        """
        try:
            if os.path.getsize(self.heartbeat_path) < \
                    self.heartbeat_max_bytes:
                return
        except OSError:
            return
        os.replace(self.heartbeat_path, self.heartbeat_path + ".1")
