"""Spool-directory job queue with per-tenant fairness.

Submission and execution are separate processes (``submit`` CLI vs the
``serve`` daemon), so the queue lives on disk: a job is one JSON file
that moves between subdirectories of the spool as its state changes::

    spool/pending/<id>.json    submitted, waiting for a worker
    spool/running/<id>.json    claimed by a daemon
    spool/done/<id>.json       finished; the file gains a "result" key
    spool/failed/<id>.json     gave up; the file gains an "error" key

Every transition is an atomic rename, so concurrent daemons can claim
from the same spool without double-running a job, and a crashed daemon
leaves its claims in ``running/`` where :meth:`SpoolQueue.recover`
returns them to ``pending`` on the next startup.

A daemon in the same process learns of new work without scanning:
:meth:`SpoolQueue.submit` and :meth:`SpoolQueue.requeue` set the
queue's :attr:`~SpoolQueue.wake` event after the job file is in place.
A job written by another process (``repro submit``) is found by the
daemon's next timed poll instead.

Fairness
--------
Under fleet traffic many tenants share one spool, and strict FIFO lets
one chatty tenant starve everyone behind it.  A :class:`FairnessPolicy`
adds three controls:

* **weighted claim order** — tenants are scheduled by stride
  scheduling: each claim charges the winning tenant ``1/weight`` of a
  pass, so a weight-3 tenant is claimed three times as often as a
  weight-1 tenant while both have pending work, and an idle tenant
  never accumulates an unbounded head start;
* **bounded per-tenant in-flight** — a tenant at its
  ``max_inflight_per_tenant`` limit is skipped by :meth:`claim` until
  one of its running jobs finishes;
* **backpressure** — :meth:`submit` raises :class:`QuotaExceeded`
  (carrying a ``retry_after`` hint for HTTP 429 responses) when the
  tenant's pending quota or the whole spool's depth limit is hit.

Without a policy the queue behaves exactly as before: unlimited FIFO.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Job kinds the daemon knows how to execute.
JOB_KINDS = ("profile", "optimize")

_STATES = ("pending", "running", "done", "failed")

#: Stride-scheduling numerator: a tenant's pass advances by
#: ``_STRIDE_ONE // weight`` per claim, so larger weights mean smaller
#: strides and therefore more frequent claims.
_STRIDE_ONE = 1 << 20


class QuotaExceeded(RuntimeError):
    """A submit was refused by the fairness policy (backpressure).

    ``retry_after`` is the suggested wait in seconds before retrying —
    the HTTP front door maps it straight onto a 429 ``Retry-After``.
    """

    def __init__(self, reason: str, retry_after: float) -> None:
        super().__init__(reason)
        self.reason = reason
        self.retry_after = retry_after


@dataclass(frozen=True)
class FairnessPolicy:
    """Per-tenant quotas and weights for one spool (see module doc)."""

    #: Pending jobs one tenant may have queued (None = unlimited).
    max_pending_per_tenant: Optional[int] = None
    #: Claimed-but-unfinished jobs one tenant may have (None = unlimited).
    max_inflight_per_tenant: Optional[int] = None
    #: Total pending jobs across all tenants (None = unlimited).
    max_queue_depth: Optional[int] = None
    #: Relative claim rates; unlisted tenants get weight 1.
    tenant_weights: Dict[str, int] = field(default_factory=dict)
    #: Retry-after hint attached to QuotaExceeded, in seconds.
    retry_after: float = 1.0

    def weight(self, tenant: str) -> int:
        return max(1, int(self.tenant_weights.get(tenant, 1)))


#: The quotas every ``repro fleet`` shard runs under, whether the shard
#: is a thread of the in-process fleet or a worker process, and that
#: the router-only front door applies to submissions.
FLEET_POLICY = FairnessPolicy(max_pending_per_tenant=32,
                              max_inflight_per_tenant=4,
                              max_queue_depth=512)


@dataclass
class JobSpec:
    """One unit of work, serialisable to a spool file."""

    job_id: str
    kind: str
    workload: str = ""
    variant: str = "baseline"
    period: int = 64
    threshold: int = 1024
    #: Profiler family the job runs under ("djxperf", "replica",
    #: "redundancy") — part of the profile-store dedupe key.
    family: str = "djxperf"
    seed: Optional[int] = None
    max_attempts: int = 3
    attempts: int = 0
    submitted_at: float = 0.0
    #: Re-simulate even when the store already has this exact key.
    force: bool = False
    #: Who submitted the job — the fairness unit.
    tenant: str = "default"
    #: Higher claims first within a tenant (FIFO among equals).
    priority: int = 0
    meta: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; "
                             f"have {JOB_KINDS}")

    def to_dict(self) -> dict:
        return {"job_id": self.job_id, "kind": self.kind,
                "workload": self.workload, "variant": self.variant,
                "period": self.period, "threshold": self.threshold,
                "family": self.family,
                "seed": self.seed,
                "max_attempts": self.max_attempts,
                "attempts": self.attempts,
                "submitted_at": self.submitted_at, "force": self.force,
                "tenant": self.tenant, "priority": self.priority,
                "meta": dict(self.meta)}

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in data.items() if k in known})


class SpoolQueue:
    """Filesystem queue over a spool directory (see module docstring)."""

    def __init__(self, root: str,
                 policy: Optional[FairnessPolicy] = None) -> None:
        self.root = root
        self.policy = policy
        for state in _STATES:
            os.makedirs(os.path.join(root, state), exist_ok=True)
        self._seq = 0
        #: Stride-scheduling pass value per tenant (process-local; two
        #: daemons sharing a spool each run their own fair schedule).
        self._passes: Dict[str, int] = {}
        #: Set once a job file lands in ``pending/`` through this
        #: object; an idle daemon in this process waits on it.
        self.wake = threading.Event()

    # -- paths ----------------------------------------------------------
    def _dir(self, state: str) -> str:
        return os.path.join(self.root, state)

    def _path(self, state: str, job_id: str) -> str:
        return os.path.join(self.root, state, f"{job_id}.json")

    def _write(self, path: str, data: dict) -> None:
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)

    @staticmethod
    def _read(path: str) -> dict:
        with open(path) as fh:
            return json.load(fh)

    def new_job_id(self, hint: str = "job") -> str:
        self._seq += 1
        return (f"{hint}-{time.time_ns():016x}-"
                f"{os.getpid():06x}-{self._seq:04d}")

    # -- scanning helpers -----------------------------------------------
    def _scan(self, state: str) -> List[Tuple[str, dict]]:
        """(filename, job-dict) for every job file in ``state``.

        Files that vanish mid-scan (lost races with another daemon) are
        skipped, as are files that are not yet fully-written JSON.  A
        pending file whose JSON is not an object is moved to
        ``failed/`` (see :meth:`_reject_pending`).
        """
        entries: List[Tuple[str, dict]] = []
        for name in sorted(os.listdir(self._dir(state))):
            if not name.endswith(".json"):
                continue
            try:
                data = self._read(os.path.join(self._dir(state), name))
            except (FileNotFoundError, json.JSONDecodeError):
                continue
            if isinstance(data, dict):
                entries.append((name, data))
            elif state == "pending":
                self._reject_pending(
                    name, data, TypeError("not a JSON object"))
        return entries

    def tenants_inflight(self) -> Dict[str, int]:
        """Running-job count per tenant (the in-flight bound's input)."""
        counts: Dict[str, int] = {}
        for _name, data in self._scan("running"):
            tenant = data.get("tenant", "default")
            counts[tenant] = counts.get(tenant, 0) + 1
        return counts

    def tenants_pending(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for _name, data in self._scan("pending"):
            tenant = data.get("tenant", "default")
            counts[tenant] = counts.get(tenant, 0) + 1
        return counts

    # -- transitions ----------------------------------------------------
    def submit(self, spec: JobSpec) -> JobSpec:
        """Enqueue a job (fills in id/timestamp when unset).

        Raises :class:`QuotaExceeded` when a fairness policy refuses
        the submission (tenant pending quota or global depth limit).
        """
        if self.policy is not None:
            depth = self.policy.max_queue_depth
            if depth is not None and self.pending_count() >= depth:
                raise QuotaExceeded(
                    f"queue depth limit {depth} reached",
                    self.policy.retry_after)
            quota = self.policy.max_pending_per_tenant
            if quota is not None:
                pending = self.tenants_pending().get(spec.tenant, 0)
                if pending >= quota:
                    raise QuotaExceeded(
                        f"tenant {spec.tenant!r} has {pending} pending "
                        f"job(s), quota {quota}",
                        self.policy.retry_after)
        if not spec.job_id:
            spec.job_id = self.new_job_id(spec.workload or spec.kind)
        if not spec.submitted_at:
            spec.submitted_at = time.time()
        self._write(self._path("pending", spec.job_id), spec.to_dict())
        self.wake.set()
        return spec

    def claim(self) -> Optional[JobSpec]:
        """Atomically move one pending job to running, fairly.

        Tenants are scheduled by weighted stride order; within a tenant
        the highest-priority, oldest job wins.  Tenants at their
        in-flight bound are skipped.  Returns None when nothing is
        claimable (empty queue, or every pending tenant throttled).  A
        lost race with another daemon (rename fails because the file is
        gone) just tries the next candidate, and so does a claimed file
        that is not a valid job (see :meth:`_reject`), and a pending
        file whose priority, timestamp or tenant cannot be ordered is
        failed before any claim (see :meth:`_reject_pending`).
        """
        pending = self._scan("pending")
        if not pending:
            return None
        by_tenant: Dict[str, List[Tuple[int, float, str]]] = {}
        for name, data in pending:
            try:
                tenant = data.get("tenant", "default")
                by_tenant.setdefault(tenant, []).append(
                    (-int(data.get("priority", 0)),
                     float(data.get("submitted_at", 0.0)), name))
            except (TypeError, ValueError) as exc:
                self._reject_pending(name, data, exc)
        for jobs in by_tenant.values():
            jobs.sort()

        policy = self.policy
        inflight = (self.tenants_inflight()
                    if policy is not None
                    and policy.max_inflight_per_tenant is not None
                    else {})
        eligible = []
        for tenant in by_tenant:
            if policy is not None:
                bound = policy.max_inflight_per_tenant
                if bound is not None and inflight.get(tenant, 0) >= bound:
                    continue
            eligible.append(tenant)
        if not eligible:
            return None

        # Stride scheduling: lowest pass claims; a tenant first seen
        # now starts at the current minimum so it cannot monopolise.
        floor = min(self._passes.values()) if self._passes else 0
        for tenant in eligible:
            self._passes.setdefault(tenant, floor)
        for tenant in sorted(eligible,
                             key=lambda t: (self._passes[t], t)):
            weight = policy.weight(tenant) if policy is not None else 1
            for _prio, _ts, name in by_tenant[tenant]:
                pending_path = os.path.join(self._dir("pending"), name)
                running_path = os.path.join(self._dir("running"), name)
                try:
                    os.rename(pending_path, running_path)
                except OSError:
                    continue
                data = self._read(running_path)
                try:
                    spec = JobSpec.from_dict(data)
                except (TypeError, ValueError) as exc:
                    self._reject(name, data, exc)
                    continue
                self._passes[tenant] += _STRIDE_ONE // weight
                return spec
        return None

    def complete(self, spec: JobSpec, result: dict) -> None:
        """running → done, attaching the result to the job file."""
        data = spec.to_dict()
        data["result"] = result
        data["finished_at"] = time.time()
        self._write(self._path("done", spec.job_id), data)
        self._remove("running", spec.job_id)

    def fail(self, spec: JobSpec, error: str) -> None:
        """running → failed, attaching the error."""
        data = spec.to_dict()
        data["error"] = error
        data["finished_at"] = time.time()
        self._write(self._path("failed", spec.job_id), data)
        self._remove("running", spec.job_id)

    def requeue(self, spec: JobSpec, reason: str = "") -> JobSpec:
        """running → pending with the attempt counted.

        Returns the updated spec; call :meth:`fail` instead once
        ``spec.attempts`` reaches ``spec.max_attempts``.
        """
        spec.attempts += 1
        data = spec.to_dict()
        if reason:
            data["meta"] = {**data["meta"], "last_requeue": reason}
            spec.meta["last_requeue"] = reason
        self._write(self._path("pending", spec.job_id), data)
        self._remove("running", spec.job_id)
        self.wake.set()
        return spec

    def recover(self) -> List[JobSpec]:
        """Return a crashed daemon's ``running/`` claims to pending.

        Safe against live neighbours: a running file whose job already
        has a done/failed outcome is a stale leftover (the finishing
        daemon won), so it is removed, never requeued; a file that
        vanishes mid-recovery lost a race to the daemon actually
        executing it and is skipped.  A claim that is not a valid job
        is moved to ``failed/`` (see :meth:`_reject`).
        """
        recovered = []
        for name in sorted(os.listdir(self._dir("running"))):
            if not name.endswith(".json"):
                continue
            job_id = name[:-len(".json")]
            if self.outcome(job_id) is not None:
                # Finished elsewhere: drop the stale claim.
                self._remove("running", job_id)
                continue
            try:
                data = self._read(os.path.join(self._dir("running"), name))
            except (FileNotFoundError, json.JSONDecodeError):
                continue
            try:
                spec = JobSpec.from_dict(data)
            except (TypeError, ValueError) as exc:
                self._reject(name, data, exc)
                continue
            if self.outcome(job_id) is not None:
                # Completed between the read and now; the completing
                # daemon already removed (or is removing) the file.
                self._remove("running", job_id)
                continue
            recovered.append(self.requeue(spec, reason="daemon-crash"))
        return recovered

    def _reject(self, name: str, data: dict, exc: Exception) -> None:
        """running → failed for a file that is not a valid job.

        A job file of an unknown kind, or one missing a required field,
        can never run; left in ``running/`` it would stop the daemon
        that claimed it and, through :meth:`recover`, every daemon
        started over the spool after it.
        """
        record = dict(data) if isinstance(data, dict) else {"job": data}
        record["error"] = f"invalid job file: {exc}"
        record["finished_at"] = time.time()
        self._write(os.path.join(self._dir("failed"), name), record)
        self._remove("running", name[:-len(".json")])

    def _reject_pending(self, name: str, data, exc: Exception) -> None:
        """pending → failed for a file the claim order cannot rank.

        Claimed first, so of several daemons sharing the spool exactly
        one rejects it; a lost race means another already has.
        """
        try:
            os.rename(os.path.join(self._dir("pending"), name),
                      os.path.join(self._dir("running"), name))
        except OSError:
            return
        self._reject(name, data, exc)

    def _remove(self, state: str, job_id: str) -> None:
        try:
            os.remove(self._path(state, job_id))
        except FileNotFoundError:
            pass

    def sweep(self, retention: Optional[float],
              now: Optional[float] = None) -> int:
        """Remove ``done/``/``failed/`` files older than ``retention``.

        Bounds spool disk growth for long-running fleets: outcome files
        are the submitter's poll target, so they must linger, but only
        for the retention window (seconds).  Age is the recorded
        ``finished_at`` (file mtime when absent).  ``retention`` of
        None or <= 0 disables the sweep.  Returns files removed; safe
        under concurrent daemons — a file that vanishes mid-sweep was
        simply removed by a neighbour first.
        """
        if not retention or retention <= 0:
            return 0
        now = time.time() if now is None else now
        removed = 0
        for state in ("done", "failed"):
            state_dir = self._dir(state)
            for name in os.listdir(state_dir):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(state_dir, name)
                try:
                    finished = self._read(path).get("finished_at")
                except (FileNotFoundError, json.JSONDecodeError):
                    continue
                if finished is None:
                    try:
                        finished = os.path.getmtime(path)
                    except OSError:
                        continue
                if now - float(finished) >= retention:
                    try:
                        os.remove(path)
                        removed += 1
                    except FileNotFoundError:
                        pass
        return removed

    # -- inspection -----------------------------------------------------
    def counts(self) -> Dict[str, int]:
        return {state: len([n for n in os.listdir(self._dir(state))
                            if n.endswith(".json")])
                for state in _STATES}

    def pending_count(self) -> int:
        return self.counts()["pending"]

    def outcome(self, job_id: str) -> Optional[dict]:
        """The done/failed record for a job, or None if still in flight."""
        for state in ("done", "failed"):
            path = self._path(state, job_id)
            if os.path.exists(path):
                return self._read(path)
        return None

    def outcomes(self) -> List[dict]:
        """All finished job records, oldest first."""
        records = []
        for state in ("done", "failed"):
            for name in sorted(os.listdir(self._dir(state))):
                if name.endswith(".json"):
                    records.append(
                        self._read(os.path.join(self._dir(state), name)))
        records.sort(key=lambda r: r.get("finished_at", 0.0))
        return records
