"""Drive an unmodified ``repro fleet`` server over HTTP, open loop.

The load generator is one asyncio task pair in one process: a submitter
that sends each job when it is due (one connection at a time), and a
poller that asks for each submitted job's status (one connection at a
time) with a per-job backoff of 100 ms doubling to 1 s.  A 429 reply
puts the job back for its ``Retry-After``; its due time does not move,
so the wait counts in its latency.

A job's latency is its record's ``finished_at`` minus its due time.
Both are wall-clock readings on the same host.  A job that fails, gets
any reply other than 202 or 429, or is not finished 60 s after it was
due counts as failed and infinitely slow.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import math
import os
import re
import select
import signal
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from perf.jobs import FLEET_STEPS, Job
from perf.stats import nearest_rank
from repro.serve.http import http_request

LISTENING = re.compile(rb"listening on http://([0-9.]+):(\d+)")
DEADLINE_S = 60.0
FIRST_POLL_S = 0.1
MAX_POLL_S = 1.0
#: A step's jobs start this long after the step is planned.
LEAD_S = 0.05


class FleetProcess:
    """A fleet server child process: start it, learn its port, stop it."""

    def __init__(self, cmd: Sequence[str], env: Dict[str, str],
                 cwd: str) -> None:
        self.cmd = list(cmd)
        self.env = env
        self.cwd = cwd
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0
        self.output = b""

    def start(self, timeout: float = 60.0) -> float:
        """Spawn and wait for the "listening" line; returns seconds taken."""
        began = time.monotonic()
        self.proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE,
                                     env=self.env, cwd=self.cwd)
        fd = self.proc.stdout.fileno()
        while True:
            match = LISTENING.search(self.output)
            if match:
                self.host = match.group(1).decode()
                self.port = int(match.group(2))
                return time.monotonic() - began
            left = began + timeout - time.monotonic()
            if left <= 0:
                raise RuntimeError(f"fleet did not listen within "
                                   f"{timeout:.0f} s")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError(
                        f"fleet exited before listening (code "
                        f"{self.proc.wait()}): {self.output.decode()!r}")
                self.output += chunk

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM (the fleet drains and exits), then kill on timeout."""
        proc = self.proc
        if proc is None:
            return 0
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            rest, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            rest, _ = proc.communicate()
        self.output += rest or b""
        self.proc = None
        return proc.returncode

    def __enter__(self) -> "FleetProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


@dataclass
class Outcome:
    """What happened to one offered job."""

    job: Job
    #: Wall-clock time the job was due to be sent.
    due: float
    job_id: Optional[str] = None
    finished_at: Optional[float] = None
    record: Optional[dict] = None
    state: str = "pending"
    error: str = ""
    attempts: int = 0

    def fail(self, error: str) -> None:
        self.state = "failed"
        self.error = error

    @property
    def latency_ms(self) -> float:
        if self.state != "done":
            return math.inf
        return (self.finished_at - self.due) * 1000.0


@dataclass
class ClientStats:
    """Client-side numbers of the serving tier's HTTP surface."""

    submit_rtt_ms: List[float] = field(default_factory=list)
    status_rtt_ms: List[float] = field(default_factory=list)
    lag_ms: List[float] = field(default_factory=list)
    throttled: int = 0
    #: Status polls answered 5xx; the poll is retried, the job kept.
    status_errors: int = 0

    def metrics(self) -> Dict[str, float]:
        def pct(values: List[float], q: float) -> float:
            return nearest_rank(sorted(values), q) if values else 0.0

        return {
            "serve.http.submit_rtt_ms.p50": pct(self.submit_rtt_ms, 50),
            "serve.http.submit_rtt_ms.p90": pct(self.submit_rtt_ms, 90),
            "serve.http.status_rtt_ms.p50": pct(self.status_rtt_ms, 50),
            "serve.http.status_rtt_ms.p90": pct(self.status_rtt_ms, 90),
            "serve.http.throttled": float(self.throttled),
            "serve.http.status_errors": float(self.status_errors),
            "loadgen.lag_ms.max": max(self.lag_ms, default=0.0),
        }


async def run_step(host: str, port: int, jobs: List[Job],
                   stats: ClientStats) -> List[Outcome]:
    """Offer one step's jobs on schedule; return when each has an end."""
    start = time.time() + LEAD_S
    outcomes = [Outcome(job, start + job.due) for job in jobs]
    polls: list = []
    order = itertools.count()
    wake = asyncio.Event()
    submitting = True

    async def submitter() -> None:
        nonlocal submitting
        queue = list(outcomes)
        queue.reverse()
        retries: list = []
        while queue or retries:
            if retries and (not queue or retries[0][0] < queue[-1].due):
                at, _, outcome = heapq.heappop(retries)
            else:
                outcome = queue.pop()
                at = outcome.due
            delay = at - time.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if outcome.attempts == 0:
                stats.lag_ms.append(max(0.0, time.time() - at) * 1000.0)
            outcome.attempts += 1
            payload = {"workload": outcome.job.program,
                       "seed": outcome.job.seed,
                       "tenant": outcome.job.tenant}
            began = time.perf_counter()
            try:
                status, body, headers = await http_request(
                    host, port, "POST", "/submit", payload)
            except (OSError, ValueError) as exc:
                outcome.fail(f"submit: {type(exc).__name__}: {exc}")
                continue
            stats.submit_rtt_ms.append((time.perf_counter() - began) * 1e3)
            now = time.time()
            if status == 202:
                outcome.job_id = body["job_id"]
                heapq.heappush(polls, (now + FIRST_POLL_S, next(order),
                                       outcome, FIRST_POLL_S))
                wake.set()
            elif status == 429:
                stats.throttled += 1
                retry_at = now + float(headers.get("retry-after", "1"))
                if retry_at - outcome.due > DEADLINE_S:
                    outcome.fail("throttled past the deadline")
                else:
                    heapq.heappush(retries, (retry_at, next(order), outcome))
            else:
                outcome.fail(f"submit: HTTP {status} {body}")
        submitting = False
        wake.set()

    async def poller() -> None:
        while polls or submitting:
            if not polls:
                wake.clear()
                await wake.wait()
                continue
            at, _, outcome, backoff = polls[0]
            delay = at - time.time()
            if delay > 0:
                wake.clear()
                try:
                    await asyncio.wait_for(wake.wait(), delay)
                except asyncio.TimeoutError:
                    pass
                continue
            heapq.heappop(polls)
            began = time.perf_counter()
            try:
                status, body, _ = await http_request(
                    host, port, "GET", f"/status/{outcome.job_id}")
            except (OSError, ValueError) as exc:
                outcome.fail(f"status: {type(exc).__name__}: {exc}")
                continue
            stats.status_rtt_ms.append((time.perf_counter() - began) * 1e3)
            state = body.get("state") if status == 200 else None
            if state == "done":
                outcome.state = "done"
                outcome.record = body["job"]
                outcome.finished_at = float(body["job"]["finished_at"])
            elif state == "failed":
                outcome.record = body["job"]
                outcome.fail(f"job failed: {body['job'].get('error')}")
            elif status != 200 and status < 500:
                outcome.fail(f"status: HTTP {status} {body}")
            elif time.time() - outcome.due > DEADLINE_S:
                outcome.fail("not finished 60 s after it was due")
            else:
                # Still running, or a 5xx: `Fleet.status` can lose a
                # race with the daemon moving the job's file.
                stats.status_errors += status >= 500
                backoff = min(backoff * 2.0, MAX_POLL_S)
                heapq.heappush(polls, (time.time() + backoff, next(order),
                                       outcome, backoff))

    await asyncio.gather(submitter(), poller())
    return outcomes


async def run_steps(host: str, port: int, jobs: List[Job],
                    stats: ClientStats) -> Dict[str, List[Outcome]]:
    """Each step in turn, the next starting once the last has drained."""
    results = {}
    for name, _rate, _share in FLEET_STEPS:
        step_jobs = [job for job in jobs if job.step == name]
        results[name] = await run_step(host, port, step_jobs, stats)
    return results


def step_summary(outcomes: List[Outcome], rate: float) -> dict:
    """Latency, throughput and on-time counts of one step.

    ``jobs_per_s`` is completions over the time from the first due time
    to the last finish; ``on_time`` counts jobs finished within the
    step's length plus 2 s.
    """
    latencies = sorted(o.latency_ms for o in outcomes)
    start = min(o.due for o in outcomes)
    deadline = start + len(outcomes) / rate + 2.0
    done = [o for o in outcomes if o.state == "done"]
    last = max((o.finished_at for o in done), default=start)
    return {
        "rate": float(rate),
        "offered": len(outcomes),
        "done": len(done),
        "on_time": sum(1 for o in done if o.finished_at <= deadline),
        "p50_ms": nearest_rank(latencies, 50),
        "p90_ms": nearest_rank(latencies, 90),
        "jobs_per_s": len(done) / (last - start) if last > start else 0.0,
    }
