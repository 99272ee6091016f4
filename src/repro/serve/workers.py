"""Process worker pool with timeouts, retries, and hung-worker recycling.

``concurrent.futures.ProcessPoolExecutor`` alone cannot bound a task: a
hung worker holds its slot forever and ``future.result(timeout=...)``
abandons the result but not the process.  This pool adds the missing
pieces:

* **per-task timeouts** — tasks run in waves no wider than the pool, so
  every in-flight task started when its wave did; a wave that exceeds
  the timeout has its stragglers killed (the worker processes are
  terminated and the pool rebuilt);
* **bounded retries with backoff** — timed-out and crashed tasks are
  retried up to ``retries`` more times, sleeping ``backoff * 2**n``
  between attempts; tasks that raise ordinary exceptions are *not*
  retried (a deterministic simulator will just raise again);
* **crash isolation** — a worker that dies (``BrokenProcessPool``)
  fails only the tasks that were in flight; the pool is rebuilt and the
  rest of the batch proceeds;
* **graceful drain** — :meth:`WorkerPool.shutdown` finishes accepted
  work before returning (``wait=True``) or abandons it (``wait=False``);
* **no inherited descriptors** — workers start from a ``forkserver``,
  never by forking the caller.  The pool is built lazily, often inside
  a process that is already serving HTTP; a forked worker would hold
  every open client socket, and a client whose connection the front
  door closed would never see EOF.

Used by the serving daemon (:mod:`repro.serve.service`) and by the
suite runner (:func:`repro.workloads.runner.measure_suite_overheads`).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Generator, Iterator, List, Optional,
                    Sequence)


@dataclass
class TaskOutcome:
    """What happened to one task (in input order)."""

    index: int
    ok: bool
    value: Any = None
    error: Optional[str] = None
    attempts: int = 1
    elapsed: float = 0.0
    timed_out: bool = False

    def unwrap(self) -> Any:
        """The value, or raise the captured failure."""
        if not self.ok:
            raise RuntimeError(self.error or "task failed")
        return self.value


@dataclass
class _Pending:
    index: int
    task: Any
    attempts: int = 0
    history: List[str] = field(default_factory=list)


class WorkerPool:
    """Bounded, restartable process pool (see module docstring)."""

    def __init__(self, worker: Callable[[Any], Any],
                 jobs: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 backoff: float = 0.1) -> None:
        """``worker`` must be a module-level picklable callable.

        ``jobs`` defaults to the CPU count; ``jobs <= 1`` runs tasks
        serially in-process (no timeout enforcement — there is no
        worker to kill).  ``timeout`` bounds one attempt of one task;
        ``retries`` bounds *extra* attempts after a timeout or crash.
        """
        self.worker = worker
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self.stats: Dict[str, int] = {
            "tasks": 0, "timeouts": 0, "crashes": 0, "retries": 0,
            "pool_recycles": 0}

    # -- pool lifecycle -------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context("forkserver"))
        return self._pool

    def _recycle(self) -> None:
        """Kill every worker and rebuild the pool on next use.

        The only way to unstick a hung worker process: terminate it.
        ``_processes`` is private executor state, but there is no public
        kill switch, and a leaked hung process is worse.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self.stats["pool_recycles"] += 1
        processes = list(getattr(pool, "_processes", {}).values())
        for process in processes:
            process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.join(timeout=5.0)

    def shutdown(self, wait_for_work: bool = True) -> None:
        """Graceful drain (default) or immediate abandon."""
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait_for_work,
                          cancel_futures=not wait_for_work)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- execution ------------------------------------------------------
    def map(self, tasks: Sequence[Any]) -> List[TaskOutcome]:
        """Run every task; outcomes come back in input order.

        Never raises for task failures — each failure is captured in
        its :class:`TaskOutcome` so one bad task cannot take down the
        batch (or the caller).
        """
        return sorted(self.as_completed(tasks), key=lambda o: o.index)

    def as_completed(self, tasks: Sequence[Any]) -> Iterator[TaskOutcome]:
        """Run every task, yielding each outcome as soon as it is known.

        Outcomes come in completion order (``TaskOutcome.index`` names
        the task), so a caller can act on a fast task while a slow one
        in the same wave still runs.  Failures are captured as in
        :meth:`map`.
        """
        self.stats["tasks"] += len(tasks)
        pending = [_Pending(index=i, task=task)
                   for i, task in enumerate(tasks)]
        if self.jobs <= 1:
            return self._run_serial(pending)
        return self._run_waves(pending)

    def _run_serial(self, pending: List[_Pending]) -> Iterator[TaskOutcome]:
        for item in pending:
            started = time.perf_counter()
            try:
                value = self.worker(item.task)
            except Exception as exc:  # noqa: BLE001 — captured per task
                yield TaskOutcome(
                    index=item.index, ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                    attempts=item.attempts + 1,
                    elapsed=time.perf_counter() - started)
            else:
                yield TaskOutcome(
                    index=item.index, ok=True, value=value,
                    attempts=item.attempts + 1,
                    elapsed=time.perf_counter() - started)

    def _run_waves(self, pending: List[_Pending]) -> Iterator[TaskOutcome]:
        retry_round = 0
        while pending:
            wave, pending = pending[:self.jobs], pending[self.jobs:]
            survivors = yield from self._run_wave(wave)
            if survivors:
                retry_round += 1
                if self.backoff > 0:
                    time.sleep(min(self.backoff * (2 ** (retry_round - 1)),
                                   5.0))
                self.stats["retries"] += len(survivors)
            # Retries go to the back so fresh tasks are not starved.
            pending.extend(survivors)

    def _run_wave(self, wave: List[_Pending]
                  ) -> Generator[TaskOutcome, None, List[_Pending]]:
        """Run one wave, yielding outcomes as they finish; returns the
        tasks that earned another attempt."""
        pool = self._ensure_pool()
        started = time.perf_counter()
        futures = {}
        try:
            for item in wave:
                futures[pool.submit(self.worker, item.task)] = item
        except BrokenProcessPool:
            # The pool died before everything was even submitted.
            self._recycle()
            return (yield from self._note_crash(wave, started))

        deadline = None if self.timeout is None else started + self.timeout
        not_done = set(futures)
        retry: List[_Pending] = []
        broken = False
        while not_done:
            left = (None if deadline is None
                    else max(0.0, deadline - time.perf_counter()))
            done, not_done = wait(not_done, timeout=left,
                                  return_when=FIRST_COMPLETED)
            if not done:
                break  # the wave's timeout ran out
            elapsed = time.perf_counter() - started
            for future in done:
                item = futures[future]
                exc = future.exception()
                if exc is None:
                    yield TaskOutcome(
                        index=item.index, ok=True, value=future.result(),
                        attempts=item.attempts + 1, elapsed=elapsed)
                elif isinstance(exc, BrokenProcessPool):
                    broken = True
                    retry.extend((yield from self._note_crash([item],
                                                              started)))
                else:
                    # Deterministic task error: retrying would just
                    # repeat it.
                    yield TaskOutcome(
                        index=item.index, ok=False,
                        error=f"{type(exc).__name__}: {exc}",
                        attempts=item.attempts + 1, elapsed=elapsed)

        if not_done:
            # Stragglers blew the per-task timeout: kill their workers.
            elapsed = time.perf_counter() - started
            self.stats["timeouts"] += len(not_done)
            for future in not_done:
                item = futures[future]
                item.attempts += 1
                item.history.append("timeout")
                if item.attempts <= self.retries:
                    retry.append(item)
                else:
                    yield TaskOutcome(
                        index=item.index, ok=False,
                        error=(f"timed out after {self.timeout}s "
                               f"({item.attempts} attempt(s))"),
                        attempts=item.attempts, elapsed=elapsed,
                        timed_out=True)
            self._recycle()
        elif broken:
            self._recycle()
        return retry

    def _note_crash(self, items: List[_Pending], started: float
                    ) -> Generator[TaskOutcome, None, List[_Pending]]:
        """Count a crash against each item: yields the outcome of each
        one out of attempts, returns the ones to retry."""
        elapsed = time.perf_counter() - started
        retry: List[_Pending] = []
        self.stats["crashes"] += len(items)
        for item in items:
            item.attempts += 1
            item.history.append("worker-crash")
            if item.attempts <= self.retries:
                retry.append(item)
            else:
                yield TaskOutcome(
                    index=item.index, ok=False,
                    error=(f"worker process died "
                           f"({item.attempts} attempt(s))"),
                    attempts=item.attempts, elapsed=elapsed)
        return retry
