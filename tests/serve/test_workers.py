"""Tests for the process worker pool (timeouts, crashes, retries)."""

import os
import time

import pytest

from repro.serve.workers import TaskOutcome, WorkerPool


# Workers must be module-level so they pickle into child processes.
def square(x):
    return x * x


def failing(x):
    if x < 0:
        raise ValueError(f"negative input {x}")
    return x


def sleepy(seconds):
    time.sleep(seconds)
    return seconds


def crashing(x):
    if x == "die":
        os._exit(13)
    return x


class TestSerialPath:
    """jobs<=1 runs in-process: same outcome surface, no subprocesses."""

    def test_map_in_order(self):
        with WorkerPool(square, jobs=1) as pool:
            outcomes = pool.map([3, 1, 2])
        assert [o.value for o in outcomes] == [9, 1, 4]
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert all(o.ok for o in outcomes)

    def test_error_captured_not_raised(self):
        with WorkerPool(failing, jobs=1) as pool:
            outcomes = pool.map([1, -5, 2])
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "negative input -5" in outcomes[1].error
        with pytest.raises(RuntimeError, match="negative input"):
            outcomes[1].unwrap()

    def test_unwrap_returns_value(self):
        assert TaskOutcome(index=0, ok=True, value=7).unwrap() == 7


class TestProcessPath:
    def test_map_in_order_across_processes(self):
        with WorkerPool(square, jobs=2) as pool:
            outcomes = pool.map([4, 5, 6, 7])
        assert [o.value for o in outcomes] == [16, 25, 36, 49]
        assert pool.stats["tasks"] == 4

    def test_as_completed_yields_a_fast_task_before_a_slow_one(self):
        """One wave, two tasks: the short task's outcome arrives while
        the long one still runs, not when the wave ends."""
        with WorkerPool(sleepy, jobs=2) as pool:
            pool.map([0.0, 0.0])  # start both workers
            started = time.perf_counter()
            outcomes = pool.as_completed([2.0, 0.05])
            first = next(outcomes)
            assert time.perf_counter() - started < 1.5
            assert (first.index, first.value) == (1, 0.05)
            assert [(o.index, o.value) for o in outcomes] == [(0, 2.0)]

    def test_deterministic_error_not_retried(self):
        with WorkerPool(failing, jobs=2, retries=3) as pool:
            outcomes = pool.map([1, -2])
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert outcomes[1].attempts == 1
        assert pool.stats["retries"] == 0

    def test_timeout_kills_straggler(self):
        with WorkerPool(sleepy, jobs=2, timeout=1.0, retries=0,
                        backoff=0.0) as pool:
            outcomes = pool.map([0.01, 30.0])
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert outcomes[1].timed_out
        assert "timed out" in outcomes[1].error
        assert pool.stats["timeouts"] == 1
        assert pool.stats["pool_recycles"] == 1

    def test_timeout_retry_can_succeed(self):
        # First attempt of the batch exceeds the timeout only for the
        # slow task; the retry (alone in its wave) fits the window.
        with WorkerPool(sleepy, jobs=2, timeout=2.0, retries=1,
                        backoff=0.0) as pool:
            outcomes = pool.map([0.01, 0.02])
        assert all(o.ok for o in outcomes)

    def test_crash_isolated_to_in_flight_tasks(self):
        with WorkerPool(crashing, jobs=2, retries=0,
                        backoff=0.0) as pool:
            outcomes = pool.map(["ok-1", "die", "ok-2", "ok-3"])
        assert not outcomes[1].ok
        assert "died" in outcomes[1].error
        # Tasks in later waves still ran on the rebuilt pool.
        later = [o for o in outcomes if o.ok]
        assert {o.value for o in later} <= {"ok-1", "ok-2", "ok-3"}
        assert pool.stats["crashes"] >= 1

    def test_crash_retry_succeeds_when_transient(self, tmp_path):
        # A crash marker that disappears after the first attempt models
        # a transient worker death (OOM kill, etc).
        marker = str(tmp_path / "crash-once")
        with open(marker, "w") as fh:
            fh.write("x")
        with WorkerPool(_crash_once, jobs=2, retries=2,
                        backoff=0.0) as pool:
            outcomes = pool.map([marker])
        assert outcomes[0].ok
        assert outcomes[0].attempts >= 2
        assert pool.stats["retries"] >= 1

    def test_shutdown_rejects_new_work(self):
        pool = WorkerPool(square, jobs=2)
        pool.map([1])
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.map([2])

    def test_empty_batch(self):
        with WorkerPool(square, jobs=2) as pool:
            assert pool.map([]) == []


def _crash_once(marker):
    if os.path.exists(marker):
        os.remove(marker)
        os._exit(7)
    return "recovered"
