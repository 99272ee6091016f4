"""Tests for the asyncio HTTP front door.

Each test runs its own event loop via ``asyncio.run``; fleet daemons
are never started — jobs that must finish are executed by calling the
owning shard's service directly inside the coroutine, which keeps the
tests deterministic and fast.
"""

import asyncio

import pytest

from repro.serve import http
from repro.serve.http import (MAX_BODY_BYTES, MAX_HEADERS, HttpFrontDoor,
                              http_request)
from repro.serve.queue import FairnessPolicy
from repro.serve.router import Fleet

WORKLOAD = "objectlayout"


def drive(tmp_path, coro_fn, policy=None, shards=2, jobs=1):
    """Run ``coro_fn(fleet, door)`` against a started front door."""
    async def runner():
        with Fleet(str(tmp_path / "fleet"), shards=shards, jobs=jobs,
                   queue_policy=policy) as fleet:
            door = HttpFrontDoor(fleet)
            await door.start()
            try:
                return await coro_fn(fleet, door)
            finally:
                await door.stop()
    return asyncio.run(runner())


def submit_payload(**kw):
    payload = {"workload": WORKLOAD, "period": 32}
    payload.update(kw)
    return payload


class TestSubmit:
    def test_accepted_with_job_id_and_shard(self, tmp_path):
        async def scenario(fleet, door):
            status, data, _h = await http_request(
                door.host, door.port, "POST", "/submit",
                submit_payload(seed=1))
            assert status == 202
            assert data["job_id"]
            assert data["shard"] in (0, 1)
            assert data["tenant"] == "default"
            assert fleet.services[data["shard"]].queue.pending_count() \
                == 1
        drive(tmp_path, scenario)

    def test_unknown_workload_is_400(self, tmp_path):
        async def scenario(fleet, door):
            status, data, _h = await http_request(
                door.host, door.port, "POST", "/submit",
                submit_payload(workload="no-such"))
            assert status == 400
            assert "no-such" in data["error"]
        drive(tmp_path, scenario)

    def test_unknown_field_is_400(self, tmp_path):
        async def scenario(fleet, door):
            status, data, _h = await http_request(
                door.host, door.port, "POST", "/submit",
                submit_payload(frobnicate=1))
            assert status == 400
            assert "frobnicate" in data["error"]
        drive(tmp_path, scenario)

    def test_malformed_json_is_400(self, tmp_path):
        async def scenario(fleet, door):
            reader, writer = await asyncio.open_connection(
                door.host, door.port)
            body = b"{not json"
            writer.write(
                (f"POST /submit HTTP/1.1\r\nHost: x\r\n"
                 f"Content-Length: {len(body)}\r\n"
                 f"Connection: close\r\n\r\n").encode() + body)
            await writer.drain()
            status_line = (await reader.readline()).decode()
            writer.close()
            assert " 400 " in status_line
        drive(tmp_path, scenario)

    @pytest.mark.parametrize("length", ["abc", "-5", "1e3"])
    def test_bad_content_length_is_400(self, tmp_path, length):
        async def scenario(fleet, door):
            reader, writer = await asyncio.open_connection(
                door.host, door.port)
            writer.write(
                (f"POST /submit HTTP/1.1\r\nHost: x\r\n"
                 f"Content-Length: {length}\r\n\r\n").encode())
            await writer.drain()
            status_line = (await reader.readline()).decode()
            writer.close()
            assert " 400 " in status_line
        drive(tmp_path, scenario)

    def test_oversized_body_is_413_without_reading_it(self, tmp_path):
        async def scenario(fleet, door):
            reader, writer = await asyncio.open_connection(
                door.host, door.port)
            # Only the headers are sent: the verdict must not wait for
            # the declared body.
            writer.write(
                (f"POST /submit HTTP/1.1\r\nHost: x\r\n"
                 f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
                 ).encode())
            await writer.drain()
            status_line = (await asyncio.wait_for(reader.readline(),
                                                  10.0)).decode()
            writer.close()
            assert " 413 " in status_line
        drive(tmp_path, scenario)

    def test_get_submit_is_405(self, tmp_path):
        async def scenario(fleet, door):
            status, _d, _h = await http_request(
                door.host, door.port, "GET", "/submit")
            assert status == 405
        drive(tmp_path, scenario)

    def test_quota_exceeded_is_429_with_retry_after(self, tmp_path):
        policy = FairnessPolicy(max_pending_per_tenant=1,
                                retry_after=0.5)

        async def scenario(fleet, door):
            status, _d, _h = await http_request(
                door.host, door.port, "POST", "/submit",
                submit_payload(tenant="t", seed=1))
            assert status == 202
            status, data, headers = await http_request(
                door.host, door.port, "POST", "/submit",
                submit_payload(tenant="t", seed=2))
            assert status == 429
            assert headers["retry-after"] == "0.5"
            assert "quota" in data["error"]
        drive(tmp_path, scenario, policy=policy)


async def raw_status_line(door, request: bytes) -> str:
    """Send raw request bytes; return the reply's status line."""
    reader, writer = await asyncio.open_connection(door.host, door.port)
    writer.write(request)
    await writer.drain()
    status_line = (await asyncio.wait_for(reader.readline(), 10.0)).decode()
    writer.close()
    return status_line


class TestRequestLimits:
    """Hostile request framing gets a 4xx, never a 500 or a hang."""

    def test_overlong_request_line_is_414(self, tmp_path):
        async def scenario(fleet, door):
            target = "/status/" + "a" * 70_000
            return await raw_status_line(
                door, f"GET {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
        assert " 414 " in drive(tmp_path, scenario)

    def test_overlong_header_line_is_431(self, tmp_path):
        async def scenario(fleet, door):
            return await raw_status_line(
                door, (f"GET /fleet HTTP/1.1\r\nX-A: {'a' * 70_000}\r\n"
                       f"\r\n").encode())
        assert " 431 " in drive(tmp_path, scenario)

    @pytest.mark.parametrize("count, status", [
        (MAX_HEADERS, " 200 "), (MAX_HEADERS + 1, " 431 ")])
    def test_header_count_cap(self, tmp_path, count, status):
        async def scenario(fleet, door):
            headers = "".join(f"X-{i}: v\r\n" for i in range(count))
            return await raw_status_line(
                door, f"GET /fleet HTTP/1.1\r\n{headers}\r\n".encode())
        assert status in drive(tmp_path, scenario)

    @pytest.mark.parametrize("partial", [
        b"", b"GET /fleet HTTP/1.1\r\nHost: x\r\n",
        b"POST /submit HTTP/1.1\r\nContent-Length: 10\r\n\r\n{",
    ], ids=["idle", "headers", "body"])
    def test_stalled_request_is_408(self, tmp_path, monkeypatch, partial):
        monkeypatch.setattr(http, "READ_DEADLINE_S", 0.3)

        async def scenario(fleet, door):
            return await raw_status_line(door, partial)
        assert " 408 " in drive(tmp_path, scenario)


class TestStatusAndViews:
    def test_status_tracks_lifecycle_to_done(self, tmp_path):
        async def scenario(fleet, door):
            _s, accepted, _h = await http_request(
                door.host, door.port, "POST", "/submit",
                submit_payload(seed=9))
            status, data, _h = await http_request(
                door.host, door.port, "GET",
                f"/status/{accepted['job_id']}")
            assert (status, data["state"]) == (200, "pending")
            fleet.services[accepted["shard"]].drain()
            status, data, _h = await http_request(
                door.host, door.port, "GET",
                f"/status/{accepted['job_id']}")
            assert (status, data["state"]) == (200, "done")
            assert data["job"]["result"]["total_samples"] > 0
        drive(tmp_path, scenario)

    def test_unknown_job_is_404(self, tmp_path):
        async def scenario(fleet, door):
            status, _d, _h = await http_request(
                door.host, door.port, "GET", "/status/nope")
            assert status == 404
        drive(tmp_path, scenario)

    def test_history_and_fleet_views(self, tmp_path):
        async def scenario(fleet, door):
            _s, accepted, _h = await http_request(
                door.host, door.port, "POST", "/submit",
                submit_payload(seed=9))
            fleet.services[accepted["shard"]].drain()
            status, data, _h = await http_request(
                door.host, door.port, "GET",
                f"/history?workload={WORKLOAD}&limit=5")
            assert status == 200
            assert len(data["records"]) == 1
            assert data["records"][0]["shard"] == accepted["shard"]
            status, stats, _h = await http_request(
                door.host, door.port, "GET", "/fleet")
            assert status == 200
            assert stats["shard_count"] == 2
            assert sum(s["completed"]
                       for s in stats["shards"]) == 1
        drive(tmp_path, scenario)

    def test_unknown_route_is_404(self, tmp_path):
        async def scenario(fleet, door):
            status, _d, _h = await http_request(
                door.host, door.port, "GET", "/nope")
            assert status == 404
        drive(tmp_path, scenario)

    def test_bad_limit_is_400(self, tmp_path):
        async def scenario(fleet, door):
            for limit in ("banana", "0", "-1"):
                for route in ("/history", "/optimize"):
                    status, data, _h = await http_request(
                        door.host, door.port, "GET",
                        f"{route}?limit={limit}")
                    assert status == 400, (route, limit, data)
                    assert "bad limit" in data["error"]
        drive(tmp_path, scenario)


class TestPooledFleet:
    def test_held_connection_sees_eof_after_pool_starts(self, tmp_path):
        """Worker processes must not inherit the front door's sockets.

        Connection A is accepted before the shard's process pool
        starts; if a worker inherited A's socket, closing it on the
        server side would never reach the client as EOF.
        """
        async def scenario(fleet, door):
            reader, writer = await asyncio.open_connection(
                door.host, door.port)
            writer.write(b"GET /fleet HTTP/1.1\r\n")
            await writer.drain()
            # Let the front door accept A before the pool starts.
            await asyncio.sleep(0.2)
            _s, accepted, _h = await http_request(
                door.host, door.port, "POST", "/submit",
                submit_payload(seed=3))
            # The pool starts inside this drain (jobs=2 runs in workers).
            await asyncio.to_thread(fleet.services[0].drain)
            status, data, _h = await http_request(
                door.host, door.port, "GET",
                f"/status/{accepted['job_id']}")
            assert (status, data["state"]) == (200, "done")
            writer.write(b"Host: x\r\nConnection: close\r\n\r\n")
            await writer.drain()
            response = await asyncio.wait_for(reader.read(), 10.0)
            writer.close()
            assert response.startswith(b"HTTP/1.1 200 ")
        drive(tmp_path, scenario, shards=1, jobs=2)


class TestShardLiveness:
    # The shard thread dying is the point of the test.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_dead_shard_is_not_alive_and_the_other_serves(
            self, tmp_path, monkeypatch):
        """A shard whose serve loop raised shows ``alive: false`` in
        ``/fleet``; the other shard's thread keeps running jobs."""
        async def scenario(fleet, door):
            _hash, home = fleet._route_key(WORKLOAD, "baseline")
            dead = 1 - home

            def broken(*_args, **_kwargs):
                raise RuntimeError("shard daemon crashed")

            monkeypatch.setattr(fleet.services[dead], "run_once", broken)
            fleet.start()
            _s, accepted, _h = await http_request(
                door.host, door.port, "POST", "/submit",
                submit_payload(seed=21))
            assert accepted["shard"] == home
            for _ in range(3000):
                status, data, _h = await http_request(
                    door.host, door.port, "GET",
                    f"/status/{accepted['job_id']}")
                if data["state"] == "done":
                    break
                await asyncio.sleep(0.02)
            assert data["state"] == "done", data
            status, stats, _h = await http_request(
                door.host, door.port, "GET", "/fleet")
            assert status == 200
            alive = {s["shard"]: s["alive"] for s in stats["shards"]}
            assert alive == {home: True, dead: False}
        drive(tmp_path, scenario)
