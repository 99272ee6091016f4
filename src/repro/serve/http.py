"""Asyncio HTTP front door for a profiling fleet.

One event loop accepts every client; submissions, status polls, and
history/regress queries are routed to the :class:`~repro.serve.router.
Fleet` (shard daemons run on their own threads, so the loop never
blocks on a simulation).  Implemented directly on stdlib
``asyncio.start_server`` streams — no web framework, no dependencies —
because the protocol surface is five JSON endpoints:

``POST /submit``
    Body: ``{"workload": ..., "variant", "period", "threshold",
    "seed", "tenant", "priority", "force", "kind"}``.  Routes by
    ``(workload, program-hash)`` to a shard and enqueues.  Returns
    202 with ``{"job_id", "shard"}``; 429 with a ``Retry-After``
    header when the tenant's quota or the shard's queue depth is
    exceeded; 400 on unknown workloads, malformed JSON or a
    non-numeric ``Content-Length``; 413, without reading the body, when
    the declared body exceeds ``MAX_BODY_BYTES`` (1 MiB).
``GET /status/<job_id>``
    Lifecycle state (``pending``/``running``/``done``/``failed``) and,
    once finished, the full job record including the verdict.
``GET /history?workload=&variant=&limit=``
    Stored profiles merged across every shard, newest first; 400 when
    ``limit`` is not a positive integer (here and on ``/optimize``).
``GET /regress/<workload>?variant=``
    Regression verdict for the fleet's newest record of a workload.
``GET /optimize/<job_id>``
    Stored optimizer verdict for a finished ``optimize`` job.
``GET /optimize?workload=&status=&limit=``
    Stored optimizer verdicts merged across every shard, newest first.
``GET /fleet``
    Per-shard queue depths, dedupe hit/miss counters, store stats.

Responses always close the connection (``Connection: close``) — the
load generator and CLI clients open one connection per request, which
keeps the parser honest and the server state-free.

Every request, on any route, is answered 414 when its request line and
431 when a header line exceeds the stream reader's 64 KiB line limit,
431 when it carries more than ``MAX_HEADERS`` headers, and 408 when it
is not fully received within ``READ_DEADLINE_S`` seconds.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.serve.queue import JobSpec, QuotaExceeded
from repro.serve.router import Fleet

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            408: "Request Timeout", 413: "Payload Too Large",
            414: "URI Too Long", 429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error"}

#: Largest request body the front door reads; a submission is a few
#: hundred bytes of JSON.
MAX_BODY_BYTES = 1 << 20

#: Most header lines one request may carry; clients send a handful.
MAX_HEADERS = 100

#: Seconds a client has to deliver its whole request, so an idle or
#: trickling connection cannot hold the server open indefinitely.
READ_DEADLINE_S = 60.0

#: Submission fields accepted from the wire, with coercions.
_SUBMIT_FIELDS = {
    "workload": str, "variant": str, "kind": str, "tenant": str,
    "family": str, "period": int, "threshold": int, "priority": int,
    "seed": int, "max_attempts": int, "force": bool,
}

#: Wire fields that ride in ``JobSpec.meta`` rather than spec fields
#: (optimize-job knobs), with coercions.
_META_FIELDS = {"transform": str, "capacity": int}


class HttpError(Exception):
    """An error the handler turns into a JSON error response."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


async def _read_line(reader: asyncio.StreamReader, status: int,
                     what: str) -> bytes:
    """One CRLF-terminated line; ``status`` if it overruns the limit."""
    try:
        return await reader.readline()
    except ValueError:  # the reader's LimitOverrunError, re-raised
        raise HttpError(status, f"{what} too long") from None


def _parse_limit(query: Dict[str, str]) -> int:
    """The ``limit`` query parameter: a positive integer, default 50.

    SQLite reads a negative ``LIMIT`` as "no limit", so a non-positive
    value would read every shard store unbounded and then cut the
    merged list from the wrong end.
    """
    try:
        limit = int(query.get("limit", "50"))
    except ValueError as exc:
        raise HttpError(400, f"bad limit: {exc}") from exc
    if limit < 1:
        raise HttpError(400, f"bad limit: {limit} is not positive")
    return limit


class HttpFrontDoor:
    """The fleet's HTTP server (see module docstring)."""

    def __init__(self, fleet: Fleet, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.fleet = fleet
        self.host = host
        self.port = port
        self.requests_served = 0
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting (port 0 picks an ephemeral port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- request plumbing -----------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                try:
                    method, target, body = await asyncio.wait_for(
                        self._read_request(reader), READ_DEADLINE_S)
                except asyncio.TimeoutError:
                    raise HttpError(408, f"request not received within "
                                         f"{READ_DEADLINE_S:g} s") from None
                status, payload, headers = await self._route(
                    method, target, body)
            except HttpError as exc:
                status = exc.status
                payload = {"error": exc.message}
                headers = exc.headers
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except Exception as exc:  # noqa: BLE001 — served as a 500
                status = 500
                payload = {"error": f"{type(exc).__name__}: {exc}"}
                headers = {}
            self.requests_served += 1
            await self._respond(writer, status, payload, headers)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader
                            ) -> Tuple[str, str, bytes]:
        line = await _read_line(reader, 414, "request line")
        request_line = line.decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise HttpError(400, f"malformed request line "
                                 f"{request_line!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        count = 0
        while True:
            line = await _read_line(reader, 431, "header line")
            if line in (b"\r\n", b"\n", b""):
                break
            count += 1
            if count > MAX_HEADERS:
                raise HttpError(431, f"more than {MAX_HEADERS} headers")
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise HttpError(400, f"bad Content-Length {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body of {length} bytes exceeds "
                                 f"{MAX_BODY_BYTES}")
        body = await reader.readexactly(length) if length else b""
        return method, target, body

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       payload: dict,
                       headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                 "Content-Type: application/json",
                 f"Content-Length: {len(body)}",
                 "Connection: close"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()

    # -- routing --------------------------------------------------------
    async def _route(self, method: str, target: str, body: bytes
                     ) -> Tuple[int, dict, Dict[str, str]]:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = {name: values[-1]
                 for name, values in parse_qs(split.query).items()}
        if path == "/submit":
            if method != "POST":
                raise HttpError(405, "submit requires POST")
            return self._handle_submit(body)
        if method != "GET":
            raise HttpError(405, f"{path} requires GET")
        if path.startswith("/status/"):
            return self._handle_status(path[len("/status/"):])
        if path == "/history":
            return await self._handle_history(query)
        if path.startswith("/regress/"):
            return await self._handle_regress(path[len("/regress/"):],
                                              query)
        if path.startswith("/optimize/"):
            return await self._handle_optimize(path[len("/optimize/"):])
        if path == "/optimize":
            return await self._handle_optimize_history(query)
        if path == "/fleet":
            return 200, self.fleet.stats(), {}
        raise HttpError(404, f"no route for {path}")

    # -- handlers -------------------------------------------------------
    def _handle_submit(self, body: bytes
                       ) -> Tuple[int, dict, Dict[str, str]]:
        try:
            raw = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"body is not JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise HttpError(400, "body must be a JSON object")
        fields = {}
        meta = {}
        for name, value in raw.items():
            coerce = _SUBMIT_FIELDS.get(name)
            meta_coerce = _META_FIELDS.get(name)
            if coerce is None and meta_coerce is None:
                raise HttpError(400, f"unknown field {name!r}")
            if value is not None:
                try:
                    if coerce is not None:
                        fields[name] = coerce(value)
                    else:
                        meta[name] = meta_coerce(value)
                except (TypeError, ValueError) as exc:
                    raise HttpError(
                        400, f"field {name!r}: {exc}") from exc
        fields.setdefault("kind", "profile")
        if not fields.get("workload"):
            raise HttpError(400, "workload is required")
        if meta and fields["kind"] != "optimize":
            raise HttpError(
                400, f"field {next(iter(meta))!r} only applies to "
                     f"optimize jobs")
        if fields["kind"] == "optimize":
            # Optimization targets include small boxes and records the
            # default reporting threshold hides; track everything
            # unless the caller asked otherwise.
            fields.setdefault("threshold", 0)
        try:
            spec = JobSpec(job_id="", meta=meta, **fields)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc
        try:
            spec, shard = self.fleet.submit(spec)
        except QuotaExceeded as exc:
            raise HttpError(
                429, exc.reason,
                headers={"Retry-After": f"{exc.retry_after:g}"}) from exc
        except (KeyError, ValueError) as exc:
            raise HttpError(400, f"cannot route: {exc}") from exc
        return 202, {"job_id": spec.job_id, "shard": shard,
                     "tenant": spec.tenant}, {}

    def _handle_status(self, job_id: str
                       ) -> Tuple[int, dict, Dict[str, str]]:
        if not job_id:
            raise HttpError(400, "job id is required")
        status = self.fleet.status(job_id)
        if status is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        return 200, status, {}

    async def _handle_history(self, query: Dict[str, str]
                              ) -> Tuple[int, dict, Dict[str, str]]:
        limit = _parse_limit(query)
        # Store reads touch SQLite: keep the accept loop responsive.
        records = await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.fleet.history(
                workload=query.get("workload") or None,
                variant=query.get("variant") or None, limit=limit))
        return 200, {"records": records}, {}

    async def _handle_regress(self, workload: str, query: Dict[str, str]
                              ) -> Tuple[int, dict, Dict[str, str]]:
        if not workload:
            raise HttpError(400, "workload is required")
        verdict = await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.fleet.regress(
                workload, variant=query.get("variant") or None))
        if verdict is None:
            raise HttpError(404, f"no stored profile for {workload!r}")
        return 200, verdict, {}

    async def _handle_optimize(self, job_id: str
                               ) -> Tuple[int, dict, Dict[str, str]]:
        if not job_id:
            raise HttpError(400, "job id is required")
        row = await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.fleet.optimize_verdict(job_id))
        if row is None:
            raise HttpError(404, f"no optimizer verdict for job "
                                 f"{job_id!r}")
        return 200, row, {}

    async def _handle_optimize_history(self, query: Dict[str, str]
                                       ) -> Tuple[int, dict,
                                                  Dict[str, str]]:
        limit = _parse_limit(query)
        rows = await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.fleet.optimize_history(
                workload=query.get("workload") or None,
                status=query.get("status") or None, limit=limit))
        return 200, {"verdicts": rows}, {}


# ----------------------------------------------------------------------
# Minimal async client (used by the load generator and tests)
# ----------------------------------------------------------------------
async def http_request(host: str, port: int, method: str, path: str,
                       payload: Optional[dict] = None
                       ) -> Tuple[int, dict, Dict[str, str]]:
    """One request/response against a front door; returns
    ``(status, json-body, headers)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else b"")
        lines = [f"{method} {path} HTTP/1.1",
                 f"Host: {host}:{port}",
                 f"Content-Length: {len(body)}",
                 "Connection: close"]
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()
        status_line = (await reader.readline()).decode("latin-1")
        status = int(status_line.split()[1])
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw = await reader.read()
        data = json.loads(raw.decode("utf-8")) if raw else {}
        return status, data, headers
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
