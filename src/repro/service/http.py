"""Async HTTP/JSON front end for the control-plane service.

Stdlib-only (``asyncio`` streams + hand-rolled HTTP/1.1 framing — no
new dependencies), exposing the tenant workflow:

- ``POST /jobs``              submit ``{"tenant", "name", "tasks": [...]}``
- ``GET  /jobs``              list every job
- ``GET  /jobs/<id>``         one job's status (live metrics included)
- ``POST /jobs/<id>/cancel``  cancel a running or parked job

Responses are always JSON.  Submission maps the admission verdict onto
status codes: 202 for admit/park (the ticket says which), 429 for
reject — the back-off signal load shedding wants tenants to see.

The surface is hardened against abusive clients: an optional shared
bearer token gates every route (401, constant-time compare), each
request gets one read deadline (408 on a slow-loris drip), and header
count and line length are capped (431) — a connection can no longer
pin the server by trickling an unbounded header stream.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import math
from typing import Any, Optional

from repro.service.aio import AsyncServiceRuntime
from repro.service.jobs import JobSpec
from repro.telemetry.metrics import MetricsRegistry, NULL_METRICS

_MAX_BODY = 4 * 1024 * 1024
_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
}


class _RequestOverflow(Exception):
    """A header stream broke the caps (count or line length)."""


def _finite(value: Any) -> Optional[float]:
    """``value`` as a finite float; None for non-numbers, bools, NaN,
    infinities and ints too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def spec_from_json(body: Any) -> JobSpec:
    """Build a :class:`JobSpec` from the submit payload.

    ``tasks`` is a list of finite byte sizes, or of ``{"size": n}``
    objects — one task group per entry.
    """
    if not isinstance(body, dict):
        raise ValueError("the request body must be a JSON object")
    tenant = body.get("tenant")
    name = body.get("name")
    tasks = body.get("tasks")
    if not isinstance(tenant, str) or not tenant:
        raise ValueError("'tenant' must be a non-empty string")
    if not isinstance(name, str) or not name:
        raise ValueError("'name' must be a non-empty string")
    if not isinstance(tasks, list) or not tasks:
        raise ValueError("'tasks' must be a non-empty list")
    sizes: list[float] = []
    for i, task in enumerate(tasks):
        size = _finite(task.get("size") if isinstance(task, dict) else task)
        if size is None or size < 0:
            raise ValueError(f"task {i} must be a size or {{'size': n}}, n >= 0")
        sizes.append(size)
    kind = body.get("kind", "compute")
    if kind not in ("compute", "transfer"):
        raise ValueError("'kind' must be 'compute' or 'transfer'")
    cost = _finite(body.get("cost", 1.0))
    if cost is None or cost <= 0:
        raise ValueError("'cost' must be a positive finite number")
    return JobSpec.from_sizes(tenant, name, sizes, kind=kind, cost=cost)


class ServiceHttpServer:
    """Minimal HTTP/1.1 server over an :class:`AsyncServiceRuntime`.

    ``auth_token`` (optional) turns on bearer authentication: every
    request must carry ``Authorization: Bearer <token>`` or is refused
    with 401 and counted in ``service.http.unauthorized``.  The
    comparison is constant-time (:func:`hmac.compare_digest`), so the
    surface leaks no prefix-timing oracle.

    ``read_timeout`` bounds how long one request may take to arrive in
    full — request line, headers, and body share a single deadline
    (408, ``service.http.timeouts``).  ``max_header_lines`` and
    ``max_line_bytes`` cap the header stream (431,
    ``service.http.overflows``); the previous implementation read
    header lines in an unbounded loop, so one drip-feeding client
    could grow buffers forever.
    """

    def __init__(
        self,
        runtime: AsyncServiceRuntime,
        *,
        auth_token: Optional[str] = None,
        read_timeout: float = 5.0,
        max_header_lines: int = 64,
        max_line_bytes: int = 8192,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if read_timeout <= 0:
            raise ValueError("read_timeout must be positive")
        if max_header_lines < 1 or max_line_bytes < 64:
            raise ValueError("header caps are too small to parse any request")
        self.runtime = runtime
        self._auth_token = auth_token
        self._read_timeout = read_timeout
        self._max_header_lines = max_header_lines
        self._max_line_bytes = max_line_bytes
        metrics = metrics if metrics is not None else NULL_METRICS
        self._m_unauthorized = metrics.counter("service.http.unauthorized")
        self._m_timeouts = metrics.counter("service.http.timeouts")
        self._m_overflows = metrics.counter("service.http.overflows")
        self._server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        # The stream limit backstops the per-line cap: a client sending
        # one endless line without a newline trips it inside readline.
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=2 * self._max_line_bytes
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._serve_one(reader)
        except asyncio.TimeoutError:
            self._m_timeouts.inc()
            status, payload = 408, {"error": "request read timed out"}
        except _RequestOverflow as exc:
            self._m_overflows.inc()
            status, payload = 431, {"error": str(exc)}
        except (asyncio.IncompleteReadError, ConnectionError, ValueError):
            # ValueError: the stream limit tripped mid-line — the
            # connection is unframed garbage; drop it.
            writer.close()
            return
        body = json.dumps(payload).encode()
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        writer.close()

    async def _read_line(
        self, reader: asyncio.StreamReader, deadline: float
    ) -> bytes:
        remaining = deadline - asyncio.get_running_loop().time()
        if remaining <= 0:
            raise asyncio.TimeoutError
        line = await asyncio.wait_for(reader.readline(), timeout=remaining)
        if len(line) > self._max_line_bytes:
            raise _RequestOverflow("header line too long")
        return line

    def _authorized(self, headers: dict[str, str]) -> bool:
        if self._auth_token is None:
            return True
        value = headers.get("authorization", "")
        scheme, _, presented = value.partition(" ")
        return scheme.lower() == "bearer" and hmac.compare_digest(
            presented.strip(), self._auth_token
        )

    async def _serve_one(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict[str, Any]]:
        deadline = asyncio.get_running_loop().time() + self._read_timeout
        request_line = (await self._read_line(reader, deadline)).decode("latin-1").strip()
        parts = request_line.split(" ")
        if len(parts) != 3:
            return 400, {"error": "malformed request line"}
        method, path, _version = parts
        headers: dict[str, str] = {}
        for _ in range(self._max_header_lines):
            line = (await self._read_line(reader, deadline)).decode("latin-1").strip()
            if not line:
                break
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        else:
            raise _RequestOverflow("too many header lines")
        try:
            content_length = int(headers.get("content-length", "0"))
        except ValueError:
            return 400, {"error": "bad content-length"}
        if content_length < 0:
            return 400, {"error": "bad content-length"}
        if not self._authorized(headers):
            self._m_unauthorized.inc()
            return 401, {"error": "missing or invalid bearer token"}
        if content_length > _MAX_BODY:
            return 413, {"error": "body too large"}
        raw = b""
        if content_length:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                raise asyncio.TimeoutError
            raw = await asyncio.wait_for(
                reader.readexactly(content_length), timeout=remaining
            )
        return self._route(method, path, raw)

    def _route(
        self, method: str, path: str, raw: bytes
    ) -> tuple[int, dict[str, Any]]:
        if path == "/jobs" and method == "POST":
            try:
                spec = spec_from_json(json.loads(raw or b"{}"))
            except RecursionError:
                return 400, {"error": "request body nested too deeply"}
            except (ValueError, TypeError) as exc:
                return 400, {"error": str(exc)}
            ticket = self.runtime.submit(spec)
            return (429 if ticket["verdict"] == "reject" else 202), ticket
        if path == "/jobs" and method == "GET":
            return 200, {"jobs": self.runtime.list_jobs()}
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/") :]
            if rest.endswith("/cancel") and method == "POST":
                job_id = rest[: -len("/cancel")]
                if self.runtime.status(job_id) is None:
                    return 404, {"error": f"no such job {job_id!r}"}
                return 200, {
                    "job_id": job_id,
                    "cancelled": self.runtime.cancel(job_id),
                }
            if method == "GET":
                status = self.runtime.status(rest)
                if status is None:
                    return 404, {"error": f"no such job {rest!r}"}
                return 200, status
        return 405, {"error": f"unsupported {method} {path}"}
