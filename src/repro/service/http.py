"""Minimal JSON-over-HTTP front-end for the :class:`JobManager`.

Stdlib-only (``asyncio`` streams; no web framework) HTTP/1.1 with exactly
the surface the service needs:

====== ============================ ===========================================
Method Path                         Meaning
====== ============================ ===========================================
POST   ``/v1/jobs``                 Submit ``{"tenant": ..., "spec": {...}}``
GET    ``/v1/jobs``                 List jobs (``?tenant=`` filters)
GET    ``/v1/jobs/{id}``            Job status + progress (counts, rate, ETA)
GET    ``/v1/jobs/{id}/events``     Live chunked JSONL event stream
GET    ``/v1/jobs/{id}/result``     Final campaign summary (done jobs only)
GET    ``/v1/jobs/{id}/metrics``    Live per-job snapshot + p50/p99 unit latency
DELETE ``/v1/jobs/{id}``            Cooperative cancel (partials persisted)
GET    ``/v1/tenants/{t}/lake``     Cross-run lake analytics over the tenant's
                                    finished jobs (``?report=``, ``?vendor=``,
                                    ``?kind=``, ``?runs=id1,id2``)
GET    ``/v1/healthz``              Liveness + queue depth + pool saturation,
                                    ledger lag, job-state counts
GET    ``/metrics``                 OpenMetrics exposition of the live plane
====== ============================ ===========================================

Trace propagation: ``POST /v1/jobs`` honours an incoming W3C
``traceparent`` (or bare ``x-trace-id``) header -- the job's entire run
then correlates under the caller's trace id; absent one, the manager
mints a fresh root.  Every response is also recorded into the live
plane (per-route counters + latency histograms) with the *route
template* as the label, never the raw path, and the method as sent only
when the service routes it (``GET``, ``POST``, ``DELETE``; any other is
labelled ``method="other"``); a request refused while being read (400,
413, 431) is labelled ``method="-"``, ``route="unparsed"``.  A routed
path asked with a method it does not serve answers 405.

Error mapping keeps service semantics on the wire:
:class:`~repro.service.jobs.UnknownJobError` -> 404,
:class:`~repro.service.jobs.QueueFullError` -> 429,
:class:`~repro.errors.ConfigurationError` -> 400, a request line or
header line past asyncio's 64 KiB stream limit -> 431, anything else ->
500.
Every error body is ``{"error": {"type": ..., "message": ...}}``.

The events endpoint responds with ``Transfer-Encoding: chunked`` and writes
one JSON object per chunk as the job emits them, ending with the job's
terminal ``job.state`` event -- a plain ``http.client`` (or ``curl -N``)
consumer sees events live.
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from typing import Any, Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..errors import ConfigurationError
from ..obs import TraceContext
from .jobs import CampaignJobSpec, QueueFullError, UnknownJobError
from .manager import JobManager

_MAX_BODY = 1 << 20  # 1 MiB is generous for a campaign spec
_JOB_PATH = re.compile(r"^/v1/jobs/([A-Za-z0-9._-]+)(/events|/result|/metrics)?$")
_TENANT_LAKE_PATH = re.compile(r"^/v1/tenants/([A-Za-z0-9._-]+)/lake$")

#: W3C ``traceparent``: version - trace-id - parent-span-id - flags.
_TRACEPARENT = re.compile(r"^[0-9a-f]{2}-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$")

#: OpenMetrics exposition content type served by ``GET /metrics``.
_OPENMETRICS_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str, error_type: str = "error") -> None:
        super().__init__(message)
        self.status = status
        self.error_type = error_type


#: The methods some route serves; every other method shares one label.
_ROUTED_METHODS = frozenset({"GET", "POST", "DELETE"})


def _route_template(path: str) -> str:
    """Collapse a request path to its route template for metric labels
    (bounded cardinality: job ids and tenants never become label values)."""
    if path in ("/metrics", "/v1/healthz", "/v1/jobs"):
        return path
    match = _JOB_PATH.match(path)
    if match is not None:
        return "/v1/jobs/{id}" + (match.group(2) or "")
    if _TENANT_LAKE_PATH.match(path) is not None:
        return "/v1/tenants/{tenant}/lake"
    return "unmatched"


def _trace_from_headers(headers: Mapping[str, str]) -> Optional[TraceContext]:
    """Incoming trace context: W3C ``traceparent`` first, then the simpler
    ``x-trace-id`` (32 lowercase hex).  Malformed values are ignored --
    propagation is best-effort, never a 4xx."""
    parent = _TRACEPARENT.match(headers.get("traceparent", ""))
    if parent is not None:
        return TraceContext(trace_id=parent.group(1), span_id=parent.group(2))
    trace_id = headers.get("x-trace-id", "")
    if re.fullmatch(r"[0-9a-f]{32}", trace_id):
        return TraceContext(trace_id=trace_id)
    return None


def _map_exception(exc: Exception) -> _HttpError:
    if isinstance(exc, _HttpError):
        return exc
    if isinstance(exc, UnknownJobError):
        return _HttpError(404, str(exc), "unknown_job")
    if isinstance(exc, QueueFullError):
        return _HttpError(429, str(exc), "queue_full")
    if isinstance(exc, ConfigurationError):
        return _HttpError(400, str(exc), "configuration")
    return _HttpError(500, f"{type(exc).__name__}: {exc}", "internal")


class ServiceProtocol:
    """One instance per server; handles each connection sequentially."""

    def __init__(self, manager: JobManager) -> None:
        self.manager = manager

    # ------------------------------------------------------------------
    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        start = time.monotonic()
        # A request refused while being read keeps these labels: a raw
        # method or path never becomes a label value.
        label, route = "-", "unparsed"
        status: Optional[int] = None
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, query, body, headers = request
            label = method if method in _ROUTED_METHODS else "other"
            route = _route_template(path)
            status = await self._dispatch(writer, method, path, query, body, headers)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # noqa: BLE001 - connection isolation
            mapped = _map_exception(exc)
            status = mapped.status
            try:
                await self._send_error(writer, mapped)
            except ConnectionError:
                pass
        finally:
            if status is not None:
                self.manager.plane.note_request(
                    label, route, status, time.monotonic() - start
                )
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, list], bytes, Dict[str, str]]]:
        try:
            request_line = await self._read_line(reader)
        except (ConnectionError, asyncio.IncompleteReadError):
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await self._read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        if re.fullmatch(r"[0-9]+", raw_length) is None:
            raise _HttpError(400, f"malformed Content-Length {raw_length!r}")
        length = int(raw_length)
        if length > _MAX_BODY:
            raise _HttpError(413, f"body exceeds {_MAX_BODY} bytes")
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError as exc:
            raise _HttpError(
                400, f"request body ended after {len(exc.partial)} of {length} bytes"
            ) from exc
        split = urlsplit(target)
        return method.upper(), split.path, parse_qs(split.query), body, headers

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        try:
            return await reader.readline()
        except ValueError as exc:
            # StreamReader.readline raises ValueError past its line limit.
            raise _HttpError(
                431, f"request line or header line longer than the stream limit: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: Dict[str, list],
        body: bytes,
        headers: Dict[str, str],
    ) -> int:
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {path}")
            return await self._send_text(
                writer, 200, self.manager.render_openmetrics(), _OPENMETRICS_TYPE
            )
        if path == "/v1/healthz":
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {path}")
            return await self._send_json(writer, 200, self.manager.health())
        if path == "/v1/jobs":
            if method == "POST":
                return await self._submit(writer, body, headers)
            if method == "GET":
                tenant = (query.get("tenant") or [None])[0]
                records = self.manager.jobs(tenant)
                return await self._send_json(
                    writer, 200, {"jobs": [r.to_json_dict() for r in records]}
                )
            raise _HttpError(405, f"{method} not allowed on {path}")
        lake_match = _TENANT_LAKE_PATH.match(path)
        if lake_match is not None:
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {path}")
            runs_param = (query.get("runs") or [None])[0]
            payload = await self.manager.lake_report(
                lake_match.group(1),
                report=(query.get("report") or ["runs"])[0],
                vendor=(query.get("vendor") or [None])[0],
                kind=(query.get("kind") or [None])[0],
                runs=runs_param.split(",") if runs_param else None,
            )
            return await self._send_json(writer, 200, payload)
        match = _JOB_PATH.match(path)
        if match is None:
            raise _HttpError(404, f"no route for {path}")
        job_id, suffix = match.group(1), match.group(2)
        if suffix == "/events":
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {path}")
            return await self._stream_events(writer, job_id)
        if suffix == "/result":
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {path}")
            return await self._send_json(writer, 200, self.manager.result(job_id))
        if suffix == "/metrics":
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {path}")
            return await self._send_json(writer, 200, self.manager.job_metrics(job_id))
        if method == "GET":
            return await self._send_json(
                writer, 200, self.manager.job(job_id).to_json_dict()
            )
        if method == "DELETE":
            record = await self.manager.cancel(job_id)
            return await self._send_json(writer, 200, record.to_json_dict())
        raise _HttpError(405, f"{method} not allowed on {path}")

    async def _submit(
        self, writer: asyncio.StreamWriter, body: bytes, headers: Dict[str, str]
    ) -> int:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        tenant = payload.get("tenant")
        if not isinstance(tenant, str):
            raise _HttpError(400, 'submission requires a string "tenant" field')
        spec_data = payload.get("spec", {})
        if not isinstance(spec_data, dict):
            raise _HttpError(400, '"spec" must be a JSON object')
        spec = CampaignJobSpec.from_json_dict(spec_data)
        record = await self.manager.submit(
            tenant, spec, trace=_trace_from_headers(headers)
        )
        return await self._send_json(writer, 201, record.to_json_dict())

    async def _stream_events(self, writer: asyncio.StreamWriter, job_id: str) -> int:
        source, sink = self.manager.subscribe_events(job_id)
        headers = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(headers.encode("latin-1"))
        await writer.drain()
        try:
            if sink is None:
                for row in source:  # finished job: replay events.jsonl
                    await self._write_chunk(writer, row)
            else:
                queue: asyncio.Queue = source
                try:
                    while True:
                        row = await queue.get()
                        if row is None:
                            break
                        await self._write_chunk(writer, row)
                finally:
                    sink.unsubscribe(queue)
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away mid-stream
        return 200

    @staticmethod
    async def _write_chunk(writer: asyncio.StreamWriter, row: Dict[str, Any]) -> None:
        data = (json.dumps(row, sort_keys=True) + "\n").encode("utf-8")
        writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
        await writer.drain()

    # ------------------------------------------------------------------
    @staticmethod
    async def _send_raw(
        writer: asyncio.StreamWriter, status: int, body: bytes, content_type: str
    ) -> int:
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        return status

    @classmethod
    async def _send_json(
        cls, writer: asyncio.StreamWriter, status: int, payload: Dict[str, Any]
    ) -> int:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        return await cls._send_raw(writer, status, body, "application/json")

    @classmethod
    async def _send_text(
        cls, writer: asyncio.StreamWriter, status: int, text: str, content_type: str
    ) -> int:
        return await cls._send_raw(
            writer, status, text.encode("utf-8"), content_type
        )

    async def _send_error(self, writer: asyncio.StreamWriter, exc: _HttpError) -> None:
        await self._send_json(
            writer,
            exc.status,
            {"error": {"type": exc.error_type, "message": str(exc)}},
        )


async def serve(
    manager: JobManager, host: str = "127.0.0.1", port: int = 8787
) -> asyncio.AbstractServer:
    """Bind the API server (the manager must already be started)."""
    protocol = ServiceProtocol(manager)
    return await asyncio.start_server(protocol.handle, host, port)
