"""Blocking HTTP client for the campaign service (stdlib ``http.client``).

The programmatic mirror of the API in :mod:`repro.service.http`::

    client = ServiceClient("127.0.0.1", 8787)
    job = client.submit("acme", {"chips_per_vendor": 2, "iterations": 1})
    for event in client.events(job["job_id"]):   # live NDJSON stream
        print(event["event"])
    summary = client.result(job["job_id"])

Server-side errors are re-raised as their service-layer types
(:class:`~repro.service.jobs.UnknownJobError`,
:class:`~repro.service.jobs.QueueFullError`,
:class:`~repro.errors.ConfigurationError`) so callers handle HTTP and
in-process managers identically.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, Iterator, List, Optional
from urllib.parse import quote, urlencode

from ..errors import ConfigurationError
from .jobs import TERMINAL_STATES, QueueFullError, ServiceError, UnknownJobError

_ERROR_TYPES = {
    "unknown_job": UnknownJobError,
    "queue_full": QueueFullError,
    "configuration": ConfigurationError,
}


class ServiceHealth(Dict[str, Any]):
    """``GET /v1/healthz`` with typed accessors.

    Still a plain ``dict`` (subscripting and JSON round-trips keep
    working); the properties just name the extended fields.
    """

    @property
    def status(self) -> str:
        return str(self.get("status", ""))

    @property
    def queued(self) -> int:
        return int(self.get("queued", 0))

    @property
    def running(self) -> int:
        return int(self.get("running", 0))

    @property
    def pool_workers_busy(self) -> int:
        return int((self.get("pool") or {}).get("workers_busy", 0))

    @property
    def pool_workers_total(self) -> int:
        return int((self.get("pool") or {}).get("workers_total", 0))

    @property
    def ledger_lag_s(self) -> Optional[float]:
        lag = self.get("ledger_lag_s")
        return None if lag is None else float(lag)


class ServiceClient:
    """One-connection-per-call client; safe to share across threads."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8787, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Dict[str, Any]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout
        )
        try:
            body = json.dumps(payload).encode("utf-8") if payload is not None else None
            request_headers = dict(headers or {})
            if body:
                request_headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=request_headers)
            response = conn.getresponse()
            data = response.read()
            decoded = json.loads(data.decode("utf-8")) if data else {}
            if response.status >= 400:
                self._raise(response.status, decoded)
            return decoded
        finally:
            conn.close()

    def _request_text(self, path: str, timeout: Optional[float] = None) -> str:
        """GET a plain-text endpoint (errors still arrive as JSON)."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout
        )
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            data = response.read()
            if response.status >= 400:
                try:
                    decoded = json.loads(data.decode("utf-8")) if data else {}
                except (UnicodeDecodeError, json.JSONDecodeError):
                    decoded = {}
                self._raise(response.status, decoded)
            return data.decode("utf-8")
        finally:
            conn.close()

    @staticmethod
    def _raise(status: int, decoded: Dict[str, Any]) -> None:
        error = decoded.get("error", {}) if isinstance(decoded, dict) else {}
        message = error.get("message") or f"HTTP {status}"
        exc_type = _ERROR_TYPES.get(error.get("type"), ServiceError)
        raise exc_type(message)

    # ------------------------------------------------------------------
    def healthz(self) -> "ServiceHealth":
        """Typed view over ``GET /v1/healthz`` (still a plain mapping)."""
        return ServiceHealth(self._request("GET", "/v1/healthz"))

    def metrics_text(self) -> str:
        """The raw OpenMetrics exposition from ``GET /metrics``."""
        return self._request_text("/metrics")

    def job_metrics(self, job_id: str) -> Dict[str, Any]:
        """Live per-job snapshot + p50/p99 unit latency (``live: false``
        shell when the job is not currently running)."""
        return self._request("GET", f"/v1/jobs/{quote(job_id)}/metrics")

    def submit(
        self,
        tenant: str,
        spec: Optional[Dict[str, Any]] = None,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        headers = {"x-trace-id": trace_id} if trace_id else None
        return self._request(
            "POST", "/v1/jobs", {"tenant": tenant, "spec": spec or {}}, headers=headers
        )

    def jobs(self, tenant: Optional[str] = None) -> List[Dict[str, Any]]:
        path = "/v1/jobs"
        if tenant:
            path += "?" + urlencode({"tenant": tenant})
        return self._request("GET", path)["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{quote(job_id)}")

    def result(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{quote(job_id)}/result")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/v1/jobs/{quote(job_id)}")

    def lake_report(
        self,
        tenant: str,
        report: str = "runs",
        vendor: Optional[str] = None,
        kind: Optional[str] = None,
        runs: Optional[List[str]] = None,
    ) -> Dict[str, Any]:
        """Cross-run lake analytics over the tenant's finished jobs."""
        params: Dict[str, str] = {"report": report}
        if vendor:
            params["vendor"] = vendor
        if kind:
            params["kind"] = kind
        if runs:
            params["runs"] = ",".join(runs)
        return self._request(
            "GET", f"/v1/tenants/{quote(tenant)}/lake?" + urlencode(params)
        )

    # ------------------------------------------------------------------
    def events(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Iterator[Dict[str, Any]]:
        """Yield the job's events as they arrive (blocks until stream ends).

        The server chunk-encodes one JSON object per line;
        ``http.client`` de-chunks transparently, so this just reads lines
        until EOF.
        """
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout
        )
        try:
            conn.request("GET", f"/v1/jobs/{quote(job_id)}/events")
            response = conn.getresponse()
            if response.status >= 400:
                data = response.read()
                decoded = json.loads(data.decode("utf-8")) if data else {}
                self._raise(response.status, decoded)
            buffer = b""
            while True:
                chunk = response.read(4096)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        yield json.loads(line)
            if buffer.strip():
                yield json.loads(buffer)
        finally:
            conn.close()

    def wait(
        self, job_id: str, timeout: float = 300.0, poll_s: float = 0.2
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; return its record."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["state"] in TERMINAL_STATES:
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']} after {timeout}s"
                )
            time.sleep(poll_s)
