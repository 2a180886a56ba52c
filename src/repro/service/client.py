"""Thin blocking client for the sweep service (stdlib ``http.client``).

The client folds a job-event stream into the report ``repro sweep``
returns: each ``cell`` event becomes the
:class:`~repro.harness.parallel.CellResult` row the service resolved
(stats reconstructed bit-identically via ``SimStats.from_dict``), and
:meth:`~repro.harness.parallel.SweepReport.add` files it into the
matrix, the failure rows and the per-source counters — so code written
against ``repro sweep``'s :class:`SweepReport` consumes service results
unchanged.  ``repro submit`` is just this library plus argument
parsing.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection
from typing import Callable, Iterator, Optional

from ..harness.experiment import Matrix
from ..harness.parallel import SweepReport
from .protocol import cell_result_from_event, decode_line
from .spec import JobSpec

#: Default port for ``repro serve`` / ``repro submit``.
DEFAULT_PORT = 8734


class ServiceError(RuntimeError):
    """The server rejected a request or broke protocol."""


class ServiceClient:
    """Blocking HTTP client; one connection per request/stream.

    ``timeout`` applies to connect and to individual reads.  Event
    streams emit a line per resolved cell, so any healthy job keeps the
    stream moving; the default (no timeout) never gives up on a slow
    cell.
    """

    def __init__(self, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT,
                 timeout: Optional[float] = None):
        self.host = host
        self.port = port
        self.timeout = timeout

    def _connect(self) -> HTTPConnection:
        if self.timeout is None:
            return HTTPConnection(self.host, self.port)
        return HTTPConnection(self.host, self.port,
                              timeout=self.timeout)

    def _request(self, method: str, path: str,
                 doc: Optional[dict] = None) -> dict:
        conn = self._connect()
        try:
            body = (json.dumps(doc).encode()
                    if doc is not None else None)
            headers = ({"Content-Type": "application/json"}
                       if body is not None else {})
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                payload = response.read()
            except OSError as exc:
                raise ServiceError(
                    f"cannot reach sweep service at "
                    f"{self.host}:{self.port}: {exc}") from exc
            try:
                parsed = json.loads(payload) if payload else {}
            except ValueError:
                parsed = {"error": payload[:200].decode("latin-1")}
            if response.status >= 400:
                raise ServiceError(
                    f"{method} {path} -> {response.status}: "
                    f"{parsed.get('error', 'unknown error')}")
            return parsed
        finally:
            conn.close()

    # -- endpoints ------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/health")

    def submit(self, spec: JobSpec) -> dict:
        """Post a job; returns ``{"id", "key", "cells", "workers"}``."""
        return self._request("POST", "/jobs", spec.to_dict())

    def job_status(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def shutdown(self) -> dict:
        """Ask the server to stop cleanly (reaps its worker fleet)."""
        return self._request("POST", "/shutdown")

    def events(self, job_id: str) -> Iterator[dict]:
        """Follow a job's JSONL event stream (history + live)."""
        conn = self._connect()
        try:
            try:
                conn.request("GET", f"/jobs/{job_id}/events")
                response = conn.getresponse()
            except OSError as exc:
                raise ServiceError(
                    f"cannot reach sweep service at "
                    f"{self.host}:{self.port}: {exc}") from exc
            if response.status != 200:
                payload = response.read()[:200].decode("latin-1")
                raise ServiceError(
                    f"GET /jobs/{job_id}/events -> "
                    f"{response.status}: {payload}")
            # HTTPResponse undoes the chunked framing; what is left is
            # exactly the telemetry-style JSONL stream.
            for line in response:
                line = line.strip()
                if line:
                    yield decode_line(line)
        finally:
            conn.close()

    def run(self, spec: JobSpec,
            on_event: Optional[Callable[[dict], None]] = None
            ) -> SweepReport:
        """Submit a spec and follow it to completion.

        The returned report's matrix holds stats bit-identical to a
        local ``repro sweep`` of the same spec; failure rows reuse the
        batch engine's schema.
        """
        accepted = self.submit(spec)
        report = SweepReport(
            matrix=Matrix(scale=spec.scale),
            cells=accepted.get("cells", 0),
            jobs=accepted.get("workers", 0),
            job_id=accepted.get("id", ""))
        done = False
        for event in self.events(report.job_id):
            if on_event is not None:
                on_event(event)
            kind = event.get("kind")
            if kind == "cell":
                report.add(cell_result_from_event(event))
            elif kind == "done":
                report.elapsed = event.get("elapsed", 0.0)
                done = True
        if not done:
            raise ServiceError(
                f"event stream for {report.job_id} ended before the "
                f"job completed")
        return report


__all__ = ["DEFAULT_PORT", "ServiceClient", "ServiceError"]
