"""Sweep-as-a-service: the simulator as a shared backend.

A long-running asyncio HTTP/JSON job server (stdlib only) that accepts
declarative sweep specs, shards their cells over a persistent worker
fleet, dedupes identical in-flight cells across concurrent clients,
serves repeats from the shared content-addressed results cache, and
streams per-cell progress as telemetry-style JSONL over chunked
responses.  ``repro serve`` runs it; ``repro submit`` (built on
:class:`ServiceClient`) is one client of many — results are
bit-identical to a local ``repro sweep``.

Layering: :mod:`spec` (the job language and its canonicalization),
:mod:`protocol` (wire events), :mod:`jobs` (the HTTP-free backend:
in-flight dedup over the :mod:`repro.harness.parallel` engine),
:mod:`server` (asyncio HTTP framing), :mod:`client` (blocking client
library).
"""

from .client import DEFAULT_PORT, ServiceClient, ServiceError
from .jobs import Job, SweepService
from .protocol import (WIRE_VERSION, cell_event, cell_result_from_event,
                       decode_line, encode_line)
from .server import ServiceServer, serve_async
from .spec import JobSpec, SpecError

__all__ = [
    "DEFAULT_PORT", "Job", "JobSpec", "ServiceClient", "ServiceError",
    "ServiceServer", "SpecError", "SweepService", "WIRE_VERSION",
    "cell_event", "cell_result_from_event", "decode_line", "encode_line",
    "serve_async",
]
