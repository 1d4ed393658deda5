"""The multi-tenant simulator service.

``repro.serve`` promotes the in-process simulator (:mod:`repro.api`) to a
long-lived, tenant-facing API service: one shared warm world behind an
asyncio HTTP front end, with per-API-key quota ledgers, an auth-key
lifecycle (mint / rotate / revoke, persisted key table), request
coalescing for identical ``(params, asOf)`` calls, and campaign
submit/status/result routes.  The contract that makes a shared backend
safe is the repository's core invariant — every response is a pure
function of *(world seed, query, request date)* — so any tenant's request
can be answered by one shared computation and cached forever.

Layers (each usable on its own):

* :mod:`repro.serve.keys` — :class:`ApiKey` / :class:`KeyTable`, the
  credential lifecycle and its JSON persistence;
* :mod:`repro.serve.coalesce` — :class:`ResponseCache`, the coalescing /
  memoization layer over the pure backend;
* :mod:`repro.serve.gateway` — :class:`SimulatorGateway`, the
  protocol-agnostic core: auth, per-key billing, backend dispatch,
  campaign jobs.  This is also the byte-identity reference surface;
* :mod:`repro.serve.http` — :class:`SimulatorServer`, the stdlib-asyncio
  HTTP/1.1 front end (no framework);
* :mod:`repro.serve.loadgen` — the load generator behind
  ``repro loadgen`` and ``make serve-smoke``.

See ``docs/SERVICE.md`` for the endpoint reference and quickstart.
"""

from repro.serve.coalesce import ResponseCache
from repro.serve.gateway import (
    CampaignJob,
    ServeError,
    SimulatorGateway,
    build_gateway,
)
from repro.serve.http import SimulatorServer
from repro.serve.keys import ApiKey, KeyTable
from repro.serve.loadgen import LoadReport, run_loadgen, run_served_burst

__all__ = [
    "ApiKey",
    "KeyTable",
    "ResponseCache",
    "SimulatorGateway",
    "CampaignJob",
    "ServeError",
    "build_gateway",
    "SimulatorServer",
    "LoadReport",
    "run_loadgen",
    "run_served_burst",
]
