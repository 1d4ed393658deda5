"""Load-generator harness for the served simulator.

A minimal asyncio HTTP/1.1 client (``asyncio.open_connection``, one
request per connection — the server answers ``Connection: close``) drives
a burst of ``search.list`` requests against a running
:class:`~repro.serve.http.SimulatorServer` and reports latency
percentiles and throughput.  This is the engine behind ``repro loadgen``
and the ``make serve-smoke`` gate (``tools/serve_smoke.py``).

Two entry points:

* :func:`run_loadgen` — point it at an already-running server
  (host/port + credential) and fire a burst;
* :func:`run_served_burst` — build a gateway + server in-process, mint a
  key, fire the burst, and (optionally) check every 200 body against the
  gateway's independent byte-identity oracle.  This is what the smoke
  gate runs: one call proves the full socket → parser → executor →
  coalescer → backend path returns exactly the in-process bytes.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

__all__ = ["LoadReport", "run_loadgen", "run_served_burst"]

#: Default query mix: cycles across topics so bursts exercise both cache
#: hits (repeats) and misses (first sight of each query).
DEFAULT_QUERIES = ("flat earth", "vaccine side effects", "climate change hoax")


@dataclass
class LoadReport:
    """What one burst measured."""

    requests: int
    ok: int
    errors: int
    wall_s: float
    latencies_ms: list[float] = field(default_factory=list, repr=False)
    status_counts: dict[int, int] = field(default_factory=dict)
    mismatches: int = 0

    @property
    def qps(self) -> float:
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    def percentile(self, q: float) -> float:
        """Latency percentile in ms (nearest-rank); 0.0 when empty."""
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[rank]

    @property
    def p50_ms(self) -> float:
        return self.percentile(0.50)

    @property
    def p99_ms(self) -> float:
        return self.percentile(0.99)

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "wall_s": round(self.wall_s, 6),
            "qps": round(self.qps, 3),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "status_counts": {str(k): v for k, v in sorted(self.status_counts.items())},
            "mismatches": self.mismatches,
        }


async def _http_get(host: str, port: int, target: str) -> tuple[int, bytes]:
    """One GET over a fresh connection; returns (status, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        request = (
            f"GET {target} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        )
        writer.write(request.encode("latin-1"))
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1].strip())
        body = await reader.readexactly(length) if length else await reader.read()
        return status, body
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass


def _encode_query(params: dict[str, str]) -> str:
    from urllib.parse import urlencode

    return urlencode(params)


async def _burst(
    host: str,
    port: int,
    credential: str,
    requests: int,
    concurrency: int,
    queries: tuple[str, ...],
    as_of: str | None,
    check_bytes=None,
) -> LoadReport:
    semaphore = asyncio.Semaphore(concurrency)
    latencies: list[float] = []
    status_counts: dict[int, int] = {}
    mismatches = 0

    async def one(i: int) -> None:
        nonlocal mismatches
        params = {"part": "snippet", "q": queries[i % len(queries)], "key": credential}
        if as_of is not None:
            params["asOf"] = as_of
        target = "/youtube/v3/search?" + _encode_query(params)
        async with semaphore:
            t0 = time.perf_counter()
            status, body = await _http_get(host, port, target)
            latencies.append((time.perf_counter() - t0) * 1000.0)
        status_counts[status] = status_counts.get(status, 0) + 1
        if status == 200 and check_bytes is not None:
            expected = check_bytes({k: v for k, v in params.items() if k != "key"})
            if body != expected:
                mismatches += 1

    t0 = time.perf_counter()
    await asyncio.gather(*(one(i) for i in range(requests)))
    wall_s = time.perf_counter() - t0
    ok = status_counts.get(200, 0)
    return LoadReport(
        requests=requests,
        ok=ok,
        errors=requests - ok,
        wall_s=wall_s,
        latencies_ms=latencies,
        status_counts=status_counts,
        mismatches=mismatches,
    )


def run_loadgen(
    host: str,
    port: int,
    credential: str,
    requests: int = 50,
    concurrency: int = 8,
    queries: tuple[str, ...] = DEFAULT_QUERIES,
    as_of: str | None = None,
) -> LoadReport:
    """Fire a burst of ``search.list`` requests at a running server."""
    return asyncio.run(
        _burst(host, port, credential, requests, concurrency, queries, as_of)
    )


def run_served_burst(
    requests: int = 50,
    concurrency: int = 8,
    scale: float = 0.15,
    seed: int = 7,
    queries: tuple[str, ...] = DEFAULT_QUERIES,
    as_of: str | None = None,
    daily_limit: int = 1_000_000,
    check_identity: bool = True,
    gateway=None,
) -> tuple[LoadReport, dict]:
    """Build a server in-process, fire one burst, tear it down.

    Returns ``(report, quota_report)``.  With ``check_identity`` every 200
    body is compared byte-for-byte against
    :meth:`~repro.serve.gateway.SimulatorGateway.reference_search_bytes`
    (an independent service instance) — ``report.mismatches`` must be 0.
    Pass a prebuilt ``gateway`` to skip world construction (tests reuse
    the session world).
    """
    from repro.serve.gateway import build_gateway
    from repro.serve.http import SimulatorServer

    own_gateway = gateway is None
    if own_gateway:
        gateway = build_gateway(scale=scale, seed=seed)
    key = gateway.mint_key(label="loadgen", daily_limit=daily_limit)

    # The oracle memoizes per (params, asOf): reference computation is
    # serialized and slow, and a burst repeats few distinct queries.
    oracle_cache: dict[str, bytes] = {}

    def check_bytes(params: dict[str, str]) -> bytes:
        fingerprint = json.dumps(sorted(params.items()))
        if fingerprint not in oracle_cache:
            oracle_cache[fingerprint] = gateway.reference_search_bytes(dict(params))
        return oracle_cache[fingerprint]

    async def main() -> LoadReport:
        server = SimulatorServer(gateway)
        host, port = await server.start()
        try:
            return await _burst(
                host, port, key.credential, requests, concurrency, queries,
                as_of, check_bytes=check_bytes if check_identity else None,
            )
        finally:
            await server.aclose()

    try:
        report = asyncio.run(main())
        quota = gateway.quota_report(key.credential)
    finally:
        if own_gateway:
            gateway.close()
    return report, quota
