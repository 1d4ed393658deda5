"""The asyncio HTTP/1.1 front end over :class:`SimulatorGateway`.

Deliberately framework-free: one ``asyncio.start_server`` listener, a
small request parser (request line, headers, ``Content-Length`` body),
and a route table.  Backend work runs in the default thread-pool executor
so the event loop never blocks on a simulator computation — the
coalescing layer (:mod:`repro.serve.coalesce`) is what turns concurrent
identical requests into one backend call.

Routes (full reference with schemas in ``docs/SERVICE.md``):

===========================================  =================================
``GET /healthz``                             liveness + world summary
``GET /youtube/v3/search``                   ``search.list`` (100 units)
``GET /youtube/v3/videos``                   ``videos.list`` (1 unit)
``GET /v1/quota``                            the caller's quota report
``POST /v1/campaigns``                       submit a campaign job (202)
``GET /v1/campaigns/{id}``                   job status
``GET /v1/campaigns/{id}/result``            job result (409 until done)
``GET /v1/orchestrator``                     orchestrator occupancy overview
``POST /v1/orchestrator/campaigns``          submit an orchestrated campaign
``GET /v1/orchestrator/campaigns``           the caller's campaigns
``GET /v1/orchestrator/campaigns/{id}``      one campaign's status
``POST /v1/orchestrator/campaigns/{id}/pause``    pause at next boundary
``POST /v1/orchestrator/campaigns/{id}/resume``   re-admit paused/degraded
``POST /v1/orchestrator/campaigns/{id}/cancel``   cancel (refunds in-flight)
``POST /v1/keys``                            admin: mint a key
``GET /v1/keys``                             admin: list keys
``POST /v1/keys/{id}/rotate``                admin: rotate a credential
``POST /v1/keys/{id}/revoke``                admin: revoke a key
===========================================  =================================

Tenant auth: ``?key=...`` or the ``X-Api-Key`` header (the query
parameter wins, mirroring the real API).  Admin auth: the
``X-Admin-Token`` header must equal the token the server was started
with; admin routes are disabled entirely when no token is configured.
The orchestrator routes exist only when the server is started with an
:class:`~repro.orchestrator.daemon.OrchestratorDaemon` attached.

Backpressure: 429 (admission rejected) and 503 (breaker-degraded or
draining) responses carry a ``Retry-After`` header whenever the failure
is transient — the seconds a polite client waits before retrying.
"""

from __future__ import annotations

import asyncio
import json
import time
from urllib.parse import parse_qsl, urlsplit

from repro.api.errors import ApiError
from repro.obs.observer import NullObserver
from repro.serve.gateway import ServeError, SimulatorGateway, _dumps

__all__ = ["SimulatorServer"]

#: Cap on request head + body; the served API needs neither large bodies
#: nor streaming uploads, so anything bigger is a client error.
_MAX_REQUEST_BYTES = 64 * 1024

_JSON_HEADERS = "Content-Type: application/json; charset=utf-8"

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 401: "Unauthorized",
    403: "Forbidden", 404: "Not Found", 405: "Method Not Allowed",
    409: "Conflict", 413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class SimulatorServer:
    """One listening simulator service instance."""

    def __init__(
        self,
        gateway: SimulatorGateway,
        host: str = "127.0.0.1",
        port: int = 0,
        admin_token: str | None = None,
        orchestrator=None,
    ) -> None:
        self.gateway = gateway
        self.host = host
        self.port = port
        self.admin_token = admin_token
        #: Optional OrchestratorDaemon; enables the /v1/orchestrator routes.
        self.orchestrator = orchestrator
        self._server: asyncio.base_events.Server | None = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, target, headers, body = request
            status, payload, *rest = await self._dispatch(
                method, target, headers, body
            )
            extra_headers = rest[0] if rest else None
        except _HttpError as exc:
            status, payload = exc.status, _dumps(_envelope(exc.status, exc.reason, str(exc)))
            extra_headers = None
        except Exception as exc:  # a handler bug must not kill the listener
            status = 500
            payload = _dumps(_envelope(500, "internalError", f"{type(exc).__name__}: {exc}"))
            extra_headers = None
        try:
            writer.write(_response_bytes(status, payload, extra_headers))
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None  # client closed without a full request
        except asyncio.LimitOverrunError as exc:
            raise _HttpError(413, "payloadTooLarge", str(exc)) from exc
        if len(head) > _MAX_REQUEST_BYTES:
            raise _HttpError(413, "payloadTooLarge", "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _HttpError(400, "badRequest", f"malformed request line: {lines[0]!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_REQUEST_BYTES:
            raise _HttpError(413, "payloadTooLarge", "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    # -- routing ---------------------------------------------------------------

    async def _dispatch(
        self, method: str, target: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, bytes] | tuple[int, bytes, dict[str, str] | None]:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        params = dict(parse_qsl(split.query, keep_blank_values=True))
        credential = params.pop("key", None) or headers.get("x-api-key")
        t0 = time.perf_counter()
        loop = asyncio.get_running_loop()

        def respond_error(exc: Exception) -> tuple[int, bytes, dict | None]:
            if isinstance(exc, ServeError):
                status, envelope = exc.http_status, exc.to_json()
            elif isinstance(exc, ApiError):
                status, envelope = exc.http_status, exc.to_json()
            else:
                raise exc
            retry_after = getattr(exc, "retry_after", None)
            extra = (
                {"Retry-After": str(int(retry_after))}
                if retry_after is not None
                else None
            )
            wall_ms = (time.perf_counter() - t0) * 1000.0
            self.gateway.observer.emit(
                "serve.request", path, _key_id_of(self.gateway, credential),
                status, wall_ms, "-",
            )
            return status, _dumps(envelope), extra

        try:
            # Backend endpoints run in the executor: the simulator call is
            # synchronous, and identical concurrent requests coalesce there.
            if method == "GET" and path == "/youtube/v3/search":
                body_bytes, _ = await loop.run_in_executor(
                    None, self.gateway.search_list, credential, params
                )
                return 200, body_bytes
            if method == "GET" and path == "/youtube/v3/videos":
                body_bytes, _ = await loop.run_in_executor(
                    None, self.gateway.videos_list, credential, params
                )
                return 200, body_bytes
            if method == "GET" and path == "/healthz":
                return 200, _dumps({
                    "status": "ok",
                    "world": self.gateway.world.summary(),
                    "cache": self.gateway.cache.stats,
                })
            if path == "/v1/quota" and method == "GET":
                return 200, _dumps(self.gateway.quota_report(credential))
            if path == "/v1/campaigns" and method == "POST":
                fields = _json_body(body)
                job = self.gateway.submit_campaign(
                    credential,
                    collections=int(fields.get("collections", 4)),
                    interval_days=int(fields.get("intervalDays", 5)),
                )
                return 202, _dumps(job.to_dict())
            if path.startswith("/v1/campaigns/") and method == "GET":
                rest = path[len("/v1/campaigns/"):]
                job_id, _, tail = rest.partition("/")
                job = self.gateway.job_for(credential, job_id)
                if tail == "":
                    return 200, _dumps(job.to_dict())
                if tail == "result":
                    if job.status in ("queued", "running"):
                        raise ServeError(
                            409, "jobNotFinished",
                            f"campaign job {job_id} is {job.status}",
                        )
                    payload = job.to_dict()
                    payload["result"] = job.result
                    return 200, _dumps(payload)
                raise ServeError(404, "notFound", f"no route {path!r}")
            if path == "/v1/orchestrator" or path.startswith("/v1/orchestrator/"):
                # Daemon calls journal with fsync; keep them off the loop.
                return await loop.run_in_executor(
                    None, self._orchestrator_route,
                    method, path, credential, body,
                )
            if path == "/v1/keys" or path.startswith("/v1/keys/"):
                return self._admin_route(method, path, headers, body)
            raise ServeError(404, "notFound", f"no route {method} {path!r}")
        except (ServeError, ApiError) as exc:
            return respond_error(exc)

    def _orchestrator_route(
        self, method: str, path: str, credential: str | None, body: bytes
    ) -> tuple[int, bytes]:
        orch = self.orchestrator
        if orch is None:
            raise ServeError(
                404, "orchestratorDisabled",
                "this server was started without an orchestrator",
            )
        if path == "/v1/orchestrator":
            if method != "GET":
                raise ServeError(405, "methodNotAllowed", f"{method} {path}")
            return 200, _dumps(orch.overview())
        if path == "/v1/orchestrator/campaigns":
            if method == "POST":
                fields = _json_body(body)
                submitted = orch.submit(
                    credential,
                    collections=int(fields.get("collections", 4)),
                    interval_days=int(fields.get("intervalDays", 5)),
                    priority=int(fields.get("priority", 0)),
                )
                return 202, _dumps(submitted)
            if method == "GET":
                return 200, _dumps({"campaigns": orch.list_campaigns(credential)})
            raise ServeError(405, "methodNotAllowed", f"{method} {path}")
        rest = path[len("/v1/orchestrator/campaigns/"):]
        if not path.startswith("/v1/orchestrator/campaigns/") or not rest:
            raise ServeError(404, "notFound", f"no route {method} {path!r}")
        campaign_id, _, action = rest.partition("/")
        if method == "GET" and action == "":
            return 200, _dumps(orch.status(credential, campaign_id))
        if method == "POST" and action in ("pause", "resume", "cancel"):
            handler = getattr(orch, action)
            return 200, _dumps(handler(credential, campaign_id))
        raise ServeError(404, "notFound", f"no route {method} {path!r}")

    def _admin_route(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, bytes]:
        if self.admin_token is None:
            raise ServeError(
                403, "adminDisabled",
                "admin routes are disabled: server started without an admin token",
            )
        if headers.get("x-admin-token") != self.admin_token:
            raise ServeError(403, "adminForbidden", "X-Admin-Token missing or wrong")
        if path == "/v1/keys":
            if method == "POST":
                fields = _json_body(body)
                key = self.gateway.mint_key(
                    label=str(fields.get("label", "")),
                    daily_limit=int(fields.get("dailyLimit", 10_000)),
                    researcher=bool(fields.get("researcher", False)),
                )
                return 200, _dumps({
                    "keyId": key.key_id,
                    "key": key.credential,
                    "label": key.label,
                    "dailyLimit": key.policy.effective_limit,
                })
            if method == "GET":
                return 200, _dumps({
                    "keys": [
                        {
                            "keyId": key.key_id,
                            "label": key.label,
                            "status": key.status,
                            "dailyLimit": key.policy.effective_limit,
                        }
                        for key in self.gateway.keys.list()
                    ]
                })
            raise ServeError(405, "methodNotAllowed", f"{method} /v1/keys")
        rest = path[len("/v1/keys/"):]
        key_id, _, action = rest.partition("/")
        if method != "POST" or action not in ("rotate", "revoke"):
            raise ServeError(404, "notFound", f"no route {method} {path!r}")
        try:
            if action == "rotate":
                key = self.gateway.rotate_key(key_id)
                return 200, _dumps({"keyId": key.key_id, "key": key.credential})
            key = self.gateway.revoke_key(key_id)
            return 200, _dumps({"keyId": key.key_id, "status": key.status})
        except KeyError as exc:
            raise ServeError(404, "notFound", str(exc)) from exc
        except ValueError as exc:
            raise ServeError(409, "conflict", str(exc)) from exc


class _HttpError(Exception):
    """A request that failed before reaching a route."""

    def __init__(self, status: int, reason: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.reason = reason


def _json_body(body: bytes) -> dict:
    if not body:
        return {}
    try:
        parsed = json.loads(body)
    except ValueError as exc:
        raise ServeError(400, "badRequest", f"body is not JSON: {exc}") from exc
    if not isinstance(parsed, dict):
        raise ServeError(400, "badRequest", "body must be a JSON object")
    return parsed


def _envelope(status: int, reason: str, message: str) -> dict:
    return {
        "error": {
            "code": status,
            "message": message,
            "errors": [
                {"message": message, "domain": "repro.serve", "reason": reason}
            ],
        }
    }


def _response_bytes(
    status: int, payload: bytes, extra_headers: dict[str, str] | None = None
) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        _JSON_HEADERS,
        f"Content-Length: {len(payload)}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    lines.append("Connection: close")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + payload


def _key_id_of(gateway: SimulatorGateway, credential: str | None) -> str:
    """Best-effort key id for telemetry on error paths (never raises)."""
    if not credential:
        return "-"
    key = gateway.keys.authenticate(credential)
    return key.key_id if key is not None else "-"


# NullObserver is imported for type parity with the gateway; referencing it
# here keeps linters honest about the import.
_ = NullObserver
