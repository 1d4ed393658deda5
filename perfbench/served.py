"""The ``served`` workload: ``repro serve`` under an open-loop request mix.

One iteration launches the server in its own process, waits until it has
answered one untimed warm-up request per topic (that is its set-up), then
drives the timed window from this process: an open loop at a fixed rate,
at most :data:`CONNECTIONS` requests in flight.  Each request is timed
from when it was due to its last response byte, so a stall also delays
the requests queued behind it.  Generator lateness (due time to dispatch)
is recorded on its own, as a validity check on the measurement.

The mix:

* two tenants replay the collector's hour-bin ``search.list`` sweeps at
  successive ``asOf`` dates, each on its own topic, so most requests are
  misses through the per-call search path;
* :data:`REPEAT_SHARE` of requests repeat one of the other tenant's
  recent requests, so they are cache hits;
* a tenant's first request at each new ``asOf`` date is slow (churn
  advances its topic to that date), and the other tenant sends the same
  request at the same moment, so the two connections carry them at once;
  if the first is still computing when the second reaches the gateway,
  the second waits on it in the coalescer, otherwise it is a cache hit;
* :data:`VIDEOS_SHARE` of requests are ``videos.list`` calls for 50
  returned IDs, the ratio at which the paper's collector issues them;
* each iteration sends more distinct requests than the gateway's
  1,024-entry response cache holds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import queue
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from datetime import datetime, timedelta, timezone
from pathlib import Path
from urllib.parse import urlencode

from spans import clock

HERE = Path(__file__).resolve().parent

#: Requests in flight at once (the box the rate was calibrated on has 2 cores).
CONNECTIONS = 2
#: Share of requests that repeat one of the other tenant's recent requests.
REPEAT_SHARE = 0.25
#: Share of requests that are ``videos.list`` calls (1,142 of 66,149 calls
#: in the paper campaign are ``videos.list``).
VIDEOS_SHARE = 0.018
#: How far back a repeat may reach into the other tenant's requests; far
#: less than the cache holds, so a repeat is a hit unless still in flight.
REPEAT_WINDOW = 8
#: Hour bins a tenant sweeps at one ``asOf`` date before moving 5 days on.
BINS_PER_DATE = 168
#: A failed or refused request counts as this latency: past every limit.
FAILED_MS = 30_000.0

FIRST_AS_OF = datetime(2025, 2, 9, tzinfo=timezone.utc)

#: rate: requests per second, a fifth of the mix's closed-loop capacity
#: with 2 connections (``worker.py --calibrate``: 1,160-1,310 per second),
#: so a host slowdown does not tip the server into queueing; window_s:
#: timed seconds per server launch, long enough for more distinct
#: requests than the gateway's 1,024-entry cache holds.
SHAPES = {
    "full": {"scale": 1.0, "rate": 250.0, "window_s": 6.0},
    "tiny": {"scale": 0.05, "rate": 60.0, "window_s": 1.5},
}


def _rfc3339(dt: datetime) -> str:
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def topic_specs(shape: dict):
    """The topics ``repro serve --scale`` builds its world from."""
    from repro.world.corpus import scale_topics
    from repro.world.topics import paper_topics

    return scale_topics(paper_topics(), shape["scale"])


def request_key(endpoint: str, params: dict) -> str:
    """A request's identity without the tenant's credential."""
    return json.dumps([endpoint, sorted(params.items())])


# -- the server process ------------------------------------------------------


class Server:
    """A ``repro serve`` process: launch, read its keys and port, stop."""

    def __init__(self, shape: dict, seed: int, env: dict, spans_path=None):
        serve_args = [
            "--scale", str(shape["scale"]), "--seed", str(seed),
            "--port", "0", "--mint", "2", "--daily-limit", str(10**9),
        ]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            cmd = [sys.executable, str(HERE / "serve_launcher.py"),
                   str(spans_path), *serve_args]
        self.launched = clock()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env={**env, "PYTHONUNBUFFERED": "1"}, preexec_fn=_default_sigint,
        )
        self.lines: list[str] = []
        self.credentials: list[str] = []
        self.port: int | None = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for raw in self.proc.stdout:
            line = raw.decode("utf-8", "replace").rstrip("\n")
            self.lines.append(line)
            if line.startswith("key k"):
                self.credentials.append(line.split(": ", 1)[1])
            elif line.startswith("serving on http://"):
                self.port = int(line.split()[2].rsplit(":", 1)[1])
            if self.port is not None and len(self.credentials) == 2:
                self._ready.set()
        self._ready.set()

    def wait_ready(self, timeout: float = 120.0) -> None:
        if not self._ready.wait(timeout) or self.port is None:
            raise RuntimeError(
                "server did not start:\n" + "\n".join(self.lines[-20:])
            )

    def stop(self, timeout: float = 30.0) -> float:
        """SIGINT (what Ctrl-C sends ``repro serve``); returns peak RSS in MB."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            self.rss = reap(self.proc, timeout)
            self._reader.join(timeout)
        return self.rss


def _default_sigint() -> None:
    """Let SIGINT stop the server even when this process ignores it, as a
    background job of a non-interactive shell does (children inherit that)."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def reap(proc: subprocess.Popen, timeout: float) -> float:
    """Wait for ``proc``; its peak RSS in MB.

    After ``timeout`` seconds it is killed, with its whole process group
    when it leads one (a worker and the server it started).
    """
    deadline = clock() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if clock() > deadline:
            if os.getpgid(proc.pid) == proc.pid:
                os.killpg(proc.pid, signal.SIGKILL)
            else:
                proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def http_get(port: int, target: str) -> tuple[int, bytes, float]:
    """One GET on a fresh connection (the server closes every connection).

    Returns the status, the body and the clock reading at its last byte.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=FAILED_MS / 1000) as sock:
        sock.sendall(
            f"GET {target} HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    done = clock()
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body, done


def target_of(endpoint: str, params: dict, credential: str) -> str:
    path = "/youtube/v3/search" if endpoint == "search.list" else "/youtube/v3/videos"
    return f"{path}?{urlencode({**params, 'key': credential})}"


# -- the request mix ---------------------------------------------------------


def warm_up_requests(specs) -> list[tuple[str, dict]]:
    """One whole-window query per topic at the first ``asOf`` date."""
    return [
        ("search.list", {
            "part": "snippet", "q": spec.query, "maxResults": "50",
            "order": "date", "type": "video", "asOf": _rfc3339(FIRST_AS_OF),
        })
        for spec in specs
    ]


def build_schedule(seed: int, specs, returned_ids: list[str], n: int):
    """``n`` requests as ``(slot, tenant, endpoint, params)``, from the seed
    alone and the IDs the warm-up returned.

    Request ``i`` is due in slot ``i``, except a twin: it is due in the
    slot of the other tenant's request it duplicates.
    """
    rng = random.Random(seed)
    order = list(specs)
    rng.shuffle(order)
    cursors = [
        {"sent": 0, "start": rng.randrange(0, 672 - BINS_PER_DATE)}
        for _ in range(2)
    ]
    recent = [deque(maxlen=REPEAT_WINDOW), deque(maxlen=REPEAT_WINDOW)]
    schedule = []
    while len(schedule) < n:
        i = len(schedule)
        tenant = i % 2
        cursor = cursors[tenant]
        date_index = cursor["sent"] // BINS_PER_DATE
        as_of = _rfc3339(FIRST_AS_OF + timedelta(days=5 * date_index))
        draw = rng.random()
        if draw < VIDEOS_SHARE:
            ids = rng.sample(returned_ids, min(50, len(returned_ids)))
            schedule.append((i, tenant, "videos.list", {
                "part": "snippet", "id": ",".join(ids), "asOf": as_of,
            }))
            continue
        other = recent[1 - tenant]
        if draw < VIDEOS_SHARE + REPEAT_SHARE and other:
            endpoint, params = rng.choice(list(other))
            schedule.append((i, tenant, endpoint, params))
            continue
        spec = order[(2 * date_index + tenant) % len(order)]
        new_date = cursor["sent"] % BINS_PER_DATE == 0
        hour = spec.window_start + timedelta(
            hours=cursor["start"] + cursor["sent"] % BINS_PER_DATE
        )
        cursor["sent"] += 1
        params = {
            "part": "snippet", "q": spec.query, "maxResults": "50",
            "order": "date", "safeSearch": "none", "type": "video",
            "publishedAfter": _rfc3339(hour),
            "publishedBefore": _rfc3339(hour + timedelta(hours=1)),
            "asOf": as_of,
        }
        recent[tenant].append(("search.list", params))
        schedule.append((i, tenant, "search.list", params))
        if new_date and len(schedule) < n:
            schedule.append((i, 1 - tenant, "search.list", params))
    return schedule


# -- driving the load ----------------------------------------------------------


def _send(port: int, target: str) -> tuple[int, bytes | None, float]:
    try:
        return http_get(port, target)
    except (OSError, ValueError, IndexError):  # refused, reset, or no reply
        return 0, None, clock()


def targets_of(schedule, credentials) -> list[str]:
    return [
        target_of(endpoint, params, credentials[tenant])
        for _slot, tenant, endpoint, params in schedule
    ]


def open_loop(port: int, schedule, targets: list[str], rate: float):
    """Send ``targets`` at ``rate`` per second, :data:`CONNECTIONS` at a time,
    each in its ``schedule`` slot.

    Returns one ``(status, body, due, dispatched, sent, done)`` per request.
    """
    results: list = [None] * len(schedule)
    pending: queue.SimpleQueue = queue.SimpleQueue()

    def connection() -> None:
        while True:
            item = pending.get()
            if item is None:
                return
            i, due, dispatched = item
            sent = clock()
            status, body, done = _send(port, targets[i])
            results[i] = (status, body, due, dispatched, sent, done)

    threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    start = clock() + 0.01
    try:
        for i, (slot, *_request) in enumerate(schedule):
            due = start + slot / rate
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            pending.put((i, due, clock()))
    finally:
        for _ in threads:
            pending.put(None)
        for thread in threads:
            thread.join()
    return results


def closed_loop(port: int, targets: list[str], seconds: float) -> float:
    """Requests per second with :data:`CONNECTIONS` clients sending back to back."""
    lock = threading.Lock()
    state = {"next": 0, "done": 0}
    deadline = clock() + seconds

    def client() -> None:
        while clock() < deadline:
            with lock:
                i = state["next"] % len(targets)
                state["next"] += 1
            _send(port, targets[i])
            with lock:
                state["done"] += 1

    start = clock()
    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return state["done"] / (clock() - start)


def _get_json(port: int, target: str) -> dict:
    status, body, _done = http_get(port, target)
    if status != 200:
        raise RuntimeError(f"GET {target} answered {status}: {body[:200]!r}")
    return json.loads(body)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run(seed: int, shape_name: str, env: dict, spans_path=None,
        setup_only: bool = False, calibrate: float = 0.0) -> dict:
    """One server launch: set-up, timed window, ledger and cache read-back."""
    shape = SHAPES[shape_name]
    specs = topic_specs(shape)
    server = Server(shape, seed, env, spans_path)
    bodies: dict[str, str] = {}
    unstable = 0
    sent = [{"search.list": 0, "videos.list": 0} for _ in range(2)]
    client_s = 0.0

    def record(endpoint, params, digest) -> None:
        nonlocal unstable
        if bodies.setdefault(request_key(endpoint, params), digest) != digest:
            unstable += 1

    try:
        server.wait_ready()
        returned: list[str] = []
        for endpoint, params in warm_up_requests(specs):
            target = target_of(endpoint, params, server.credentials[0])
            t0 = clock()
            status, body, done = http_get(server.port, target)
            client_s += done - t0
            if status != 200:
                raise RuntimeError(f"warm-up answered {status}: {body[:200]!r}")
            sent[0][endpoint] += 1
            record(endpoint, params, hashlib.sha256(body).hexdigest())
            returned.extend(item["id"]["videoId"] for item in json.loads(body)["items"])
        setup_s = clock() - server.launched
        if setup_only:
            return {"setup_s": setup_s}
        if calibrate:
            schedule = build_schedule(seed, specs, returned, int(calibrate * 2000))
            return {"capacity_rps": closed_loop(
                server.port, targets_of(schedule, server.credentials), calibrate
            )}
        schedule = build_schedule(
            seed, specs, returned, int(shape["rate"] * shape["window_s"])
        )
        targets = targets_of(schedule, server.credentials)
        rows = open_loop(server.port, schedule, targets, shape["rate"])
        latencies, repeats, late, failed, wait_s = [], [], [], 0, 0.0
        first_slot: dict[str, int] = {}
        for (slot, tenant, endpoint, params), row in zip(schedule, rows):
            status, body, due, dispatched, started, done = row
            repeat = first_slot.setdefault(request_key(endpoint, params), slot) < slot
            late.append((dispatched - due) * 1000.0)
            wait_s += started - due
            client_s += done - started
            if status != 200:
                failed += 1
                latencies.append(FAILED_MS)
                continue
            latencies.append((done - due) * 1000.0)
            if repeat:
                repeats.append(latencies[-1])
            sent[tenant][endpoint] += 1
            record(endpoint, params, hashlib.sha256(body).hexdigest())
        ledgers = [
            _get_json(server.port, f"/v1/quota?{urlencode({'key': c})}")["totalUsed"]
            for c in server.credentials
        ]
        cache = _get_json(server.port, "/healthz")["cache"]
    finally:
        rss = server.stop()
    if server.proc.returncode != 0:
        raise RuntimeError(
            f"server exited with {server.proc.returncode}:\n"
            + "\n".join(server.lines[-20:])
        )
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "latencies_ms": latencies,
        "repeat_latencies_ms": repeats,
        "late_ms": late,
        "attempted": len(schedule),
        "failed": failed,
        "wait_s": wait_s,
        "client_s": client_s,
        "bodies": bodies,
        "unstable_bodies": unstable,
        "sent": sent,
        "ledgers": ledgers,
        "cache": cache,
    }


# -- the byte-identity oracle ------------------------------------------------


def oracle_digests(seed: int, shape_name: str, keys: list[str]) -> dict[str, str]:
    """sha256 of what an independent in-process service answers per request.

    ``search.list`` goes through ``SimulatorGateway.reference_search_bytes``;
    ``videos.list`` through a plain ``build_service`` instance.  Requests
    are answered in ``asOf`` order so each topic's churn only moves forward.
    """
    from repro.api.quota import QuotaPolicy
    from repro.api.service import build_service
    from repro.serve.gateway import build_gateway
    from repro.util.timeutil import parse_rfc3339

    shape = SHAPES[shape_name]
    specs = topic_specs(shape)
    gateway = build_gateway(scale=shape["scale"], seed=seed)
    videos = build_service(
        gateway.world, seed=seed, specs=specs,
        quota_policy=QuotaPolicy(daily_limit=10**12),
    )
    decoded = sorted(
        ((json.loads(key), key) for key in keys),
        key=lambda item: dict(item[0][1])["asOf"],
    )
    out = {}
    try:
        for (endpoint, pairs), key in decoded:
            params = dict(pairs)
            as_of = parse_rfc3339(params["asOf"])
            if endpoint == "search.list":
                body = gateway.reference_search_bytes(params, as_of)
            else:
                videos.clock.set(as_of)
                body = json.dumps(
                    videos.videos.list(part=params["part"], id=params["id"]),
                    sort_keys=True,
                ).encode("utf-8")
            out[key] = hashlib.sha256(body).hexdigest()
    finally:
        gateway.close()
    return out
