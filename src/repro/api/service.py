"""The assembled YouTube Data API v3 service.

Wires together the platform store, the search behavior engine, the virtual
clock, quota accounting, and the transport layer, and exposes the endpoint
objects under the names client code expects::

    service = build_service(world, seed=7)
    service.search.list(q="higgs boson", order="date", maxResults=50, ...)
    service.videos.list(part="statistics", id="abc,def")

Every call flows through :meth:`YouTubeService.begin_call`, which injects
faults, charges quota against the virtual day, and appends to the request
log — in that order, so a failed call is never billed.

An optional observer (:mod:`repro.obs`) hears each completed call
(``api.call``) and each quota charge (``quota.spend``); the default
:data:`~repro.obs.NullObserver` makes instrumentation free and keeps the
simulator byte-identical to its unobserved behavior.
"""

from __future__ import annotations

from datetime import datetime

from repro.api.channels_ep import ChannelsEndpoint
from repro.api.clock import VirtualClock
from repro.api.comment_threads import CommentThreadsEndpoint
from repro.api.comments_ep import CommentsEndpoint
from repro.api.errors import SweepQuotaShortfall
from repro.api.playlist_items import PlaylistItemsEndpoint
from repro.api.quota import QuotaLedger, QuotaPolicy
from repro.api.search import SearchEndpoint
from repro.api.transport import Transport
from repro.obs.observer import NullObserver, Observer
from repro.api.video_categories import VideoCategoriesEndpoint
from repro.api.videos import VideosEndpoint
from repro.sampling.engine import BehaviorParams, SearchBehaviorEngine
from repro.world.entities import World
from repro.world.store import PlatformStore
from repro.world.topics import TopicSpec

__all__ = ["YouTubeService", "build_service"]


class YouTubeService:
    """All six endpoints over one world, one clock, one quota ledger."""

    def __init__(
        self,
        store: PlatformStore,
        engine: SearchBehaviorEngine,
        clock: VirtualClock | None = None,
        quota: QuotaLedger | None = None,
        transport: Transport | None = None,
        observer: Observer | None = None,
    ) -> None:
        self.store = store
        self.engine = engine
        self.clock = clock or VirtualClock()
        self.quota = quota or QuotaLedger()
        self.transport = transport or Transport()
        self.observer = observer or NullObserver()
        # Wire the ledger into the same observer unless it already has one.
        if self.quota.observer is None:
            self.quota.observer = self.observer

        self.search = SearchEndpoint(store, engine, self)
        self.videos = VideosEndpoint(store, self)
        self.channels = ChannelsEndpoint(store, self)
        self.playlist_items = PlaylistItemsEndpoint(store, self)
        self.comment_threads = CommentThreadsEndpoint(store, self)
        self.comments = CommentsEndpoint(store, self)
        self.video_categories = VideoCategoriesEndpoint(self)

    def begin_call(self, endpoint: str) -> datetime:
        """Gate one endpoint call; returns the request timestamp.

        Order matters: transient faults fire before quota so retries are
        not double-billed, and quota rejection happens before the request
        is logged so the log reflects completed calls only.
        """
        self.transport.faults.maybe_fail(endpoint)
        day = self.clock.today()
        self.quota.charge(endpoint, day)
        now = self.clock.now()
        record = self.transport.observe(endpoint, now, self.quota.cost_of(endpoint))
        self.observer.emit(
            "api.call", endpoint, record.units, record.latency_ms, at=now
        )
        return now

    def begin_sweep(self, endpoint: str, calls: int) -> datetime:
        """Gate a whole sweep of ``calls`` identical endpoint calls at once.

        The batched equivalent of ``calls`` :meth:`begin_call` invocations
        on the serial path, under two preconditions the collector enforces:
        the transport's fault plan must be inert (faults would otherwise
        fire per call, before billing), and the clock does not move
        mid-snapshot (so every call shares one timestamp either way).

        If the sweep does not fit in the day's remaining quota it raises
        :class:`~repro.api.errors.SweepQuotaShortfall` *before* billing or
        logging anything, so the caller can fall back to the per-call path
        and reproduce per-page partial billing exactly.  Otherwise the
        request records are appended in bulk and billed through
        :meth:`QuotaLedger.charge_many`, whose per-charge callback emits
        each ``api.call`` right after its ``quota.spend`` — the same
        interleaving traces see on the per-call path.
        """
        day = self.clock.today()
        cost = self.quota.cost_of(endpoint)
        if calls * cost > self.quota.remaining_on(day):
            raise SweepQuotaShortfall(
                f"sweep of {calls} {endpoint} calls ({calls * cost} units) "
                f"exceeds remaining quota on {day}"
            )
        now = self.clock.now()
        latencies = iter(self.transport.observe_many(endpoint, now, cost, calls))

        def emit_call() -> None:
            self.observer.emit("api.call", endpoint, cost, next(latencies), at=now)

        self.quota.charge_many(endpoint, day, calls, after_each=emit_call)
        return now


def build_service(
    world: World,
    seed: int,
    specs: tuple[TopicSpec, ...] | None = None,
    clock: VirtualClock | None = None,
    quota_policy: QuotaPolicy | None = None,
    behavior: BehaviorParams | None = None,
    transport: Transport | None = None,
    observer: Observer | None = None,
) -> YouTubeService:
    """Convenience constructor: store + engine + service in one call.

    ``specs`` defaults to the paper's six topics; pass the (possibly
    scaled) specs the world was built with when they differ.
    """
    if specs is None:
        from repro.world.topics import PAPER_TOPICS

        specs = PAPER_TOPICS
    store = PlatformStore(world)
    engine = SearchBehaviorEngine(store, specs, seed=seed, params=behavior)
    quota = QuotaLedger(policy=quota_policy or QuotaPolicy(researcher_program=True))
    return YouTubeService(
        store, engine, clock=clock, quota=quota, transport=transport,
        observer=observer,
    )
