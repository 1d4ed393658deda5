"""ID-endpoint items rendered straight to canonical JSON text.

``repro.api.resources`` renders every Videos:list, Channels:list,
CommentThreads:list and Comments:list item as text, and that text must
be exactly ``json.dumps(reference, sort_keys=True)`` of the dict
renderer's resource: campaign files splice it byte for byte.  The
endpoints' ``list()`` parses the same texts, so its items must equal the
references and be the caller's own.  Inputs: two seeded worlds with
comments, plus hand-built entities whose strings need every kind of
escape.
"""

from __future__ import annotations

import itertools
import json
from datetime import datetime, timedelta, timezone

import pytest

from repro.api import build_service
from repro.api.errors import BadRequestError
from repro.api.comment_threads import CommentThreadsEndpoint
from repro.api.comments_ep import CommentsEndpoint
from repro.api.resources import (
    _etag,
    channel_resource,
    channel_text,
    comment_resource,
    comment_text,
    comment_thread_resource,
    comment_thread_text,
    etag_for,
    video_resource,
    video_text,
)
from repro.util.rng import hashed_prefix, stable_uniform, stable_uniform_suffixed
from repro.world.corpus import build_world, scale_topics
from repro.world.entities import Channel, Comment, CommentThread, Video
from repro.world.store import PlatformStore
from repro.world.topics import paper_topics

SEEDS = (20250209, 1001)
SCALE = 0.04
VIDEO_PARTS = ("snippet", "contentDetails", "statistics")
CHANNEL_PARTS = ("snippet", "statistics", "contentDetails")


def canonical(resource: dict) -> str:
    return json.dumps(resource, sort_keys=True)


def subsets(parts: tuple[str, ...]) -> list[set[str]]:
    """Every non-empty subset of ``parts``."""
    return [
        set(combo)
        for size in range(1, len(parts) + 1)
        for combo in itertools.combinations(parts, size)
    ]


@pytest.fixture(scope="module", params=SEEDS)
def seeded(request):
    """(world, service) for one seed, with comments, clock mid-window."""
    specs = scale_topics(paper_topics(), SCALE)
    world = build_world(specs, seed=request.param)
    service = build_service(world, seed=request.param, specs=specs)
    return world, service


def _sample_videos(world, n: int = 30) -> list[Video]:
    videos = sorted(world.videos.values(), key=lambda v: v.video_id)
    step = max(1, len(videos) // n)
    return videos[::step][:n]


def _threads_with_and_without_replies(world, as_of) -> list[CommentThread]:
    threads = [
        t for ts in world.threads_by_video.values() for t in ts
        if t.top_level.alive_at(as_of) and world.videos[t.video_id].alive_at(as_of)
    ]
    threads.sort(key=lambda t: t.thread_id)
    with_replies = [t for t in threads if t.replies][:15]
    without = [t for t in threads if not t.replies][:15]
    many = [t for t in threads if len(t.replies) > 5][:5]
    assert with_replies and without and many
    return with_replies + without + many


class TestSeededTexts:
    def test_video_text_equals_reference_for_every_part_subset(self, seeded):
        world, service = seeded
        store = service.store
        as_of = service.clock.now()
        day = str(as_of.date())
        for video in _sample_videos(world):
            for parts in subsets(VIDEO_PARTS):
                reference = video_resource(video, store, as_of, parts)
                assert video_text(video, store, as_of, day, parts) == canonical(
                    reference
                ), (video.video_id, sorted(parts))

    def test_channel_text_equals_reference_for_every_part_subset(self, seeded):
        world, service = seeded
        store = service.store
        as_of = service.clock.now()
        day = str(as_of.date())
        channels = sorted(world.channels.values(), key=lambda c: c.channel_id)
        for channel in channels[:: max(1, len(channels) // 25)]:
            for parts in subsets(CHANNEL_PARTS):
                reference = channel_resource(channel, as_of, parts)
                assert channel_text(channel, store, day, parts) == canonical(
                    reference
                ), (channel.channel_id, sorted(parts))

    def test_comment_and_thread_texts_equal_reference(self, seeded):
        world, service = seeded
        as_of = service.clock.now()
        day = str(as_of.date())
        for thread in _threads_with_and_without_replies(world, as_of):
            top = comment_text(thread.top_level, day)
            assert top == canonical(comment_resource(thread.top_level, as_of))
            assert '"parentId"' not in top
            replies = [comment_text(r, day) for r in thread.replies[:5]]
            for reply, text in zip(thread.replies, replies):
                assert '"parentId"' in text
                assert text == canonical(comment_resource(reply, as_of))
            for include in (True, False):
                reference = comment_thread_resource(thread, as_of, include)
                text = comment_thread_text(
                    thread, day, top, replies if include else []
                )
                assert text == canonical(reference)

    def test_prefix_hashed_etag_equals_etag_for(self, seeded):
        world, service = seeded
        start = service.clock.now().date()
        ids = [v.video_id for v in _sample_videos(world, 200)]
        ids += sorted(world.channels)[:100]
        for kind in ("video", "channel", "comment", "thread"):
            prefix = hashed_prefix("etag", kind)
            for n, entity_id in enumerate(ids):
                date = start + timedelta(days=n % 40)
                assert _etag(prefix, entity_id, str(date)) == etag_for(
                    kind, entity_id, date
                )

    def test_prefix_hashed_gap_draw_equals_stable_uniform(self, seeded):
        from repro.api.videos import _GAP_PREFIX

        world, service = seeded
        start = service.clock.now().date()
        for n, video in enumerate(_sample_videos(world, 200)):
            day = str(start + timedelta(days=n % 40))
            assert stable_uniform_suffixed(
                _GAP_PREFIX, f"{video.video_id}\x1f{day}"
            ) == stable_uniform("videos-gap", video.video_id, day)


class TestListFaces:
    """``list()`` items equal the references and are the caller's own."""

    def test_videos_list_items_equal_reference(self, seeded):
        world, service = seeded
        store = service.store
        as_of = service.clock.now()
        videos = _sample_videos(world, 50)
        by_id = {v.video_id: v for v in videos}
        for parts in subsets(VIDEO_PARTS):
            part = ",".join(sorted(parts))
            response = service.videos.list(part=part, id=list(by_id))
            assert response["items"]
            for item in response["items"]:
                video = by_id[item["id"]]
                assert item == video_resource(video, store, as_of, parts)
            captured = service.videos.capture(part=part, id=list(by_id))
            assert [text for _, _, text in captured] == [
                canonical(item) for item in response["items"]
            ]
            assert [(vid, cid) for vid, cid, _ in captured] == [
                (item["id"], by_id[item["id"]].channel_id)
                for item in response["items"]
            ]

    def test_channels_list_items_equal_reference(self, seeded):
        world, service = seeded
        as_of = service.clock.now()
        ids = sorted(world.channels)[:50]
        for parts in subsets(CHANNEL_PARTS):
            part = ",".join(sorted(parts))
            items = service.channels.list(part=part, id=ids)["items"]
            assert items == [
                channel_resource(world.channels[cid], as_of, parts) for cid in ids
            ]
            assert service.channels.capture(part=part, id=ids) == [
                (item["id"], canonical(item)) for item in items
            ]

    def test_comment_lists_equal_reference(self, seeded):
        world, service = seeded
        store = service.store
        as_of = service.clock.now()
        day = str(as_of.date())
        for thread in _threads_with_and_without_replies(world, as_of):
            visible = store.threads_for_video(thread.video_id, as_of)
            for part, include in (("snippet,replies", True), ("snippet", False)):
                items = service.comment_threads.list(
                    part=part, videoId=thread.video_id, maxResults=100
                )["items"]
                assert items == [
                    comment_thread_resource(t, as_of, include) for t in visible[:100]
                ]
                captured = service.comment_threads.capture(
                    part=part, videoId=thread.video_id, maxResults=100
                )["items"]
                assert [c.top_level for c in captured] == [
                    canonical(i["snippet"]["topLevelComment"]) for i in items
                ]
                assert [c.replies for c in captured] == [
                    [canonical(r) for r in i.get("replies", {}).get("comments", [])]
                    for i in items
                ]
            replies = service.comments.list(
                parentId=thread.thread_id, maxResults=100
            )["items"]
            reference = [
                comment_resource(r, as_of)
                for r in store.replies_for_thread(thread.thread_id, as_of)
            ]
            assert replies == reference[:100]
            assert service.comments.capture(
                parentId=thread.thread_id, maxResults=100
            )["items"] == [comment_text(r, day) for r in
                           store.replies_for_thread(thread.thread_id, as_of)[:100]]

    def test_mutating_list_items_leaks_into_no_later_call(self, seeded):
        world, service = seeded
        videos = _sample_videos(world, 10)
        ids = [v.video_id for v in videos]
        channel_ids = sorted({v.channel_id for v in videos})
        thread = _threads_with_and_without_replies(world, service.clock.now())[0]
        calls = (
            lambda: service.videos.list(
                part="snippet,contentDetails,statistics", id=ids
            ),
            lambda: service.channels.list(
                part="snippet,statistics,contentDetails", id=channel_ids
            ),
            lambda: service.comment_threads.list(
                part="snippet,replies", videoId=thread.video_id
            ),
            lambda: service.comments.list(parentId=thread.thread_id),
        )
        for call in calls:
            first = call()
            pristine = json.loads(json.dumps(first))
            _vandalize(first)
            assert call() == pristine


def _vandalize(node) -> None:
    """Mutate every container in a response tree in place."""
    if isinstance(node, dict):
        for key, value in list(node.items()):
            if isinstance(value, (dict, list)):
                _vandalize(value)
            else:
                node[key] = "VANDALIZED"
        node["extra"] = 1
    elif isinstance(node, list):
        for value in node:
            _vandalize(value)
        node.append("extra")


# -- hand-built entities -----------------------------------------------------

#: Strings that need every kind of JSON escape: quotes, backslashes,
#: control characters, non-ASCII, and characters outside the BMP (which
#: ``ensure_ascii`` writes as surrogate pairs).
NASTY = (
    'say "hi"',
    "back\\slash \\u0041 \\n",
    "ctl \x00\x01\x08\x0c\x1f\x7f tab\tnl\ncr\r",
    "café 中文   ",
    "emoji \U0001F600 clef \U0001D11E",
    "",
    "}{][,:",
)

_T0 = datetime(2020, 3, 4, 5, 6, 7, tzinfo=timezone.utc)
_AS_OF = datetime(2025, 2, 9, 12, 0, tzinfo=timezone.utc)


class _Store:
    """The parts of :class:`PlatformStore` the renderers use."""

    metrics_at = PlatformStore.metrics_at

    def __init__(self, channels: dict[str, Channel]) -> None:
        self._channels = channels
        self.video_texts: dict = {}
        self.channel_texts: dict = {}

    def channel(self, channel_id: str):
        return self._channels.get(channel_id)


def _channel(n: int, text: str) -> Channel:
    return Channel(
        channel_id=f"UC{n}{text}", title=text, created_at=_T0,
        country=text[:2], subscriber_count=n, view_count=10 * n,
        video_count=n + 1, uploads_playlist_id=f"UU{n}{text}", topic="t",
    )


def _video(n: int, text: str, channel_id: str) -> Video:
    return Video(
        video_id=f"v{n}{text}", channel_id=channel_id, title=text,
        description=text * 2, tags=(text, "plain", text[::-1]),
        published_at=_T0 + timedelta(hours=n), duration_seconds=61 + n,
        definition="hd" if n % 2 else "sd", category_id=text,
        topic="t", view_count=1000 + n, like_count=10 + n, comment_count=n,
        language=text,
    )


def _comment(n: int, text: str, parent: str | None) -> Comment:
    return Comment(
        comment_id=f"c{n}{text}", video_id=f"v{n}{text}", parent_id=parent,
        author_display_name=text, text=text * 3,
        published_at=_T0 + timedelta(minutes=n), like_count=n * 7,
    )


class TestHandBuiltEscapes:
    def test_video_and_channel_texts(self):
        channels = {c.channel_id: c for c in (
            _channel(n, text) for n, text in enumerate(NASTY)
        )}
        store = _Store(channels)
        day = str(_AS_OF.date())
        for n, (text, channel) in enumerate(zip(NASTY, channels.values())):
            video = _video(n, text, channel.channel_id)
            orphan = _video(n + 100, text, "UCmissing")  # channelTitle ""
            for parts in subsets(VIDEO_PARTS):
                for v in (video, orphan):
                    assert video_text(v, store, _AS_OF, day, parts) == canonical(
                        video_resource(v, store, _AS_OF, parts)
                    )
            for parts in subsets(CHANNEL_PARTS):
                assert channel_text(channel, store, day, parts) == canonical(
                    channel_resource(channel, _AS_OF, parts)
                )

    def test_comment_and_thread_texts(self):
        day = str(_AS_OF.date())
        for n, text in enumerate(NASTY):
            top = _comment(n, text, None)
            replies = [_comment(10 * n + k, text + str(k), top.comment_id)
                       for k in range(7)]
            for reply in replies:
                assert comment_text(reply, day) == canonical(
                    comment_resource(reply, _AS_OF)
                )
            assert comment_text(top, day) == canonical(comment_resource(top, _AS_OF))
            for kept in (replies, []):
                thread = CommentThread(
                    thread_id=top.comment_id, video_id=top.video_id,
                    top_level=top, replies=kept,
                )
                inline = [comment_text(r, day) for r in kept[:5]]
                for include in (True, False):
                    assert comment_thread_text(
                        thread, day, comment_text(top, day),
                        inline if include else [],
                    ) == canonical(comment_thread_resource(thread, _AS_OF, include))


# -- comment pages hold up to maxResults --------------------------------------


class _CommentStore:
    """120 threads on one video; the first thread has 120 replies."""

    def __init__(self) -> None:
        self.threads = []
        for n in range(120):
            top = _comment(n, "top", None)
            replies = (
                [_comment(1000 + k, "reply", top.comment_id) for k in range(120)]
                if n == 0 else []
            )
            self.threads.append(CommentThread(
                thread_id=top.comment_id, video_id="vid", top_level=top,
                replies=replies,
            ))

    def video(self, video_id):
        return _video(0, "", "UC") if video_id == "vid" else None

    def threads_for_video(self, video_id, as_of):
        return list(self.threads)

    def thread(self, thread_id):
        return next((t for t in self.threads if t.thread_id == thread_id), None)

    def replies_for_thread(self, thread_id, as_of):
        return list(self.thread(thread_id).replies)


class _Service:
    def __init__(self) -> None:
        self.calls = 0

    def begin_call(self, endpoint: str) -> datetime:
        self.calls += 1
        return _AS_OF


class TestCommentPageBound:
    @pytest.mark.parametrize("face", ["list", "capture"])
    def test_pages_hold_up_to_100(self, face):
        store, service = _CommentStore(), _Service()
        threads = CommentThreadsEndpoint(store, service)
        comments = CommentsEndpoint(store, service)
        parent = store.threads[0].thread_id
        for endpoint, key, value in (
            (threads, "videoId", "vid"), (comments, "parentId", parent),
        ):
            first = getattr(endpoint, face)(**{key: value}, maxResults=100)
            assert len(first["items"]) == 100
            token = first["nextPageToken"]
            assert token
            second = getattr(endpoint, face)(
                **{key: value}, maxResults=100, pageToken=token
            )
            assert len(second["items"]) == 20
            assert not second.get("nextPageToken")
            if face == "list":
                assert first["pageInfo"] == {
                    "totalResults": 120, "resultsPerPage": 100
                }
            with pytest.raises(BadRequestError):
                getattr(endpoint, face)(**{key: value}, maxResults=101)
        assert service.calls == 4  # a rejected call is never gated

    def test_default_page_bound_stays_50(self):
        """Search and playlist items page with paginate's default bound."""
        from repro.api.pagination import paginate

        assert len(paginate(list(range(120)), "f", 50, None).items) == 50
        with pytest.raises(BadRequestError):
            paginate(list(range(120)), "f", 51, None)
