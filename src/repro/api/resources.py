"""Resource rendering: entities -> Data API v3 JSON shapes.

Everything a response carries is rendered here, matching the field names,
nesting, and string-typed numbers of the real API (statistics counts are
strings, durations are ISO 8601, timestamps RFC 3339).  Metric values are
rendered *as of* the request time via the store's growth model.

The ID endpoints' items (videos, channels, comment threads, comments) are
rendered straight to their canonical JSON text, exactly
``json.dumps(resource, sort_keys=True)`` of the dict renderer's resource:
the form a campaign captures and saves
(:class:`~repro.util.jsonio.CapturedResources`).  A video's ``snippet``
and ``contentDetails`` and a channel's three parts are pure functions of
the immutable world, so each is encoded once per entity and interned on
the store (shared by every service over it); only the etags, a video's
``statistics`` and the comments are rendered per call.  The dict
renderers stay as the reference the text renderers are tested against
and as the source of the interned parts.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime
from json.encoder import encode_basestring_ascii
from typing import Iterable

from repro.util.rng import hashed_prefix, stable_hash
from repro.util.timeutil import format_iso8601_duration, format_rfc3339
from repro.world.entities import Channel, Comment, CommentThread, Video
from repro.world.store import PlatformStore

__all__ = [
    "etag_for",
    "search_result_resource",
    "video_resource",
    "channel_resource",
    "playlist_item_resource",
    "comment_resource",
    "comment_thread_resource",
    "video_text",
    "channel_text",
    "comment_text",
    "comment_thread_text",
    "parse_items",
]

#: CommentThreads:list inlines at most this many replies per thread; the
#: rest must be fetched through Comments:list (the paper's Appendix B flow).
MAX_INLINE_REPLIES = 5


def etag_for(*parts: object) -> str:
    """Deterministic opaque etag for a resource rendering."""
    # stable_hash is already a 64-bit value, so the historical
    # ``% 16**16`` was the identity; format straight to 16 hex digits.
    return format(stable_hash("etag", *parts), "016x")


def search_result_resource(
    video: Video, store: PlatformStore, as_of: datetime
) -> dict:
    """A ``youtube#searchResult`` item (snippet part only, like the paper's queries)."""
    channel = store.channel(video.channel_id)
    return {
        "kind": "youtube#searchResult",
        "etag": etag_for("search", video.video_id, as_of.date()),
        "id": {"kind": "youtube#video", "videoId": video.video_id},
        "snippet": {
            "publishedAt": format_rfc3339(video.published_at),
            "channelId": video.channel_id,
            "title": video.title,
            "description": video.description,
            "channelTitle": channel.title if channel else "",
            "liveBroadcastContent": "none",
            "publishTime": format_rfc3339(video.published_at),
        },
    }


def video_resource(
    video: Video, store: PlatformStore, as_of: datetime, parts: set[str]
) -> dict:
    """A ``youtube#video`` resource with the requested parts."""
    resource: dict = {
        "kind": "youtube#video",
        "etag": etag_for("video", video.video_id, as_of.date()),
        "id": video.video_id,
    }
    if "snippet" in parts:
        channel = store.channel(video.channel_id)
        resource["snippet"] = {
            "publishedAt": format_rfc3339(video.published_at),
            "channelId": video.channel_id,
            "title": video.title,
            "description": video.description,
            "channelTitle": channel.title if channel else "",
            "tags": list(video.tags),
            "categoryId": video.category_id,
            "defaultAudioLanguage": video.language,
        }
    if "contentDetails" in parts:
        resource["contentDetails"] = {
            "duration": format_iso8601_duration(video.duration_seconds),
            "dimension": "2d",
            "definition": video.definition,
            "caption": "false",
            "licensedContent": False,
        }
    if "statistics" in parts:
        views, likes, comments = store.metrics_at(video, as_of)
        resource["statistics"] = {
            "viewCount": str(views),
            "likeCount": str(likes),
            "favoriteCount": "0",
            "commentCount": str(comments),
        }
    return resource


def channel_resource(
    channel: Channel, as_of: datetime, parts: set[str]
) -> dict:
    """A ``youtube#channel`` resource with the requested parts."""
    resource: dict = {
        "kind": "youtube#channel",
        "etag": etag_for("channel", channel.channel_id, as_of.date()),
        "id": channel.channel_id,
    }
    if "snippet" in parts:
        resource["snippet"] = {
            "title": channel.title,
            "description": f"{channel.title} on YouTube",
            "publishedAt": format_rfc3339(channel.created_at),
            "country": channel.country,
        }
    if "statistics" in parts:
        resource["statistics"] = {
            "viewCount": str(channel.view_count),
            "subscriberCount": str(channel.subscriber_count),
            "hiddenSubscriberCount": False,
            "videoCount": str(channel.video_count),
        }
    if "contentDetails" in parts:
        resource["contentDetails"] = {
            "relatedPlaylists": {
                "uploads": channel.uploads_playlist_id,
                "likes": "",
            }
        }
    return resource


def playlist_item_resource(
    video: Video, playlist_id: str, position: int, store: PlatformStore, as_of: datetime
) -> dict:
    """A ``youtube#playlistItem`` for a video in an uploads playlist."""
    channel = store.channel(video.channel_id)
    return {
        "kind": "youtube#playlistItem",
        "etag": etag_for("playlistItem", playlist_id, video.video_id, as_of.date()),
        "id": f"{playlist_id}.{video.video_id}",
        "snippet": {
            "publishedAt": format_rfc3339(video.published_at),
            "channelId": video.channel_id,
            "title": video.title,
            "description": video.description,
            "channelTitle": channel.title if channel else "",
            "playlistId": playlist_id,
            "position": position,
            "resourceId": {"kind": "youtube#video", "videoId": video.video_id},
        },
        "contentDetails": {
            "videoId": video.video_id,
            "videoPublishedAt": format_rfc3339(video.published_at),
        },
    }


def comment_resource(comment: Comment, as_of: datetime) -> dict:
    """A ``youtube#comment`` resource."""
    snippet = {
        "videoId": comment.video_id,
        "textDisplay": comment.text,
        "textOriginal": comment.text,
        "authorDisplayName": comment.author_display_name,
        "likeCount": comment.like_count,
        "publishedAt": format_rfc3339(comment.published_at),
        "updatedAt": format_rfc3339(comment.published_at),
    }
    if comment.parent_id is not None:
        snippet["parentId"] = comment.parent_id
    return {
        "kind": "youtube#comment",
        "etag": etag_for("comment", comment.comment_id, as_of.date()),
        "id": comment.comment_id,
        "snippet": snippet,
    }


def comment_thread_resource(
    thread: CommentThread, as_of: datetime, include_replies: bool
) -> dict:
    """A ``youtube#commentThread``: top-level comment + up to 5 inline replies."""
    resource: dict = {
        "kind": "youtube#commentThread",
        "etag": etag_for("thread", thread.thread_id, as_of.date()),
        "id": thread.thread_id,
        "snippet": {
            "videoId": thread.video_id,
            "topLevelComment": comment_resource(thread.top_level, as_of),
            "canReply": True,
            "totalReplyCount": thread.total_reply_count,
            "isPublic": True,
        },
    }
    if include_replies and thread.replies:
        resource["replies"] = {
            "comments": [
                comment_resource(reply, as_of)
                for reply in thread.replies[:MAX_INLINE_REPLIES]
            ]
        }
    return resource


# -- canonical text --------------------------------------------------------
#
# Every text below equals ``json.dumps(resource, sort_keys=True)`` of the
# dict renderer above: members in sorted key order, default separators,
# strings through the encoder ``json.dumps`` itself uses (ASCII-only, so
# characters outside the BMP come out as surrogate pairs).

_blake2b = hashlib.blake2b
_str = encode_basestring_ascii
_canonical = json.JSONEncoder(sort_keys=True).encode
_VIDEO_STATIC = frozenset({"snippet", "contentDetails"})
_CHANNEL_PARTS = frozenset({"snippet", "statistics", "contentDetails"})
_VIDEO_ETAG = hashed_prefix("etag", "video")
_CHANNEL_ETAG = hashed_prefix("etag", "channel")
_COMMENT_ETAG = hashed_prefix("etag", "comment")
_THREAD_ETAG = hashed_prefix("etag", "thread")


def _etag(prefix: str, entity_id: str, day: str) -> str:
    """``etag_for(kind, entity_id, date)`` with ``prefix = hashed_prefix("etag", kind)``.

    ``day`` is the request date's ISO form (``str(date)``); the key layout
    is :func:`~repro.util.rng.stable_hash`'s, hashed once, and a 64-bit
    digest's hex is ``format(value, "016x")``.
    """
    key = f"{prefix}{entity_id}\x1f{day}\x1f"
    return _blake2b(key.encode("utf-8"), digest_size=8).hexdigest()


def _video_statics(video: Video, store: PlatformStore) -> tuple[str, str, str]:
    """(id, snippet, contentDetails) texts of a video, interned on the store."""
    texts = store.video_texts.get(video.video_id)
    if texts is None:
        reference = video_resource(video, store, video.published_at, _VIDEO_STATIC)
        texts = (
            _str(video.video_id),
            _canonical(reference["snippet"]),
            _canonical(reference["contentDetails"]),
        )
        store.video_texts[video.video_id] = texts
    return texts


def video_text(
    video: Video, store: PlatformStore, as_of: datetime, day: str,
    parts: set[str],
) -> str:
    """:func:`video_resource` as canonical text; ``day`` is ``str(as_of.date())``."""
    video_id, snippet, details = _video_statics(video, store)
    etag = _etag(_VIDEO_ETAG, video.video_id, day)
    head = f'{{"contentDetails": {details}, ' if "contentDetails" in parts else "{"
    text = f'{head}"etag": "{etag}", "id": {video_id}, "kind": "youtube#video"'
    if "snippet" in parts:
        text += f', "snippet": {snippet}'
    if "statistics" in parts:
        views, likes, comments = store.metrics_at(video, as_of)
        text += (
            f', "statistics": {{"commentCount": "{comments}", '
            f'"favoriteCount": "0", "likeCount": "{likes}", '
            f'"viewCount": "{views}"}}'
        )
    return text + "}"


def _channel_statics(channel: Channel, store: PlatformStore) -> tuple[str, ...]:
    """(id, contentDetails, snippet, statistics) texts of a channel, interned."""
    texts = store.channel_texts.get(channel.channel_id)
    if texts is None:
        reference = channel_resource(channel, channel.created_at, _CHANNEL_PARTS)
        texts = (
            _str(channel.channel_id),
            _canonical(reference["contentDetails"]),
            _canonical(reference["snippet"]),
            _canonical(reference["statistics"]),
        )
        store.channel_texts[channel.channel_id] = texts
    return texts


def channel_text(
    channel: Channel, store: PlatformStore, day: str, parts: set[str]
) -> str:
    """:func:`channel_resource` as canonical text; ``day`` is the request date's ISO form."""
    channel_id, details, snippet, statistics = _channel_statics(channel, store)
    etag = _etag(_CHANNEL_ETAG, channel.channel_id, day)
    head = f'{{"contentDetails": {details}, ' if "contentDetails" in parts else "{"
    text = f'{head}"etag": "{etag}", "id": {channel_id}, "kind": "youtube#channel"'
    if "snippet" in parts:
        text += f', "snippet": {snippet}'
    if "statistics" in parts:
        text += f', "statistics": {statistics}'
    return text + "}"


def comment_text(comment: Comment, day: str) -> str:
    """:func:`comment_resource` as canonical text, rendered afresh (no memo).

    A comment is captured on at most a couple of collections, so encoding
    its parts once for reuse would cost more than it saves.
    """
    published = format_rfc3339(comment.published_at)
    text = _str(comment.text)
    parent = (
        f'"parentId": {_str(comment.parent_id)}, '
        if comment.parent_id is not None else ""
    )
    return (
        f'{{"etag": "{_etag(_COMMENT_ETAG, comment.comment_id, day)}", '
        f'"id": {_str(comment.comment_id)}, "kind": "youtube#comment", '
        f'"snippet": {{"authorDisplayName": {_str(comment.author_display_name)}, '
        f'"likeCount": {comment.like_count}, {parent}'
        f'"publishedAt": "{published}", "textDisplay": {text}, '
        f'"textOriginal": {text}, "updatedAt": "{published}", '
        f'"videoId": {_str(comment.video_id)}}}}}'
    )


def comment_thread_text(
    thread: CommentThread, day: str, top_level: str, replies: list[str]
) -> str:
    """:func:`comment_thread_resource` as canonical text.

    ``top_level`` is the top-level comment's :func:`comment_text` and
    ``replies`` the inline replies' texts (empty when the ``replies``
    part was not asked for or the thread has none).
    """
    inline = (
        f'"replies": {{"comments": [{", ".join(replies)}]}}, ' if replies else ""
    )
    return (
        f'{{"etag": "{_etag(_THREAD_ETAG, thread.thread_id, day)}", '
        f'"id": {_str(thread.thread_id)}, "kind": "youtube#commentThread", '
        f'{inline}"snippet": {{"canReply": true, "isPublic": true, '
        f'"topLevelComment": {top_level}, '
        f'"totalReplyCount": {thread.total_reply_count}, '
        f'"videoId": {_str(thread.video_id)}}}}}'
    )


def parse_items(texts: Iterable[str]) -> list[dict]:
    """Item texts parsed into one fresh ``items`` list (one parse per call)."""
    return json.loads("[" + ", ".join(texts) + "]")
