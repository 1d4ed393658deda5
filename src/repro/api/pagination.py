"""Shared pagination over a fully materialized result list.

Endpoints compute the complete (deterministic, request-date-dependent)
result list and slice pages out of it.  Because page tokens only carry an
offset, paging across collection days is *not* snapshot-consistent — the
list is recomputed per request — which mirrors the real API's behavior of
serving pages from live state rather than a frozen cursor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.api.errors import BadRequestError
from repro.api.tokens import decode_page_token, encode_page_token

__all__ = ["Page", "paginate"]


@dataclass
class Page:
    """One page of results plus its continuation tokens."""

    items: list
    next_page_token: str | None
    prev_page_token: str | None
    offset: int


def paginate(
    items: Sequence,
    fingerprint: str,
    max_results: int,
    page_token: str | None,
    hard_cap: int | None = None,
    page_bound: int = 50,
) -> Page:
    """Slice one page out of ``items``.

    ``hard_cap`` enforces the search endpoint's 500-results-per-query limit:
    no token is issued past the cap even when more items exist.
    ``page_bound`` is the endpoint's largest ``maxResults`` (50 for search
    and playlist items, 100 for the comment endpoints).
    """
    if not 1 <= max_results <= page_bound:
        raise BadRequestError(
            f"maxResults must be within [1, {page_bound}], got {max_results}"
        )
    offset = 0
    if page_token is not None:
        offset = decode_page_token(fingerprint, page_token)

    limit = len(items)
    if hard_cap is not None:
        limit = min(limit, hard_cap)
    if offset > limit:
        offset = limit

    end = min(offset + max_results, limit)
    page_items = list(items[offset:end])

    next_token = encode_page_token(fingerprint, end) if end < limit else None
    prev_token = (
        encode_page_token(fingerprint, max(0, offset - max_results))
        if offset > 0
        else None
    )
    return Page(
        items=page_items,
        next_page_token=next_token,
        prev_page_token=prev_token,
        offset=offset,
    )
