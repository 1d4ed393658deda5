"""Campaign execution: snapshots on the paper's 5-day cadence.

Advances the service's virtual clock to each scheduled collection date and
runs the collector; the result is the input every analysis module consumes.
A campaign runs in memory (every snapshot returned) or over a spill
directory (:class:`~repro.core.spill.SpillStore`), its one durable home:
each snapshot is appended the moment it completes, and rerunning over the
same directory resumes where the last process stopped — a real 12-week
collection survives process restarts the same way.

Resumption is two-level.  The spill store persists whole snapshots; its
``partial.jsonl`` sidecar
(:class:`~repro.resilience.checkpoint.PartialSnapshotStore`) additionally
persists every completed *hour-bin query* of the snapshot in flight, so a
process killed mid-snapshot resumes by re-issuing only the missing bins —
at 100 units per search that is the difference between losing a few
queries and losing a quota day.  The sidecar is cleared the moment its
snapshot lands in the store.

Observability: the runner emits ``campaign.checkpoint`` events (action
``resume-spill`` when the spill directory already holds snapshots,
``resume-partial`` when a mid-snapshot sidecar seeds the next collection)
through the observer; each spilled snapshot is a ``spill.write`` event of
the store.  The observer also flows into the
:class:`~repro.core.collector.SnapshotCollector` for snapshot/topic
events, and defaults to the client's (ultimately the service's), so a
single attachment instruments the whole run.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.api.client import YouTubeClient
from repro.api.errors import QuotaExceededError
from repro.core.collector import SnapshotCollector
from repro.core.datasets import CampaignResult
from repro.core.experiments import CampaignConfig
from repro.core.spill import SpillStore
from repro.obs.observer import NullObserver, Observer
from repro.resilience.checkpoint import PartialSnapshotStore

if TYPE_CHECKING:
    from repro.core.streaming import CampaignStream

__all__ = ["run_campaign"]


def run_campaign(
    config: CampaignConfig,
    client: YouTubeClient,
    progress: Callable[[int, int], None] | None = None,
    observer: Observer | None = None,
    tolerate_failures: bool = False,
    stream: "CampaignStream | None" = None,
    partial: PartialSnapshotStore | None = None,
    spill: "SpillStore | str | Path | None" = None,
    engine: str = "batch",
) -> CampaignResult:
    """Run the full campaign against a service.

    The clock is *set* to each collection date; determinism of the
    simulator makes re-runs reproducible.  ``progress`` is called as
    ``progress(done, total)`` after each snapshot (once it is durable,
    when spilling).

    ``spill`` (a :class:`~repro.core.spill.SpillStore` or a directory
    path) makes the campaign durable: each snapshot is appended to the
    disk-backed columnar store as its collection completes, and whatever
    the store already holds is resumed instead of re-queried.  Spilled
    snapshots must line up with the config's schedule; a store that
    does not, or cannot be opened, raises ``ValueError`` rather than
    silently recollecting or mixing schedules.  A ``partial.jsonl``
    sidecar inside the directory carries the mid-snapshot query-level
    resume state.  A spilled run holds one snapshot at a time, so memory
    stays bounded regardless of campaign length: the returned
    :class:`CampaignResult` has no snapshots — read the store.  Without
    ``spill`` the run is in memory and returns every snapshot.

    ``tolerate_failures`` lets the collector mark permanently-failed hour
    bins as missing (degraded snapshots) instead of aborting; quota
    exhaustion still aborts, because only a new quota day can fix it —
    a spilled run resumes cleanly once it arrives.

    ``engine`` picks the collector's execution strategy: ``"batch"``
    (default) runs each eligible topic's whole hour-bin sweep as one
    vectorized plan with automatic per-topic fallback, ``"per-call"``
    forces the per-bin reference loop; both are byte-identical (see
    :mod:`repro.core.batch`).

    ``partial`` overrides the query-level resume store — any object
    with the :class:`~repro.resilience.checkpoint.PartialSnapshotStore`
    interface works; the orchestrator passes a store that journals bins
    into its write-ahead log instead of the spill directory's sidecar.

    ``stream`` attaches a :class:`~repro.core.streaming.CampaignStream`:
    every snapshot — resumed from the store or freshly collected — is
    fed to it the moment it is available, so RQ1/RQ2 analyses accumulate
    incrementally instead of waiting for the final merge.
    """
    observer = observer or getattr(client, "observer", None) or NullObserver()
    topic_keys = tuple(spec.key for spec in config.topics)
    if spill is not None and not isinstance(spill, SpillStore):
        spill = SpillStore.attach(spill, topic_keys, observer=observer)
    if partial is None and spill is not None:
        partial = PartialSnapshotStore(spill.directory / "partial.jsonl")
    collector = SnapshotCollector(
        client, config.topics, collect_metadata=config.collect_metadata,
        observer=observer, partial=partial,
        tolerate_failures=tolerate_failures, engine=engine,
    )
    dates = config.collection_dates
    snapshots = []
    done = 0

    if spill is not None and spill.n_snapshots:
        # The manifest alone says what was collected and when — the
        # schedule check never touches the data files.
        for index, collected_at in enumerate(spill.collected_dates()):
            if index >= len(dates):
                raise ValueError(
                    f"spill store has snapshot {index} beyond the "
                    f"{len(dates)}-collection schedule"
                )
            if collected_at != dates[index]:
                raise ValueError(
                    f"spilled snapshot {index} was collected at "
                    f"{collected_at}, schedule says {dates[index]}"
                )
        done = spill.n_snapshots
        observer.emit(
            "campaign.checkpoint", "resume-spill", str(spill.directory), done
        )
        if stream is not None:
            for snap in spill.iter_snapshots():
                stream.add_snapshot(snap)

    if partial is not None and partial.exists() and done < len(dates):
        existing = partial.load()
        if existing is not None and existing.index == done:
            observer.emit(
                "campaign.checkpoint", "resume-partial", str(partial.path), done
            )

    for index in range(done, len(dates)):
        client.service.clock.set(dates[index])
        with_comments = index in config.comment_snapshot_indices
        try:
            snap = collector.collect(index, with_comments=with_comments)
        except QuotaExceededError as exc:
            # A scheduling event: completed hour bins are already in the
            # partial sidecar; surface it so the operator waits for quota.
            observer.emit(
                "degraded", "quota", f"snapshot {index} interrupted: {exc}"[:200]
            )
            raise
        if stream is not None:
            stream.add_snapshot(snap)
        if spill is None:
            snapshots.append(snap)
        else:
            # Durable the moment append returns; the sidecar's bins
            # are covered by the spilled snapshot, so clear it.
            spill.append(snap)
            partial.clear()
        done = index + 1
        if progress is not None:
            progress(done, len(dates))

    return CampaignResult(
        topic_keys=topic_keys,
        snapshots=snapshots,
        corpus=getattr(client.service.store, "corpus", None),
    )
