"""Campaign execution: snapshots on the paper's 5-day cadence.

Advances the service's virtual clock to each scheduled collection date and
runs the collector; the result is the input every analysis module consumes.
Long campaigns can checkpoint after every snapshot and resume — a real
12-week collection survives process restarts the same way.

Checkpointing is two-level.  The campaign checkpoint persists whole
snapshots; a ``<checkpoint>.partial`` sidecar
(:class:`~repro.resilience.checkpoint.PartialSnapshotStore`) additionally
persists every completed *hour-bin query* of the snapshot in flight, so a
process killed mid-snapshot resumes by re-issuing only the missing bins —
at 100 units per search that is the difference between losing a few
queries and losing a quota day.  The sidecar is cleared the moment its
snapshot lands in the campaign checkpoint.

Observability: the runner emits ``campaign.checkpoint`` events (action
``resume`` when an existing checkpoint is loaded, ``resume-partial`` when
a mid-snapshot sidecar seeds the next collection, ``save`` after each
persisted snapshot) through the observer, which also flows into the
:class:`~repro.core.collector.SnapshotCollector` for snapshot/topic
events.  The observer defaults to the client's (ultimately the
service's), so a single attachment instruments the whole run.
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


def _load_checkpoint(checkpoint_path: str | Path) -> CampaignResult:
    """Load a checkpoint, wrapping parse failures in a clear message."""
    try:
        return CampaignResult.load(checkpoint_path)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(
            f"checkpoint {checkpoint_path} is corrupt or not a campaign "
            f"file — delete it (losing collected snapshots) or restore it "
            f"from a backup before resuming: {exc}"
        ) from exc


def run_campaign(
    config: CampaignConfig,
    client: YouTubeClient,
    progress: Callable[[int, int], None] | None = None,
    checkpoint_path: str | Path | None = None,
    observer: Observer | None = None,
    tolerate_failures: bool = False,
    stream: "CampaignStream | None" = None,
    partial: PartialSnapshotStore | None = None,
    spill: "SpillStore | str | Path | None" = None,
    retain_snapshots: bool = True,
    engine: str = "batch",
) -> CampaignResult:
    """Run the full campaign against a service.

    The clock is *set* to each collection date; determinism of the
    simulator makes re-runs reproducible.  ``progress`` is called as
    ``progress(done, total)`` after each snapshot.

    With ``checkpoint_path``, the partial campaign is persisted after every
    snapshot, and an existing checkpoint is resumed: already-collected
    snapshots are loaded instead of re-queried (their dates must match the
    config's schedule).  A checkpoint that cannot be parsed, or whose
    snapshots do not line up with the schedule, raises ``ValueError``
    rather than silently recollecting or mixing schedules.  A
    ``<checkpoint>.partial`` sidecar left by a run that died mid-snapshot
    seeds the next collection with its completed hour bins.

    ``tolerate_failures`` lets the collector mark permanently-failed hour
    bins as missing (degraded snapshots) instead of aborting; quota
    exhaustion still aborts after checkpointing, because only a new quota
    day can fix it — the run resumes cleanly once it arrives.

    ``engine`` picks the collector's execution strategy: ``"batch"``
    (default) runs each eligible topic's whole hour-bin sweep as one
    vectorized plan with automatic per-topic fallback, ``"per-call"``
    forces the per-bin reference loop; both are byte-identical (see
    :mod:`repro.core.batch`).

    ``partial`` overrides the query-level checkpoint store — any object
    with the :class:`~repro.resilience.checkpoint.PartialSnapshotStore`
    interface works; the orchestrator passes a store that journals bins
    into its write-ahead log instead of a sidecar file.

    ``stream`` attaches a :class:`~repro.core.streaming.CampaignStream`:
    every snapshot — resumed from a checkpoint or freshly collected — is
    fed to it the moment it is available, so RQ1/RQ2 analyses accumulate
    incrementally instead of waiting for the final merge.

    ``spill`` (a :class:`~repro.core.spill.SpillStore` or a directory
    path) spills each snapshot durably to the disk-backed columnar store
    as its collection completes, and resumes from whatever the store
    already holds — it *is* the checkpoint, so it is mutually exclusive
    with ``checkpoint_path``.  A ``partial.jsonl`` sidecar inside the
    spill directory carries the mid-snapshot query-level resume state.
    With ``retain_snapshots=False`` (spill mode only) the runner drops
    each raw snapshot after spilling it, so memory stays bounded by one
    snapshot regardless of campaign length; the returned
    :class:`CampaignResult` then has no snapshots — read the store.
    """
    observer = observer or getattr(client, "observer", None) or NullObserver()
    topic_keys = tuple(spec.key for spec in config.topics)
    if spill is not None and checkpoint_path is not None:
        raise ValueError(
            "spill and checkpoint_path are mutually exclusive: the spill "
            "directory is the campaign's durable state"
        )
    if not retain_snapshots and spill is None:
        raise ValueError(
            "retain_snapshots=False needs a spill store to hold the "
            "campaign; otherwise the snapshots would simply be lost"
        )
    if spill is not None and not isinstance(spill, SpillStore):
        spill = SpillStore.attach(spill, topic_keys, observer=observer)
    if partial is None:
        # ``partial`` lets a caller supply any PartialSnapshotStore-shaped
        # store (the orchestrator journals bins instead of using a sidecar
        # file); the default remains the <checkpoint>.partial sidecar.
        if checkpoint_path is not None:
            partial = PartialSnapshotStore(str(checkpoint_path) + ".partial")
        elif spill is not None:
            partial = PartialSnapshotStore(spill.directory / "partial.jsonl")
    collector = SnapshotCollector(
        client, config.topics, collect_metadata=config.collect_metadata,
        observer=observer, partial=partial,
        tolerate_failures=tolerate_failures, engine=engine,
    )
    dates = config.collection_dates
    snapshots = []
    done = 0

    if checkpoint_path is not None and Path(checkpoint_path).exists():
        previous = _load_checkpoint(checkpoint_path)
        for snap in previous.snapshots:
            if snap.index >= len(dates):
                raise ValueError(
                    f"checkpoint has snapshot {snap.index} beyond the "
                    f"{len(dates)}-collection schedule"
                )
            if snap.collected_at != dates[snap.index]:
                raise ValueError(
                    f"checkpoint snapshot {snap.index} was collected at "
                    f"{snap.collected_at}, schedule says {dates[snap.index]}"
                )
        snapshots = list(previous.snapshots)
        done = len(snapshots)
        observer.on_checkpoint("resume", str(checkpoint_path), done)
        if stream is not None:
            for snap in snapshots:
                stream.add_snapshot(snap)

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
        observer.on_checkpoint("resume-spill", str(spill.directory), done)
        if stream is not None or retain_snapshots:
            for snap in spill.iter_snapshots():
                if stream is not None:
                    stream.add_snapshot(snap)
                if retain_snapshots:
                    snapshots.append(snap)

    if partial is not None and partial.exists() and done < len(dates):
        existing = partial.load()
        if existing is not None and existing.index == done:
            observer.on_checkpoint("resume-partial", str(partial.path), done)

    for index in range(done, len(dates)):
        client.service.clock.set(dates[index])
        with_comments = index in config.comment_snapshot_indices
        try:
            snap = collector.collect(index, with_comments=with_comments)
        except QuotaExceededError as exc:
            # A scheduling event: completed hour bins are already in the
            # partial sidecar; surface it so the operator waits for quota.
            observer.on_degraded(
                "quota", f"snapshot {index} interrupted: {exc}"
            )
            raise
        if stream is not None:
            stream.add_snapshot(snap)
        if spill is not None:
            # Durable the moment append returns; the sidecar's bins
            # are covered by the spilled snapshot, so clear it.
            spill.append(snap)
            if partial is not None:
                partial.clear()
        if retain_snapshots:
            snapshots.append(snap)
        if checkpoint_path is not None:
            # Atomic save: a crash mid-checkpoint must leave the
            # previous complete checkpoint, never a torn file.
            CampaignResult(
                topic_keys=topic_keys,
                snapshots=snapshots,
            ).save(checkpoint_path, atomic=True)
            observer.on_checkpoint("save", str(checkpoint_path), len(snapshots))
            if partial is not None:
                partial.clear()
        done = index + 1
        if progress is not None:
            progress(done, len(dates))

    return CampaignResult(
        topic_keys=topic_keys,
        snapshots=snapshots,
        corpus=getattr(client.service.store, "corpus", None),
    )
