"""Crash states of the orchestrator's group write, and old compactions.

The batch engine journals a whole topic sweep's hour bins in one write
with one fsync.  A ``kill -9`` inside that write leaves a prefix of
complete ``bin`` lines, perhaps followed by one torn line.  Instead of
sampling such kills at timed moments, :class:`TestKillInsideGroupWrite`
builds each of those on-disk states from an uninterrupted run's journal
and checks that recovery finishes the campaign with the same bytes and
bills every hour bin exactly once.

:class:`TestUnfoldedSnapshot` loads a ``snapshot.json`` recorded before
finished snapshots' bins were folded into per-day totals
(``tests/golden/orchestrator_snapshot_unfolded.json``, recorded with the
orchestrator at commit 03bcdd3: one completed campaign, one cancelled
after a crash in its second snapshot, one re-admitted after such a crash,
each of one 48-bin topic, seed 20250209).  That file cannot be
regenerated by the current code, which no longer writes the format.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.orchestrator import OrchestratorDaemon
from repro.orchestrator.journal import Journal
from repro.orchestrator.model import COMPLETED, OrchestratorState
from repro.serve.gateway import build_gateway
from repro.serve.keys import KeyTable
from repro.world.corpus import build_world, scale_topics
from repro.world.topics import paper_topics

SEED = 20250209
UNFOLDED = Path(__file__).parent / "golden" / "orchestrator_snapshot_unfolded.json"


@pytest.fixture(scope="module")
def tiny_gateway():
    """perfbench's ``tiny`` shape: scale 0.05, one topic, 672 bins a sweep."""
    specs = scale_topics(paper_topics(), 0.05)[:1]
    world = build_world(specs, seed=SEED, with_comments=False)
    gateway = build_gateway(
        world=world, specs=specs, seed=SEED, keys=KeyTable(seed=SEED)
    )
    yield gateway
    gateway.close()


@pytest.fixture(scope="module")
def uninterrupted(tiny_gateway, tmp_path_factory):
    """One 2-collection campaign, spilled, and its journal before the drain."""
    key = tiny_gateway.mint_key(daily_limit=10**7)
    daemon = OrchestratorDaemon(tiny_gateway, tmp_path_factory.mktemp("ref"))
    daemon.start()
    cid = daemon.submit(key.credential, collections=2)["campaignId"]
    assert daemon.wait_idle(timeout=120)
    journal = daemon.journal.journal_path.read_bytes()
    daemon.drain()
    assert daemon.state.campaigns[cid].state == COMPLETED
    return {
        "key": key,
        "cid": cid,
        "journal": journal,
        "sha256": daemon.result_sha256(cid),
        "usage": daemon.usage_for_key(key.key_id),
    }


def _group_write(lines: list[bytes]) -> tuple[int, int]:
    """Where snapshot 0's first group write starts, and its line count."""
    records = [json.loads(line) for line in lines]
    first = next(
        n for n, r in enumerate(records)
        if r["kind"] == "bin" and r["snapshot"] == 0
    )
    topic = records[first]["topic"]
    count = 0
    while (
        first + count < len(records)
        and records[first + count]["kind"] == "bin"
        and records[first + count]["topic"] == topic
        and records[first + count]["snapshot"] == 0
    ):
        count += 1
    return first, count


def _cut_points(count: int) -> list[tuple[int, bool]]:
    """(complete group lines kept, whether half the next line follows)."""
    kept = sorted({0, 1, count // 2, count - 1, count})
    return [(k, torn) for k in kept for torn in (False, True)]


class TestKillInsideGroupWrite:
    @pytest.mark.parametrize("kept,torn", _cut_points(672))
    def test_recovery_is_byte_identical_and_bills_once(
        self, tiny_gateway, uninterrupted, tmp_path, kept, torn
    ):
        lines = uninterrupted["journal"].splitlines(keepends=True)
        first, count = _group_write(lines)
        assert count == 672  # the whole sweep went out as one group
        prefix = b"".join(lines[: first + kept])
        if torn:
            prefix += lines[first + kept][: len(lines[first + kept]) // 2]
        workdir = tmp_path / "orch"
        workdir.mkdir()
        (workdir / "journal.jsonl").write_bytes(prefix)  # and no result

        daemon = OrchestratorDaemon(tiny_gateway, workdir)
        # Recovery cut the torn line before it journaled the re-admission,
        # so that record starts a line of its own.
        complete = b"".join(lines[: first + kept])
        on_disk = daemon.journal.journal_path.read_bytes()
        assert on_disk.startswith(complete)
        assert [
            json.loads(line)["kind"]
            for line in on_disk[len(complete):].splitlines()
        ] == ["transition"]
        daemon.start()
        cid = uninterrupted["cid"]
        assert daemon.wait_idle(timeout=120)
        daemon.drain()
        assert daemon.state.campaigns[cid].state == COMPLETED
        assert daemon.result_sha256(cid) == uninterrupted["sha256"]
        key_id = uninterrupted["key"].key_id
        assert daemon.usage_for_key(key_id) == uninterrupted["usage"]


class TestUnfoldedSnapshot:
    @pytest.fixture(scope="class")
    def recorded(self):
        return json.loads(UNFOLDED.read_text(encoding="utf-8"))

    def test_answers_match_the_code_that_wrote_it(self, recorded, tmp_path):
        (tmp_path / "snapshot.json").write_text(
            json.dumps(recorded["snapshot"]), encoding="utf-8"
        )
        state = Journal(tmp_path).recover()
        assert sorted(state.campaigns) == sorted(recorded["campaigns"])
        for cid, expected in recorded["campaigns"].items():
            campaign = state.campaigns[cid]
            assert campaign.usage_by_day() == expected["usage_by_day"]
            assert campaign.net_usage_by_day() == expected["net_usage_by_day"]
            assert campaign.to_status_dict() == expected["status"]
            # Only the in-flight snapshot's bins survive the load.
            assert all(
                snap >= campaign.snapshots_done for snap, _, _ in campaign.bins
            )
        for key_id, usage in recorded["usage_for_key"].items():
            assert state.usage_for_key(key_id) == usage

    def test_folded_state_round_trips(self, recorded):
        state = OrchestratorState.from_dict(recorded["snapshot"])
        rebuilt = OrchestratorState.from_dict(
            json.loads(json.dumps(state.to_dict()))
        )
        assert rebuilt.to_dict() == state.to_dict()
        for cid, expected in recorded["campaigns"].items():
            campaign = rebuilt.campaigns[cid]
            assert campaign.net_usage_by_day() == expected["net_usage_by_day"]
            assert len(campaign.inflight_bins()) == len(campaign.bins)
