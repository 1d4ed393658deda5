"""Write-ahead journal and reducer contracts.

The recovery guarantee rests on three mechanical properties, each pinned
here in isolation (the daemon tests then prove the composition):

* **append durability discipline** — every record is seq-stamped and on
  its own JSONL line, a group of records is one fsynced write; replay
  returns exactly what was appended, and a torn trailing line (the append
  a ``kill -9`` interrupted) is dropped, and cut off by recovery, while
  interior corruption raises;
* **seq idempotence** — the reducer skips records at or below its
  ``last_seq``, so the compaction window (snapshot written, journal not
  yet truncated) replays as a no-op;
* **compaction equivalence** — fold(snapshot + journal tail) equals
  fold(full journal), always;
* **the fold** — a finished snapshot's bins collapse into per-day billed
  totals without moving any ledger.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.orchestrator.journal import Journal
from repro.orchestrator.model import (
    CampaignState,
    OrchestratorState,
    TERMINAL_STATES,
    VALID_TRANSITIONS,
)


def _submit(cid="c0001", key="k0001"):
    return {
        "kind": "submit", "campaign": cid, "key": key,
        "collections": 2, "interval_days": 5, "priority": 0,
    }


def _bin(cid, snapshot, hour, units=100, day="2025-02-09"):
    return {
        "kind": "bin", "campaign": cid, "snapshot": snapshot,
        "topic": "blm", "hour": hour, "ids": [f"v{hour}"], "pool": 10,
        "units": units, "day": day,
    }


def _begin(snapshot, collected_at="2025-02-09"):
    return {
        "kind": "partial-begin", "campaign": "c0001", "snapshot": snapshot,
        "collected_at": f"{collected_at}T00:00:00Z",
    }


class TestJournalAppendReplay:
    def test_append_stamps_monotonic_seqs_and_replays_in_order(self, tmp_path):
        journal = Journal(tmp_path)
        stamped = [journal.append({"kind": "noop", "n": n})[0] for n in range(5)]
        assert [r["seq"] for r in stamped] == [1, 2, 3, 4, 5]
        journal.close()
        assert journal.replay_records() == stamped

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        journal = Journal(tmp_path)
        (keep,) = journal.append(_submit())
        journal.close()
        with open(journal.journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "bin", "campaign": "c0001", "uni')  # no \n
        assert journal.replay_records() == [keep]

    def test_interior_corruption_raises(self, tmp_path):
        journal = Journal(tmp_path)
        journal.append(_submit())
        journal.close()
        lines = journal.journal_path.read_text().splitlines()
        journal.journal_path.write_text(
            "{broken\n" + "\n".join(lines) + "\n"
        )
        with pytest.raises(ValueError, match="corrupt journal"):
            journal.replay_records()

    def test_group_append_is_one_write_of_consecutive_seqs(
        self, tmp_path, monkeypatch
    ):
        journal = Journal(tmp_path)
        journal.append(_submit())
        fsyncs = []
        monkeypatch.setattr(
            "repro.orchestrator.journal.os.fsync", fsyncs.append
        )
        group = journal.append(*(_bin("c0001", 0, hour) for hour in range(3)))
        assert [r["seq"] for r in group] == [2, 3, 4]
        assert len(fsyncs) == 1
        assert journal.appends_since_compact == 2  # writes, not records
        journal.close()
        assert journal.replay_records()[1:] == group

    def test_creating_the_journal_fsyncs_the_workdir_once(
        self, tmp_path, monkeypatch
    ):
        workdir = os.stat(tmp_path)
        synced = []
        real_fsync = os.fsync

        def spy(fd):
            st = os.fstat(fd)
            is_workdir = (st.st_dev, st.st_ino) == (workdir.st_dev, workdir.st_ino)
            synced.append("workdir" if is_workdir else "file")
            real_fsync(fd)

        monkeypatch.setattr("repro.orchestrator.journal.os.fsync", spy)
        journal = Journal(tmp_path)
        journal.append(_submit())
        assert synced == ["workdir", "file"]  # the new name, then the data
        journal.append(_bin("c0001", 0, 0))
        assert synced == ["workdir", "file", "file"]
        journal.close()
        # A restart appends to the existing file: no directory fsync.
        restarted = Journal(tmp_path)
        restarted.recover()
        synced.clear()
        restarted.append(_bin("c0001", 0, 1))
        assert synced == ["file"]
        restarted.close()

    def test_restart_after_torn_tail_keeps_the_next_record(self, tmp_path):
        journal = Journal(tmp_path)
        journal.append(_submit())
        journal.close()
        with open(journal.journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "bin", "campaign": "c0001", "uni')  # a kill

        restarted = Journal(tmp_path)
        assert restarted.recover().last_seq == 1
        (transition,) = restarted.append(
            {"kind": "transition", "campaign": "c0001", "to": "admitted",
             "detail": "recovered"}
        )
        restarted.close()

        again = Journal(tmp_path)
        state = again.recover()
        assert state.last_seq == 2
        assert state.campaigns["c0001"].state == "admitted"
        assert again.replay_records()[-1] == transition
        again.append({"kind": "noop"})
        again.close()
        assert Journal(tmp_path).recover().last_seq == 3

    def test_recover_primes_seq_past_existing_records(self, tmp_path):
        journal = Journal(tmp_path)
        journal.append(_submit())
        journal.append({"kind": "transition", "campaign": "c0001",
                        "to": "admitted", "detail": ""})
        journal.close()

        reopened = Journal(tmp_path)
        state = reopened.recover()
        assert state.last_seq == 2
        (fresh,) = reopened.append({"kind": "noop"})
        assert fresh["seq"] == 3


class TestCompaction:
    def _journal_with_history(self, tmp_path):
        journal = Journal(tmp_path)
        state = OrchestratorState()
        records = [
            _submit(),
            {"kind": "transition", "campaign": "c0001", "to": "admitted",
             "detail": ""},
            {"kind": "partial-begin", "campaign": "c0001", "snapshot": 0,
             "collected_at": "2025-02-09T00:00:00Z"},
            _bin("c0001", 0, 0),
            _bin("c0001", 0, 1),
            {"kind": "snapshot", "campaign": "c0001", "snapshot": 0},
        ]
        for record in records:
            for stamped in journal.append(record):
                state.apply(stamped)
        return journal, state

    def test_compaction_preserves_the_fold(self, tmp_path):
        journal, state = self._journal_with_history(tmp_path)
        journal.compact(state)
        assert journal.journal_path.read_text() == ""

        # More records after the compaction land in the (empty) journal.
        (begin,) = journal.append(
            {"kind": "partial-begin", "campaign": "c0001", "snapshot": 1,
             "collected_at": "2025-02-14T00:00:00Z"}
        )
        state.apply(begin)
        journal.close()

        recovered = Journal(tmp_path).recover()
        assert recovered.to_dict() == state.to_dict()

    def test_crash_between_snapshot_and_truncate_is_harmless(self, tmp_path):
        """Snapshot durable, journal not yet truncated: replay must no-op."""
        journal, state = self._journal_with_history(tmp_path)
        journal.close()
        # Simulate the torn compaction: write snapshot.json, keep journal.
        journal.snapshot_path.write_text(
            json.dumps(state.to_dict(), sort_keys=True)
        )
        recovered = Journal(tmp_path).recover()
        assert recovered.to_dict() == state.to_dict()
        assert recovered.campaigns["c0001"].bins == state.campaigns["c0001"].bins

    def test_appends_since_compact_counts_and_resets(self, tmp_path):
        journal, state = self._journal_with_history(tmp_path)
        assert journal.appends_since_compact == 6
        journal.compact(state)
        assert journal.appends_since_compact == 0


class TestReducer:
    def test_seq_idempotence_skips_replayed_records(self):
        state = OrchestratorState()
        submit = dict(_submit(), seq=1)
        bin_record = dict(_bin("c0001", 0, 0), seq=2)
        for record in (submit, bin_record, submit, bin_record):
            state.apply(record)
        campaign = state.campaigns["c0001"]
        assert len(campaign.bins) == 1
        assert campaign.net_units == 100
        assert state.last_seq == 2

    def test_partial_begin_implies_prior_snapshots_done(self):
        state = OrchestratorState()
        state.apply(dict(_submit(), seq=1))
        state.apply({"kind": "partial-begin", "campaign": "c0001",
                     "snapshot": 2, "collected_at": "2025-02-19T00:00:00Z",
                     "seq": 2})
        campaign = state.campaigns["c0001"]
        assert campaign.snapshots_done == 2
        assert campaign.partial_index == 2

    def test_refunds_net_out_of_usage(self):
        state = OrchestratorState()
        state.apply(dict(_submit(), seq=1))
        state.apply(dict(_bin("c0001", 0, 0, units=300), seq=2))
        state.apply(dict(_bin("c0001", 0, 1, units=200), seq=3))
        state.apply({"kind": "refund", "campaign": "c0001",
                     "units_by_day": {"2025-02-09": 200}, "reason": "cancelled",
                     "seq": 4})
        campaign = state.campaigns["c0001"]
        assert campaign.usage_by_day() == {"2025-02-09": 500}
        assert campaign.net_usage_by_day() == {"2025-02-09": 300}
        assert state.usage_for_key("k0001") == {"2025-02-09": 300}

    def test_full_refund_drops_the_day(self):
        state = OrchestratorState()
        state.apply(dict(_submit(), seq=1))
        state.apply(dict(_bin("c0001", 0, 0, units=300), seq=2))
        state.apply({"kind": "refund", "campaign": "c0001",
                     "units_by_day": {"2025-02-09": 300}, "reason": "cancelled",
                     "seq": 3})
        assert state.campaigns["c0001"].net_usage_by_day() == {}
        assert state.usage_for_key("k0001") == {}

    def test_unknown_kinds_and_unknown_campaigns_are_ignored(self):
        state = OrchestratorState()
        state.apply({"kind": "future-extension", "campaign": "c9999", "seq": 1})
        state.apply(dict(_bin("c9999", 0, 0), seq=2))  # compacted away
        assert state.campaigns == {}
        assert state.last_seq == 2  # still consumed: ordering survives

    def test_next_campaign_number_resumes_after_recovery(self):
        state = OrchestratorState()
        state.apply(dict(_submit("c0007"), seq=1))
        state.apply(dict(_submit("c0002"), seq=2))
        assert state.next_campaign_number() == 8

    def test_round_trip_through_dict(self):
        state = OrchestratorState()
        state.apply(dict(_submit(), seq=1))
        state.apply({"kind": "transition", "campaign": "c0001",
                     "to": "running", "detail": "", "seq": 2})
        state.apply({"kind": "partial-begin", "campaign": "c0001",
                     "snapshot": 0, "collected_at": "2025-02-09T00:00:00Z",
                     "seq": 3})
        state.apply(dict(_bin("c0001", 0, 5), seq=4))
        rebuilt = OrchestratorState.from_dict(state.to_dict())
        assert rebuilt.to_dict() == state.to_dict()
        assert rebuilt.campaigns["c0001"].bins == state.campaigns["c0001"].bins


class TestFold:
    """Finished snapshots' bins fold into per-day billed totals."""

    def _state(self, *records):
        state = OrchestratorState()
        for seq, record in enumerate((_submit(), *records), start=1):
            state.apply(dict(record, seq=seq))
        return state, state.campaigns["c0001"]

    def test_snapshot_record_folds_its_bins(self):
        state, campaign = self._state(
            _begin(0), _bin("c0001", 0, 0), _bin("c0001", 0, 1, units=200),
        )
        assert len(campaign.bins) == 2 and campaign.billed == {}
        state.apply({"kind": "snapshot", "campaign": "c0001", "snapshot": 0,
                     "seq": 5})
        assert campaign.bins == {}
        assert campaign.billed == {"2025-02-09": 300}

    def test_implied_partial_begin_folds_earlier_snapshots(self):
        # A kill after the result persisted but before the snapshot record:
        # the next partial-begin alone says snapshot 0 is done.
        _, campaign = self._state(
            _begin(0), _bin("c0001", 0, 0), _begin(1, "2025-02-14"),
            _bin("c0001", 1, 0, day="2025-02-14"),
        )
        assert campaign.snapshots_done == 1
        assert set(campaign.bins) == {(1, "blm", 0)}
        assert campaign.billed == {"2025-02-09": 100}

    def test_fold_leaves_usage_unchanged(self):
        state, campaign = self._state(
            _begin(0), _bin("c0001", 0, 0), _bin("c0001", 0, 1, units=300),
            _bin("c0001", 0, 2, day="2025-02-10"),
        )
        before = campaign.usage_by_day()
        state.apply(dict(_begin(1, "2025-02-14"), seq=6))
        assert campaign.bins == {} and campaign.billed  # the fold happened
        assert campaign.usage_by_day() == before == {
            "2025-02-09": 400, "2025-02-10": 100,
        }
        assert state.usage_for_key("k0001") == before

    def test_refund_after_a_fold_returns_only_inflight_bins(self):
        state, campaign = self._state(
            _begin(0), _bin("c0001", 0, 0), _bin("c0001", 0, 1),
            {"kind": "snapshot", "campaign": "c0001", "snapshot": 0},
            _begin(1, "2025-02-14"), _bin("c0001", 1, 0, day="2025-02-14"),
        )
        assert set(campaign.inflight_bins()) == {(1, "blm", 0)}
        state.apply({"kind": "refund", "campaign": "c0001",
                     "units_by_day": {"2025-02-14": 100},
                     "reason": "cancelled", "seq": 8})
        assert campaign.usage_by_day() == {
            "2025-02-09": 200, "2025-02-14": 100,
        }
        assert campaign.net_usage_by_day() == {"2025-02-09": 200}
        assert campaign.to_status_dict()["quotaUnits"] == 200

    def test_round_trip_keeps_billed_and_inflight_bins(self):
        state, campaign = self._state(
            _begin(0), _bin("c0001", 0, 0),
            {"kind": "snapshot", "campaign": "c0001", "snapshot": 0},
            _begin(1, "2025-02-14"), _bin("c0001", 1, 3, day="2025-02-14"),
        )
        payload = state.to_dict()["campaigns"][0]
        assert payload["billed"] == {"2025-02-09": 100}
        assert [(b["snapshot"], b["hour"]) for b in payload["bins"]] == [(1, 3)]
        rebuilt = OrchestratorState.from_dict(
            json.loads(json.dumps(state.to_dict()))
        )
        assert rebuilt.to_dict() == state.to_dict()
        again = rebuilt.campaigns["c0001"]
        assert again.billed == campaign.billed
        assert again.bins == campaign.bins
        assert again.usage_by_day() == campaign.usage_by_day()


class TestStateMachineTable:
    def test_terminal_states_have_no_exits(self):
        for state in TERMINAL_STATES:
            assert VALID_TRANSITIONS[state] == frozenset()

    def test_every_transition_target_is_a_known_state(self):
        for targets in VALID_TRANSITIONS.values():
            assert targets <= set(VALID_TRANSITIONS)

    def test_inflight_bins_only_cover_the_unpersisted_snapshot(self):
        campaign = CampaignState(
            campaign_id="c0001", key_id="k0001",
            collections=2, interval_days=5,
        )
        campaign.bins[(0, "blm", 0)] = {
            "ids": [], "pool": 1, "units": 100, "day": "2025-02-09"
        }
        campaign.snapshots_done = 1  # snapshot 0 persisted
        campaign.partial_index = 1
        campaign.bins[(1, "blm", 0)] = {
            "ids": [], "pool": 1, "units": 100, "day": "2025-02-14"
        }
        inflight = campaign.inflight_bins()
        assert set(inflight) == {(1, "blm", 0)}
