"""Property-based tests over the quota/hash/time primitives.

Seeded ``random`` sweeps (no extra dependencies): each test draws a few
hundred cases from a fixed-seed generator, so failures are reproducible
while still covering a much wider input space than hand-picked examples.

The invariants pinned here:

* RFC3339 round-trips losslessly (the collector formats hour windows to
  strings and the search endpoint parses them back);
* ``stable_hash`` depends only on the *values* of its parts, not on how
  the caller's strings were built or reused (every seeded draw is keyed
  by it);
* the quota ledger conserves units under concurrent charge/refund (the
  serve gateway's HTTP threads share a tenant's ledger), and ``absorb``
  records spend even when it raises.
"""

from __future__ import annotations

import random
import threading
from datetime import datetime, timedelta, timezone

import pytest

from repro.api.errors import QuotaExceededError
from repro.api.quota import QuotaLedger, QuotaPolicy
from repro.util.rng import stable_hash
from repro.util.timeutil import format_rfc3339, parse_rfc3339


class TestRfc3339RoundTrip:
    def test_random_whole_second_datetimes_round_trip(self):
        rng = random.Random(0xC0FFEE)
        epoch = datetime(1990, 1, 1, tzinfo=timezone.utc)
        for _ in range(300):
            dt = epoch + timedelta(seconds=rng.randrange(0, 2_000_000_000))
            assert parse_rfc3339(format_rfc3339(dt)) == dt

    def test_whole_hour_windows_round_trip(self):
        # The collector formats hour windows to strings and the endpoint
        # parses them back; both must mean the same instant.
        rng = random.Random(1)
        anchor = datetime(2025, 2, 9, tzinfo=timezone.utc)
        for _ in range(300):
            start = anchor + timedelta(hours=rng.randrange(-10_000, 10_000))
            text = format_rfc3339(start)
            assert text.endswith("Z")
            assert parse_rfc3339(text) == start


class TestStableHashStability:
    def test_value_equality_not_identity(self):
        rng = random.Random(2)
        for _ in range(300):
            parts = [
                rng.choice(["topic-latency", "seed", "x", "hour"]),
                rng.randrange(0, 1 << 32),
                rng.randrange(0, 64),
            ]
            reference = stable_hash(*parts)
            # Rebuild equal values through fresh/reused buffers: slicing,
            # concatenation, int reconstruction.
            buffer = ("padding" + parts[0])[len("padding"):]
            rebuilt = [buffer, int(str(parts[1])), parts[2] + 0]
            assert stable_hash(*rebuilt) == reference
            # And again, after the buffer was mutated and restored.
            scratch = list(buffer)
            scratch.reverse()
            scratch.reverse()
            assert stable_hash("".join(scratch), *parts[1:]) == reference

    def test_distinct_inputs_rarely_collide(self):
        rng = random.Random(3)
        seen: dict[int, tuple] = {}
        for _ in range(2000):
            parts = (rng.randrange(0, 1 << 20), rng.randrange(0, 1 << 20))
            digest = stable_hash("t", *parts)
            if digest in seen:
                assert seen[digest] == parts  # 64-bit space: no collisions here
            seen[digest] = parts

    def test_part_boundaries_matter(self):
        # ("ab", "c") and ("a", "bc") must hash differently: parts are
        # delimited, not concatenated.
        assert stable_hash("ab", "c") != stable_hash("a", "bc")


class TestQuotaLedgerConservation:
    def test_concurrent_charges_and_refunds_conserve_units(self):
        rng = random.Random(4)
        for _ in range(10):
            limit = rng.randrange(500, 5_000)
            ledger = QuotaLedger(policy=QuotaPolicy(daily_limit=limit))
            day = "2025-02-09"
            n_threads = 8
            per_thread = 40
            charged = [0] * n_threads
            refunded = [0] * n_threads

            def worker(slot: int) -> None:
                local = random.Random(1000 + slot)
                for _ in range(per_thread):
                    endpoint = local.choice(["search.list", "videos.list"])
                    try:
                        ledger.charge(endpoint, day)
                        charged[slot] += ledger.cost_of(endpoint)
                    except QuotaExceededError:
                        continue
                    if local.random() < 0.3:
                        ledger.refund(endpoint, day)
                        refunded[slot] += ledger.cost_of(endpoint)

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            net = sum(charged) - sum(refunded)
            assert ledger.used_on(day) == net
            assert ledger.total_used == net
            assert 0 <= ledger.used_on(day) <= limit

    def test_absorb_conserves_and_reports_overflow(self):
        rng = random.Random(5)
        for _ in range(100):
            limit = rng.randrange(200, 2_000)
            ledger = QuotaLedger(policy=QuotaPolicy(daily_limit=limit))
            usage = {
                f"2025-02-{day:02d}": rng.randrange(0, limit)
                for day in rng.sample(range(1, 28), rng.randrange(1, 5))
            }
            total = sum(usage.values())
            pre_charge = rng.randrange(0, limit // 2 + 1)
            for _ in range(pre_charge):
                ledger.charge("videos.list", "2025-02-01")
            expect_raise = any(
                units + (pre_charge if day == "2025-02-01" else 0) > limit
                for day, units in usage.items()
            )
            if expect_raise:
                with pytest.raises(QuotaExceededError):
                    ledger.absorb(usage)
            else:
                ledger.absorb(usage)
            # Spend is recorded even when absorb raises: the sub-ledger
            # already spent it, and reconciliation must not hide it.
            assert ledger.total_used == pre_charge + total

    def test_usage_snapshots_are_atomic_under_concurrent_charges(self):
        # The serve layer's quota-report route reads usage_by_day() while
        # request threads charge: every snapshot must be internally
        # consistent (taken under the ledger lock), so with charges only
        # (no refunds) successive snapshot sums never go backwards and
        # the final snapshot reconciles exactly.
        ledger = QuotaLedger(policy=QuotaPolicy(daily_limit=10**9))
        days = [f"2025-02-{d:02d}" for d in range(1, 6)]
        stop = threading.Event()

        def charger(slot: int) -> None:
            local = random.Random(slot)
            for _ in range(200):
                ledger.charge(local.choice(["search.list", "videos.list"]),
                              local.choice(days))

        threads = [threading.Thread(target=charger, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        seen = 0
        while any(t.is_alive() for t in threads) or not stop.is_set():
            snapshot = ledger.usage_by_day()
            total = sum(snapshot.values())
            assert list(snapshot) == sorted(snapshot)
            assert total >= seen, "snapshot sum went backwards"
            seen = total
            if not any(t.is_alive() for t in threads):
                stop.set()
        for t in threads:
            t.join()
        final = ledger.usage_by_day()
        assert sum(final.values()) == ledger.total_used
