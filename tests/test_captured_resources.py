"""Captured API resources held as JSON text, and the transport's columns.

:class:`~repro.util.jsonio.CapturedResources` keeps each captured
resource as text and parses on access; every campaign writer splices the
text and the campaign reader slices it back out of the line.  These
tests pin the contract on seeded random resources: the splice equals
``json.dumps(..., sort_keys=True)``, ``save`` -> ``load`` -> ``save`` is
byte-identical, a foreign line loads to equal resources (keeping its
own formatting), the reader agrees with :func:`json.loads` on the
prefixes of a line, and an accessed resource is a private copy.  The last
class pins the transport's column-backed request log against the
:class:`~repro.api.transport.RequestRecord` list it replaces.
"""

from __future__ import annotations

import json
import random
from collections.abc import Sequence
from datetime import datetime, timedelta

import pytest

from repro.api.transport import LatencyModel, RequestRecord, Transport
from repro.core.datasets import (
    CampaignResult,
    Snapshot,
    TopicSnapshot,
    campaign_records,
)
from repro.core.spill import SpillStore
from repro.util.jsonio import (
    CAPTURED_FIELDS,
    CapturedResources,
    decode_record,
    encode_record,
)
from repro.util.timeutil import UTC

#: Characters that stress the encoder and the reader's string scanning:
#: quotes, backslashes and braces inside strings, control characters,
#: non-ASCII (BMP and astral), and the JSON whitespace set.
_ALPHABET = list('aZ0 "\\{}[]:,\n\t\r\x00\x1féΩ☃非\u2028😀')


def _string(rng: random.Random) -> str:
    return "".join(rng.choice(_ALPHABET) for _ in range(rng.randrange(8)))


def _value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(9 if depth < 3 else 6)
    if kind == 0:
        return rng.randrange(-10**12, 10**12)
    if kind == 1:
        return rng.choice([True, False])
    if kind == 2:
        return None
    if kind == 3:
        return rng.uniform(-1e6, 1e6)
    if kind in (4, 5):
        return _string(rng)
    if kind == 6:
        return [_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 7:
        return {}
    return {_string(rng): _value(rng, depth + 1) for _ in range(rng.randrange(5))}


def _resources(rng: random.Random) -> dict[str, dict]:
    """ID -> resource, in a random (unsorted) capture order."""
    return {
        f"{_string(rng)}#{n}": {
            "id": n,
            "snippet": {_string(rng): _value(rng) for _ in range(rng.randrange(4))},
            "items": [_value(rng) for _ in range(rng.randrange(3))],
        }
        for n in rng.sample(range(100), rng.randrange(6))
    }


def _campaign(seed: int) -> CampaignResult:
    rng = random.Random(seed)
    at = datetime(2025, 2, 9, tzinfo=UTC)
    snapshots = []
    for index in range(3):
        collected_at = at + timedelta(days=5 * index)
        ts = TopicSnapshot(
            topic="t",
            collected_at=collected_at,
            hour_video_ids={0: ["v1", "v2"], 3: ["v3"]},
            pool_sizes={0: 10, 3: 4},
            video_meta=_resources(rng),
            channel_meta=_resources(rng),
            comments=_resources(rng),
        )
        snapshots.append(
            Snapshot(index=index, collected_at=collected_at, topics={"t": ts})
        )
    return CampaignResult(topic_keys=("t",), snapshots=snapshots)


def _plain(record):
    """A decoded record with its captures parsed into plain dicts."""
    if not isinstance(record, dict):
        return record
    return {
        key: dict(value) if isinstance(value, CapturedResources) else value
        for key, value in record.items()
    }


SEEDS = range(12)


class TestCapturedResources:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_json_text_equals_dumps(self, seed):
        resources = _resources(random.Random(seed))
        captured = CapturedResources(resources)
        assert captured.json_text() == json.dumps(resources, sort_keys=True)
        assert captured.json_text() == json.dumps(dict(captured), sort_keys=True)
        assert dict(captured) == resources
        assert list(captured) == list(resources)  # capture order kept

    @pytest.mark.parametrize("seed", SEEDS)
    def test_record_line_equals_dumps(self, seed):
        rng = random.Random(seed)
        record = {
            "kind": "topic-snapshot",
            "zeta": _value(rng),
            **{name: CapturedResources(_resources(rng))
               for name in CAPTURED_FIELDS},
        }
        line = encode_record(record)
        assert line == json.dumps(_plain(record), sort_keys=True)
        assert _plain(decode_record(line)) == _plain(record)

    def test_access_returns_a_private_copy(self):
        captured = CapturedResources({"v1": {"snippet": {"tags": ["a"]}}})
        resource = captured["v1"]
        resource["snippet"]["tags"].append("b")
        resource["extra"] = 1
        assert captured["v1"] == {"snippet": {"tags": ["a"]}}
        assert captured.get("v1") is not captured.get("v1")
        with pytest.raises(TypeError):
            captured["v2"] = {}  # type: ignore[index]

    def test_mapping_surface(self):
        captured = CapturedResources({"b": {"x": 1}, "a": {}})
        assert len(captured) == 2 and "a" in captured and "c" not in captured
        assert list(captured.keys()) == ["b", "a"]
        assert captured.get("c") is None
        assert captured == {"a": {}, "b": {"x": 1}}
        assert CapturedResources(captured) == captured
        assert CapturedResources() == {} and not CapturedResources()
        assert CapturedResources({}).json_text() == "{}"

    def test_topic_snapshot_wraps_plain_dicts(self):
        ts = TopicSnapshot(
            topic="t",
            collected_at=datetime(2025, 2, 9, tzinfo=UTC),
            hour_video_ids={0: ["v1"]},
            pool_sizes={0: 1},
            video_meta={"v1": {"snippet": {"channelId": "c1"}}},
        )
        for name in CAPTURED_FIELDS:
            assert isinstance(getattr(ts, name), CapturedResources), name
        assert ts.video_meta["v1"]["snippet"]["channelId"] == "c1"


class TestCampaignRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_save_load_save_is_byte_identical(self, tmp_path, seed):
        """Through every campaign writer: plain, gzip, and a spill store's
        export."""
        campaign = _campaign(seed)
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl.gz"
        third = tmp_path / "third.jsonl"
        campaign.save(first)
        loaded = CampaignResult.load(first)
        assert loaded.snapshots == campaign.snapshots
        loaded.save(second)
        store = SpillStore.create(tmp_path / "spill", campaign.topic_keys)
        for snap in CampaignResult.load(second).snapshots:
            store.append(snap)
        store.export_jsonl(third)
        assert third.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_foreign_whitespace_loads_equal_resources(self, tmp_path, seed):
        """A file another tool wrote: its own separators, key order and
        non-ASCII; resources parse equal and keep their own text."""
        campaign = _campaign(seed)
        canonical = tmp_path / "canonical.jsonl"
        campaign.save(canonical)
        style = dict(separators=(" ,\t", " :  "), ensure_ascii=False)
        foreign = tmp_path / "foreign.jsonl"
        foreign.write_text(
            "".join(
                "  " + json.dumps(_plain(json.loads(line)), **style) + " \n"
                for line in canonical.read_text(encoding="utf-8").splitlines()
            ),
            encoding="utf-8",
        )
        loaded = CampaignResult.load(foreign)
        assert loaded.snapshots == campaign.snapshots
        for original, snap in zip(campaign.snapshots, loaded.snapshots):
            for name in CAPTURED_FIELDS:
                captured = getattr(snap.topic("t"), name)
                assert dict(captured) == dict(getattr(original.topic("t"), name))
                for key, text in captured.text_items():
                    assert text == json.dumps(json.loads(text), **style)
        resaved = tmp_path / "resaved.jsonl"
        loaded.save(resaved)
        assert CampaignResult.load(resaved).snapshots == campaign.snapshots

    @pytest.mark.parametrize("seed", range(4))
    def test_reader_agrees_with_json_loads_on_prefixes(self, seed):
        campaign = _campaign(seed)
        line = encode_record(
            list(campaign_records(campaign.topic_keys, campaign.snapshots))[1]
        )
        for end in range(0, len(line) + 1, 7):
            prefix = line[:end].strip()
            if not prefix:
                continue
            try:
                expected = json.loads(prefix)
            except json.JSONDecodeError:
                with pytest.raises(json.JSONDecodeError):
                    decode_record(prefix)
            else:
                assert _plain(decode_record(prefix)) == expected

    @pytest.mark.parametrize("line", [
        "[1, 2]", "3", '"s"', "null", '{"comments": null, "k": [1]}',
        '{"video_meta": [], "x": {}}', "{}", '{"a": 1, "a": 2}',
        '{"a":  1,  "b":\t2 ,"c" :3}',
        '{ "comments" : { "v" :  {"x": [1, {}]},\n"w":{} } , "k": 1 }',
        '{"video_meta": {"v": 1, \r"w": 2}}',
        ' \t{"comments": {"v": [] }}\n',
    ])
    def test_reader_accepts_any_json_line(self, line):
        decoded, expected = decode_record(line), json.loads(line)
        assert _plain(decoded) == expected
        if isinstance(expected, dict):
            for name in CAPTURED_FIELDS & set(expected):
                assert isinstance(decoded[name], CapturedResources) == (
                    isinstance(expected[name], dict)
                ), name

    @pytest.mark.parametrize("line", [
        "not json", "{", '{"a" 1}', '{"a": 1,}', '{"a": 1} x', '{"a": 1 "b": 2}',
        '{"video_meta": {"v": }}', '{"video_meta": {"v": 1}', "{1: 2}",
        '{"a": 1, }', '{"video_meta": {"v": 1, }}', '{"a": }',
    ])
    def test_reader_rejects_invalid_json(self, line):
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
        with pytest.raises(json.JSONDecodeError):
            decode_record(line)

    def test_invalid_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "header", "topic_keys": []}\n{"video_meta": {\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2: invalid JSON"):
            CampaignResult.load(path)


class TestTransportColumns:
    def test_records_equal_request_record_list(self):
        """Mixed observe / observe_many calls read back as the records the
        per-object log held: same sequence, endpoint, time, units, latency."""
        at = datetime(2025, 2, 9, tzinfo=UTC)
        later = at + timedelta(hours=1)
        transport = Transport(latency=LatencyModel(seed=11))
        reference = LatencyModel(seed=11)
        calls = [
            ("search.list", at, 100, 1),
            ("search.list", later, 100, 5),
            ("videos.list", later, 1, 1),
            ("channels.list", later, 1, 0),
            ("videos.list", at, 1, 3),
            ("commentThreads.list", later, 1, 1),
        ]
        expected: list[RequestRecord] = []
        for n, (endpoint, when, units, count) in enumerate(calls):
            if n % 2 == 0 and count == 1:
                transport.observe(endpoint, when, units)
            else:
                transport.observe_many(endpoint, when, units, count)
            for _ in range(count):
                expected.append(RequestRecord(
                    len(expected), endpoint, when, units, reference.draw()
                ))
        records = transport.records
        assert isinstance(records, Sequence)
        assert list(records) == expected
        assert records == expected
        assert len(records) == len(expected) == transport.total_calls
        assert [records[i] for i in range(len(expected))] == expected
        assert records[-1] == expected[-1]
        with pytest.raises(IndexError):
            records[len(expected)]
        assert [r.units for r in records] == [r.units for r in expected]
        assert [r.at for r in records] == [r.at for r in expected]
        assert transport.calls_by_endpoint() == {
            "search.list": 6, "videos.list": 4, "commentThreads.list": 1,
        }
        assert transport.total_latency_ms == sum(r.latency_ms for r in expected)
