"""JSON-lines persistence for campaign snapshots and analysis artifacts.

Snapshots can be large (tens of thousands of video IDs with metadata), so we
stream one JSON object per line rather than building a single document.

Crash safety: :func:`atomic_write_text` (and :func:`dump_json` with
``atomic=True``) write through a same-directory temp file, fsync it, and
:func:`os.replace` it over the target, so a process killed mid-save can
never leave a torn or empty file — the reader sees either the old
complete document or the new one.  The orchestrator's journal
compaction, the spill store's manifest, and the serve layer's key table
all persist through this path.

Append-only logs (the orchestrator's journal, the partial-snapshot
sidecar) are read back with :func:`read_log`, which drops the line a kill
tore and can cut it off the file before the next append.

Captured API resources: a campaign's Videos:list, Channels:list and
comment captures are most of its bytes, and held as nested dicts they
are most of the objects the garbage collector walks.  They live in
:class:`CapturedResources`, one JSON text per resource.  This module is
the one place that knows which record fields hold them
(:data:`CAPTURED_FIELDS`): :func:`encode_record`, the line encoder every
writer uses, splices their text into the line instead of re-encoding
it, and :func:`read_records`, the campaign-file reader, slices each
resource's text out of the line as the file holds it.  A line that
:func:`encode_record` wrote therefore reads back and re-encodes byte for
byte.
"""

from __future__ import annotations

import gzip
import json
import os
from collections.abc import Mapping
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

__all__ = [
    "CAPTURED_FIELDS",
    "CapturedResources",
    "encode_record",
    "decode_record",
    "write_jsonl",
    "read_jsonl",
    "read_records",
    "append_jsonl",
    "dump_json",
    "load_json",
    "atomic_write_text",
    "read_log",
]


def _open(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` so a crash can never leave a torn file.

    The bytes go to a ``<name>.tmp.<pid>`` sibling first, are flushed and
    fsynced, and only then renamed over the target with :func:`os.replace`
    (atomic on POSIX).  The containing directory is fsynced afterwards so
    the rename itself survives a power cut.  On any failure the temp file
    is removed and the original target is untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(path.parent)
    return path


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry (rename durability); best-effort on odd FSes."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_jsonl(path: str | Path, records: Iterable[Any]) -> int:
    """Write records as JSON lines; returns the number of records written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with _open(path, "w") as fh:
        for record in records:
            fh.write(encode_record(record))
            fh.write("\n")
            count += 1
    return count


def append_jsonl(path: str | Path, records: Iterable[Any]) -> int:
    """Append records to an existing JSONL file (creating it if missing)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with _open(path, "a") as fh:
        for record in records:
            fh.write(encode_record(record))
            fh.write("\n")
            count += 1
    return count


def read_jsonl(path: str | Path) -> Iterator[Any]:
    """Yield records from a JSONL (optionally gzipped) file."""
    return _read_lines(path, json.loads)


def read_records(path: str | Path) -> Iterator[Any]:
    """Yield campaign records from a JSONL (optionally gzipped) file.

    Like :func:`read_jsonl`, but each line goes through
    :func:`decode_record`, so captured resources stay text.
    """
    return _read_lines(path, decode_record)


def _read_lines(path: str | Path, decode: Callable[[str], Any]) -> Iterator[Any]:
    path = Path(path)
    with _open(path, "r") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield decode(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_number}: invalid JSON: {exc}") from exc


def read_log(
    path: Path, what: str, cut_torn_tail: bool = False, fsync: bool = False
) -> list[Any]:
    """The complete records of an append-only JSONL log, oldest first.

    A record is complete once its line's newline is on disk.  Bytes after
    the last newline are the write a kill interrupted: they are never
    returned, and with ``cut_torn_tail`` the file is cut back to its last
    complete line (and the cut fsynced with ``fsync``), so the next append
    starts a line of its own instead of extending the fragment.  A complete
    line that is not JSON raises ``ValueError`` naming ``what``: that is
    damage, not a crash.
    """
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    if cut_torn_tail and end < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(end)
            if fsync:
                os.fsync(fh.fileno())
    records = []
    for n, line in enumerate(data[:end].decode("utf-8").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{n}: corrupt {what}: {exc}") from exc
    return records


def dump_json(path: str | Path, payload: Any, atomic: bool = False) -> None:
    """Write a single pretty-printed JSON document.

    With ``atomic=True`` the document goes through
    :func:`atomic_write_text` (crash-safe tmp-file + rename).
    """
    text = json.dumps(payload, indent=2, sort_keys=True, default=_default) + "\n"
    if atomic:
        atomic_write_text(path, text)
        return
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_json(path: str | Path) -> Any:
    """Read a single JSON document."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _default(obj: Any) -> Any:
    """Serialize the extra types our records carry (datetimes, numpy, sets)."""
    from datetime import datetime

    import numpy as np

    if isinstance(obj, datetime):
        from repro.util.timeutil import format_rfc3339

        return format_rfc3339(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


_encode = json.JSONEncoder(sort_keys=True, default=_default).encode

#: Record fields that map IDs to captured API resources.
CAPTURED_FIELDS = frozenset({"video_meta", "channel_meta", "comments"})


class CapturedResources(Mapping):
    """Read-only mapping of ID -> captured API resource, held as JSON text.

    Text is not tracked by the garbage collector, so a campaign's captures
    cost one string per resource instead of a tree of dicts and lists.

    * Built from resources, each one is held as its canonical text,
      ``json.dumps(resource, sort_keys=True)``.
    * Read from a file (:func:`decode_record`), each one keeps the text
      the file holds.

    ``m[key]`` parses afresh on every access, so mutating the returned
    resource never changes the capture.  Nothing is memoized: a memo would
    rebuild the heap this mapping exists to avoid.  :meth:`json_text` is
    the mapping's own JSON with the texts spliced in; for canonical texts
    it equals ``json.dumps(dict(m), sort_keys=True)``.
    """

    __slots__ = ("_texts",)

    def __init__(self, resources: Mapping[str, Any] | None = None) -> None:
        if isinstance(resources, CapturedResources):
            self._texts = resources._texts
        else:
            self._texts = {
                key: _encode(value) for key, value in (resources or {}).items()
            }

    @classmethod
    def from_texts(cls, texts: dict[str, str]) -> "CapturedResources":
        """Wrap resource texts as they are (no encoding, no copy)."""
        captured = cls.__new__(cls)
        captured._texts = texts
        return captured

    def __getitem__(self, key: str) -> Any:
        return json.loads(self._texts[key])

    def __iter__(self) -> Iterator[str]:
        return iter(self._texts)

    def __len__(self) -> int:
        return len(self._texts)

    def __contains__(self, key: object) -> bool:
        return key in self._texts

    def text_items(self):
        """(ID, resource text) pairs, in capture order (no parsing)."""
        return self._texts.items()

    def json_text(self) -> str:
        """The mapping as one JSON object, sorted by ID, texts spliced in."""
        return "{" + ", ".join(
            f"{_encode(key)}: {text}" for key, text in sorted(self._texts.items())
        ) + "}"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CapturedResources) and self._texts == other._texts:
            return True
        return Mapping.__eq__(self, other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"CapturedResources(<{len(self._texts)} resources>)"


def encode_record(record: Any) -> str:
    """One JSONL line: ``json.dumps(record, sort_keys=True)``.

    A record carrying :data:`CAPTURED_FIELDS` is encoded key by key so each
    :class:`CapturedResources` value is spliced in as :meth:`its text
    <CapturedResources.json_text>` rather than re-encoded.  With default
    separators nested encoding does not depend on context, so the line is
    the one ``json.dumps`` writes for the parsed resources.
    """
    if isinstance(record, dict) and not CAPTURED_FIELDS.isdisjoint(record):
        return "{" + ", ".join(
            f"{_encode(key)}: "
            + (value.json_text() if isinstance(value, CapturedResources)
               else _encode(value))
            for key, value in sorted(record.items())
        ) + "}"
    return _encode(record)


_scan_once = json.JSONDecoder().scan_once
_scanstring = json.decoder.scanstring
_skip_ws = json.decoder.WHITESPACE.match
_WS = frozenset(" \t\n\r")  # JSON's whitespace characters


def decode_record(line: str) -> Any:
    """Parse one JSONL line as :func:`json.loads` does, keeping captures as text.

    Each object-valued :data:`CAPTURED_FIELDS` member of a record becomes a
    :class:`CapturedResources` holding every resource's text exactly as
    the line has it.  The walk uses the :mod:`json` module's own scanner;
    the objects it builds for each resource die young.  Invalid JSON raises
    :class:`json.JSONDecodeError`.
    """
    start = _skip_ws(line, 0).end()
    if not line.startswith("{", start):
        return json.loads(line)
    record, end = _object(line, start, _field)
    end = _skip_ws(line, end).end()
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    return record


def _value(s: str, idx: int) -> tuple[Any, int]:
    try:
        return _scan_once(s, idx)
    except StopIteration as err:
        raise json.JSONDecodeError("Expecting value", s, err.value) from None


def _field(key: str, s: str, idx: int) -> tuple[Any, int]:
    """A record member's value; a captured field's members stay text."""
    if key in CAPTURED_FIELDS and s.startswith("{", idx):
        texts, end = _object(s, idx, _text)
        return CapturedResources.from_texts(texts), end
    return _value(s, idx)


def _text(key: str, s: str, idx: int) -> tuple[str, int]:
    end = _value(s, idx)[1]
    return s[idx:end], end


def _object(
    s: str, idx: int, value_of: Callable[[str, str, int], tuple[Any, int]]
) -> tuple[dict, int]:
    """The JSON object opening at ``s[idx]``, each member's value read by
    ``value_of(key, s, start)``; returns the members and the end index.

    The separators :func:`encode_record` writes (``": "``, ``", "``, with
    no further whitespace) take a fast path; any other JSON whitespace
    goes through the general one.
    """
    out: dict = {}
    idx = _skip_ws(s, idx + 1).end()
    if s.startswith("}", idx):
        return out, idx + 1
    while True:
        if not s.startswith('"', idx):
            raise json.JSONDecodeError(
                "Expecting property name enclosed in double quotes", s, idx
            )
        key, idx = _scanstring(s, idx + 1)
        if s.startswith(": ", idx) and s[idx + 2:idx + 3] not in _WS:
            idx += 2
        else:
            idx = _skip_ws(s, idx).end()
            if not s.startswith(":", idx):
                raise json.JSONDecodeError("Expecting ':' delimiter", s, idx)
            idx = _skip_ws(s, idx + 1).end()
        out[key], idx = value_of(key, s, idx)
        if s.startswith(", ", idx) and s[idx + 2:idx + 3] not in _WS:
            idx += 2
            continue
        idx = _skip_ws(s, idx).end()
        if s.startswith("}", idx):
            return out, idx + 1
        if not s.startswith(",", idx):
            raise json.JSONDecodeError("Expecting ',' delimiter", s, idx)
        idx = _skip_ws(s, idx + 1).end()
