"""JSON-lines persistence for campaign snapshots and analysis artifacts.

Snapshots can be large (tens of thousands of video IDs with metadata), so we
stream one JSON object per line rather than building a single document.

Crash safety: :func:`atomic_write_text` (and ``write_jsonl(...,
atomic=True)`` / :func:`dump_json` with ``atomic=True``) write through a
same-directory temp file, fsync it, and :func:`os.replace` it over the
target, so a process killed mid-save can never leave a torn or empty
file — the reader sees either the old complete document or the new one.
The orchestrator's journal compaction, campaign checkpoints, and the
serve layer's key table all persist through this path.

Append-only logs (the orchestrator's journal, the partial-snapshot
sidecar) are read back with :func:`read_log`, which drops the line a kill
tore and can cut it off the file before the next append.
"""

from __future__ import annotations

import gzip
import json
import os
from pathlib import Path
from typing import Any, Iterable, Iterator

__all__ = [
    "write_jsonl",
    "read_jsonl",
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


def write_jsonl(path: str | Path, records: Iterable[Any], atomic: bool = False) -> int:
    """Write records as JSON lines; returns the number of records written.

    With ``atomic=True`` (plain, non-gzip paths) the file is written via
    :func:`atomic_write_text`, so a crash mid-save leaves the previous
    version intact instead of a torn checkpoint.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if atomic and path.suffix != ".gz":
        lines = [
            json.dumps(record, sort_keys=True, default=_default)
            for record in records
        ]
        atomic_write_text(path, "".join(line + "\n" for line in lines))
        return len(lines)
    count = 0
    with _open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, default=_default))
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
            fh.write(json.dumps(record, sort_keys=True, default=_default))
            fh.write("\n")
            count += 1
    return count


def read_jsonl(path: str | Path) -> Iterator[Any]:
    """Yield records from a JSONL (optionally gzipped) file."""
    path = Path(path)
    with _open(path, "r") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
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
