"""Docs cross-reference integrity and the `make verify` tooling."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _event_field_tables(text: str) -> dict[str, list[str]]:
    """Each ``### `type` ...`` section's field-table names, in order."""
    tables: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in text.splitlines():
        heading = re.match(r"### `([a-z_.]+)`", line)
        if heading:
            current = tables.setdefault(heading.group(1), [])
        elif line.startswith("#"):
            current = None
        elif current is not None:
            row = re.match(r"\| `(\w+)` \|", line)
            if row:
                current.append(row.group(1))
    return tables


class TestDocLinks:
    def test_repo_docs_have_no_broken_links(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_doc_links.py")],
            capture_output=True, text=True, cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr
        assert "doc links OK" in result.stdout

    def test_checker_flags_broken_links(self, tmp_path):
        doc = tmp_path / "bad.md"
        doc.write_text("see [missing](no/such/file.md) and [ok](bad.md)\n")
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_doc_links.py"),
             str(doc)],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert "no/such/file.md" in result.stderr

    def test_checker_skips_external_and_code_blocks(self, tmp_path):
        doc = tmp_path / "ok.md"
        doc.write_text(
            "[web](https://example.com) [anchor](#section)\n"
            "```\n[fake](inside/code/block.md)\n```\n"
        )
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_doc_links.py"),
             str(doc)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr

    def test_architecture_doc_mentions_hooks(self):
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        for call in ("observer.emit(", 'emit("api.call"',
                     'emit("quota.spend"', 'emit("campaign.checkpoint"'):
            assert call in text

    def test_observability_doc_covers_event_vocabulary(self):
        """Each event type has one section whose field table lists exactly
        its schema fields, in schema order (plus ``quota.spend``'s
        optional ``topic``), and the doc has no section the schema lacks."""
        sys.path.insert(0, str(REPO_ROOT / "src"))
        try:
            from repro.obs import EVENT_TYPES
        finally:
            sys.path.pop(0)
        text = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text()
        tables = _event_field_tables(text)
        assert set(tables) == set(EVENT_TYPES)
        for event_type, names in EVENT_TYPES.items():
            optional = ["topic"] if event_type == "quota.spend" else []
            assert tables[event_type] == [*names, *optional], event_type

    def test_makefile_has_verify_target(self):
        text = (REPO_ROOT / "Makefile").read_text()
        assert "verify:" in text
        assert "check_doc_links.py" in text
        assert "pytest" in text
