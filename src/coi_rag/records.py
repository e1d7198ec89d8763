"""Question records and the JSON Lines codec shared by every artifact."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable


def json_line(row: dict) -> str:
    """One artifact line: keys sorted, non-ASCII kept, newline-terminated."""
    return json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n"


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json_line(row) for row in rows)


def write_records(path: str | Path, records: Iterable) -> None:
    """Write dataclass instances as JSON Lines, one row of their fields each.

    A row maps each field name to the instance's own value, uncopied: the
    records written here hold strings, numbers and tuples of them, which
    encode as ``dataclasses.asdict``'s deep copy would.
    """
    write_jsonl(path, ({f.name: getattr(r, f.name) for f in fields(r)} for r in records))


def read_jsonl(path: str | Path) -> list[dict]:
    """Every record of a JSON Lines file; blank lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@dataclass(frozen=True)
class QuestionRecord:
    """One user question with its forum metadata."""

    id: str
    tag: str
    title: str
    body: str
    accepted_answer: str
    views: int

    def __post_init__(self) -> None:
        for name in ("tag", "title", "body", "accepted_answer"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise TypeError(f"question {self.id!r}: {name} must be a string, not {type(value).__name__}")
        if not self.title.strip():
            raise ValueError(f"question {self.id!r} has an empty title")

    def query_text(self) -> str:
        """Retrieval query: title and body joined by a newline."""
        if not self.body.strip():
            return self.title
        return f"{self.title}\n{self.body}"
