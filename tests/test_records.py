from __future__ import annotations

from dataclasses import asdict

from coi_rag.corpus import Chunk
from coi_rag.question_bank import ImplicitQuestion
from coi_rag.records import json_line, write_records


def test_write_records_writes_the_bytes_of_asdict_rows(tmp_path):
    """Shallow rows encode as ``asdict``'s deep copies, tuples and non-ASCII text included."""
    chunks = [
        Chunk("vex:0", "vex", 0, 4, "Ça compile — naïvement, “vite” ✓", (1, 2)),
        Chunk("vex:1", "vex", 2, 6, "Zürich\tUmlaut\nÆ 漢字", (2, 2)),
    ]
    questions = [
        ImplicitQuestion("vex:q1", "Qu'est-ce qu'une «liaison»?", "Une entrée — typée.", "vex:0", "vex"),
        ImplicitQuestion("vex:q2", "Why 漢字?", "Because “UTF-8”.", "vex:1", "vex"),
    ]
    for name, records in (("chunks", chunks), ("bank", questions)):
        path = tmp_path / f"{name}.jsonl"
        write_records(path, records)
        want = "".join(json_line(asdict(r)) for r in records).encode("utf-8")
        assert path.read_bytes() == want
