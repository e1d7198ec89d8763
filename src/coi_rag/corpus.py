"""Source document ingestion and overlapping token-window chunking."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .records import read_jsonl

PAGE_SENTINEL = re.compile(r"^\x0c?@@PAGE (\d+)@@\s*$")


def tokenize(text: str) -> list[str]:
    """Split on runs of whitespace. Empty input yields an empty list."""
    return text.split()


@dataclass(frozen=True)
class Document:
    """A plain-text source with optional page provenance.

    ``page_offsets`` holds (page_number, token_index) pairs, strictly
    increasing in both components; page ``p`` starts at that token index.
    """

    id: str
    title: str
    text: str
    page_offsets: tuple[tuple[int, int], ...] = ((1, 0),)

    def __post_init__(self) -> None:
        if not self.page_offsets:
            raise ValueError("page_offsets must not be empty")
        prev_page, prev_tok = 0, -1
        for page, tok in self.page_offsets:
            if page <= prev_page or tok <= prev_tok:
                raise ValueError("page_offsets must be strictly increasing")
            if page < 1 or tok < 0:
                raise ValueError("page numbers start at 1, token indexes at 0")
            prev_page, prev_tok = page, tok

    @property
    def tokens(self) -> list[str]:
        return tokenize(self.text)

    def page_at(self, token_index: int) -> int:
        """Page containing the given token (last marker at or before it)."""
        page = self.page_offsets[0][0]
        for p, tok in self.page_offsets:
            if tok <= token_index:
                page = p
            else:
                break
        return page


@dataclass(frozen=True)
class Chunk:
    """A contiguous token span of a document; the retrieval unit."""

    id: str
    doc_id: str
    token_start: int
    token_end: int
    text: str
    page_span: tuple[int, int]


def read_document(path: str | Path, doc_id: str | None = None, title: str | None = None) -> Document:
    """Load a UTF-8 text file, honoring ``@@PAGE n@@`` sentinel lines.

    Sentinel lines are stripped before tokenization; each marks the token
    index at which that page starts. A sentinel at the same token index as
    the one before it (a blank page) replaces it. Text before the first
    sentinel belongs to the page preceding it, or to page 1 when the first
    sentinel is page 1. Files without sentinels get a single page 1
    spanning the whole document.
    """
    path = Path(path)
    raw = path.read_text(encoding="utf-8")
    kept_lines: list[str] = []
    offsets: list[tuple[int, int]] = []
    token_count = 0
    for line in raw.splitlines():
        m = PAGE_SENTINEL.match(line)
        if m:
            if offsets and offsets[-1][1] == token_count:
                offsets.pop()
            offsets.append((int(m.group(1)), token_count))
            continue
        kept_lines.append(line)
        token_count += len(line.split())
    text = "\n".join(kept_lines)
    if not offsets:
        offsets = [(1, 0)]
    elif offsets[0][1] > 0:
        first_page = offsets[0][0]
        if first_page > 1:
            offsets.insert(0, (first_page - 1, 0))
        else:
            offsets[0] = (first_page, 0)
    return Document(
        id=doc_id or path.stem,
        title=title or path.stem,
        text=text,
        page_offsets=tuple(offsets),
    )


def chunk(
    doc: Document,
    size: int = 150,
    overlap: int = 75,
    min_tokens: int = 100,
) -> list[Chunk]:
    """Cut a document into overlapping token windows.

    Windows of ``size`` tokens start every ``size - overlap`` tokens. A
    final window shorter than ``min_tokens`` is not emitted on its own:
    the previous chunk is extended to the document end instead, so every
    token is covered. A document shorter than ``min_tokens`` becomes one
    chunk spanning the whole text.
    """
    if not 0 <= overlap < size:
        raise ValueError("require 0 <= overlap < size")
    if not 0 < min_tokens <= size:
        raise ValueError("require 0 < min_tokens <= size")

    tokens = doc.tokens
    n = len(tokens)
    if n == 0:
        return []

    stride = size - overlap
    spans: list[tuple[int, int]] = []
    start = 0
    while True:
        if start + size < n:
            spans.append((start, start + size))
            start += stride
            continue
        # Final window reaches (or passes) the document end.
        if n - start >= min_tokens or not spans:
            spans.append((start, n))
        else:
            last_start, _ = spans[-1]
            spans[-1] = (last_start, n)
        break

    chunks = []
    for s, e in spans:
        chunks.append(
            Chunk(
                id=f"{doc.id}:{s}-{e}",
                doc_id=doc.id,
                token_start=s,
                token_end=e,
                text=" ".join(tokens[s:e]),
                page_span=(doc.page_at(s), doc.page_at(e - 1)),
            )
        )
    return chunks


def chunks_from_jsonl(path: str | Path) -> list[Chunk]:
    return [
        Chunk(**{**rec, "page_span": tuple(rec["page_span"])}) for rec in read_jsonl(path)
    ]
