"""Frozen plain forms of three text scans that the library runs in fast forms.

``reference_context_sentences`` scans the joined evidence text in one pass
and normalizes every sentence; ``reference_strip_citations`` runs its three
whitespace passes unconditionally, once, after the marker loop;
``reference_split_sentences`` splits on a look-behind for the sentence mark.
Tests hold ``providers._context_sentences``, ``prompting.strip_citations``
and ``adherence.split_sentences`` to them. ``reference_context_sentences``
is also the oracle for the memoized scan: it keeps no memo, so replies of
a ``ScriptedGenerator`` that has seen a prompt's lines before are checked
against a scan from scratch.
"""

from __future__ import annotations

import re

_SENTENCE_RE = re.compile(r"[A-Z][^.!?\n]*[.!]")
_BLOCK_HEADER_RE = re.compile(
    r"^(Page \d+-\d+:|Context:|Text chunks:|Implicit question \d+: .*|Question:|#.*)$"
)


def reference_context_sentences(prompt: str) -> list[str]:
    marker = "Text chunks:"
    idx = prompt.find(marker)
    if idx < 0:
        return []
    body = prompt[idx + len(marker):]
    kept = [ln for ln in body.splitlines() if not _BLOCK_HEADER_RE.match(ln.strip())]
    seen: set[str] = set()
    sentences: list[str] = []
    for m in _SENTENCE_RE.finditer("\n".join(kept)):
        s = " ".join(m.group(0).split())
        if s not in seen:
            seen.add(s)
            sentences.append(s)
    return sentences


_BRACKETED = re.compile(r"\[[^\[\]]*\]")
_PARENTHESIZED = re.compile(r"\(([^()]*)\)")
_SOURCE_WORDS = re.compile(r"\bpages?\b|\bpp?\.", re.IGNORECASE)


def reference_strip_citations(text: str, textbook_title: str | None = None) -> str:
    def drop_source_parens(m: re.Match) -> str:
        inner = m.group(1)
        if _SOURCE_WORDS.search(inner):
            return ""
        if textbook_title and textbook_title.lower() in inner.lower():
            return ""
        return m.group(0)

    out = text
    while True:
        cleaned = _BRACKETED.sub("", out)
        cleaned = _PARENTHESIZED.sub(drop_source_parens, cleaned)
        if cleaned == out:
            break
        out = cleaned
    out = re.sub(r" {2,}", " ", out)
    out = re.sub(r" +([.,;:!?])", r"\1", out)
    out = re.sub(r" +$", "", out, flags=re.MULTILINE)
    return out


_LOOK_BEHIND_SPLIT = re.compile(r"(?<=[.!?])\s+")


def reference_split_sentences(text: str) -> list[str]:
    return [s for s in _LOOK_BEHIND_SPLIT.split(text.strip()) if s.strip()]
