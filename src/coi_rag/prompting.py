"""Prompt assembly for the three generation modes, and display cleanup.

Modes: ``genai`` (no retrieval), ``rag`` (primary-question retrieval), and
``rag_coi`` (primary retrieval plus implicit question-context pairs from an
illocution plan). Every mode decodes with ``providers.DECODING``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .corpus import Chunk
from .planner import IllocutionPlan
from .providers import GenerationResult
from .records import QuestionRecord
from .templates import GENAI_TEMPLATE, RAG_TEMPLATE, fill

MODES = ("genai", "rag", "rag_coi")


@dataclass(frozen=True)
class PromptBundle:
    text: str
    retrieved_chunk_ids: tuple[str, ...] = ()


def _chunk_block(c: Chunk) -> str:
    first, last = c.page_span
    return f"Page {first}-{last}:\n{c.text}"


def render_contents(chunks: list[Chunk]) -> str:
    return "\n\n".join(_chunk_block(c) for c in chunks)


def assemble_genai(q: QuestionRecord) -> PromptBundle:
    """Direct-questioning prompt; no retrieved material is referenced."""
    text = fill(GENAI_TEMPLATE, topic=q.title, body=q.body)
    return PromptBundle(text=text)


def assemble_rag(q: QuestionRecord, textbook_title: str, chunks: list[Chunk]) -> PromptBundle:
    """Retrieval prompt over the primary question's chunks."""
    if not chunks:
        raise ValueError("rag mode needs at least one chunk; fall back to genai explicitly")
    text = fill(
        RAG_TEMPLATE,
        textbook=textbook_title,
        topic=q.title,
        body=q.body,
        contents=render_contents(chunks),
    )
    return PromptBundle(text=text, retrieved_chunk_ids=tuple(c.id for c in chunks))


def assemble_rag_coi(
    q: QuestionRecord,
    textbook_title: str,
    primary_chunks: list[Chunk],
    plan: IllocutionPlan,
) -> PromptBundle:
    """Retrieval prompt extended with the plan's question-context pairs.

    Each selected implicit question contributes a block appended after the
    primary contents section, in plan (descending best-score) order. With
    an empty plan the text is byte-identical to :func:`assemble_rag`.
    """
    if not primary_chunks and not plan.selected:
        raise ValueError("rag_coi needs primary chunks or a non-empty plan")
    sections = [render_contents(primary_chunks)] if primary_chunks else []
    for i, sel in enumerate(plan.selected, start=1):
        block = (
            f"Implicit question {i}: {sel.question.text}\n"
            "Context:\n"
            + render_contents([c for c, _ in sel.chunks])
        )
        sections.append(block)
    text = fill(
        RAG_TEMPLATE,
        textbook=textbook_title,
        topic=q.title,
        body=q.body,
        contents="\n\n".join(sections),
    )
    chunk_ids = [c.id for c in primary_chunks] + plan.chunk_ids()
    return PromptBundle(text=text, retrieved_chunk_ids=tuple(chunk_ids))


def generate(bundle: PromptBundle, provider) -> GenerationResult:
    """Run one chat completion for a bundle; responses are cached upstream."""
    return provider.complete(bundle.text)


# ---------------------------------------------------------------------------
# Display cleanup
# ---------------------------------------------------------------------------

_BRACKETED = re.compile(r"\[[^\[\]]*\]")
_PARENTHESIZED = re.compile(r"\(([^()]*)\)")
_SOURCE_WORDS = re.compile(r"\bpages?\b|\bpp?\.", re.IGNORECASE)
_SPACE_RUN = re.compile(r" {2,}")
_SPACE_BEFORE_PUNCT = re.compile(r" +([.,;:!?])")
_TRAILING_SPACES = re.compile(r" +$", re.MULTILINE)
# A space before a space, a mark or a line end: where any of the three passes matches.
_UNTIDY = re.compile(r" [ .,;:!?]| $", re.MULTILINE)


def _tidy_spaces(text: str) -> str:
    """Collapse space runs, drop spaces before punctuation and at line ends.

    One ``_UNTIDY`` search decides whether the passes run: text it does not
    match has nothing for any pass to change, and most explanations are
    such text.
    """
    if _UNTIDY.search(text) is None:
        return text
    text = _SPACE_RUN.sub(" ", text)
    text = _SPACE_BEFORE_PUNCT.sub(r"\1", text)
    return _TRAILING_SPACES.sub("", text)


def strip_citations(text: str, textbook_title: str | None = None) -> str:
    """Remove citation markers before display or clause extraction.

    Square-bracketed spans go unconditionally; parenthesized spans go only
    when their content looks like a source annotation (mentions pages or
    the textbook title), so math like "f(x)" survives.

    The markers are removed until none is left, one nesting level per pass;
    then the spaces are tidied. Tidying can form a new marker (``"(pp .3)"``
    becomes ``"(pp.3)"``), so both steps repeat until neither changes the
    text. The result is therefore a fixed point: stripping it again returns
    it unchanged.
    """

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
            cleaned = _tidy_spaces(out)
            if cleaned == out:
                return out
        out = cleaned
