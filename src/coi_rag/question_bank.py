"""Offline bank of implicit questions extracted from source chunks."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .adherence import extract_clauses
from .corpus import Chunk
from .records import QuestionRecord, read_jsonl
from .templates import QA_EXTRACTION_TEMPLATE, fill
from .vector_index import VectorIndex, build_index


@dataclass(frozen=True)
class ImplicitQuestion:
    id: str
    question: str
    answer: str
    source_chunk_id: str
    tag: str

    def __post_init__(self) -> None:
        if not self.question.strip():
            raise ValueError("implicit question text must be non-empty")


class QuestionBank:
    """Implicit questions plus a vector index over their texts (key: id, payload: question)."""

    def __init__(self, questions: list[ImplicitQuestion], embedder):
        self.questions = list(questions)
        self.index: VectorIndex | None = None
        if self.questions:
            self.index = build_index([(q.id, q.question, q) for q in self.questions], embedder)

    def __len__(self) -> int:
        return len(self.questions)

    @classmethod
    def load(cls, bank_path: str | Path, embedder) -> "QuestionBank":
        return cls([ImplicitQuestion(**rec) for rec in read_jsonl(bank_path)], embedder)


def parse_qa_lines(response: str) -> tuple[list[tuple[str, str]], int]:
    """Parse dash-prefixed "question? answer" lines from a generator reply.

    Splits each "- ..." line at the first question mark; the question keeps
    it, the answer is what follows, trimmed. Returns the pairs and the
    number of lines that could not be parsed.
    """
    pairs: list[tuple[str, str]] = []
    skipped = 0
    for raw in response.splitlines():
        line = raw.strip()
        if not line.startswith("-"):
            continue
        body = line[1:].strip()
        qmark = body.find("?")
        if qmark < 0 or not body[:qmark].strip():
            skipped += 1
            continue
        question = body[: qmark + 1].strip()
        answer = body[qmark + 1:].strip()
        pairs.append((question, answer))
    return pairs, skipped


def extract_qas(paragraph: str, generator) -> list[tuple[str, str]]:
    """Ask the generator for Q&As over one paragraph and parse its reply."""
    if not paragraph.strip():
        raise ValueError("paragraph must be non-empty")
    result = generator.complete(fill(QA_EXTRACTION_TEMPLATE, sentence=paragraph))
    pairs, _skipped = parse_qa_lines(result.text)
    return pairs


def build_bank(chunks: list[Chunk], generator, tag: str = "") -> list[ImplicitQuestion]:
    """Extract implicit questions from every chunk (a paragraph), unindexed.

    A rerun after a provider failure resumes from the generator's call
    cache, which keys each reply by model and prompt.
    """
    return [
        ImplicitQuestion(
            id=f"{c.id}#q{i}", question=q, answer=a, source_chunk_id=c.id, tag=tag
        )
        for c in chunks
        for i, (q, a) in enumerate(extract_qas(c.text, generator))
    ]


def template_questions(primary: QuestionRecord) -> list[str]:
    """Generate "What is {X}?" questions from the primary question's labels.

    X ranges over the distinct subject and object labels of the clauses
    ``extract_clauses`` finds in the question text, in order of first
    appearance, deduplicated case-insensitively. Only the "what" archetype
    is generated; other templates add too little to be worth their noise.
    """
    labels: dict[str, str] = {}  # lower-cased label -> its first spelling
    for clause in extract_clauses(primary.query_text()):
        for label in (clause.subject, clause.object):
            if cleaned := label.strip().rstrip("?.!,;:"):
                labels.setdefault(cleaned.lower(), cleaned)
    return [f"What is {label}?" for label in labels.values()]
