"""Illocution planning: pick implicit questions and assign them evidence.

Given a primary question, the planner over-generates a candidate pool of
implicit questions (bank retrieval plus "What is {X}?" templates), fetches
supporting chunks for each, deduplicates chunks so each belongs to exactly
one candidate, and keeps the best few candidates as the explanatory
scaffold for prompt assembly. One embedding call covers the primary query
and its template questions. The query's row serves the bank search and
the primary question's own chunk retrieval, whose overlap with the
scaffold the plan records; that retrieval and every candidate's are one
batched search. ``IllocutionPlan.to_json``/
``from_json`` own the plan format that ``plans.jsonl`` stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .corpus import Chunk
from .question_bank import QuestionBank, template_questions
from .records import QuestionRecord
from .vector_index import VectorIndex


@dataclass(frozen=True)
class CandidateQuestion:
    text: str
    origin: str  # "bank" or "template"

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("candidate question text must be non-empty")


@dataclass(frozen=True)
class SelectedQuestion:
    question: CandidateQuestion
    chunks: tuple[tuple[Chunk, float], ...]  # non-empty, scores descending

    @property
    def best_score(self) -> float:
        return self.chunks[0][1]


@dataclass
class IllocutionPlan:
    primary: QuestionRecord
    selected: list[SelectedQuestion] = field(default_factory=list)
    # Chunk ids shared between the primary retrieval and the implicit
    # contexts; duplicates there are allowed but worth surfacing.
    primary_overlap_ids: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.selected)

    def chunk_ids(self) -> list[str]:
        return [c.id for sel in self.selected for c, _ in sel.chunks]

    def to_json(self) -> dict:
        return {
            "primary_id": self.primary.id,
            "selected": [
                {
                    "question": sel.question.text,
                    "origin": sel.question.origin,
                    "best_score": sel.best_score,
                    "chunks": [
                        {"id": c.id, "score": score} for c, score in sel.chunks
                    ],
                }
                for sel in self.selected
            ],
            "primary_overlap_ids": self.primary_overlap_ids,
        }

    @classmethod
    def from_json(
        cls, rec: dict, primary: QuestionRecord, chunk_by_id: Callable[[str], Chunk]
    ) -> "IllocutionPlan":
        """Rebuild a plan written by :meth:`to_json` for ``primary``.

        ``chunk_by_id`` looks a chunk up by id (``VectorIndex.payload`` of
        the chunk index).
        """
        selected = [
            SelectedQuestion(
                question=CandidateQuestion(text=sel["question"], origin=sel["origin"]),
                chunks=tuple((chunk_by_id(c["id"]), c["score"]) for c in sel["chunks"]),
            )
            for sel in rec["selected"]
        ]
        return cls(
            primary=primary, selected=selected,
            primary_overlap_ids=list(rec["primary_overlap_ids"]),
        )


def pool_ratio_check(pool_size: int, keep: int) -> bool:
    """True when the candidate pool is at least five times the kept count.

    A configuration lint, not a hard constraint: a thinner pool leaves the
    planner little room to discard unsupported or duplicate candidates.
    """
    return pool_size >= 5 * keep


def plan(
    primary: QuestionRecord,
    bank: QuestionBank,
    chunk_index: VectorIndex,
    embedder,
    pool_size: int = 25,
    per_question_chunks: int = 10,
    keep: int = 5,
) -> IllocutionPlan:
    """Build the explanatory scaffold for one primary question.

    Steps: (1) retrieve the top ``pool_size`` bank questions by cosine to
    the primary query text; (2) append template questions; (3) retrieve up
    to ``per_question_chunks`` chunks per candidate; (4) assign each chunk
    only to the candidate scoring it highest (ties favor earlier pool
    order), dropping candidates left chunkless; (5) rank survivors by best
    remaining chunk score and keep the top ``keep``; (6) record, sorted, the
    kept chunk ids that are also among the primary query text's own top
    ``per_question_chunks`` chunks as ``primary_overlap_ids``.

    With an empty bank and no template labels the plan is empty and
    downstream generation degrades to plain retrieval.

    The query text and the template questions are embedded in one
    ``embedder.embed`` call. The plan stage embeds those of every question
    at once and passes, as ``embedder``, the rows of that call looked up
    by text, so planning a question then sends no request.
    """
    if keep > pool_size:
        raise ValueError("keep must be <= pool_size")
    if len(chunk_index) == 0:
        raise ValueError("chunk index is empty")

    template_texts = template_questions(primary)
    query_vec, *template_vecs = embedder.embed([primary.query_text(), *template_texts])

    # Step 1: candidate pool from the bank; vectors[i] embeds candidates[i].
    candidates: list[CandidateQuestion] = []
    vectors: list[np.ndarray] = []
    if len(bank) > 0:
        for qid, _score in bank.index.top_k(query_vec, pool_size):
            text = bank.index.payload(qid).question
            candidates.append(CandidateQuestion(text=text, origin="bank"))
            vectors.append(bank.index.vector(qid))

    # Step 2: template questions augment the pool.
    candidates += [CandidateQuestion(text=t, origin="template") for t in template_texts]
    vectors += template_vecs

    # Step 3: per-candidate chunk retrieval, in one search that the primary
    # query's own retrieval leads.
    primary_hits, *retrieved = chunk_index.top_k_many(
        np.vstack([query_vec, *vectors]), per_question_chunks
    )
    primary_ids = {cid for cid, _ in primary_hits}

    # Step 4: every chunk goes to the candidate that scores it highest;
    # ties break toward earlier pool order.
    owner: dict[str, tuple[float, int]] = {}
    for ci, hits in enumerate(retrieved):
        for chunk_id, score in hits:
            held = owner.get(chunk_id)
            if held is None or score > held[0]:
                owner[chunk_id] = (score, ci)
    surviving: list[list[tuple[str, float]]] = [
        [(cid, s) for cid, s in hits if owner[cid][1] == ci]
        for ci, hits in enumerate(retrieved)
    ]

    # Step 5: rank by best surviving chunk score, keep the top few.
    ranked = [
        (ci, hits) for ci, hits in enumerate(surviving) if hits
    ]
    ranked.sort(key=lambda item: (-item[1][0][1], item[0]))

    selected = []
    for ci, hits in ranked[:keep]:
        selected.append(
            SelectedQuestion(
                question=candidates[ci],
                chunks=tuple((chunk_index.payload(cid), s) for cid, s in hits),
            )
        )

    # Step 6: kept chunks the primary retrieval also returns.
    p = IllocutionPlan(primary=primary, selected=selected)
    p.primary_overlap_ids = sorted(set(p.chunk_ids()) & primary_ids)
    return p
