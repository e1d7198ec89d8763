"""Frozen plain form of the evaluate stage's clause scoring.

The library scores each distinct explanation sentence once per source
index, takes a source sentence's clause from the index's own extraction,
embeds each distinct part text once per call, matches a corpus's new
clauses in blocks of one (clauses x source clauses) array, and ranks each
block in one array operation. This scorer does none of that: it has no
memo, no batch and no block. Per explanation clause, each part text is
embedded on its own and scored against its part's source matrix with one
``matrix @ v``; an empty part scores 1.0 against an empty source part and
0.0 against any other. The per-part scores of each source clause are summed
left to right and divided by the number of parts, a Python ``max`` picks the
best score, the smallest key among the source clauses tied at it, and the
clamped best similarities give the ratio of those at least ``t``.

It scores text whose citation markers ``strip_citations`` has removed, and
reuses ``extract_clauses`` and, through it, ``split_sentences``: tests pin
those on their own, against ``tests/text_reference.py`` and the regex
extractor of ``tests/test_adherence.py``.
"""

from __future__ import annotations

import numpy as np

from coi_rag.adherence import MATCHING_PARTS, extract_clauses


class ReferenceSource:
    """The clauses of one source text, each part of each clause embedded alone."""

    def __init__(self, text: str, embedder, mode: str):
        self.parts = MATCHING_PARTS[mode]
        self.clauses = extract_clauses(text)
        self.keys = [f"src:{i}" for i in range(len(self.clauses))]
        self.texts = [[part(c) for c in self.clauses] for part in self.parts]
        self.matrices = [
            np.vstack([embed_alone(embedder, t) if t.strip() else np.zeros(embedder.dims) for t in column])
            for column in self.texts
        ]


def embed_alone(embedder, text: str) -> np.ndarray:
    return embedder.embed([text])[0]


def reference_best_match(clause, source: ReferenceSource, embedder) -> tuple[str, float]:
    """(smallest key among the best-scoring source clauses, clamped similarity)."""
    per_part = []
    for part, matrix, column in zip(source.parts, source.matrices, source.texts):
        text = part(clause)
        if text.strip():
            per_part.append((matrix @ embed_alone(embedder, text)).tolist())
        else:
            per_part.append([1.0 if not t.strip() else 0.0 for t in column])
    sims = []
    for j in range(len(source.clauses)):
        total = per_part[0][j]
        for scores in per_part[1:]:
            total += scores[j]
        sims.append(total / len(source.parts))
    best = max(sims)
    key = min(k for k, s in zip(source.keys, sims) if s == best)
    return key, min(1.0, max(0.0, best))


def reference_score(text: str, source: ReferenceSource, embedder, t: float) -> dict | None:
    """The report fields of one citation-stripped explanation; None when it has no clause."""
    sims = [reference_best_match(c, source, embedder)[1] for c in extract_clauses(text)]
    if not sims:
        return None
    adherent = sum(1 for s in sims if s >= t)
    return {
        "threshold": t,
        "factscore": adherent / len(sims),
        # numpy's pairwise sum, as the report's mean is defined.
        "mean_similarity": float(np.mean(sims)),
        "adherent_count": adherent,
        "clause_count": len(sims),
        "word_count": len(text.split()),
    }
