"""Clause-level source-adherence metrics.

An explanation is decomposed into subject-predicate-object clauses, each
clause is matched against the clauses of the evidence source by embedding
similarity, and the scores are summarized as a thresholded adherence ratio
(the share of clauses whose best match clears ``t``), a mean similarity,
and an adherent-clause count.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .vector_index import VectorIndex, clamp01

# ---------------------------------------------------------------------------
# Clause extraction
# ---------------------------------------------------------------------------

_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")
_EDGE_PUNCT = re.compile(r"^[\"'\(\[]+|[\"'\)\]\.,!?;:]+$")

# Closed-class verbs: auxiliaries, modals, and frequent irregulars that the
# suffix rules below would miss.
_VERB_LEXICON = {
    "am", "is", "are", "was", "were", "be", "been", "being",
    "has", "have", "had", "having",
    "do", "does", "did", "doing",
    "will", "would", "shall", "should", "can", "could", "may", "might", "must",
    "go", "goes", "went", "gone",
    "make", "makes", "made",
    "say", "says", "said",
    "see", "sees", "saw", "seen",
    "take", "takes", "took", "taken",
    "get", "gets", "got", "gotten",
    "put", "puts", "set", "sets", "let", "lets",
    "run", "runs", "ran",
    "give", "gives", "gave", "given",
    "keep", "keeps", "kept",
    "hold", "holds", "held",
    "mean", "means", "meant",
    "become", "becomes", "became",
    "write", "writes", "wrote", "written",
    "read", "reads",
    "stand", "stands", "stood",
    "begin", "begins", "began", "begun",
}


def _clean(token: str) -> str:
    return _EDGE_PUNCT.sub("", token)


def _is_verb_like(token: str) -> bool:
    word = _clean(token).lower()
    if not word or not word.isalpha():
        return False
    if word in _VERB_LEXICON:
        return True
    if len(word) > 3 and word.endswith("ed"):
        return True
    if len(word) > 4 and word.endswith("ing"):
        return True
    if len(word) > 2 and word.endswith("s") and not word.endswith("ss"):
        return True
    return False


@dataclass(frozen=True)
class Clause:
    """A subject-predicate-object triple; object may be empty."""

    subject: str
    predicate: str
    object: str
    sentence_index: int

    def __post_init__(self) -> None:
        if not self.subject.strip() or not self.predicate.strip():
            raise ValueError("clause subject and predicate must be non-empty")

    def render(self) -> str:
        return " ".join(part for part in (self.subject, self.predicate, self.object) if part)


def split_sentences(text: str) -> list[str]:
    return [s for s in _SENTENCE_SPLIT.split(text.strip()) if s.strip()]


def extract_clauses(text: str, sentence_offset: int = 0) -> list[Clause]:
    """Rule-based clause extraction.

    Per sentence: find the first verb-like token (closed-class lexicon plus
    -s/-ed/-ing suffix heuristics) that has at least one token before it;
    the tokens before it become the subject, the maximal run of verb-like
    tokens the predicate, and the remainder the object. Sentences with no
    such token yield no clause. An LLM-backed extractor can replace this
    one anywhere a ``clause_extractor`` callable is accepted; the output
    contract is the same.
    """
    clauses: list[Clause] = []
    for si, sentence in enumerate(split_sentences(text)):
        tokens = sentence.split()
        verb_at = None
        for i in range(1, len(tokens)):
            if _is_verb_like(tokens[i]):
                verb_at = i
                break
        if verb_at is None:
            continue
        verb_end = verb_at + 1
        while verb_end < len(tokens) and _is_verb_like(tokens[verb_end]):
            verb_end += 1
        subject = _strip_span(tokens[:verb_at])
        predicate = _strip_span(tokens[verb_at:verb_end])
        obj = _strip_span(tokens[verb_end:])
        if not subject or not predicate:
            continue
        clauses.append(
            Clause(
                subject=subject,
                predicate=predicate,
                object=obj,
                sentence_index=sentence_offset + si,
            )
        )
    return clauses


def _strip_span(tokens: Sequence[str]) -> str:
    joined = " ".join(tokens).strip()
    return _EDGE_PUNCT.sub("", joined).strip()


# ---------------------------------------------------------------------------
# Source clause index and matching
# ---------------------------------------------------------------------------


class SourceClauseIndex:
    """Clauses of the evidence source with whole and per-part embeddings.

    Whole-clause matching needs one vector per source clause; the
    component-weighted mode needs separate subject/predicate/object
    vectors, where an empty part is the zero vector and is 1.0 in its mask.
    """

    def __init__(self, clauses: list[Clause], embedder):
        if not clauses:
            raise ValueError("source produced no clauses to index")
        self.clauses = clauses
        self.keys = [f"src:{i}" for i in range(len(clauses))]
        self.whole = VectorIndex(
            self.keys, embedder.embed([c.render() for c in clauses]), clauses
        )
        self._parts = {}
        for part in ("subject", "predicate", "object"):
            texts = [getattr(c, part) for c in clauses]
            mat = np.zeros((len(clauses), self.whole.dims))
            nonempty = [i for i, t in enumerate(texts) if t.strip()]
            if nonempty:
                mat[nonempty] = embedder.embed([texts[i] for i in nonempty])
            self._parts[part] = (mat, np.array([0.0 if t.strip() else 1.0 for t in texts]))

    def __len__(self) -> int:
        return len(self.clauses)


def build_source_index(texts: Iterable[str], embedder) -> SourceClauseIndex:
    """Extract and index clauses from source texts (typically one document)."""
    clauses: list[Clause] = []
    offset = 0
    for text in texts:
        extracted = extract_clauses(text, sentence_offset=offset)
        clauses.extend(extracted)
        offset += len(split_sentences(text))
    return SourceClauseIndex(clauses, embedder)


@dataclass(frozen=True)
class ClauseMatch:
    ai_clause: Clause
    best_source_clause_id: str
    similarity: float  # max over the source index, clamped to [0, 1]


def match_clauses(
    ai: list[Clause],
    source: SourceClauseIndex,
    embedder,
    mode: str = "whole_clause",
) -> list[ClauseMatch]:
    """Best source-clause similarity for each AI clause.

    ``whole_clause``: cosine between full "{subject} {predicate} {object}"
    renderings. ``component_weighted``: per source clause, the mean of the
    three per-part cosines (an empty part matches an empty part with 1.0
    and anything else with 0.0); the maximum over source clauses wins.
    ``VectorIndex.rank`` picks it, so a tie goes to the smaller key.
    """
    if len(source) == 0:
        raise ValueError("source clause index is empty")
    if mode not in ("whole_clause", "component_weighted"):
        raise ValueError(f"unknown matching mode: {mode}")
    if not ai:
        return []

    if mode == "whole_clause":
        vectors = embedder.embed([c.render() for c in ai])
        best = [source.whole.top_k(vec, 1)[0] for vec in vectors]
    else:
        parts = ("subject", "predicate", "object")
        texts = [getattr(c, part) for c in ai for part in parts]
        vectors = iter(embedder.embed([t for t in texts if t.strip()]))
        best = []
        for clause in ai:
            sims = np.zeros(len(source))
            for part in parts:
                mat, src_empty = source._parts[part]
                if getattr(clause, part).strip():
                    sims += mat @ next(vectors)
                else:
                    sims += src_empty  # empty-vs-empty agrees
            sims /= 3.0
            best.append(source.whole.rank(sims, 1)[0])
    return [ClauseMatch(c, key, clamp01(score)) for c, (key, score) in zip(ai, best)]


# ---------------------------------------------------------------------------
# Scores
# ---------------------------------------------------------------------------


def factscore(matches: Sequence[ClauseMatch], t: float = 0.7) -> float:
    """Share of clauses whose best source similarity is at least ``t``."""
    if not matches:
        raise ValueError("no clause matches: explanation is unevaluable, not score 0")
    if not 0.0 <= t <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    return adherent_count(matches, t) / len(matches)


def adherent_count(matches: Sequence[ClauseMatch], t: float = 0.7) -> int:
    if not matches:
        raise ValueError("no clause matches: explanation is unevaluable")
    return sum(1 for m in matches if m.similarity >= t)


def mean_similarity(matches: Sequence[ClauseMatch]) -> float:
    if not matches:
        raise ValueError("no clause matches: explanation is unevaluable")
    return float(np.mean([m.similarity for m in matches]))


def threshold_sweep(
    matches: Sequence[ClauseMatch], ts: Sequence[float]
) -> list[tuple[float, float]]:
    """Adherence ratio at each threshold; non-increasing in ``t``."""
    if list(ts) != sorted(ts):
        raise ValueError("thresholds must be sorted ascending")
    return [(t, factscore(matches, t)) for t in ts]


@dataclass(frozen=True)
class AdherenceReport:
    question_id: str
    mode: str
    threshold: float
    factscore: float
    mean_similarity: float
    adherent_count: int
    clause_count: int
    word_count: int

    def __post_init__(self) -> None:
        if self.clause_count < 1:
            raise ValueError("report requires at least one clause")
        if self.adherent_count > self.clause_count:
            raise ValueError("adherent_count cannot exceed clause_count")


def evaluate_text(
    text: str,
    source: SourceClauseIndex,
    embedder,
    question_id: str = "",
    mode_label: str = "",
    t: float = 0.7,
    matching: str = "whole_clause",
) -> AdherenceReport | None:
    """Score one explanation against a source; None when unevaluable.

    The caller is expected to strip citation markers first so page
    references do not distort similarity.
    """
    clauses = extract_clauses(text)
    if not clauses:
        return None
    matches = match_clauses(clauses, source, embedder, mode=matching)
    return AdherenceReport(
        question_id=question_id,
        mode=mode_label,
        threshold=t,
        factscore=factscore(matches, t),
        mean_similarity=mean_similarity(matches),
        adherent_count=adherent_count(matches, t),
        clause_count=len(matches),
        word_count=len(text.split()),
    )
