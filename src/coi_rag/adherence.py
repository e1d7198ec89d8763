"""Clause-level source-adherence metrics.

An explanation is decomposed into subject-predicate-object clauses, each
clause is matched against the clauses of the evidence source by embedding
similarity, and the scores are summarized as a thresholded adherence ratio
(the share of clauses whose best match clears ``t``), a mean similarity,
and an adherent-clause count.

A matching mode is the list of clause parts it compares (``MATCHING_PARTS``).
It is fixed when the source index is built, which embeds only those parts;
``match_clauses`` scores every mode with one loop, each distinct tuple
of part texts once per source index, and each distinct part text once
per call. ``evaluate_text`` extracts each distinct sentence once per
source index.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .vector_index import VectorIndex, clamp01

# ---------------------------------------------------------------------------
# Clause extraction
# ---------------------------------------------------------------------------

_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")
# Stripped from the start and the end of each token and clause part.
_LEAD_PUNCT = "\"'(["
_TRAIL_PUNCT = "\"')].,!?;:"

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
    return token.lstrip(_LEAD_PUNCT).rstrip(_TRAIL_PUNCT)


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


def extract_clauses(
    text: str,
    sentence_offset: int = 0,
    memo: dict[str, tuple[str, str, str] | None] | None = None,
) -> list[Clause]:
    """Rule-based clause extraction.

    Per sentence: find the first verb-like token (closed-class lexicon plus
    -s/-ed/-ing suffix heuristics) that has at least one token before it;
    the tokens before it become the subject, the maximal run of verb-like
    tokens the predicate, and the remainder the object. Sentences with no
    such token yield no clause. A clause's ``sentence_index`` is its
    sentence's position in ``text`` plus ``sentence_offset``. ``memo`` maps
    each sentence already seen to its (subject, predicate, object), or None,
    so a sentence is split into parts once per memo; without one, each call
    uses a fresh memo. An LLM-backed extractor can replace this one anywhere
    a ``clause_extractor`` callable is accepted; the output contract is the
    same.
    """
    return _clauses(split_sentences(text), sentence_offset, {} if memo is None else memo)


def _clauses(sentences: list[str], offset: int, memo: dict) -> list[Clause]:
    clauses = []
    for si, sentence in enumerate(sentences):
        if sentence in memo:
            parts = memo[sentence]
        else:
            parts = memo[sentence] = _sentence_parts(sentence)
        if parts is not None:
            clauses.append(Clause(*parts, sentence_index=offset + si))
    return clauses


def _sentence_parts(sentence: str) -> tuple[str, str, str] | None:
    """The (subject, predicate, object) of one sentence; None when it has no clause."""
    tokens = sentence.split()
    verb_at = next((i for i in range(1, len(tokens)) if _is_verb_like(tokens[i])), None)
    if verb_at is None:
        return None
    verb_end = verb_at + 1
    while verb_end < len(tokens) and _is_verb_like(tokens[verb_end]):
        verb_end += 1
    subject = _strip_span(tokens[:verb_at])
    predicate = _strip_span(tokens[verb_at:verb_end])
    if not subject or not predicate:
        return None
    return subject, predicate, _strip_span(tokens[verb_end:])


def _strip_span(tokens: Sequence[str]) -> str:
    return " ".join(tokens).lstrip(_LEAD_PUNCT).rstrip(_TRAIL_PUNCT).strip()


# ---------------------------------------------------------------------------
# Source clause index and matching
# ---------------------------------------------------------------------------


# The clause parts each matching mode compares. The first part of every
# mode is never empty, so its matrix doubles as the ranking index.
MATCHING_PARTS: dict[str, tuple[Callable[[Clause], str], ...]] = {
    "whole_clause": (Clause.render,),
    "component_weighted": (attrgetter("subject"), attrgetter("predicate"), attrgetter("object")),
}


class SourceClauseIndex:
    """Clauses of the evidence source, embedded for one matching mode.

    Only the parts ``MATCHING_PARTS[mode]`` compares are embedded: one
    matrix per part with one row per clause, where an empty part is the
    zero vector and is 1.0 in that part's empty mask. ``index`` ranks the
    clauses and shares the first part's matrix. ``best`` memoises
    ``match_clauses``: it maps each distinct tuple of an AI clause's part
    texts to its best (key, raw score), so each tuple is ranked once per
    index however many explanations repeat it. The tuples one call has
    not seen share their part texts: each distinct (part, text) among
    them is embedded and scored once per call, and no per-part score is
    kept on the index.
    ``extracted`` is the ``extract_clauses`` memo ``evaluate_text`` passes,
    so each distinct explanation sentence is split into parts once per
    index. Both memos live as long as the index, typically one evaluate
    stage, and hold only what it scored.
    """

    def __init__(self, clauses: list[Clause], embedder, mode: str = "whole_clause"):
        if mode not in MATCHING_PARTS:
            raise ValueError(f"unknown matching mode: {mode}")
        if not clauses:
            raise ValueError("source produced no clauses to index")
        self.clauses = clauses
        self.keys = [f"src:{i}" for i in range(len(clauses))]
        self.parts = MATCHING_PARTS[mode]
        first, *rest = self.parts
        self.index = VectorIndex(self.keys, embedder.embed([first(c) for c in clauses]), clauses)
        self.matrices = [self.index.vectors]
        for part in rest:
            texts = [part(c) for c in clauses]
            mat = np.zeros((len(clauses), self.index.dims))
            nonempty = [i for i, t in enumerate(texts) if t.strip()]
            if nonempty:  # an embedder may reject an empty batch
                mat[nonempty] = embedder.embed([texts[i] for i in nonempty])
            self.matrices.append(mat)
        self.empty = [np.array([float(not p(c).strip()) for c in clauses]) for p in self.parts]
        self.best: dict[tuple[str, ...], tuple[str, float]] = {}
        self.extracted: dict[str, tuple[str, str, str] | None] = {}

    def __len__(self) -> int:
        return len(self.clauses)


def build_source_index(texts: Iterable[str], embedder, mode: str = "whole_clause") -> SourceClauseIndex:
    """Extract and index clauses from source texts (typically one document)."""
    clauses: list[Clause] = []
    offset = 0
    for text in texts:
        sentences = split_sentences(text)
        clauses.extend(_clauses(sentences, offset, {}))
        offset += len(sentences)
    return SourceClauseIndex(clauses, embedder, mode)


@dataclass(frozen=True)
class ClauseMatch:
    ai_clause: Clause
    best_source_clause_id: str
    similarity: float  # max over the source index, clamped to [0, 1]


def match_clauses(ai: list[Clause], source: SourceClauseIndex, embedder) -> list[ClauseMatch]:
    """Best source-clause similarity for each AI clause.

    A clause's similarity to a source clause is the mean over the parts
    of ``source``'s matching mode of the per-part cosines, where an empty
    part matches an empty part with 1.0 and anything else with 0.0. For
    ``whole_clause`` that is the cosine between full "{subject}
    {predicate} {object}" renderings. ``VectorIndex.rank`` picks the
    best source clause, so a tie goes to the smaller key. Each distinct
    tuple of part texts is scored once per ``source``: only tuples that
    ``source.best`` has not seen are ranked. Within one call, each distinct
    non-empty (part, text) of those tuples is embedded and scored against
    its part's matrix once, in order of first appearance; the part scores
    are dropped when the call returns.
    """
    if not ai:
        return []
    keys = [tuple(part(c) for part in source.parts) for c in ai]
    unseen = [k for k in dict.fromkeys(keys) if k not in source.best]
    if unseen:  # the first part is never empty, so the embedded batch is not either
        pairs = list(dict.fromkeys((p, t) for k in unseen for p, t in enumerate(k) if t.strip()))
        vectors = embedder.embed([t for _, t in pairs])
        scores = {(p, t): source.matrices[p] @ v for (p, t), v in zip(pairs, vectors, strict=True)}
        for texts in unseen:
            sims = sum(  # part by part, left to right: no BLAS reordering to flip a threshold
                scores[p, t] if t.strip() else empty  # empty-vs-empty agrees
                for p, (t, empty) in enumerate(zip(texts, source.empty))
            )
            source.best[texts] = source.index.rank(sims / len(texts), 1)[0]
    return [ClauseMatch(c, source.best[k][0], clamp01(source.best[k][1])) for c, k in zip(ai, keys)]


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
    t: float = 0.7,
) -> AdherenceReport | None:
    """Score one explanation against a source; None when unevaluable.

    The caller is expected to strip citation markers first so page
    references do not distort similarity.
    """
    clauses = extract_clauses(text, memo=source.extracted)
    if not clauses:
        return None
    matches = match_clauses(clauses, source, embedder)
    return AdherenceReport(
        threshold=t,
        factscore=factscore(matches, t),
        mean_similarity=mean_similarity(matches),
        adherent_count=adherent_count(matches, t),
        clause_count=len(matches),
        word_count=len(text.split()),
    )
