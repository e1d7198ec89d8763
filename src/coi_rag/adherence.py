"""Clause-level source-adherence metrics.

An explanation is decomposed into subject-predicate-object clauses, each
clause is matched against the clauses of the evidence source by embedding
similarity, and ``AdherenceReport.from_similarities``, the one place the
scores are computed, summarizes the best-match similarities as a
thresholded adherence ratio (the share that clear ``t``), a mean
similarity, and an adherent-clause count.

A matching mode is the list of clause parts it compares (``MATCHING_PARTS``).
It is fixed when the source index is built, which embeds each distinct
text of only those parts once, all in one call; ``match_clauses`` scores
every mode the same way: it embeds each distinct part text once per call,
and scores the clauses in blocks of bounded size, each block one (clauses
x source clauses) array from which one ``VectorIndex.rank_many`` call
picks every clause's best source clause.
``evaluate_text`` extracts, scores and counts the words of each distinct
explanation sentence once per source index, taking a sentence the source
text holds from the index's own extraction, and remembers the results,
and the error of a scoring call that failed, on the index. Its two steps,
``extract_sentences`` and ``score_sentences``, let a stage extract many
explanations first and match all their new clauses in one
``match_pending`` call before it scores each explanation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .providers import ProviderError
from .vector_index import VectorIndex, clamp01, row_scores

# ---------------------------------------------------------------------------
# Clause extraction
# ---------------------------------------------------------------------------

_SENTENCE_END = re.compile(r"([.!?])\s+")
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


# Memoised: a run's sentences repeat a few hundred distinct tokens thousands of times.
@lru_cache(maxsize=8192)
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
    """The sentences of ``text``, cut after each ``.``, ``!`` or ``?`` that whitespace follows."""
    # Sentence bodies alternate with the marks that end them; the last body has none.
    parts = _SENTENCE_END.split(text.strip())
    sentences = [body + mark for body, mark in zip(parts[::2], parts[1::2])]
    if parts[-1]:
        sentences.append(parts[-1])
    return sentences


def extract_clauses(text: str) -> list[Clause]:
    """Rule-based clause extraction, the one extractor that plans and scores use.

    Per sentence: find the first verb-like token (closed-class lexicon plus
    -s/-ed/-ing suffix heuristics) that has at least one token before it;
    the tokens before it become the subject, the maximal run of verb-like
    tokens the predicate, and the remainder the object. Sentences with no
    such token yield no clause. A clause's ``sentence_index`` is its
    sentence's position in ``text``.
    """
    return _clauses(map(_sentence_parts, split_sentences(text)))


def _clauses(parts: Iterable[tuple[str, str, str] | None]) -> list[Clause]:
    """A clause for each sentence of a text that has one, from each sentence's ``_sentence_parts``."""
    return [Clause(*p, sentence_index=si) for si, p in enumerate(parts) if p is not None]


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

    Only the parts ``MATCHING_PARTS[mode]`` compares are embedded: each
    distinct non-empty text of any of them once, in one ``embedder.embed``
    call, in the order the part columns first hold it. Each part has one
    matrix with one row per clause, gathered from those rows, where an
    empty part is the zero vector and is 1.0 in that part's empty mask.
    ``index`` ranks the clauses by key (``src:<position>``), shares the
    first part's matrix and holds no payloads. ``scored``, ``pending``,
    ``failed`` and ``word_counts`` are the memos of ``extract_sentences``,
    ``match_pending`` and ``score_sentences``: ``word_counts`` maps each
    explanation sentence seen against this index to its number of
    whitespace-separated words; ``pending`` maps a seen sentence that has a
    clause to that clause until a ``match_pending`` call scores it;
    ``scored`` maps a sentence to its ``match_clauses`` pair, or to None
    when it has no clause; and ``failed`` maps the tuple of sentences of a
    ``score_sentences`` match that raised ``ProviderError`` to that error;
    a failed match of all pending sentences at once is not kept there, so
    each explanation then tries its own. So each distinct sentence is
    extracted, matched and split once per index however many explanations
    repeat it, and a failed call is not sent again for the same sentences.
    They live as long as the index, typically one evaluate stage.
    ``sentence_parts``, which ``build_source_index`` fills, maps each
    sentence of the source text to its ``_sentence_parts``, or None, so
    ``extract_sentences`` extracts only the explanation sentences that the
    source lacks.
    """

    def __init__(self, clauses: list[Clause], embedder, mode: str = "whole_clause"):
        if mode not in MATCHING_PARTS:
            raise ValueError(f"unknown matching mode: {mode}")
        if not clauses:
            raise ValueError("source produced no clauses to index")
        self.clauses = clauses
        self.keys = [f"src:{i}" for i in range(len(clauses))]
        self.parts = MATCHING_PARTS[mode]
        columns = [[part(c) for c in clauses] for part in self.parts]
        # One call for every part; the first part is never empty, so the batch is not either.
        texts = list(dict.fromkeys(t for column in columns for t in column if t.strip()))
        vectors = embedder.embed(texts)
        # An empty part reads the zero row appended after the embedded ones.
        padded = np.vstack([vectors, np.zeros((1, vectors.shape[1]))])
        row_of = {t: i for i, t in enumerate(texts)}
        self.matrices = [padded[[row_of.get(t, len(texts)) for t in column]] for column in columns]
        self.index = VectorIndex(self.keys, self.matrices[0])
        self.empty = [np.array([float(not t.strip()) for t in column]) for column in columns]
        self.scored: dict[str, tuple[str, float] | None] = {}
        self.pending: dict[str, Clause] = {}
        self.failed: dict[tuple[str, ...], ProviderError] = {}
        self.word_counts: dict[str, int] = {}
        self.sentence_parts: dict[str, tuple[str, str, str] | None] = {}

    def __len__(self) -> int:
        return len(self.clauses)


def build_source_index(text: str, embedder, mode: str = "whole_clause") -> SourceClauseIndex:
    """Extract and index the clauses of one source text, typically a document.

    Each distinct sentence of ``text`` is extracted once, and its parts are
    kept in the index's ``sentence_parts``.
    """
    # Not through ``extract_clauses``: a wrapped one sees only other calls.
    sentences = split_sentences(text)
    parts = {s: _sentence_parts(s) for s in dict.fromkeys(sentences)}
    source = SourceClauseIndex(_clauses(map(parts.__getitem__, sentences)), embedder, mode)
    source.sentence_parts = parts
    return source


# Score cells (clauses x source clauses) of one block of ``match_clauses``:
# only one block's score arrays are alive at a time, however many
# explanations share the call and however long the source is.
MATCH_BLOCK_CELLS = 1 << 18


def match_clauses(ai: list[Clause], source: SourceClauseIndex, embedder) -> list[tuple[str, float]]:
    """(best source key, clamped similarity) for each AI clause, in order.

    A clause's similarity to a source clause is the mean over the parts
    of ``source``'s matching mode of the per-part cosines, where an empty
    part matches an empty part with 1.0 and anything else with 0.0. For
    ``whole_clause`` that is the cosine between full "{subject}
    {predicate} {object}" renderings. Within one call, each distinct
    non-empty (part, text) is embedded once, in order of first appearance.
    The clauses are scored in blocks of ``MATCH_BLOCK_CELLS // len(source)``
    of them: within a block, each distinct (part, text) is scored against
    its part's matrix once, each score row the product ``matrix @ v``
    would give, so repeated clauses get equal pairs. The scores of a
    block's clauses form one (clauses x source clauses) array, summed part
    by part, and one ``VectorIndex.rank_many`` call picks each clause's
    best source clause from it, a tie going to the smaller key. No pair
    depends on the other clauses of its block or call. Nothing is kept
    between calls: ``match_pending`` remembers each sentence's result.
    """
    if not ai:
        return []
    texts = [tuple(part(c) for part in source.parts) for c in ai]
    # The first part is never empty, so the embedded batch is not either.
    pairs = list(dict.fromkeys((p, t) for k in texts for p, t in enumerate(k) if t.strip()))
    vectors = embedder.embed([t for _, t in pairs])
    row_of = {pair: i for i, pair in enumerate(pairs)}
    matches = []
    size = max(1, MATCH_BLOCK_CELLS // len(source))
    for start in range(0, len(texts), size):
        block = texts[start:start + size]
        for p, (matrix, empty) in enumerate(zip(source.matrices, source.empty)):
            # One row per distinct text of the part, in the order of the block's
            # clauses that first hold it: row j is clause j's unless some
            # clauses share a text or leave the part empty.
            slot = {t: j for j, t in enumerate(dict.fromkeys(k[p] for k in block if k[p].strip()))}
            rows = [row_of[p, t] for t in slot]
            first = rows[0] if rows else 0
            # Consecutive rows, as when every clause has a text of its own, are read in place.
            in_place = rows == list(range(first, first + len(rows)))
            scores = row_scores(matrix, vectors[first:first + len(rows)] if in_place else vectors[rows])
            if len(slot) < len(block):
                scores = np.vstack([scores, empty])[[slot.get(k[p], len(slot)) for k in block]]
            if p == 0:
                sims = scores
            else:  # part by part, left to right: no BLAS reordering to flip a threshold
                sims += scores
        sims /= len(source.parts)
        matches += [(key, clamp01(score)) for [(key, score)] in source.index.rank_many(sims, 1)]
    return matches


# ---------------------------------------------------------------------------
# Scores
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdherenceReport:
    threshold: float
    factscore: float
    mean_similarity: float
    adherent_count: int
    clause_count: int
    word_count: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if self.clause_count < 1:
            raise ValueError("report requires at least one clause")
        if self.adherent_count > self.clause_count:
            raise ValueError("adherent_count cannot exceed clause_count")

    @classmethod
    def from_similarities(
        cls, similarities: Sequence[float], t: float, word_count: int
    ) -> AdherenceReport:
        """The report of clauses whose best source similarities are ``similarities``.

        The adherence ratio is the share of similarities at least ``t``.
        No similarities raise ValueError: the explanation is unevaluable,
        not score 0.
        """
        if not len(similarities):
            raise ValueError("no clause similarities: explanation is unevaluable, not score 0")
        adherent = sum(1 for s in similarities if s >= t)
        return cls(
            threshold=t,
            factscore=adherent / len(similarities),
            mean_similarity=float(np.mean(similarities)),
            adherent_count=adherent,
            clause_count=len(similarities),
            word_count=word_count,
        )


def extract_sentences(text: str, source: SourceClauseIndex) -> list[str]:
    """The sentences of ``text``; each one ``source`` has not seen is counted and extracted.

    A new sentence's parts come from ``source.sentence_parts`` when the
    source text holds it, from ``_sentence_parts`` otherwise. Its word
    count goes to ``source.word_counts``; its clause waits in
    ``source.pending``, and a sentence without one is scored None.
    A stage extracts every explanation first, matches every pending clause
    with one ``match_pending`` call, and then scores each explanation with
    ``score_sentences``.
    """
    sentences = split_sentences(text)
    scored, pending, word_counts = source.scored, source.pending, source.word_counts
    known = source.sentence_parts
    for si, sentence in enumerate(sentences):
        if sentence in word_counts:
            continue
        word_counts[sentence] = len(sentence.split())
        parts = known[sentence] if sentence in known else _sentence_parts(sentence)
        if parts is None:
            scored[sentence] = None
        else:
            pending[sentence] = Clause(*parts, sentence_index=si)
    return sentences


def match_pending(source: SourceClauseIndex, embedder, sentences: tuple[str, ...] | None = None) -> None:
    """Match ``sentences``, or every sentence in ``source.pending``, in one ``match_clauses`` call.

    Every sentence must be pending. Their clauses are matched in order and
    their pairs move from ``source.pending`` to ``source.scored``; if the
    call raises, nothing moves. A pair does not depend on which other
    clauses share its call: ``match_clauses`` scores each clause with its
    own matrix-vector product per part (``row_scores``), sums the parts of
    one clause left to right and ranks each score row on its own
    (``rank_many``), and each embedded row depends on its text alone. So
    the evaluate stage may match all of a corpus's explanations at once.
    """
    pending = source.pending
    if sentences is None:
        sentences = tuple(pending)
    if not sentences:
        return
    pairs = match_clauses([pending[s] for s in sentences], source, embedder)
    source.scored.update(zip(sentences, pairs))
    for sentence in sentences:
        del pending[sentence]


def score_sentences(
    sentences: list[str], source: SourceClauseIndex, embedder, t: float = 0.7
) -> AdherenceReport | None:
    """Score one explanation's sentences from ``extract_sentences``; None when unevaluable.

    The sentences still in ``source.pending`` are matched by one
    ``match_pending`` call, in order of first appearance. If it raises
    ``ProviderError``, they stay pending and the error is kept in
    ``source.failed`` under their tuple: a later explanation with exactly
    those pending sentences raises it again without a call, and one with
    any other set matches them again. ``AdherenceReport.from_similarities``
    scores the similarities of the clause sentences, in order. The word
    count is the sum of the sentences' counts in ``source.word_counts``,
    which equals ``len(text.split())``: ``split_sentences`` cuts only at
    whitespace runs, and drops only surrounding whitespace.
    """
    unseen = tuple(s for s in dict.fromkeys(sentences) if s in source.pending)
    if unseen:
        if unseen in source.failed:
            raise source.failed[unseen]
        try:
            match_pending(source, embedder, unseen)
        except ProviderError as exc:
            source.failed[unseen] = exc
            raise
    scored = source.scored
    sims = [hit[1] for s in sentences if (hit := scored[s]) is not None]
    if not sims:
        return None
    words = sum(map(source.word_counts.__getitem__, sentences))
    return AdherenceReport.from_similarities(sims, t, words)


def evaluate_text(
    text: str,
    source: SourceClauseIndex,
    embedder,
    t: float = 0.7,
) -> AdherenceReport | None:
    """Score one explanation against a source; None when unevaluable.

    The caller is expected to strip citation markers first so page
    references do not distort similarity. ``extract_sentences`` then
    ``score_sentences``: the sentences no earlier text scored against
    ``source`` have their clauses matched in one ``match_clauses`` call
    through ``embedder``. The evaluate stage runs the two steps apart, so
    that one ``match_clauses`` call serves every explanation of a corpus.
    """
    return score_sentences(extract_sentences(text, source), source, embedder, t)
