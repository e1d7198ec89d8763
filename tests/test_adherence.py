from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scoring_reference import ReferenceSource, reference_best_match, reference_score
from text_reference import reference_split_sentences

from coi_rag.adherence import (
    _VERB_LEXICON,
    AdherenceReport,
    Clause,
    SourceClauseIndex,
    build_source_index,
    evaluate_text,
    extract_clauses,
    match_clauses,
    split_sentences,
)
from coi_rag.providers import HashedEmbedder, RemoteEmbedder
from coi_rag.vector_index import clamp01, cosine

SOURCE_TEXT = (
    "The parser reads one token at a time. "
    "Every symbol lives inside a flat table. "
    "The compiler checks each declaration before use. "
    "A stack frame holds the local bindings. "
    "The allocator returns aligned memory blocks. "
    "Each module exports a single namespace."
)
OBJECTLESS_TEXT = "The parser runs. The stack grows."
# Both texts as one source: SOURCE_TEXT ends a sentence, so OBJECTLESS_TEXT's
# clauses keep their own sentences, numbered on from SOURCE_TEXT's.
BOTH_TEXTS = SOURCE_TEXT + " " + OBJECTLESS_TEXT
MODES = ("whole_clause", "component_weighted")


@pytest.fixture
def source(hashed256):
    return build_source_index(SOURCE_TEXT, hashed256)


# ASCII whitespace, then Unicode whitespace that str.split, str.strip and \s all take.
SPLIT_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u3000"
split_whitespace = st.text(alphabet=SPLIT_WHITESPACE, max_size=3)
split_soups = st.one_of(
    st.builds(
        lambda lead, pieces: lead + "".join(pieces),
        split_whitespace,
        st.lists(
            st.builds(
                lambda w, p, ws: w + p + ws,
                st.sampled_from(("", "a", "The parser", "e.g", "x1", "\u00e9t\u00e9")),
                st.sampled_from(("", ".", "!", "?", "...", "?!", "!.", ".?!", '."')),
                split_whitespace,
            ),
            max_size=8,
        ),
    ),
    st.text(alphabet="ab.!?" + SPLIT_WHITESPACE, max_size=30),
)


class TestSplitSentences:
    @given(split_soups)
    @settings(max_examples=500, deadline=None)
    def test_equals_look_behind_split(self, text):
        assert split_sentences(text) == reference_split_sentences(text)

    def test_marks_and_whitespace(self):
        text = " \u2028A b. C?! d\xa0\x1cE... f.\tg! "
        assert split_sentences(text) == ["A b.", "C?!", "d\xa0\x1cE...", "f.", "g!"]
        assert split_sentences(" \t\n") == split_sentences("") == []


class TestExtractClauses:
    def test_simple_svo(self):
        got = extract_clauses("Alice explores the Rocky Mountains.")
        assert got == [Clause("Alice", "explores", "the Rocky Mountains", 0)]

    def test_verbless_sentence_yields_nothing(self):
        assert extract_clauses("Yes.") == []

    def test_two_sentences_two_indexes(self):
        got = extract_clauses("She packs her gear. She is tired.")
        assert [c.sentence_index for c in got] == [0, 1]
        assert got[0] == Clause("She", "packs", "her gear", 0)
        assert got[1].predicate.startswith("is")

    def test_empty_text(self):
        assert extract_clauses("") == []

    def test_auxiliary_verb_group(self):
        got = extract_clauses("The value has been cached by the runtime.")
        assert len(got) == 1
        assert got[0].subject == "The value"
        assert got[0].predicate.startswith("has been")

    def test_leading_verb_sentence_skipped(self):
        # No token before the only verb-like word: no subject, no clause.
        assert extract_clauses("Runs.") == []


# The regex extractor that the string-strip version replaced, kept as the reference.
_REF_EDGE_PUNCT = re.compile(r"^[\"'\(\[]+|[\"'\)\]\.,!?;:]+$")


def _ref_is_verb_like(token: str) -> bool:
    word = _REF_EDGE_PUNCT.sub("", token).lower()
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


def _ref_strip_span(tokens) -> str:
    return _REF_EDGE_PUNCT.sub("", " ".join(tokens).strip()).strip()


def reference_extract_clauses(text: str) -> list[Clause]:
    clauses = []
    for si, sentence in enumerate(split_sentences(text)):
        tokens = sentence.split()
        verb_at = next((i for i in range(1, len(tokens)) if _ref_is_verb_like(tokens[i])), None)
        if verb_at is None:
            continue
        verb_end = verb_at + 1
        while verb_end < len(tokens) and _ref_is_verb_like(tokens[verb_end]):
            verb_end += 1
        subject = _ref_strip_span(tokens[:verb_at])
        predicate = _ref_strip_span(tokens[verb_at:verb_end])
        obj = _ref_strip_span(tokens[verb_end:])
        if subject and predicate:
            clauses.append(Clause(subject, predicate, obj, si))
    return clauses


LEADS = ("",) * 6 + ('"', "'", "(", "[", '("', "'[", ")", ".")
TRAILS = ("",) * 6 + ('"', "'", ")", "]", ",", ";", ":", ".", "!", "?", '."', ").", "?!", "...", "'s")
WORDS = ("the", "parser", "a", "stack", "is", "has", "been", "reads", "walked", "running", "class",
         "sings", "go", "X", "B.", "don't", "e.g.", "well-formed", "42", "\u00e9t\u00e9s", "I",
         "reads.The", "is?No", "go!it")  # marks with no whitespace after them
word_tokens = st.builds(
    lambda a, w, b: a + w + b, st.sampled_from(LEADS), st.sampled_from(WORDS), st.sampled_from(TRAILS)
)
tokens = st.one_of(
    word_tokens,
    word_tokens,
    word_tokens,
    st.builds(lambda a, b: a + b, st.sampled_from(LEADS), st.sampled_from(TRAILS)),  # punctuation-only
    st.text(alphabet=" \t\n.!?\"'()[],;:abIs", max_size=6),  # stray whitespace and edge runs
)
# What follows each token: mostly a space, else whitespace that str.split and
# split_sentences' \s+ both take, or nothing, which leaves a mark unfollowed.
SEPARATORS = (" ",) * 8 + ("\t", "\n", "\xa0", "\x1c", "\x85", "\u2003", " \n ", "")
token_soups = st.lists(st.tuples(tokens, st.sampled_from(SEPARATORS)), min_size=3, max_size=40).map(
    lambda pieces: "".join(token + sep for token, sep in pieces)
)


class TestExtractClausesDifferential:
    """The string-strip extractor, directly and through ``evaluate_text``'s memo, equals the regex one."""

    @given(token_soups)
    @settings(max_examples=400, deadline=None)
    def test_equals_regex_reference(self, text):
        want = reference_extract_clauses(text)
        assert extract_clauses(text) == want
        embedder = HashedEmbedder(dims=32)
        source = build_source_index(SOURCE_TEXT, embedder)
        sentences = split_sentences(text)
        first = evaluate_text(text, source, embedder)
        assert (first.clause_count if first else 0) == len(want)
        assert first is None or first.word_count == len(text.split())
        assert source.scored.keys() == set(sentences)
        with_clause = {sentences[c.sentence_index] for c in want}
        assert {s for s, hit in source.scored.items() if hit is not None} == with_clause
        assert evaluate_text(text, source, embedder) == first  # every sentence now a hit

    @given(st.lists(token_soups, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_memo_shared_across_texts(self, texts):
        embedder = HashedEmbedder(dims=32)
        shared = build_source_index(SOURCE_TEXT, embedder)
        for text in texts + texts[::-1]:
            report = evaluate_text(text, shared, embedder)
            assert (report.clause_count if report else 0) == len(reference_extract_clauses(text))
            fresh = evaluate_text(text, build_source_index(SOURCE_TEXT, embedder), embedder)
            assert report == fresh
            if report is not None:  # the shared index's counts are memo hits after the first pass
                assert report.word_count == fresh.word_count == len(text.split())

    def test_memo_holds_verbless_sentences_as_none(self, source, hashed256, monkeypatch):
        """A sentence with no clause is remembered as None and never reaches ``match_clauses``."""
        from coi_rag import adherence

        matched = []
        match = adherence.match_clauses
        monkeypatch.setattr(
            adherence, "match_clauses", lambda ai, src, emb: matched.extend(ai) or match(ai, src, emb)
        )
        report = evaluate_text("Yes. The parser reads a token. Yes.", source, hashed256)
        assert report.clause_count == 1
        assert matched == [Clause("The parser", "reads", "a token", 1)]
        assert source.scored["Yes."] is None
        assert source.scored.keys() == {"Yes.", "The parser reads a token."}
        assert evaluate_text("Yes. No.", source, hashed256) is None
        assert source.scored["No."] is None
        assert len(matched) == 1

    def test_evaluate_text_extracts_each_distinct_sentence_once(self, hashed256, monkeypatch):
        """From before the index is built, each distinct source or explanation
        sentence reaches ``_sentence_parts`` at most once, and every sentence an
        explanation adds to the source's exactly once."""
        from coi_rag import adherence

        seen = []
        parts = adherence._sentence_parts
        monkeypatch.setattr(adherence, "_sentence_parts", lambda s: seen.append(s) or parts(s))
        source = build_source_index(SOURCE_TEXT + " " + SOURCE_TEXT + " Yes.", hashed256)  # sentences repeat
        source_sentences = split_sentences(SOURCE_TEXT) + ["Yes."]
        assert seen == source_sentences
        text = (
            "The parser reads one token at a time. Yes. The lexer emits tokens. No. The lexer emits tokens."
        )
        first = evaluate_text(text, source, hashed256)
        again = evaluate_text(text + " Yes. No.", source, hashed256)
        assert again == dataclasses.replace(first, word_count=first.word_count + 2)
        assert first.clause_count == 3
        assert seen == source_sentences + ["The lexer emits tokens.", "No."]
        assert source.scored.keys() == set(split_sentences(text))

    @pytest.mark.parametrize("mode", MODES)
    def test_source_sentences_are_not_extracted_again(self, mode, hashed256, monkeypatch):
        """An explanation made only of source sentences reaches ``_sentence_parts``
        zero times and scores as against an index that extracts it afresh."""
        from coi_rag import adherence

        text_of_source = BOTH_TEXTS + " Yes."
        sentences = split_sentences(text_of_source)
        text = " ".join(sentences[::-1] + sentences[:3])
        source = build_source_index(text_of_source, hashed256, mode)
        fresh = SourceClauseIndex(extract_clauses(text_of_source), hashed256, mode)
        assert source.sentence_parts.keys() == set(sentences) and not fresh.sentence_parts
        want = evaluate_text(text, fresh, hashed256)
        seen = []
        parts = adherence._sentence_parts
        monkeypatch.setattr(adherence, "_sentence_parts", lambda s: seen.append(s) or parts(s))
        assert evaluate_text(text, source, hashed256) == want
        assert seen == []
        assert source.scored == fresh.scored and source.scored["Yes."] is None
        assert want.clause_count == len(sentences) - 1 + 3


class TestSourceClauseIndex:
    def test_joined_texts_keep_each_texts_clauses_and_sentence_positions(self, hashed256):
        """Joining two texts with a space, the first ending a sentence, extracts
        the first text's clauses, then the second's with its sentence positions
        counted on from the first's sentences."""
        offset = len(split_sentences(SOURCE_TEXT))
        want = extract_clauses(SOURCE_TEXT) + [
            dataclasses.replace(c, sentence_index=offset + c.sentence_index)
            for c in extract_clauses(OBJECTLESS_TEXT)
        ]
        assert extract_clauses(BOTH_TEXTS) == want
        assert [c.sentence_index for c in want] == list(range(offset + 2))
        assert build_source_index(BOTH_TEXTS, hashed256).clauses == want

    def test_whole_clause_embeds_only_renders(self, spy_embedder):
        source = build_source_index(BOTH_TEXTS, spy_embedder)
        assert sorted(spy_embedder.texts) == sorted(c.render() for c in source.clauses)

    def test_component_weighted_embeds_only_parts(self, spy_embedder):
        """Each distinct non-empty part text is embedded exactly once, in the order
        the part columns first hold it, none is missing, and no render is embedded;
        each matrix row is its clause's part embedded alone, or zero when empty."""
        source = build_source_index(BOTH_TEXTS, spy_embedder, "component_weighted")
        clauses = source.clauses
        assert any(not c.object for c in clauses)
        expected = (
            [c.subject for c in clauses]
            + [c.predicate for c in clauses]
            + [c.object for c in clauses if c.object]
        )
        assert len(set(expected)) < len(expected)  # "The parser" is two clauses' subject
        assert spy_embedder.texts == list(dict.fromkeys(expected))
        assert not {c.render() for c in clauses} & set(spy_embedder.texts)
        alone = HashedEmbedder(dims=spy_embedder.dims)
        for part, matrix, empty in zip(source.parts, source.matrices, source.empty):
            for c, row, blank in zip(clauses, matrix, empty):
                want = alone.embed([part(c)])[0] if part(c) else np.zeros(spy_embedder.dims)
                assert row.tobytes() == want.tobytes() and blank == float(not part(c))

    def test_objectless_source_through_remote_embedder(self, monkeypatch):
        hasher = HashedEmbedder(dims=64)

        def transport(url, body, headers):
            rows = hasher.embed(body["input"]).tolist()
            return {"data": [{"index": i, "embedding": row} for i, row in enumerate(rows)]}

        embedder = RemoteEmbedder("m", transport=transport, dims=64)
        batches = []
        embed = embedder.embed
        monkeypatch.setattr(embedder, "embed", lambda texts: batches.append(texts) or embed(texts))
        source = build_source_index(OBJECTLESS_TEXT, embedder, "component_weighted")
        assert [c.object for c in source.clauses] == ["", ""]
        [(key, similarity)] = match_clauses([source.clauses[0]], source, embedder)
        assert key == "src:0"
        assert similarity == pytest.approx(1.0, abs=1e-9)
        assert batches and all(len(b) > 0 for b in batches)  # RemoteEmbedder.embed([]) raises


class TestMatchClauses:
    def test_identical_clause_scores_one_both_modes(self, hashed256):
        ai = [Clause("The parser", "reads", "one token at a time", 0)]
        for mode in MODES:
            source = build_source_index(SOURCE_TEXT, hashed256, mode)
            [(_, similarity)] = match_clauses(ai, source, hashed256)
            assert similarity == pytest.approx(1.0, abs=1e-9)

    def test_component_two_thirds(self, hashed256):
        source = build_source_index(SOURCE_TEXT, hashed256, "component_weighted")
        ai = [Clause("The parser", "reads", "zebra xylophone", 0)]
        [(_, similarity)] = match_clauses(ai, source, hashed256)
        assert similarity == pytest.approx(2 / 3, abs=1e-9)

    @pytest.mark.parametrize("mode, embedded", [
        ("whole_clause", ["The parser runs", "The stack grows"]),
        ("component_weighted", ["The parser", "runs", "The stack", "grows"]),
    ])
    def test_repeated_clause_embeds_each_part_text_once(self, mode, embedded, spy_embedder):
        """Each distinct non-empty (part, text) of one call is embedded once, and
        clauses that repeat each other get equal pairs."""
        source = build_source_index(SOURCE_TEXT, spy_embedder, mode)
        clauses = extract_clauses("The parser runs. The parser runs. The stack grows.")
        assert clauses[0].render() == clauses[1].render() != clauses[2].render()
        spy_embedder.texts.clear()
        got = match_clauses(clauses, source, spy_embedder)
        assert spy_embedder.texts == embedded
        assert len(got) == 3 and got[0] == got[1]
        assert got == reference_match_clauses(clauses, source, spy_embedder)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_blocks_change_no_pair_and_embed_once(self, mode, block, spy_embedder, monkeypatch):
        """Scored in blocks of ``block`` clauses, every pair equals the per-clause
        loop's, and each distinct (part, text) is still embedded once per call."""
        from coi_rag import adherence

        source = build_source_index(BOTH_TEXTS, spy_embedder, mode)
        monkeypatch.setattr(adherence, "MATCH_BLOCK_CELLS", block * len(source) + len(source) - 1)
        # In blocks of 3, the second block's texts were first seen at positions 0, 3, 2.
        clauses = extract_clauses(
            "The parser runs. The stack grows. Each module exports a single namespace. "
            "The parser runs. A stack frame holds The parser. Each module exports a single namespace. "
            "The stack grows. The parser stops."
        )
        spy_embedder.texts.clear()
        got = match_clauses(clauses, source, spy_embedder)
        distinct = {(i, part(c)) for c in clauses for i, part in enumerate(source.parts) if part(c)}
        assert sorted(spy_embedder.texts) == sorted(text for _, text in distinct)
        assert got == reference_match_clauses(clauses, source, spy_embedder)

    def test_unknown_mode_rejected(self, hashed256):
        with pytest.raises(ValueError, match="fuzzy"):
            build_source_index(SOURCE_TEXT, hashed256, "fuzzy")

    def test_tied_source_clauses_break_by_ascending_key(self, hashed256):
        # One sentence is both clause 2 and clause 10; "src:10" < "src:2".
        sentences = SOURCE_TEXT.split(". ") + [
            "Every loop keeps a counter.",
            "The linker joins object files.",
            "A thread owns its stack.",
            "The cache stores recent lines.",
        ]
        sentences.insert(10, sentences[2])
        text = " ".join(s.rstrip(".") + "." for s in sentences)
        for mode in MODES:
            source = build_source_index(text, hashed256, mode)
            assert source.keys == [f"src:{i}" for i in range(11)]
            assert source.clauses[2].render() == source.clauses[10].render()
            [(key, similarity)] = match_clauses([source.clauses[2]], source, hashed256)
            assert key == "src:10"
            assert similarity == pytest.approx(1.0, abs=1e-9)

    def test_whole_mode_matches_brute_force(self, source, hashed256):
        rng = np.random.default_rng(5)
        words = SOURCE_TEXT.replace(".", "").split() + ["quark", "zeppelin"]
        for _ in range(25):
            subject = " ".join(rng.choice(words, 2))
            obj = " ".join(rng.choice(words, 3))
            ai = [Clause(subject, "holds", obj, 0)]
            [(_, got)] = match_clauses(ai, source, hashed256)
            rendering = hashed256.embed([ai[0].render()])[0]
            best = max(
                cosine(rendering, source.index.vector(k)) for k in source.keys
            )
            assert got == pytest.approx(min(1.0, max(0.0, best)), abs=1e-12)

    def test_component_mode_matches_brute_force(self, hashed256):
        source = build_source_index(SOURCE_TEXT, hashed256, "component_weighted")
        rng = np.random.default_rng(6)
        words = SOURCE_TEXT.replace(".", "").split()
        for _ in range(15):
            ai_clause = Clause(
                " ".join(rng.choice(words, 2)),
                str(rng.choice(words, 1)[0]),
                " ".join(rng.choice(words, 2)),
                0,
            )
            [(_, got)] = match_clauses([ai_clause], source, hashed256)
            best = -1.0
            for src_clause in source.clauses:
                total = 0.0
                for part in ("subject", "predicate", "object"):
                    a_text = getattr(ai_clause, part)
                    s_text = getattr(src_clause, part)
                    if not a_text.strip() and not s_text.strip():
                        total += 1.0
                    elif not a_text.strip() or not s_text.strip():
                        total += 0.0
                    else:
                        total += cosine(*hashed256.embed([a_text, s_text]))
                best = max(best, total / 3)
            assert got == pytest.approx(min(1.0, max(0.0, best)), abs=1e-12)


SUBJECTS = ("The parser", "A stack frame", "Each module", "The stack", "Purple quasars")
VERBS = ("reads", "holds", "runs", "grows", "exports", "is")
OBJECTS = ("", "", "one token at a time", "the local bindings", "a single namespace", "vivid xylophones")
sentences = st.builds(
    lambda s, v, o: f"{s} {v} {o}".rstrip() + ".",
    st.sampled_from(SUBJECTS), st.sampled_from(VERBS), st.sampled_from(OBJECTS),
)
explanations = st.lists(sentences, max_size=8).map(" ".join)


class TestClauseScoreMemo:
    @given(st.sampled_from(MODES), st.lists(explanations, min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_shared_index_equals_fresh_index_per_explanation(self, mode, texts):
        """One source index scoring many explanations equals a fresh index for each."""
        embedder = HashedEmbedder(dims=32)
        shared = build_source_index(BOTH_TEXTS, embedder, mode)
        for text in texts + texts[::-1]:
            fresh = build_source_index(BOTH_TEXTS, embedder, mode)
            assert evaluate_text(text, shared, embedder) == evaluate_text(text, fresh, embedder)
        assert shared.scored.keys() == {s for t in texts for s in split_sentences(t)}

    @pytest.mark.parametrize("mode", MODES)
    def test_each_distinct_sentence_matched_once(self, mode, monkeypatch):
        from coi_rag import adherence

        calls = []
        match = adherence.match_clauses
        monkeypatch.setattr(
            adherence, "match_clauses", lambda ai, src, emb: calls.append(list(ai)) or match(ai, src, emb)
        )
        embedder = HashedEmbedder(dims=32)
        source = build_source_index(BOTH_TEXTS, embedder, mode)
        texts = [
            "The parser runs. The parser runs. The stack grows. Yes.",
            "The stack grows. The parser runs.",  # nothing new: no call
            "The stack grows. Each module exports a single namespace. The parser runs!",
        ]
        for text in texts:
            evaluate_text(text, source, embedder)
        assert [[c.render() for c in ai] for ai in calls] == [
            ["The parser runs", "The stack grows"],
            ["Each module exports a single namespace", "The parser runs"],
        ]
        assert source.scored["The parser runs!"] == source.scored["The parser runs."]

    def test_each_distinct_clause_embedded_once(self, spy_embedder):
        for text in (
            "The parser runs. The parser runs. The stack grows.",
            "The parser runs. The stack grows. The parser stops.",  # two clauses share a subject
        ):
            clauses = extract_clauses(text)
            for mode in MODES:
                source = build_source_index(SOURCE_TEXT, spy_embedder, mode)
                state = dict(vars(source))
                spy_embedder.texts.clear()
                for _ in range(3):
                    evaluate_text(text, source, spy_embedder)
                distinct = {p(c) for c in clauses for p in source.parts} - {""}
                assert sorted(spy_embedder.texts) == sorted(distinct)
                # Part scores die with the call: the index keeps only its attributes and ``scored``.
                assert vars(source).keys() == state.keys()
                assert all(vars(source)[name] is value for name, value in state.items())
                assert source.scored.keys() == set(split_sentences(text))

    @pytest.mark.parametrize("mode", MODES)
    def test_remote_requests_equal_per_tuple_loop(self, mode):
        """Through ``RemoteEmbedder``, the embedding requests are those of the per-clause loop."""
        texts = [  # each text holds part texts the source and earlier texts lack
            "The lexer runs. The lexer stops. The parser stops.",
            "The lexer emits tokens. A lexer state holds The lexer. The stack emits tokens.",
            "The lexer runs. Each module emits a warning. The lexer emits a warning.",
        ]

        def run(match):
            hasher = HashedEmbedder(dims=32)
            inputs = []

            def transport(url, body, headers):
                inputs.append(body["input"])
                rows = hasher.embed(body["input"]).tolist()
                return {"data": [{"index": i, "embedding": row} for i, row in enumerate(rows)]}

            embedder = RemoteEmbedder("m", transport=transport, dims=32)
            source = build_source_index(BOTH_TEXTS, embedder, mode)
            inputs.clear()
            matches = [match(extract_clauses(t), source, embedder) for t in texts]
            return inputs, matches

        inputs, matches = run(match_clauses)
        want_inputs, want_matches = run(reference_match_clauses)
        assert len(inputs) == len(want_inputs) == len(texts)
        assert inputs == want_inputs
        assert matches == want_matches


def reference_match_clauses(ai: list[Clause], source, embedder) -> list[tuple[str, float]]:
    """Reference matcher: every clause scored on its own, part by part, from one embedding call."""
    if not ai:
        return []
    texts = [[part(c) for part in source.parts] for c in ai]
    vectors = iter(embedder.embed([t for k in texts for t in k if t.strip()]))
    matches = []
    for k in texts:
        sims = sum(
            mat @ next(vectors) if text.strip() else empty
            for text, mat, empty in zip(k, source.matrices, source.empty)
        )
        key, score = source.index.rank_many((sims / len(k))[None], 1)[0][0]
        matches.append((key, clamp01(score)))
    return matches


# Small pools, so distinct clauses share subjects, predicates and objects,
# objects are often empty, and a text can be both a subject and an object.
SHARED_SUBJECTS = ("The parser", "A stack frame", "Each module", "The stack", "Every symbol")
SHARED_VERBS = ("reads", "holds", "runs", "grows", "is", "has been", "stops")
SHARED_OBJECTS = ("", "", "", "one token at a time", "the local bindings", "The parser", "The stack", "zebra")
shared_part_sentences = st.builds(
    lambda s, v, o: f"{s} {v} {o}".rstrip() + ".",
    st.sampled_from(SHARED_SUBJECTS), st.sampled_from(SHARED_VERBS), st.sampled_from(SHARED_OBJECTS),
)
shared_part_explanations = st.lists(shared_part_sentences, min_size=1, max_size=12).map(" ".join)


class TestMatchClausesDifferential:
    """``match_clauses`` returns exactly what the per-clause reference loop returns."""

    @given(st.sampled_from(MODES), st.lists(shared_part_explanations, min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_equals_per_tuple_loop(self, mode, texts):
        embedder = HashedEmbedder(dims=32)
        source = build_source_index(BOTH_TEXTS, embedder, mode)
        for text in texts:
            clauses = extract_clauses(text)
            assert match_clauses(clauses, source, embedder) == reference_match_clauses(clauses, source, embedder)


def report(sims, t=0.7):
    return AdherenceReport.from_similarities(sims, t, word_count=10)


class TestScores:
    def test_factscore_all_ones(self):
        assert report([1.0, 1.0, 1.0], 1.0).factscore == 1.0

    def test_factscore_half(self):
        assert report([0.9, 0.5]).factscore == 0.5

    def test_factscore_t_zero_is_one(self):
        assert report([0.3, 0.01, 0.0], 0.0).factscore == 1.0

    def test_factscore_empty_is_error(self):
        with pytest.raises(ValueError):
            report([])
        with pytest.raises(ValueError):
            report(np.array([]))

    def test_mean_similarity(self):
        assert report([1.0, 1.0]).mean_similarity == 1.0
        assert report([0.8, 0.6]).mean_similarity == pytest.approx(0.7)

    def test_adherent_count(self):
        got = report([0.9, 0.71, 0.69])
        assert (got.adherent_count, got.clause_count, got.word_count) == (2, 3, 10)

    def test_threshold_sweep_examples(self):
        assert [report([1.0], t).factscore for t in (0.6, 0.7, 0.8)] == [1.0, 1.0, 1.0]
        assert [report([0.65, 0.75], t).factscore for t in (0.6, 0.7, 0.8)] == [1.0, 0.5, 0.0]

    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=30),
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_sweep_non_increasing_and_counts_exact(self, sims, ts):
        ts = sorted(ts)
        scores = [report(sims, t).factscore for t in ts]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        for t in ts:
            brute = sum(1 for s in sims if s >= t)
            got = report(np.array(sims), t)
            assert got == report(sims, t)
            assert got.adherent_count == brute
            assert got.factscore * len(sims) == pytest.approx(brute)

    def test_monotonicity_in_threshold(self):
        sims = [0.2, 0.5, 0.7, 0.9]
        assert report(sims, 0.3).factscore >= report(sims, 0.8).factscore


clause_free_sentences = st.sampled_from(("Yes.", "No way.", "Maybe!", "Purple quasar?"))


class TestReportFromRun:
    """``evaluate_text`` scores a text by ``from_similarities`` and nothing else."""

    @given(
        st.sampled_from(MODES),
        st.floats(min_value=0, max_value=1),
        st.lists(st.lists(st.one_of(sentences, clause_free_sentences), max_size=8).map(" ".join), max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_formula_over_scored_similarities(self, mode, t, texts):
        embedder = HashedEmbedder(dims=32)
        source = build_source_index(BOTH_TEXTS, embedder, mode)
        for text in texts:
            got = evaluate_text(text, source, embedder, t)
            hits = [source.scored[s] for s in split_sentences(text)]
            sims = [hit[1] for hit in hits if hit is not None]
            assert (got is None) == (not extract_clauses(text)) == (not sims)
            if sims:
                assert got == AdherenceReport.from_similarities(sims, t, len(text.split()))


# A source of 14 clauses whose first six repeat: exact ties, one side of them
# at a two-digit key, which sorts before "src:2".
TIED_SOURCE = SOURCE_TEXT + " " + BOTH_TEXTS + " Yes."
book_sentences = st.sampled_from(split_sentences(TIED_SOURCE))


class TestScoringReference:
    """A shared source index scores as the frozen plain scorer of ``scoring_reference``."""

    @given(
        st.sampled_from(MODES),
        st.lists(
            st.lists(st.one_of(book_sentences, sentences, clause_free_sentences), max_size=8).map(" ".join),
            min_size=1, max_size=6,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_shared_index_equals_plain_scorer(self, mode, texts):
        embedder = HashedEmbedder(dims=32)
        source = build_source_index(TIED_SOURCE, embedder, mode)
        reference = ReferenceSource(TIED_SOURCE, embedder, mode)
        for text in texts + texts:
            got = evaluate_text(text, source, embedder)
            want = reference_score(text, reference, embedder, 0.7)
            assert (None if got is None else dataclasses.asdict(got)) == want
            for c in extract_clauses(text):
                sentence = split_sentences(text)[c.sentence_index]
                assert source.scored[sentence] == reference_best_match(c, reference, embedder)

    def test_tied_source_clause_goes_to_smallest_key(self, hashed256):
        sentence = "Each module exports a single namespace."  # src:5 and src:11
        [clause] = extract_clauses(sentence)
        for mode in MODES:
            reference = ReferenceSource(TIED_SOURCE, hashed256, mode)
            assert reference_best_match(clause, reference, hashed256)[0] == "src:11"
            source = build_source_index(TIED_SOURCE, hashed256, mode)
            assert evaluate_text(sentence, source, hashed256).factscore == 1.0
            assert source.scored[sentence][0] == "src:11"


class TestOracles:
    def test_verbatim_copy_scores_perfectly(self, source, hashed256):
        copied = (
            "The parser reads one token at a time. "
            "A stack frame holds the local bindings. "
            "Each module exports a single namespace."
        )
        report = evaluate_text(copied, source, hashed256, t=0.7)
        assert report.factscore == 1.0
        assert report.mean_similarity == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_vocabulary_scores_zero(self, source, hashed256):
        alien = "Quartz umbrellas juggle vivid xylophones. Zebras quietly fumigate jaded herons."
        report = evaluate_text(alien, source, hashed256, t=0.7)
        assert report.factscore == 0.0

    def test_zero_clause_text_unevaluable(self, source, hashed256):
        assert evaluate_text("Yes. No. Maybe.", source, hashed256) is None

    def test_report_identity(self, source, hashed256):
        text = "The parser reads one token at a time. Purple quasars vibrate."
        report = evaluate_text(text, source, hashed256, t=0.7)
        assert report.factscore * report.clause_count == pytest.approx(report.adherent_count)
        assert report.word_count == len(text.split())

    def test_report_invariants(self):
        with pytest.raises(ValueError):
            AdherenceReport(0.7, 0.5, 0.5, 3, 2, 10)
        with pytest.raises(ValueError, match="threshold"):
            AdherenceReport(1.5, 0.5, 0.5, 1, 2, 10)
