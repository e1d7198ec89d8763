from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from text_reference import reference_strip_citations

from coi_rag.corpus import Chunk
from coi_rag.planner import CandidateQuestion, IllocutionPlan, SelectedQuestion
from coi_rag.prompting import (
    assemble_genai,
    assemble_rag,
    assemble_rag_coi,
    generate,
    strip_citations,
)
from coi_rag.providers import (
    SCRIPTED_CREATED_AT,
    CallCache,
    GenerationRequest,
    ProviderError,
    RemoteGenerator,
    ScriptedGenerator,
    request_hash,
)
from coi_rag.records import QuestionRecord

GENAI_INSTRUCTION = (
    "Provide a detailed, concise, pertinent, and coherent explanatory answer "
    "to the question below. Provide examples if needed."
)
RAG_INSTRUCTION_HEAD = "Sift through the text chunks provided (extracted from the textbook "
RAG_PAGE_SENTENCE = "Every statement must contain a reference to the source textbook page(s)."
EXTRACTION_HEAD = (
    "Analyse the English paragraph below to generate a comprehensive list "
    "of Q&As in English, capturing: what, who, why, how, how much, where, "
    "when, who by, which, whose."
)


def make_q(title="What is dependency injection?", body="Some body text.") -> QuestionRecord:
    return QuestionRecord(id="q1", tag="t", title=title, body=body,
                          accepted_answer="aa", views=3)


def make_chunk(i, text, pages=(12, 12)) -> Chunk:
    return Chunk(id=f"c{i}", doc_id="d", token_start=0, token_end=1,
                 text=text, page_span=pages)


def make_plan(q, n_selected) -> IllocutionPlan:
    selected = []
    for i in range(n_selected):
        cand = CandidateQuestion(text=f"What is topic {i}?", origin="bank")
        selected.append(
            SelectedQuestion(
                question=cand,
                chunks=((make_chunk(100 + i, f"context text {i}"), 0.9 - i * 0.1),),
            )
        )
    return IllocutionPlan(primary=q, selected=selected)


class TestGenai:
    def test_instruction_verbatim_and_question_block(self):
        bundle = assemble_genai(make_q())
        assert GENAI_INSTRUCTION in bundle.text
        assert "Question:\n#What is dependency injection?" in bundle.text

    def test_empty_body_keeps_template_line(self):
        bundle = assemble_genai(make_q(body=""))
        assert bundle.text.endswith("#What is dependency injection?\n")

    def test_decoding_and_no_chunks(self):
        bodies = []

        def transport(url, body, headers):
            bodies.append(body)
            return {"choices": [{"message": {"content": "A reply."}}]}

        bundle = assemble_genai(make_q())
        generate(bundle, RemoteGenerator("m", transport=transport))
        assert (bodies[0]["temperature"], bodies[0]["top_p"]) == (0.5, 0.0)
        assert bundle.retrieved_chunk_ids == ()

    def test_braces_in_body_survive(self):
        bundle = assemble_genai(make_q(body="Map<String, int> m = {x: {body}};"))
        assert "{x: {body}};" in bundle.text


class TestRag:
    def test_instruction_and_title_quoting(self):
        bundle = assemble_rag(make_q(), "Intro to Java", [make_chunk(0, "text here")])
        assert RAG_INSTRUCTION_HEAD + '"Intro to Java")' in bundle.text
        assert RAG_PAGE_SENTENCE in bundle.text

    def test_chunk_block_page_format(self):
        bundle = assemble_rag(make_q(), "T", [make_chunk(0, "chunk words", (12, 12))])
        assert "Text chunks:\nPage 12-12:\nchunk words" in bundle.text

    def test_order_preserved_ten_blocks(self):
        chunks = [make_chunk(i, f"chunk number {i}") for i in range(10)]
        bundle = assemble_rag(make_q(), "T", chunks)
        positions = [bundle.text.find(f"chunk number {i}") for i in range(10)]
        assert all(p >= 0 for p in positions)
        assert positions == sorted(positions)

    def test_empty_chunks_error(self):
        with pytest.raises(ValueError):
            assemble_rag(make_q(), "T", [])


class TestRagCoi:
    def test_five_blocks_in_plan_order(self):
        q = make_q()
        plan = make_plan(q, 5)
        bundle = assemble_rag_coi(q, "T", [make_chunk(0, "primary text")], plan)
        assert bundle.text.count("Implicit question") == 5
        for i in range(1, 6):
            assert f"Implicit question {i}: What is topic {i-1}?" in bundle.text

    def test_empty_plan_byte_identical_to_rag(self):
        q = make_q()
        chunks = [make_chunk(0, "primary text")]
        rag = assemble_rag(q, "T", chunks)
        coi = assemble_rag_coi(q, "T", chunks, IllocutionPlan(primary=q))
        assert coi.text == rag.text

    def test_block_carries_context_chunks(self):
        q = make_q()
        bundle = assemble_rag_coi(q, "T", [make_chunk(0, "primary")], make_plan(q, 1))
        assert "Implicit question 1: What is topic 0?\nContext:\nPage 12-12:\ncontext text 0" in bundle.text

    def test_both_empty_rejected(self):
        q = make_q()
        with pytest.raises(ValueError):
            assemble_rag_coi(q, "T", [], IllocutionPlan(primary=q))


class TestExtractionTemplate:
    def test_head_verbatim(self):
        from coi_rag.templates import QA_EXTRACTION_TEMPLATE

        assert EXTRACTION_HEAD in QA_EXTRACTION_TEMPLATE
        assert "Example Paragraph: Alice, an experienced hiker," in QA_EXTRACTION_TEMPLATE
        assert "- Who is Alice? An experienced hiker." in QA_EXTRACTION_TEMPLATE
        assert QA_EXTRACTION_TEMPLATE.rstrip().endswith("Paragraph for Analysis:\n{sentence}")


class TestGenerate:
    def test_scripted_mapping_by_request_hash(self):
        bundle = assemble_genai(make_q())
        key = request_hash({"endpoint": "chat", **GenerationRequest("m", bundle.text).payload()})
        gen = ScriptedGenerator(model_id="m", script={key: "X"})
        result = generate(bundle, gen)
        assert (result.text, result.created_at) == ("X", SCRIPTED_CREATED_AT)

    def make_remote(self, tmp_path, responses):
        calls = {"n": 0}

        def transport(url, body, headers):
            calls["n"] += 1
            return {"choices": [{"message": {"content": responses[0]}}]}

        cache = CallCache(tmp_path / "c")
        return RemoteGenerator("m", cache=cache, transport=transport, backoff=0.0), calls

    def test_second_call_served_from_cache(self, tmp_path):
        gen, calls = self.make_remote(tmp_path, ["hello"])
        bundle = assemble_genai(make_q())
        first = generate(bundle, gen)
        second = generate(bundle, gen)
        assert calls["n"] == 1
        assert first.text == second.text
        assert first.created_at == second.created_at

    def test_whitespace_completion_rejected(self, tmp_path):
        gen, _ = self.make_remote(tmp_path, ["   \n"])
        with pytest.raises(ProviderError):
            generate(assemble_genai(make_q()), gen)

    def test_transport_failure_carries_attempts(self, tmp_path):
        def transport(url, body, headers):
            raise ConnectionError("down")

        gen = RemoteGenerator("m", transport=transport, retries=3, backoff=0.0)
        with pytest.raises(ProviderError) as exc:
            generate(assemble_genai(make_q()), gen)
        assert exc.value.attempts == 3


# Pieces of text for the strip_citations properties: markers, the words
# that make a parenthetical a source annotation, openings that only tidying
# turns into one ("(pp ." and "(Book  Title"), every punctuation mark the
# tidying drops a space before, and line breaks for its trailing-space pass.
CITATION_PIECES = [
    "a", "f", "x", " ", "  ", "   ", "\n", "\t", "(", ")", "[", "]", ".", ",", ";", ":",
    "!", "?", "p", "pp", "page", "pages", "3", "Book", "Title", "Book Title", "(pp .",
    "(Book  Title", "(book title",
]


class TestStripCitations:
    def test_bracketed_page_marker(self):
        assert strip_citations("Use casting [p. 101] to convert.") == "Use casting to convert."

    def test_parenthesized_page_annotation(self):
        assert strip_citations("f(x) (see page 12) is linear") == "f(x) is linear"

    def test_author_page_bracket(self):
        got = strip_citations("Stacks grow downward [Sedgewick, p. 3] in memory.")
        assert got == "Stacks grow downward in memory."

    def test_textbook_title_parenthetical(self):
        got = strip_citations("Lists resize (Intro to Java) on demand.", "Intro to Java")
        assert got == "Lists resize on demand."

    def test_plain_text_unchanged(self):
        text = "No markers here, just f(x) and g(y)."
        assert strip_citations(text) == text

    def test_math_parens_survive(self):
        assert strip_citations("Compute (a + b) * c now.") == "Compute (a + b) * c now."

    @given(st.text(alphabet="ab ()[].,p12x", max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, text):
        once = strip_citations(text, "Book Title")
        assert strip_citations(once, "Book Title") == once

    @pytest.mark.parametrize("text, title, expected", [
        # Collapsing the double space makes the title parenthetical whole.
        ("Lists resize (Intro  to Java) on demand.", "Intro to Java", "Lists resize on demand."),
        # Dropping the space before "." makes "pp." a page marker.
        ("See (pp .3) here", None, "See here"),
    ])
    def test_marker_formed_by_tidying_is_removed(self, text, title, expected):
        assert strip_citations(text, title) == expected
        assert strip_citations(expected, title) == expected

    @given(st.lists(st.sampled_from(CITATION_PIECES), max_size=30).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_fixed_point_and_reference_agreement(self, text):
        out = strip_citations(text, "Book Title")
        assert strip_citations(out, "Book Title") == out
        reference = reference_strip_citations(text, "Book Title")
        if reference_strip_citations(reference, "Book Title") == reference:
            assert out == reference

    # Marker-free text around a trigger, so the reference's one tidying is the
    # whole job. A lone space is a trigger only at the end of the text.
    @pytest.mark.parametrize("trigger", ["  ", " .", " ,", " ;", " :", " !", " ?", " \n", " "])
    @given(head=st.text(alphabet="ab .,;:!?\n\t", max_size=12),
           tail=st.text(alphabet="ab .,;:!?\n\t", max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_each_tidy_trigger_agrees_with_reference(self, trigger, head, tail):
        for text in [head + trigger] + ([head + trigger + tail] if trigger != " " else []):
            want = reference_strip_citations(text, "Book Title")
            assert want != text  # the trigger is tidied away
            assert strip_citations(text, "Book Title") == want

    # Words that start with a letter, joined by single spaces: no space is
    # doubled or comes before a mark or a line end.
    @given(st.lists(st.builds(lambda first, rest: first + rest, st.sampled_from("abpx"),
                              st.text(alphabet="ab.,;:!?\n\tp3()[]", max_size=6)),
                    max_size=12).map(" ".join))
    @settings(max_examples=300, deadline=None)
    def test_text_with_no_tidy_trigger_agrees_with_reference(self, text):
        assert strip_citations(text, "Book Title") == reference_strip_citations(text, "Book Title")
