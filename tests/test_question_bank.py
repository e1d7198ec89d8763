from __future__ import annotations

from contextlib import closing

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from coi_rag.adherence import extract_clauses
from coi_rag.corpus import Chunk
from coi_rag.providers import (
    SCRIPTED_CREATED_AT, CallCache, GenerationResult, ProviderError, RemoteGenerator,
)
from coi_rag.question_bank import (
    ImplicitQuestion,
    QuestionBank,
    build_bank,
    extract_qas,
    parse_qa_lines,
    template_questions,
)
from coi_rag.records import QuestionRecord, read_jsonl, write_records
from coi_rag.templates import QA_EXTRACTION_TEMPLATE, fill

EXAMPLE_BLOCK = """- Who is Alice? An experienced hiker.
- What did Alice do? Explored the Rocky Mountains.
- Despite what did Alice decide to explore the Rocky Mountains? Rain.
- What did she pack? Gear.
- When did she pack? Early in the morning."""


class ReplyFn:
    """A generator whose reply is a function of the prompt."""

    def __init__(self, reply):
        self.reply = reply

    def complete(self, prompt: str) -> GenerationResult:
        return GenerationResult(text=self.reply(prompt), created_at=SCRIPTED_CREATED_AT)


def make_chunk(i: int, text: str) -> Chunk:
    return Chunk(
        id=f"c{i}", doc_id="d", token_start=i * 10, token_end=i * 10 + 10,
        text=text, page_span=(1, 1),
    )


class TestParse:
    def test_reference_block(self):
        pairs, skipped = parse_qa_lines(EXAMPLE_BLOCK)
        assert len(pairs) == 5
        assert pairs[0] == ("Who is Alice?", "An experienced hiker.")
        assert pairs[3] == ("What did she pack?", "Gear.")
        assert skipped == 0

    def test_no_dash_lines(self):
        pairs, skipped = parse_qa_lines("Nothing useful here.\nJust prose.")
        assert pairs == []
        assert skipped == 0

    def test_unparseable_dash_line_counted(self):
        pairs, skipped = parse_qa_lines("- no question mark at all\n- What works? Yes.")
        assert pairs == [("What works?", "Yes.")]
        assert skipped == 1

    @given(
        st.text(alphabet="abcdefg ", min_size=1, max_size=30).filter(str.strip),
        st.text(alphabet="hijklmn ", min_size=1, max_size=30).filter(str.strip),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, q_body, answer):
        question = q_body.strip() + "?"
        pairs, _ = parse_qa_lines(f"- {question} {answer.strip()}")
        assert pairs == [(question, answer.strip())]


class TestExtractQas:
    def test_sends_extraction_prompt_verbatim(self):
        seen = {}

        def capture(prompt: str) -> str:
            seen["prompt"] = prompt
            return EXAMPLE_BLOCK

        gen = ReplyFn(capture)
        pairs = extract_qas("Alice, an experienced hiker, explores.", gen)
        assert len(pairs) == 5
        expected = QA_EXTRACTION_TEMPLATE.replace(
            "{sentence}", "Alice, an experienced hiker, explores."
        )
        assert seen["prompt"] == expected

    def test_empty_paragraph_rejected(self):
        gen = ReplyFn(lambda p: "- Q? A.")
        with pytest.raises(ValueError):
            extract_qas("   ", gen)


class TestBuildBank:
    def test_empty_chunks(self, hashed64):
        gen = ReplyFn(lambda p: "- What? That.")
        assert build_bank([], gen) == []
        assert QuestionBank([], hashed64).index is None

    def test_two_qas_per_chunk_over_three_chunks(self):
        gen = ReplyFn(lambda p: "- What is one? First.\n- What is two? Second.")
        chunks = [make_chunk(i, f"text number {i}") for i in range(3)]
        questions = build_bank(chunks, gen, tag="demo")
        assert len(questions) == 6
        assert [q.id for q in questions[:2]] == ["c0#q0", "c0#q1"]
        assert {q.source_chunk_id for q in questions} == {"c0", "c1", "c2"}
        assert {q.tag for q in questions} == {"demo"}

    def test_index_cardinality_and_self_similarity(self, hashed64):
        gen = ReplyFn(lambda p: f"- What is {p.splitlines()[-1].split()[0]} about? Something.")
        chunks = [make_chunk(i, f"theme{i} words here") for i in range(4)]
        bank = QuestionBank(build_bank(chunks, gen), hashed64)
        assert len(bank.index) == len(bank)
        for q in bank.questions:
            key, score = bank.index.top_k(bank.index.vector(q.id), 1)[0]
            assert score == pytest.approx(1.0, abs=1e-9)

    def test_rerun_after_provider_failure_resumes_from_call_cache(self, tmp_path):
        chunks = [make_chunk(i, f"chunk {i} body") for i in range(5)]
        prompts = [fill(QA_EXTRACTION_TEMPLATE, sentence=c.text) for c in chunks]

        def transport(fail_on: str | None = None):
            sent = []

            def post(url, body, headers):
                prompt = body["messages"][0]["content"]
                if prompt == fail_on:
                    response = requests.Response()
                    response.status_code = 401
                    raise requests.HTTPError("401 from server", response=response)
                sent.append(prompt)
                word = prompt.split()[-2]  # each chunk's number
                return {"choices": [{"message": {"content": f"- What is {word}? A thing."}}]}

            return post, sent

        def run(cache_dir, post):
            with closing(CallCache(cache_dir)) as cache:
                gen = RemoteGenerator("m", cache=cache, transport=post, backoff=0.0)
                return build_bank(chunks, gen, tag="t")

        failing, sent = transport(fail_on=prompts[2])
        with pytest.raises(ProviderError, match="401"):
            run(tmp_path / "cache", failing)
        assert sent == prompts[:2]

        healthy, sent = transport()
        resumed = run(tmp_path / "cache", healthy)
        assert sent == prompts[2:]

        fresh, _ = transport()
        assert resumed == run(tmp_path / "fresh", fresh)
        assert [q.question for q in resumed] == [f"What is {i}?" for i in range(5)]

    def test_duplicate_ids_rejected(self, hashed64):
        q = ImplicitQuestion("q0", "What is it?", "a", "c0", "t")
        with pytest.raises(ValueError, match="unique"):
            QuestionBank([q, q], hashed64)

    def test_save_load_round_trip(self, hashed64, tmp_path):
        qs = [
            ImplicitQuestion(f"q{i}", f"What is item {i}?", f"a{i}", "c0", "t")
            for i in range(3)
        ]
        write_records(tmp_path / "bank.jsonl", qs)
        loaded = QuestionBank.load(tmp_path / "bank.jsonl", hashed64)
        assert loaded.questions == qs
        assert read_jsonl(tmp_path / "bank.jsonl")[0].keys() == {
            "id", "question", "answer", "source_chunk_id", "tag",
        }


class TestTemplateQuestions:
    def q(self, title: str, body: str = "") -> QuestionRecord:
        return QuestionRecord(
            id="q", tag="t", title=title, body=body, accepted_answer="", views=1
        )

    def test_object_labels_become_what_questions(self):
        record = self.q("I converts a String. I converts an int.")
        assert [(c.subject, c.object) for c in extract_clauses(record.query_text())] == [
            ("I", "a String"), ("I", "an int"),
        ]
        got = template_questions(record)
        assert got == ["What is I?", "What is a String?", "What is an int?"]

    def test_no_clauses_no_templates(self):
        record = self.q("Sole-token-title?")
        assert extract_clauses(record.query_text()) == []
        assert template_questions(record) == []

    def test_case_insensitive_dedup_keeps_first_spelling(self):
        record = self.q("The Stack grows the stack. THE STACK shrinks.")
        assert [(c.subject, c.object) for c in extract_clauses(record.query_text())] == [
            ("The Stack", "the stack"), ("THE STACK", ""),
        ]
        assert template_questions(record) == ["What is The Stack?"]

    def test_only_what_archetype(self):
        got = template_questions(self.q("Why is the sky blue at noon?"))
        assert got
        assert all(t.startswith("What is ") and t.endswith("?") for t in got)

    def test_default_extractor_agrees_with_its_own_labels(self):
        record = self.q("The parser rejects nested macros.", body="")
        expected = []
        for clause in extract_clauses(record.query_text()):
            for label in (clause.subject, clause.object):
                label = label.strip().rstrip("?.!,;:")
                if label and f"What is {label}?" not in expected:
                    expected.append(f"What is {label}?")
        assert template_questions(record) == expected
