from __future__ import annotations

import numpy as np
import pytest

from coi_rag.corpus import Chunk
from coi_rag.planner import IllocutionPlan, plan, pool_ratio_check
from coi_rag.providers import HashedEmbedder
from coi_rag.question_bank import ImplicitQuestion, QuestionBank, template_questions
from coi_rag.records import QuestionRecord
from coi_rag.vector_index import VectorIndex, build_index


def make_chunks(texts: list[str]) -> list[Chunk]:
    return [
        Chunk(id=f"c{i}", doc_id="d", token_start=0, token_end=1, text=t, page_span=(1, 1))
        for i, t in enumerate(texts)
    ]


def make_setup(chunk_texts, bank_questions, embedder):
    chunks = make_chunks(chunk_texts)
    chunk_index = build_index([(c.id, c.text, c) for c in chunks], embedder)
    bank = QuestionBank(
        [
            ImplicitQuestion(f"q{i}", q, "answer", "c0", "t")
            for i, q in enumerate(bank_questions)
        ],
        embedder,
    )
    return chunks, chunk_index, bank


def record(title: str, body: str = "") -> QuestionRecord:
    return QuestionRecord(id="p", tag="t", title=title, body=body, accepted_answer="", views=1)


from planner_reference import reference_plan  # noqa: E402  (sibling helper)


class TestPoolRatio:
    def test_paper_defaults(self):
        assert pool_ratio_check(25, 5) is True

    def test_thin_pool(self):
        assert pool_ratio_check(10, 5) is False

    def test_ratio_exactly_five(self):
        assert pool_ratio_check(50, 10) is True


class TestPlanCases:
    def test_single_candidate(self, hashed64):
        chunks, cindex, bank = make_setup(
            ["alpha beta gamma"], ["What is alpha beta?"], hashed64
        )
        p = plan(record("Tell me about alpha beta"), bank, cindex, hashed64)
        assert len(p.selected) == 1
        sel = p.selected[0]
        assert sel.question.text == "What is alpha beta?"
        assert [c.id for c, _ in sel.chunks] == ["c0"]
        assert sel.best_score == pytest.approx(sel.chunks[0][1])

    def test_contested_chunk_goes_to_higher_scorer(self, hashed64):
        # One chunk; the first bank question shares 2 of its 2 tokens, the
        # second shares 1 of 2, so the first must own the chunk and the
        # second is left chunkless and discarded.
        chunks, cindex, bank = make_setup(
            ["alpha beta"],
            ["alpha beta?", "alpha gamma?"],
            hashed64,
        )
        p = plan(record("alpha beta together"), bank, cindex, hashed64,
                 per_question_chunks=1)
        assert len(p.selected) == 1
        assert p.selected[0].question.text == "alpha beta?"

    def test_more_survivors_than_budget_keeps_top_five_sorted(self, hashed64):
        # Seven disjoint-topic questions, one dedicated chunk each, with
        # varying token overlap so best scores differ.
        topics = ["ant", "bee", "cat", "dog", "elk", "fox", "gnu"]
        chunk_texts = []
        bank_texts = []
        for i, t in enumerate(topics):
            extra = " ".join(f"{t}fill{j}" for j in range(i))
            chunk_texts.append(f"{t}one {t}two {extra}".strip())
            bank_texts.append(f"{t}one {t}two?")
        chunks, cindex, bank = make_setup(chunk_texts, bank_texts, hashed64)
        p = plan(record(" ".join(topics)), bank, cindex, hashed64)
        assert len(p.selected) == 5
        scores = [s.best_score for s in p.selected]
        assert scores == sorted(scores, reverse=True)

    def test_empty_bank_and_no_templates_degrades(self, hashed64):
        chunks, cindex, _ = make_setup(["alpha beta"], [], hashed64)
        bank = QuestionBank([], hashed64)
        q = record("anything at all")
        assert template_questions(q) == []
        p = plan(q, bank, cindex, hashed64)
        assert p.selected == []

    def test_templates_join_the_pool(self, hashed64):
        chunks, cindex, _ = make_setup(["gizmo parts list"], [], hashed64)
        bank = QuestionBank([], hashed64)
        q = record("The gizmo keeps failing")
        assert template_questions(q) != []
        p = plan(q, bank, cindex, hashed64)
        assert len(p.selected) >= 1
        assert all(s.question.origin == "template" for s in p.selected)

    def test_keep_larger_than_pool_rejected(self, hashed64):
        chunks, cindex, bank = make_setup(["a b"], ["a?"], hashed64)
        with pytest.raises(ValueError):
            plan(record("a"), bank, cindex, hashed64, pool_size=3, keep=5)

    def test_overlap_flagging(self, hashed64):
        # Each bank question owns one chunk; the primary text's single top
        # chunk is c0, so only c0 is flagged.
        chunks, cindex, bank = make_setup(
            ["alpha beta gamma", "delta epsilon zeta"],
            ["alpha beta?", "delta epsilon?"],
            hashed64,
        )
        p = plan(record("alpha beta"), bank, cindex, hashed64,
                 per_question_chunks=1)
        assert sorted(p.chunk_ids()) == ["c0", "c1"]
        assert p.primary_overlap_ids == ["c0"]

    def test_plan_json_round_trippable(self, hashed64):
        chunks, cindex, bank = make_setup(["alpha beta"], ["alpha?"], hashed64)
        primary = record("alpha")
        p = plan(primary, bank, cindex, hashed64)
        blob = p.to_json()
        assert blob["primary_id"] == "p"
        assert blob["selected"][0]["chunks"][0]["id"] == "c0"
        assert blob["primary_overlap_ids"] == ["c0"]
        rebuilt = IllocutionPlan.from_json(blob, primary, cindex.payload)
        assert rebuilt.to_json() == blob
        assert rebuilt.selected[0].chunks[0][0] is chunks[0]


class TestPlanRandomizedAgainstReference:
    def run_one(self, seed: int, embedder):
        rng = np.random.default_rng(seed)
        vocab = [f"w{i}" for i in range(40)]
        n_chunks = int(rng.integers(3, 30))
        n_bank = int(rng.integers(0, 30))
        chunk_texts = [
            " ".join(rng.choice(vocab, size=rng.integers(4, 12)))
            for _ in range(n_chunks)
        ]
        bank_texts = [
            "What is " + " ".join(rng.choice(vocab, size=rng.integers(1, 5))) + "?"
            for _ in range(n_bank)
        ]
        title = " ".join(rng.choice(vocab, size=4)).capitalize()
        body = " ".join(rng.choice(vocab, size=6))
        primary = record(title, body)

        chunks, cindex, bank = make_setup(chunk_texts, bank_texts, embedder)
        M, k, m = 25, 10, 5
        p = plan(primary, bank, cindex, embedder, pool_size=M,
                 per_question_chunks=k, keep=m)

        templates = template_questions(primary)
        want, want_overlap = reference_plan(
            primary.query_text(), bank_texts, chunk_texts, embedder, M, k, m, templates
        )
        got = [
            (s.question.text, [c.id for c, _ in s.chunks], s.best_score)
            for s in p.selected
        ]
        assert [g[0] for g in got] == [w[0] for w in want]
        assert [g[1] for g in got] == [w[1] for w in want]
        np.testing.assert_allclose([g[2] for g in got], [w[2] for w in want], atol=1e-12)
        assert p.primary_overlap_ids == want_overlap

        # invariants
        ids = p.chunk_ids()
        assert len(ids) == len(set(ids))
        scores = [s.best_score for s in p.selected]
        assert scores == sorted(scores, reverse=True)
        assert len(p.selected) <= m
        assert all(s.chunks for s in p.selected)

    def test_fifty_random_instances(self, hashed64):
        for seed in range(50):
            self.run_one(seed, hashed64)

    def test_idempotent(self, hashed64):
        chunks, cindex, bank = make_setup(
            ["alpha beta gamma", "beta gamma delta", "epsilon zeta eta"],
            ["What is alpha?", "What is beta gamma?", "What is zeta?"],
            hashed64,
        )
        q = record("alpha beta", "gamma delta")
        p1 = plan(q, bank, cindex, hashed64)
        p2 = plan(q, bank, cindex, hashed64)
        assert p1.to_json() == p2.to_json()
