"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a failed assertion surfaces as the criterion's FAIL.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from planner_reference import reference_plan

from coi_rag.adherence import AdherenceReport, build_source_index, evaluate_text
from coi_rag.bench.config import load_config
from coi_rag.bench.runner import run_experiment
from coi_rag.corpus import Document, chunk
from coi_rag.planner import plan
from coi_rag.prompting import (
    assemble_genai,
    assemble_rag,
    assemble_rag_coi,
    generate,
)
from coi_rag.planner import IllocutionPlan
from coi_rag.providers import HashedEmbedder, RemoteGenerator
from coi_rag.question_bank import ImplicitQuestion, QuestionBank, template_questions
from coi_rag.records import QuestionRecord
from coi_rag.stats import (
    PairedSample,
    benjamini_hochberg,
    cohens_dz,
    mann_whitney_u,
    required_pairs,
    wilcoxon_signed_rank,
)
from coi_rag.vector_index import VectorIndex


def ok(criterion: str) -> None:
    print(f"ACCEPTANCE PASS: {criterion}")


def test_criterion_1_chunker_properties():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for n in rng.integers(1, 5001, size=1000):
        n = int(n)
        doc = Document(id="d", title="t", text=" ".join(f"t{i}" for i in range(n)))
        chunks = chunk(doc)
        covered = set()
        prev = None
        for c in chunks:
            covered.update(range(c.token_start, c.token_end))
            assert c.token_end - c.token_start >= min(100, n)
            if prev is not None and c.token_end - c.token_start == 150:
                overlap = min(prev.token_end, c.token_end) - max(
                    prev.token_start, c.token_start
                )
                assert overlap == 75
            prev = c
        assert covered == set(range(n))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"chunker property sweep took {elapsed:.2f}s"
    ok(f"1 chunker coverage/overlap/min-size on 1000 documents ({elapsed:.2f}s)")


def test_criterion_2_retrieval_exactness():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    for trial in range(100):
        vecs = rng.normal(size=(500, 64))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        index = VectorIndex([f"k{i:04d}" for i in range(500)], vecs)
        query = rng.normal(size=64)
        query /= np.linalg.norm(query)
        k = (1, 5, 10)[trial % 3]
        got = index.top_k(query, k)
        scored = sorted(
            ((f"k{i:04d}", float(np.dot(v, query))) for i, v in enumerate(vecs)),
            key=lambda kv: (-kv[1], kv[0]),
        )[:k]
        assert [g[0] for g in got] == [w[0] for w in scored]
        np.testing.assert_allclose([g[1] for g in got], [w[1] for w in scored], atol=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"retrieval sweep took {elapsed:.2f}s"
    ok(f"2 exact top-k equals brute force on 100 indexes ({elapsed:.2f}s)")


def test_criterion_3_planner_fidelity():
    embedder = HashedEmbedder(64)
    rng = np.random.default_rng(303)
    start = time.monotonic()
    for trial in range(200):
        vocab = [f"w{i}" for i in range(40)]
        chunk_texts = [
            " ".join(rng.choice(vocab, size=rng.integers(4, 12)))
            for _ in range(int(rng.integers(3, 30)))
        ]
        bank_texts = [
            "What is " + " ".join(rng.choice(vocab, size=rng.integers(1, 5))) + "?"
            for _ in range(int(rng.integers(0, 30)))
        ]
        primary = QuestionRecord(
            id="p", tag="t",
            title=" ".join(rng.choice(vocab, size=4)).capitalize(),
            body=" ".join(rng.choice(vocab, size=6)),
            accepted_answer="", views=1,
        )
        from coi_rag.corpus import Chunk
        from coi_rag.vector_index import build_index

        chunks = [
            Chunk(id=f"c{i}", doc_id="d", token_start=0, token_end=1,
                  text=t, page_span=(1, 1))
            for i, t in enumerate(chunk_texts)
        ]
        cindex = build_index([(c.id, c.text, c) for c in chunks], embedder)
        bank = QuestionBank(
            [ImplicitQuestion(f"q{i}", q, "a", "c0", "t") for i, q in enumerate(bank_texts)],
            embedder,
        )
        p = plan(primary, bank, cindex, embedder, pool_size=25,
                 per_question_chunks=10, keep=5)

        ids = p.chunk_ids()
        assert len(ids) == len(set(ids)), "chunk disjointness violated"
        assert len(p.selected) <= 5
        scores = [s.best_score for s in p.selected]
        assert scores == sorted(scores, reverse=True)

        want, want_overlap = reference_plan(
            primary.query_text(), bank_texts, chunk_texts, embedder,
            25, 10, 5, template_questions(primary),
        )
        assert p.primary_overlap_ids == want_overlap
        got = [
            (s.question.text, [c.id for c, _ in s.chunks], s.best_score)
            for s in p.selected
        ]
        assert [g[0] for g in got] == [w[0] for w in want]
        assert [g[1] for g in got] == [w[1] for w in want]
        np.testing.assert_allclose([g[2] for g in got], [w[2] for w in want], atol=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"planner sweep took {elapsed:.2f}s"
    ok(f"3 planner matches step-by-step simulation on 200 instances ({elapsed:.2f}s)")


SOURCE_TEXT = (
    "The parser reads one token at a time. "
    "Every symbol lives inside a flat table. "
    "The compiler checks each declaration before use. "
    "A stack frame holds the local bindings. "
    "The allocator returns aligned memory blocks. "
    "Each module exports a single namespace."
)


def test_criterion_4_adherence_oracles():
    embedder = HashedEmbedder(256)
    source = build_source_index(SOURCE_TEXT, embedder)

    copied = (
        "The parser reads one token at a time. "
        "A stack frame holds the local bindings. "
        "Each module exports a single namespace."
    )
    report = evaluate_text(copied, source, embedder, t=0.7)
    assert report.factscore == 1.0
    assert report.mean_similarity == pytest.approx(1.0, abs=1e-9)

    alien = (
        "Quartz umbrellas juggle vivid xylophones. "
        "Zebras quietly fumigate jaded herons."
    )
    report2 = evaluate_text(alien, source, embedder, t=0.7)
    assert report2.factscore == 0.0

    rng = np.random.default_rng(404)
    for _ in range(500):
        sims = rng.uniform(size=rng.integers(1, 40))
        ts = sorted(rng.uniform(size=4))
        reports = [AdherenceReport.from_similarities(sims, t, word_count=len(sims)) for t in ts]
        scores = [r.factscore for r in reports]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        for r in reports:
            assert r.factscore * len(sims) == pytest.approx(r.adherent_count)
    ok("4 adherence oracles: copy=1.0, disjoint=0.0, sweep monotone, exact ratio")


def test_criterion_5_statistics_exactness():
    s = PairedSample.from_lists(list("abcdef"), [2, 3, 4, 5, 6, 7], [1] * 6)
    assert wilcoxon_signed_rank(s, "greater").p_one_sided == pytest.approx(1 / 64)

    assert mann_whitney_u([4, 5, 6], [1, 2, 3], "greater").p_one_sided == pytest.approx(1 / 20)

    # Twenty fixed vectors with rejection sets derived by the step-up rule
    # on paper: find the largest i with p_(i) <= i*q/m, reject at or below.
    bh_cases = [
        ([0.01, 0.02, 0.03, 0.04], 0.05, [True, True, True, True]),
        ([0.9, 0.8], 0.05, [False, False]),
        ([0.01, 0.04, 0.03, 0.02], 0.05, [True, True, True, True]),
        ([0.05], 0.05, [True]),
        ([0.06], 0.05, [False]),
        ([0.025, 0.06], 0.05, [True, False]),
        ([0.03, 0.04], 0.05, [True, True]),
        ([0.02, 0.8], 0.05, [True, False]),
        ([0.026, 0.04], 0.05, [True, True]),
        ([0.5, 0.5, 0.5], 0.05, [False, False, False]),
        ([0.001, 0.001, 0.001, 0.001, 0.001], 0.05, [True] * 5),
        ([0.01, 0.011, 0.012, 0.013, 0.8], 0.05, [True, True, True, True, False]),
        ([0.04, 0.04, 0.04], 0.05, [True, True, True]),
        ([0.012, 0.03, 0.04, 0.06], 0.05, [True, False, False, False]),
        ([0.001, 0.008, 0.039, 0.041], 0.05, [True, True, True, True]),
        ([0.2, 0.1, 0.3], 0.10, [False, False, False]),
        ([0.033, 0.067, 0.1], 0.10, [True, True, True]),
        ([0.0, 1.0], 0.05, [True, False]),
        ([0.049, 0.05], 0.05, [True, True]),
        ([0.024, 0.026, 0.028, 0.9], 0.05, [True, True, True, False]),
    ]
    assert len(bh_cases) == 20
    for pvals, q, expected in bh_cases:
        assert benjamini_hochberg(pvals, q) == expected, (pvals, q)

    assert cohens_dz([2, 4]) == pytest.approx(2.1213, abs=1e-4)

    rng = np.random.default_rng(505)
    for _ in range(20):
        d = rng.normal(size=25)
        s25 = PairedSample.from_lists([str(i) for i in range(25)], d, np.zeros(25))
        p_exact = wilcoxon_signed_rank(s25, "greater", method="exact").p_one_sided
        p_approx = wilcoxon_signed_rank(s25, "greater", method="approx").p_one_sided
        assert abs(p_exact - p_approx) <= 0.01
        x, y = rng.normal(size=6), rng.normal(size=6)
        u_exact = mann_whitney_u(x, y, "greater", method="exact").p_one_sided
        u_approx = mann_whitney_u(x, y, "greater", method="approx").p_one_sided
        assert abs(u_exact - u_approx) <= 0.01

    start = time.monotonic()
    rejections = 0
    n_sims = 10_000
    for _ in range(n_sims):
        d = rng.normal(size=20)
        s20 = PairedSample.from_lists([str(i) for i in range(20)], d, np.zeros(20))
        if wilcoxon_signed_rank(s20, "greater").p_one_sided <= 0.05:
            rejections += 1
    elapsed = time.monotonic() - start
    rate = rejections / n_sims
    assert 0.03 <= rate <= 0.07, f"type-I error {rate:.4f} outside nominal band"
    assert elapsed < 60.0, f"type-I simulation took {elapsed:.1f}s"
    ok(f"5 statistics exactness (type-I rate {rate:.4f}, sim {elapsed:.1f}s)")


def test_criterion_6_power_function():
    assert required_pairs(0.3, 0.05, 0.8, "one", method="normal") == 69
    nct_n = required_pairs(0.3, 0.05, 0.8, "one", method="noncentral_t")
    assert 69 <= nct_n <= 75
    ok(f"6 power function: normal=69, noncentral-t={nct_n} within [69, 75]")


def _run_golden(golden_dir: Path, out: Path, cache: Path):
    cfg = load_config(golden_dir / "config.ini")
    cfg.output_dir = out
    cfg.cache_dir = cache
    return cfg, run_experiment(cfg)


def test_criterion_7_hermetic_golden_run(golden_dir, tmp_path, monkeypatch):
    import requests

    def no_network(*args, **kwargs):
        raise AssertionError("network request attempted during hermetic run")

    monkeypatch.setattr(requests, "post", no_network)
    monkeypatch.setattr(requests, "get", no_network)

    start = time.monotonic()
    _, first = _run_golden(golden_dir, tmp_path / "out1", tmp_path / "cache")
    assert first.items == 36 and first.failed == 0
    _, second = _run_golden(golden_dir, tmp_path / "out2", tmp_path / "cache")
    elapsed = time.monotonic() - start

    names1 = sorted(p.name for p in (tmp_path / "out1").iterdir())
    names2 = sorted(p.name for p in (tmp_path / "out2").iterdir())
    assert names1 == names2
    for name in names1:
        a = (tmp_path / "out1" / name).read_bytes()
        b = (tmp_path / "out2" / name).read_bytes()
        assert a == b, f"{name} differs between runs"
    assert elapsed < 60.0, f"golden runs took {elapsed:.1f}s"
    ok(f"7 hermetic golden run, byte-identical twice, offline ({elapsed:.1f}s)")


def test_criterion_8_prompt_fidelity():
    q = QuestionRecord(id="q", tag="t", title="What is dependency injection?",
                       body="Some body.", accepted_answer="", views=1)
    genai = assemble_genai(q)
    assert (
        "Provide a detailed, concise, pertinent, and coherent explanatory "
        "answer to the question below. Provide examples if needed."
    ) in genai.text

    from coi_rag.corpus import Chunk

    chunks = [Chunk(id="c", doc_id="d", token_start=0, token_end=1,
                    text="body text", page_span=(3, 4))]
    rag = assemble_rag(q, "Intro to Java", chunks)
    assert (
        'Sift through the text chunks provided (extracted from the textbook '
        '"Intro to Java") and combine the most relevant ones into a detailed, '
        "concise, pertinent, and coherent explanatory answer to the question "
        "below. Every statement must contain a reference to the source "
        "textbook page(s). Provide examples if needed."
    ) in rag.text

    from coi_rag.templates import QA_EXTRACTION_TEMPLATE

    assert QA_EXTRACTION_TEMPLATE.startswith(
        "Analyse the English paragraph below to generate a comprehensive list "
        "of Q&As in English, capturing: what, who, why, how, how much, where, "
        "when, who by, which, whose."
    )

    coi_empty = assemble_rag_coi(q, "Intro to Java", chunks, IllocutionPlan(primary=q))
    assert coi_empty.text == rag.text

    bodies = []

    def transport(url, body, headers):
        bodies.append(body)
        return {"choices": [{"message": {"content": "A reply."}}]}

    generator = RemoteGenerator("m", transport=transport)
    for bundle in (genai, rag, coi_empty):
        generate(bundle, generator)
    assert [(b["temperature"], b["top_p"]) for b in bodies] == [(0.5, 0.0)] * 3
    ok("8 prompt templates verbatim, empty-plan equivalence, decoding (0.5, 0.0) on the wire")


def test_criterion_9_directional_sanity(golden_dir, tmp_path):
    _, report = _run_golden(golden_dir, tmp_path / "out", tmp_path / "cache")
    items = [
        json.loads(line)
        for line in (tmp_path / "out" / "items.jsonl").read_text().splitlines()
    ]
    by_key = {(i["model"], i["mode"], i["question_id"]): i for i in items}
    models = sorted({i["model"] for i in items})
    questions = sorted({i["question_id"] for i in items})
    gains = []
    for model in models:
        for qid in questions:
            coi = by_key[(model, "rag_coi", qid)]["factscore"]
            rag = by_key[(model, "rag", qid)]["factscore"]
            assert coi >= rag, f"{model}/{qid}: rag_coi {coi} < rag {rag}"
            gains.append(coi - rag)
    assert max(gains) > 0, "expected at least one strict adherence gain"
    ok(f"9 rag_coi factscore >= rag on all {len(gains)} pairs "
       f"(mean gain {float(np.mean(gains)):.4f})")
