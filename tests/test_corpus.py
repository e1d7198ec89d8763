from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coi_rag.corpus import (
    Document,
    chunk,
    chunks_from_jsonl,
    read_document,
    tokenize,
)
from coi_rag.records import read_jsonl, write_records


def make_doc(n_tokens: int, doc_id: str = "d") -> Document:
    return Document(id=doc_id, title="T", text=" ".join(f"t{i}" for i in range(n_tokens)))


class TestTokenize:
    def test_whitespace_runs(self):
        assert tokenize("a  b\nc") == ["a", "b", "c"]

    def test_empty(self):
        assert tokenize("") == []

    def test_no_empty_tokens(self):
        assert all(tokenize("  x \t y  "))

    def test_word_count_matches_wc(self):
        # A large text's token count equals its whitespace word count.
        text = ("alpha beta gamma delta " * 1000).strip()
        assert len(tokenize(text)) == 4000


class TestChunk:
    def test_300_tokens(self):
        spans = [(c.token_start, c.token_end) for c in chunk(make_doc(300))]
        assert spans == [(0, 150), (75, 225), (150, 300)]

    def test_320_tokens_short_tail_merged(self):
        spans = [(c.token_start, c.token_end) for c in chunk(make_doc(320))]
        assert spans == [(0, 150), (75, 225), (150, 320)]

    def test_exactly_one_window(self):
        spans = [(c.token_start, c.token_end) for c in chunk(make_doc(150))]
        assert spans == [(0, 150)]

    def test_short_document_single_chunk(self):
        spans = [(c.token_start, c.token_end) for c in chunk(make_doc(40))]
        assert spans == [(0, 40)]

    def test_text_equals_token_join(self):
        doc = make_doc(320)
        tokens = doc.tokens
        for c in chunk(doc):
            assert c.text == " ".join(tokens[c.token_start : c.token_end])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            chunk(make_doc(10), size=100, overlap=100)
        with pytest.raises(ValueError):
            chunk(make_doc(10), size=100, overlap=50, min_tokens=0)

    @given(st.integers(min_value=1, max_value=5000))
    @settings(max_examples=120, deadline=None)
    def test_coverage_overlap_minsize(self, n):
        doc = make_doc(n)
        chunks = chunk(doc)
        covered = set()
        for c in chunks:
            covered.update(range(c.token_start, c.token_end))
        assert covered == set(range(n))
        # consecutive non-extended chunks overlap by exactly 75
        for a, b in zip(chunks, chunks[1:]):
            if b.token_end - b.token_start == 150:
                got = len(
                    set(range(a.token_start, a.token_end))
                    & set(range(b.token_start, b.token_end))
                )
                assert got == 75
        for c in chunks:
            assert c.token_end - c.token_start >= min(100, n)

    def test_deterministic_ids(self):
        doc = make_doc(777)
        first = chunk(doc)
        second = chunk(doc)
        assert [c.id for c in first] == [c.id for c in second]
        assert [(c.token_start, c.token_end) for c in first] == [
            (c.token_start, c.token_end) for c in second
        ]


class TestPages:
    def test_sentinel_parsing(self, tmp_path):
        p = tmp_path / "book.txt"
        p.write_text(
            "@@PAGE 1@@\n" + " ".join(f"a{i}" for i in range(200)) + "\n"
            "@@PAGE 2@@\n" + " ".join(f"b{i}" for i in range(200)) + "\n",
            encoding="utf-8",
        )
        doc = read_document(p, doc_id="bk")
        assert doc.page_offsets == ((1, 0), (2, 200))
        assert "@@PAGE" not in doc.text
        chunks = chunk(doc)
        assert chunks[0].page_span == (1, 1)  # [0,150) sits inside page 1
        assert chunks[1].page_span == (1, 2)  # [75,225) crosses the boundary

    def test_no_sentinels_defaults_to_page_1(self, tmp_path):
        p = tmp_path / "plain.txt"
        p.write_text(" ".join(f"w{i}" for i in range(120)), encoding="utf-8")
        doc = read_document(p)
        for c in chunk(doc):
            assert c.page_span == (1, 1)

    def test_form_feed_sentinel(self, tmp_path):
        p = tmp_path / "ff.txt"
        p.write_text("one two\n\x0c@@PAGE 5@@\nthree four", encoding="utf-8")
        doc = read_document(p)
        assert (5, 2) in doc.page_offsets

    def test_blank_page_is_replaced_by_the_next_sentinel(self, tmp_path):
        p = tmp_path / "blank.txt"
        p.write_text("@@PAGE 1@@\none two\n@@PAGE 2@@\n@@PAGE 3@@\nthree four", encoding="utf-8")
        doc = read_document(p)
        assert doc.page_offsets == ((1, 0), (3, 2))
        assert doc.page_at(2) == 3

    def test_front_matter_belongs_to_page_1(self, tmp_path):
        p = tmp_path / "front.txt"
        p.write_text("Title Page\n@@PAGE 1@@\none two\n@@PAGE 2@@\nthree", encoding="utf-8")
        doc = read_document(p)
        assert doc.page_offsets == ((1, 0), (2, 4))
        assert [doc.page_at(i) for i in range(5)] == [1, 1, 1, 1, 2]

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            Document(id="x", title="t", text="a b", page_offsets=((2, 0), (1, 1)))


class TestSerialization:
    def test_jsonl_round_trip(self, tmp_path):
        doc = make_doc(400)
        chunks = chunk(doc)
        path = tmp_path / "chunks.jsonl"
        write_records(path, chunks)
        assert chunks_from_jsonl(path) == chunks
        assert read_jsonl(path)[0].keys() == {
            "id", "doc_id", "token_start", "token_end", "text", "page_span",
        }
