from __future__ import annotations

import hashlib
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coi_rag.providers import CallCache, HashedEmbedder, ProviderError, RemoteEmbedder
from coi_rag.records import json_line
from coi_rag.vector_index import VectorIndex, build_index, clamp01, cosine, row_scores

EMBED_TOKENS = ("a", "b", "the", "The", "the.", "caf\u00e9", "\u6771\u4eac", "x\x1cy", "42")


class TestHashedEmbedder:
    def test_repeated_token_single_coordinate(self):
        v = HashedEmbedder(256).embed(["abc abc"])[0]
        assert np.count_nonzero(v) == 1
        assert v.max() == pytest.approx(1.0)

    def test_deterministic(self):
        emb = HashedEmbedder(256)
        a = emb.embed(["x"])[0]
        b = emb.embed(["x"])[0]
        assert np.array_equal(a, b)

    def test_self_similarity(self):
        emb = HashedEmbedder(256)
        v = emb.embed(["cat dog"])[0]
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_subset_text_similarity(self):
        # "cat dog" vs "cat": one of two unit-mass coordinates shared.
        emb = HashedEmbedder(256)
        a, b = emb.embed(["cat dog", "cat"])
        assert cosine(a, b) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_unit_norm(self):
        for text in ("a", "a b c", "lorem ipsum dolor sit amet"):
            v = HashedEmbedder(64).embed([text])[0]
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            HashedEmbedder(64).embed(["ok", "  "])

    @pytest.mark.parametrize("dims", [1, 7, 256])
    def test_equals_per_token_reference(self, dims):
        emb = HashedEmbedder(dims)
        want = reference_embed(HASH_TEXTS, dims)
        for texts, rows in ((HASH_TEXTS, want), (HASH_TEXTS[::-1], want[::-1])):  # then every token a memo hit
            assert np.array_equal(emb.embed(texts), rows)
        for text, counts in zip(HASH_TEXTS + [""], reference_counts(HASH_TEXTS + [""], dims)):
            assert np.array_equal(emb.embed_raw(text), counts)

    def test_instances_of_different_dims_hash_apart(self):
        """Each instance keeps its own memo: a bucket depends on ``dims``."""
        small, large = HashedEmbedder(7), HashedEmbedder(256)
        for _ in range(2):
            for emb in (small, large):
                assert np.array_equal(emb.embed(HASH_TEXTS[:3]), reference_embed(HASH_TEXTS[:3], emb.dims))

    @given(
        st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=6),
        st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_disjoint_then_shared_token_raises_similarity(self, xs, ys):
        # Disjoint-vocabulary texts score 0; granting them a shared token
        # can only move the cosine up from there (vectors are nonnegative).
        emb = HashedEmbedder(dims=997)
        a = " ".join("L" + t for t in xs)
        b = " ".join("R" + t for t in ys)
        base = cosine(*emb.embed([a, b]))
        assert base == pytest.approx(0.0, abs=1e-12)
        joined = cosine(*emb.embed([a + " shared", b + " shared"]))
        assert joined >= base

    @given(
        st.sampled_from([1, 7, 256]),
        st.lists(
            st.one_of(
                st.sampled_from(["x", "the", "caf\u00e9", "\U0001f600"]),  # single tokens, often repeated
                st.lists(st.sampled_from(EMBED_TOKENS), min_size=1, max_size=8).map(" ".join),
            ),
            min_size=1, max_size=12,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_batch_equals_per_text_normalized_counts(self, dims, texts):
        """One batch count is bit-identical to each text's counts over their own norm."""
        raw = HashedEmbedder(dims).embed_raw
        want = np.array([raw(t) / np.linalg.norm(raw(t)) for t in texts])
        assert HashedEmbedder(dims).embed(texts).tobytes() == want.tobytes()

    @given(
        st.lists(st.sampled_from(["a", "b c", "", " ", "\t\n", "\xa0", "\x1c", "\u2028", "x\xa0y"]), min_size=1, max_size=8)
    )
    @settings(max_examples=100, deadline=None)
    def test_empty_text_error_names_the_first_blank_position(self, texts):
        first = next((i for i, t in enumerate(texts) if not t.strip()), None)
        emb = HashedEmbedder(16)
        if first is None:
            assert emb.embed(texts).shape == (len(texts), 16)
        else:
            with pytest.raises(ValueError, match=f"^cannot embed empty text at position {first}$"):
                emb.embed(texts)


# Repeated tokens, punctuation, non-ASCII text and mixed whitespace.
HASH_TEXTS = [
    "the parser reads the the token",
    "Hello, world! (Hello) world. \"quoted\" it's",
    "\u00e9t\u00e9 na\u00efve \u2014 \u6771\u4eac caf\u00e9 caf\u00e9 \U0001f600",
    "a\tb\nc  a\u00a0b",
    "x",
]


def reference_counts(texts: list[str], dims: int) -> np.ndarray:
    """Token counts per text, from one blake2b digest per token occurrence."""
    out = np.zeros((len(texts), dims))
    for i, text in enumerate(texts):
        for tok in text.split():
            digest = hashlib.blake2b(tok.encode("utf-8"), digest_size=8).digest()
            out[i, int.from_bytes(digest, "big") % dims] += 1.0
    return out


def reference_embed(texts: list[str], dims: int) -> np.ndarray:
    return np.array([row / np.linalg.norm(row) for row in reference_counts(texts, dims)])


class TestCosine:
    def test_identity(self):
        v = np.array([0.6, 0.8])
        assert cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal_one_hot(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.normal(size=16)
            b = rng.normal(size=16)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            assert abs(cosine(a, b) - cosine(b, a)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.ones(3), np.ones(4))

    def test_clamp(self):
        assert clamp01(-0.2) == 0.0
        assert clamp01(1.0000001) == 1.0
        assert clamp01(0.5) == 0.5


def brute_force_top_k(index: VectorIndex, query: np.ndarray, k: int):
    scored = [(key, float(np.dot(vec, query))) for key, vec in zip(index.keys, index.vectors)]
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return scored[:k]


class TestTopK:
    def make_index(self, n=50, dims=16, seed=0):
        rng = np.random.default_rng(seed)
        vecs = rng.normal(size=(n, dims))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        return VectorIndex([f"k{i:03d}" for i in range(n)], vecs)

    def test_self_retrieval(self):
        index = self.make_index()
        key, score = index.top_k(index.vector("k007"), 1)[0]
        assert key == "k007"
        assert score == pytest.approx(1.0, abs=1e-9)

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            index = self.make_index(n=80, dims=12, seed=trial)
            q = rng.normal(size=12)
            q /= np.linalg.norm(q)
            for k in (1, 5, 10):
                got = index.top_k(q, k)
                want = brute_force_top_k(index, q, k)
                assert [g[0] for g in got] == [w[0] for w in want]
                np.testing.assert_allclose(
                    [g[1] for g in got], [w[1] for w in want], atol=1e-12
                )

    def test_k_exceeds_index(self):
        index = self.make_index(n=7)
        got = index.top_k(index.vectors[0], 99)
        assert len(got) == 7
        scores = [s for _, s in got]
        assert scores == sorted(scores, reverse=True)

    def test_ties_break_by_ascending_key(self):
        v = np.array([1.0, 0.0])
        index = VectorIndex(["b", "a", "c"], np.array([v, v, v]))
        assert [k for k, _ in index.top_k(v, 3)] == ["a", "b", "c"]

    def test_integer_ties_match_linear_scan(self):
        # Row order, numeric order and string order of the keys all differ
        # ("src:10" < "src:2"), and integer-count vectors tie exactly.
        keys = [f"src:{i}" for i in (3, 2, 11, 0, 10, 1, 5, 4, 9, 7, 6, 8)]
        rng = np.random.default_rng(7)
        vecs = rng.integers(0, 3, size=(12, 4)).astype(float)
        vecs[4] = vecs[1]  # src:10 repeats src:2
        index = VectorIndex(keys, vecs)
        queries = np.vstack([vecs[1], rng.integers(0, 3, size=(30, 4))])
        for q in queries:
            for k in (1, 3, 12):
                assert index.top_k(q, k) == brute_force_top_k(index, q, k)
        scores = np.array([2.0, 1.0, 2.0] + [0.0] * 9)
        assert index.rank_many(scores[None], 2)[0] == [("src:11", 2.0), ("src:3", 2.0)]

    def test_empty_index_error(self):
        index = VectorIndex([], np.zeros((0, 4)))
        with pytest.raises(ValueError):
            index.top_k(np.zeros(4), 1)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            VectorIndex(["a", "a"], np.eye(2))

    def test_save_load_round_trip(self, tmp_path):
        emb = HashedEmbedder(32)
        index = build_index(
            [("x", "alpha beta", {"n": 1}), ("y", "gamma", {"n": 2})], emb
        )
        path = tmp_path / "index.jsonl"
        index.save(path)
        loaded = VectorIndex.load(path)
        assert loaded.keys == index.keys
        assert loaded.payload("y") == {"n": 2}
        np.testing.assert_allclose(loaded.vectors, index.vectors)


# Values whose reprs differ in form: signed zeros, subnormals, scientific notation.
SAVE_VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-05, -1e-05, 1.5e-07, 1e16, 1e+16 + 2.0,
    -2.5e20, 0.1, 1.0 / 3.0, 0.5, -1.0, 123456.789,
)
save_values = st.sampled_from(SAVE_VALUES) | st.floats(allow_nan=False, allow_infinity=False)
save_matrices = st.integers(1, 5).flatmap(
    lambda cols: st.lists(st.lists(save_values, min_size=cols, max_size=cols), min_size=1, max_size=6)
).map(np.array)


def per_row_lines(index: VectorIndex) -> str:
    """The bytes ``save`` must write: ``json_line`` of each row's key, payload and vector."""
    return "".join(
        json_line({"key": key, "payload": payload, "vector": vec.tolist()})
        for key, vec, payload in zip(index.keys, index.vectors, index.payloads)
    )


class TestSave:
    """``VectorIndex.save`` writes the per-row ``json_line`` bytes, and ``load`` reads back every bit."""

    @staticmethod
    def saved(index: VectorIndex, tmp_path) -> str:
        index.save(tmp_path / "index.jsonl")
        return (tmp_path / "index.jsonl").read_text(encoding="utf-8")

    @staticmethod
    def index(vectors) -> VectorIndex:
        vectors = np.asarray(vectors, dtype=float)
        keys = [f"k\u00e9{i}" for i in range(len(vectors))]
        payloads = [{"n": i, "t": "\u6771\u4eac", "w": [0.5, -0.0]} for i in range(len(keys))]
        return VectorIndex(keys, vectors, payloads)

    @pytest.mark.parametrize("vectors", [
        [[0.25, 0.25, 0.5, 0.25], [0.5, 0.25, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25]],  # repeated values
        [[0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]],  # signed zeros side by side: equal floats, other bits
        [[5e-324, -5e-324, 2.2250738585072014e-308, 1e-310]],  # subnormals, one row
        [[1e-05], [1e16], [1e+16 + 2.0], [-2.5e20], [1.5e-07]],  # scientific reprs, one column
        [[0.1]],  # one row, one column
        [[np.nan, np.inf, -np.inf, 1.0]],  # non-finite values take json's own spellings
        np.zeros((3, 0)),  # rows with no columns
        np.arange(24.0).reshape(4, 6)[::2, 1::2],  # a strided view, not a contiguous array
    ])
    def test_bytes_equal_per_row_json_lines(self, tmp_path, vectors):
        index = self.index(vectors)
        assert self.saved(index, tmp_path) == per_row_lines(index)

    @given(save_matrices)
    @settings(max_examples=200, deadline=None)
    def test_random_matrices_bytes_and_bit_exact_round_trip(self, vectors):
        index = self.index(vectors)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.jsonl"
            index.save(path)
            assert path.read_text(encoding="utf-8") == per_row_lines(index)
            loaded = VectorIndex.load(path)
        assert loaded.keys == index.keys
        assert loaded.payloads == index.payloads
        assert loaded.vectors.shape == index.vectors.shape
        assert loaded.vectors.tobytes() == index.vectors.tobytes()

    def test_embedded_index_round_trip_is_bit_exact(self, tmp_path):
        emb = HashedEmbedder(64)
        index = build_index([(f"c{i}", text, None) for i, text in enumerate(EMBED_TOKENS)], emb)
        assert self.saved(index, tmp_path) == per_row_lines(index)
        loaded = VectorIndex.load(tmp_path / "index.jsonl")
        assert loaded.vectors.tobytes() == index.vectors.tobytes()
        assert loaded.keys == index.keys and loaded.payloads == index.payloads


def lexsort_top_1(index: VectorIndex, scores: np.ndarray) -> list[tuple[str, float]]:
    """The full sort ``rank_many`` runs for ``k > 1``, cut to one row."""
    i = np.lexsort((index._key_rank, -scores))[0]
    return [(index.keys[i], float(scores[i]))]


class TestRankTop1:
    """``rank_many`` of one row at ``k == 1`` takes the max, unsorted, and equals the sort's first row."""

    KEYS = [f"src:{i}" for i in (3, 2, 11, 0, 10, 1, 5, 4, 9, 7, 6, 8)]

    def index(self) -> VectorIndex:
        return VectorIndex(self.KEYS, np.zeros((len(self.KEYS), 2)))

    @given(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0]), min_size=12, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_many_way_ties_equal_lexsort(self, values):
        scores = np.array(values)
        got = self.index().rank_many(scores[None], 1)[0]
        want = lexsort_top_1(self.index(), scores)
        assert got == want
        assert math.copysign(1.0, got[0][1]) == math.copysign(1.0, want[0][1])

    def test_signed_zeros_tie(self):
        index = self.index()
        scores = np.zeros(12)
        scores[[0, 3, 4]] = -0.0  # src:3, src:0 and src:10; the rest hold +0.0
        for s in (scores, -scores):
            got = index.rank_many(s[None], 1)[0]
            assert got == lexsort_top_1(index, s) == [("src:0", 0.0)]
            assert math.copysign(1.0, got[0][1]) == math.copysign(1.0, s[3])

    def test_all_scores_equal(self):
        index = self.index()
        for value in (-1.0, 0.0, 0.7):
            scores = np.full(12, value)
            assert index.rank_many(scores[None], 1)[0] == lexsort_top_1(index, scores) == [("src:0", value)]

    def test_nan_ranks_last_as_in_the_sort(self):
        index = self.index()
        scores = np.linspace(0.0, 1.0, 12)
        scores[[2, 7]] = np.nan
        assert index.rank_many(scores[None], 1)[0] == lexsort_top_1(index, scores) == [("src:8", 1.0)]
        all_nan = index.rank_many(np.full((1, 12), np.nan), 1)[0]
        assert all_nan[0][0] == lexsort_top_1(index, np.full(12, np.nan))[0][0] == "src:0"

    def test_random_scores_equal_lexsort(self):
        rng = np.random.default_rng(3)
        index = VectorIndex([f"k{i}" for i in rng.permutation(200)], np.zeros((200, 2)))
        for _ in range(50):
            scores = np.round(rng.normal(size=200), 1)  # coarse, so ties are common
            assert index.rank_many(scores[None], 1)[0] == lexsort_top_1(index, scores)


def reference_rank(index: VectorIndex, scores: np.ndarray, k: int) -> list[tuple[str, float]]:
    """One row ranked on its own: the max and its smallest tied key for k = 1, else one lexsort."""
    if k == 1 and not np.isnan(best := scores.max()):  # the sort puts NaN last
        tied = np.flatnonzero(scores == best)
        i = tied[np.argmin(index._key_rank[tied])]
        return [(index.keys[i], float(scores[i]))]
    order = np.lexsort((index._key_rank, -scores))[:k]
    return [(index.keys[i], float(scores[i])) for i in order]


def exact(hits: list[tuple[str, float]]) -> list[tuple[str, str]]:
    """Hits with each score as its repr, which tells -0.0 from 0.0 and lets NaN equal NaN."""
    return [(key, repr(score)) for key, score in hits]


score_rows = st.tuples(
    st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0]), min_size=12, max_size=12),
    st.one_of(st.just(set()), st.sets(st.integers(0, 11), max_size=3), st.just(set(range(12)))),
).map(lambda row_nans: [np.nan if i in row_nans[1] else v for i, v in enumerate(row_nans[0])])


class TestRankMany:
    """``rank_many`` and ``top_k_many`` equal a loop of one-row ``rank_many`` calls and of ``top_k``."""

    KEYS = TestRankTop1.KEYS

    @given(st.lists(score_rows, min_size=1, max_size=6), st.sampled_from([1, 2, 3, 12, 20]))
    @settings(max_examples=400, deadline=None)
    def test_rows_equal_loop_of_one_row_rank(self, rows, k):
        index = VectorIndex(self.KEYS, np.zeros((12, 2)))
        scores = np.array(rows)
        want = [exact(reference_rank(index, row, k)) for row in scores]
        assert [exact(hits) for hits in index.rank_many(scores, k)] == want
        assert [exact(index.rank_many(row[None], k)[0]) for row in scores] == want

    def test_nan_rows_among_finite_rows(self):
        index = VectorIndex(self.KEYS, np.zeros((12, 2)))
        scores = np.tile(np.linspace(0.0, 1.0, 12), (4, 1))
        scores[1, [2, 7]] = np.nan
        scores[2] = np.nan
        for k in (1, 3):
            want = [exact(reference_rank(index, row, k)) for row in scores]
            assert [exact(hits) for hits in index.rank_many(scores, k)] == want
        assert [hits[0][0] for hits in index.rank_many(scores, 1)] == ["src:8", "src:8", "src:0", "src:8"]

    @pytest.mark.parametrize("k", [1, 3, 12, 14])
    def test_top_k_many_equals_loop_of_top_k(self, k):
        rng = np.random.default_rng(k)
        vecs = rng.integers(0, 3, size=(12, 4)).astype(float)  # integer vectors: exact ties
        vecs[4] = vecs[1]
        index = VectorIndex(self.KEYS, vecs)
        queries = np.vstack([vecs[1], -vecs[2], rng.integers(-2, 3, size=(30, 4)), [np.nan, 1.0, 0.0, 0.0]])
        want = [exact(reference_rank(index, vecs @ q, k)) for q in queries]
        assert [exact(hits) for hits in index.top_k_many(queries, k)] == want
        assert [exact(index.top_k(q, k)) for q in queries] == want

    def test_top_k_many_checks_its_queries(self):
        index = VectorIndex(["a", "b"], np.eye(2))
        assert index.top_k_many(np.zeros((0, 2)), 1) == []
        for bad in (np.zeros(2), np.zeros((3, 3))):
            with pytest.raises(ValueError, match="does not match index dims"):
                index.top_k_many(bad, 1)
        with pytest.raises(ValueError, match="empty index"):
            VectorIndex([], np.zeros((0, 2))).top_k_many(np.zeros((1, 2)), 1)


class TestRowScores:
    @pytest.mark.parametrize("rows", [480, 61])  # a book's source clauses; a book's chunks
    def test_equal_matrix_vector_products_bit_for_bit(self, rows):
        """A NumPy that runs the batch as one matrix-matrix product sums in another order and fails here."""
        rng = np.random.default_rng(rows)
        matrix = rng.normal(size=(rows, 256))
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        for n in (1, 2, 30, 300):
            queries = rng.normal(size=(n, 256))
            queries /= np.linalg.norm(queries, axis=1, keepdims=True)
            want = np.stack([matrix @ q for q in queries])
            assert row_scores(matrix, queries).tobytes() == want.tobytes()


class TestRemoteEmbedder:
    def make_transport(self, dims=4, fail_times=0):
        calls = {"n": 0, "failures_left": fail_times}

        def transport(url, body, headers):
            calls["n"] += 1
            if calls["failures_left"] > 0:
                calls["failures_left"] -= 1
                raise ConnectionError("boom")
            data = [
                {"embedding": [float(len(text)), 1.0, 0.0, 0.0][:dims], "index": i}
                for i, text in enumerate(body["input"])
            ]
            return {"data": data}

        return transport, calls

    def test_orders_and_normalizes(self):
        transport, calls = self.make_transport()
        emb = RemoteEmbedder("m", transport=transport, backoff=0.0, dims=4)
        out = emb.embed(["aa", "bbbb"])
        assert out.shape == (2, 4)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), [1.0, 1.0])
        assert out[1][0] > out[0][0] * 0.9  # order preserved
        assert calls["n"] == 1

    def test_retries_then_succeeds(self):
        transport, calls = self.make_transport(fail_times=2)
        emb = RemoteEmbedder("m", transport=transport, backoff=0.0, dims=4)
        emb.embed(["hello"])
        assert calls["n"] == 3

    def test_provider_error_carries_attempts(self):
        transport, _ = self.make_transport(fail_times=99)
        emb = RemoteEmbedder("m", transport=transport, retries=3, backoff=0.0, dims=4)
        with pytest.raises(ProviderError) as exc:
            emb.embed(["hello"])
        assert exc.value.attempts == 3

    def test_cache_short_circuits_transport(self, tmp_path):
        transport, calls = self.make_transport()
        cache = CallCache(tmp_path / "cache")
        emb = RemoteEmbedder("m", cache=cache, transport=transport, backoff=0.0, dims=4)
        first = emb.embed(["same text"])
        again = emb.embed(["same text"])
        assert calls["n"] == 1
        np.testing.assert_allclose(first, again)

