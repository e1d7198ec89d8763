"""Exact top-k cosine retrieval over unit-normalized embedding vectors."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .records import json_line, read_jsonl


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two unit vectors; raw value in [-1, 1]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))


def clamp01(x: float) -> float:
    """Clamp a similarity to [0, 1] for threshold-based adherence use."""
    return min(1.0, max(0.0, x))


def row_scores(matrix: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``matrix @ q`` for each row ``q`` of ``queries``, one result row each.

    The stacked ``matmul`` runs one matrix-vector product per query, so
    each row is bit-identical to ``matrix @ q``; one matrix-matrix product
    would sum in another order and could move a score by an ulp.
    """
    return np.matmul(matrix[None], queries[:, :, None])[:, :, 0]


class VectorIndex:
    """Immutable list of (key, vector, payload) rows with exact search.

    Corpora here are at most a few hundred thousand rows, so search is
    exact; no approximate structures. ``rank_many`` owns the one ranking
    rule, for one row of scores or many: score descending, ties by
    ascending key, so retrieval is reproducible.
    """

    def __init__(self, keys: Sequence[str], vectors: np.ndarray, payloads: Sequence[Any] | None = None):
        if len(keys) != len(set(keys)):
            raise ValueError("index keys must be unique")
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2 or vectors.shape[0] != len(keys):
            raise ValueError("need one vector row per key")
        self.keys = list(keys)
        self.vectors = vectors
        self.payloads = list(payloads) if payloads is not None else [None] * len(keys)
        if len(self.payloads) != len(self.keys):
            raise ValueError("need one payload per key")
        self._by_key = {k: i for i, k in enumerate(self.keys)}
        self._key_order = np.argsort(np.array(self.keys, dtype=object))  # rows by ascending key
        self._key_rank = np.argsort(self._key_order)

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def dims(self) -> int:
        return self.vectors.shape[1]

    def payload(self, key: str) -> Any:
        return self.payloads[self._by_key[key]]

    def vector(self, key: str) -> np.ndarray:
        return self.vectors[self._by_key[key]]

    def top_k(self, query: np.ndarray, k: int) -> list[tuple[str, float]]:
        """Exact top-k by cosine; ``top_k_many`` of one query."""
        query = np.asarray(query, dtype=float)
        if query.shape != (self.dims,):
            raise ValueError(f"query dims {query.shape} do not match index dims {self.dims}")
        return self.top_k_many(query[None], k)[0]

    def top_k_many(self, queries: np.ndarray, k: int) -> list[list[tuple[str, float]]]:
        """``top_k`` of each row of ``queries``, scored and ranked in one batch."""
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2 or queries.shape[1] != self.dims:
            raise ValueError(f"queries shape {queries.shape} does not match index dims {self.dims}")
        return self.rank_many(row_scores(self.vectors, queries), k)

    def rank_many(self, scores: np.ndarray, k: int) -> list[list[tuple[str, float]]]:
        """The ``k`` best index rows for each row of a (queries x index rows) score array.

        Score descending, ties by ascending key, NaN last. For ``k == 1`` a
        score row takes its max and, of the index rows tied at it, the one
        with the smallest key; a score row holding a NaN, whose max is NaN,
        takes the sort's first instead.
        """
        if len(self) == 0:
            raise ValueError("cannot search an empty index")
        if k < 1:
            raise ValueError("k must be >= 1")
        scores = np.asarray(scores, dtype=float)
        if k == 1:
            best = scores.max(axis=1, keepdims=True)
            # In key order, the first tied index row holds the smallest tied key.
            tied = (scores == best)[:, self._key_order]
            order = self._key_order[tied.argmax(axis=1)][:, None]
            if (nan := np.isnan(best[:, 0])).any():
                order[nan] = self._sort(scores[nan])[:, :1]
        else:
            order = self._sort(scores)[:, :k]
        picked = np.take_along_axis(scores, order, axis=1).tolist()
        keys = self.keys
        return [[(keys[i], s) for i, s in zip(rows, row)] for rows, row in zip(order.tolist(), picked)]

    def _sort(self, scores: np.ndarray) -> np.ndarray:
        """Each score row's index rows, best first."""
        return np.lexsort((np.broadcast_to(self._key_rank, scores.shape), -scores), axis=-1)

    def save(self, path: str | Path) -> None:
        """One ``json_line`` of key, payload and vector per row, each distinct float formatted once.

        Chunk vectors repeat a few values per row, so the distinct values,
        told apart by bit pattern (``-0.0`` is not ``0.0``), are encoded by
        one ``json.dumps`` and each row's list is joined from their reprs;
        the bytes equal ``json_line`` of each row's dict.
        """
        vectors = np.ascontiguousarray(self.vectors)
        values, inverse = np.unique(vectors.view(np.int64).ravel(), return_inverse=True)
        reprs = np.array(json.dumps(values.view(float).tolist())[1:-1].split(", "), dtype=object)
        rows = reprs[inverse.reshape(vectors.shape)].tolist()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(
                # Keys sort as key, payload, vector: the vector closes the line.
                json_line({"key": key, "payload": payload})[:-2] + ', "vector": [' + ", ".join(row) + "]}\n"
                for key, payload, row in zip(self.keys, self.payloads, rows)
            )

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        rows = read_jsonl(path)
        vectors = np.asarray([r["vector"] for r in rows], dtype=float)
        return cls([r["key"] for r in rows], vectors, [r.get("payload") for r in rows])


def build_index(
    items: Iterable[tuple[str, str, Any]],
    embedder,
) -> VectorIndex:
    """Embed (key, text, payload) triples into a searchable index."""
    rows = list(items)
    if not rows:
        raise ValueError("cannot build an index from zero items")
    keys = [k for k, _, _ in rows]
    texts = [t for _, t, _ in rows]
    payloads = [p for _, _, p in rows]
    vectors = embedder.embed(texts)
    return VectorIndex(keys, vectors, payloads)
