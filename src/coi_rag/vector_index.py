"""Exact top-k cosine retrieval over unit-normalized embedding vectors."""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .records import read_jsonl, write_jsonl


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


class VectorIndex:
    """Immutable list of (key, vector, payload) rows with exact search.

    Corpora here are at most a few hundred thousand rows, so search is
    exact; no approximate structures. ``rank`` owns the one ranking rule:
    score descending, ties by ascending key, so retrieval is reproducible.
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
        self._key_rank = np.argsort(np.argsort(np.array(self.keys, dtype=object)))

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
        """Exact top-k by cosine, ranked by ``rank``."""
        query = np.asarray(query, dtype=float)
        if query.shape != (self.dims,):
            raise ValueError(f"query dims {query.shape} do not match index dims {self.dims}")
        return self.rank(self.vectors @ query, k)

    def rank(self, scores: np.ndarray, k: int) -> list[tuple[str, float]]:
        """The ``k`` best rows by one score per row: descending, ties by ascending key."""
        if len(self) == 0:
            raise ValueError("cannot search an empty index")
        if k < 1:
            raise ValueError("k must be >= 1")
        if k == 1 and not np.isnan(best := scores.max()):  # the sort puts NaN last
            tied = np.flatnonzero(scores == best)
            i = tied[np.argmin(self._key_rank[tied])]
            return [(self.keys[i], float(scores[i]))]
        order = np.lexsort((self._key_rank, -scores))[:k]
        return [(self.keys[i], float(scores[i])) for i in order]

    def save(self, path: str | Path) -> None:
        write_jsonl(
            path,
            (
                {"key": key, "payload": payload, "vector": vec.tolist()}
                for key, vec, payload in zip(self.keys, self.vectors, self.payloads)
            ),
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
