"""Independent reference simulation of the planner's six steps.

Written against raw arrays with brute-force scans so planner tests check
the library against a second, separately coded implementation.
"""

from __future__ import annotations

import numpy as np


def reference_plan(primary_text, bank_texts, chunk_texts, embedder, M, k, m, templates):
    """The selected (question, chunk ids, best score) triples and the primary overlap.

    Scores go through the same matrix-product kernel as the library so
    that mathematically tied candidates see bit-identical values; what this
    simulation checks independently is the selection logic itself."""

    def vec(text):
        return embedder.embed([text])[0]

    def brute_top(query, keys, matrix, k):
        scores = matrix @ query
        scored = sorted(
            ((key, float(s)) for key, s in zip(keys, scores)),
            key=lambda kv: (-kv[1], kv[0]),
        )
        return scored[:k]

    chunk_keys = [f"c{i}" for i in range(len(chunk_texts))]
    chunk_matrix = np.vstack([vec(t) for t in chunk_texts])
    primary_vec = vec(primary_text)

    # step 1: top-M bank questions by similarity to the primary text
    candidates = []
    if bank_texts:
        bank_keys = [f"q{i}" for i in range(len(bank_texts))]
        bank_vecs = [vec(t) for t in bank_texts]
        hits = brute_top(primary_vec, bank_keys, np.vstack(bank_vecs), M)
        for key, _ in hits:
            idx = bank_keys.index(key)
            candidates.append((bank_texts[idx], bank_vecs[idx]))
    # step 2: template questions augment the pool
    for t in templates:
        candidates.append((t, vec(t)))
    # step 3: up to k chunks per candidate
    per_candidate = [brute_top(cv, chunk_keys, chunk_matrix, k) for _, cv in candidates]
    # step 4: a chunk belongs to the candidate scoring it highest
    best_for_chunk = {}
    for ci, hits in enumerate(per_candidate):
        for cid, score in hits:
            if cid not in best_for_chunk or score > best_for_chunk[cid][0]:
                best_for_chunk[cid] = (score, ci)
    surviving = []
    for ci, hits in enumerate(per_candidate):
        kept = [(cid, s) for cid, s in hits if best_for_chunk[cid][1] == ci]
        if kept:
            surviving.append((ci, kept))
    # step 5: rank candidates by their best surviving chunk, keep m
    surviving.sort(key=lambda item: (-item[1][0][1], item[0]))
    selected = [
        (candidates[ci][0], [cid for cid, _ in kept], kept[0][1])
        for ci, kept in surviving[:m]
    ]
    # step 6: selected chunks that are also among the primary text's top k
    primary_hits = {cid for cid, _ in brute_top(primary_vec, chunk_keys, chunk_matrix, k)}
    overlap = sorted({cid for _, ids, _ in selected for cid in ids} & primary_hits)
    return selected, overlap
