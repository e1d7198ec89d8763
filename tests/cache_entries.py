"""Decoding of the call cache's embedding entries, for tests that read them back."""

from __future__ import annotations

import json

import numpy as np


def stored_vector(payload) -> list[float]:
    """The vector of an embedding entry as stored: little-endian float64 bytes."""
    assert isinstance(payload, bytes) and len(payload) % 8 == 0, payload
    return np.frombuffer(payload, dtype="<f8").tolist()


def json_entry(payload) -> str:
    """An embedding entry in the JSON text form stored before the bytes form.

    That is the ``{"data": [{"embedding": row}]}`` text of a
    ``calls.sqlite3`` row or a ``<key>.json`` file written by older
    versions; any other payload is returned as it is.
    """
    if not isinstance(payload, bytes):
        return payload
    return json.dumps({"data": [{"embedding": stored_vector(payload)}]}, sort_keys=True, ensure_ascii=False)
