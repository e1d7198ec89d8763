"""In-process stand-in for an OpenAI-compatible embeddings and chat service.

It is passed to the program as the ``transport`` callable of the remote
providers. Answers are deterministic: embeddings are hashed bag-of-words
count vectors, chat replies come from the scripted behaviours. Every
request is charged a simulated round trip plus a per-input term, so
sending fewer, larger requests is measurably cheaper but not free. The
charge includes the fake's own work, as a server's reply time would.
"""

from __future__ import annotations

import time
from collections import Counter

import requests

from coi_rag.providers import SCRIPTED_BEHAVIORS, HashedEmbedder

ROUND_TRIP_S = 0.002
PER_INPUT_S = 0.00002
EMBED_DIMS = 256


class FakeOpenAI:
    """Transport callable ``(url, body, headers) -> response json``."""

    def __init__(
        self,
        behaviors: dict[str, str],
        round_trip_s: float = ROUND_TRIP_S,
        per_input_s: float = PER_INPUT_S,
    ):
        self.behaviors = dict(behaviors)
        self.round_trip_s = round_trip_s
        self.per_input_s = per_input_s
        self.hasher = HashedEmbedder(dims=EMBED_DIMS)
        self.requests: Counter = Counter()
        self.rejected = 0
        self.busy_s = 0.0  # wall time spent answering, simulated latency included

    def __call__(self, url: str, body: dict, headers: dict) -> dict:
        return self.post(url, body, headers)

    def post(self, url: str, body: dict, headers: dict) -> dict:
        started = time.perf_counter()
        try:
            if url.endswith("/embeddings"):
                endpoint, inputs, response = "embeddings", *self._embeddings(body)
            elif url.endswith("/chat/completions"):
                endpoint, inputs, response = "chat", 1, self._chat(body)
            else:
                raise ValueError(f"unknown endpoint: {url}")
        except (KeyError, TypeError, ValueError):
            self.rejected += 1
            raise
        self.requests[endpoint] += 1
        # Spin rather than sleep: sleep wake-up latency on a shared VM varies
        # by milliseconds, which would swamp a 2 ms round trip.
        deadline = started + self.round_trip_s + self.per_input_s * inputs
        while (now := time.perf_counter()) < deadline:
            pass
        self.busy_s += now - started
        return response

    def _embeddings(self, body: dict) -> tuple[int, dict]:
        texts = body["input"]
        if not isinstance(body["model"], str) or not isinstance(texts, list) or not texts:
            raise ValueError("embeddings body needs a model and a non-empty input list")
        if not all(isinstance(t, str) and t.strip() for t in texts):
            raise ValueError("embeddings inputs must be non-empty strings")
        data = [
            {"index": i, "embedding": self.hasher.embed_raw(t).tolist()}
            for i, t in enumerate(texts)
        ]
        return len(texts), {"object": "list", "model": body["model"], "data": data}

    def _chat(self, body: dict) -> dict:
        behavior = SCRIPTED_BEHAVIORS[self.behaviors[body["model"]]]
        messages = body["messages"]
        if len(messages) != 1 or messages[0]["role"] != "user":
            raise ValueError("chat body needs exactly one user message")
        prompt = messages[0]["content"]
        if not isinstance(prompt, str) or not prompt.strip():
            raise ValueError("chat message content must be a non-empty string")
        for key in ("temperature", "top_p"):
            if not isinstance(body[key], (int, float)):
                raise ValueError(f"chat body needs a numeric {key}")
        return {"choices": [{"index": 0, "message": {"role": "assistant", "content": behavior(prompt)}}]}


class NetworkGuard:
    """Makes ``requests`` raise instead of reaching a real host."""

    def __init__(self):
        self.calls = 0
        self._saved = (requests.post, requests.Session.request)

    def _refuse(self, *args, **kwargs):
        self.calls += 1
        raise RuntimeError("perfbench: real network call refused")

    def __enter__(self) -> "NetworkGuard":
        requests.post = self._refuse
        requests.Session.request = self._refuse
        return self

    def __exit__(self, *exc) -> None:
        requests.post, requests.Session.request = self._saved
