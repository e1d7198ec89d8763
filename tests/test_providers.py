from __future__ import annotations

import json
import multiprocessing
import re
import sqlite3
from contextlib import closing

import numpy as np
import pytest
import requests
from cache_entries import stored_vector
from hypothesis import given, settings
from hypothesis import strategies as st
from text_reference import reference_context_sentences

from coi_rag import providers
from coi_rag.bench.config import load_config
from coi_rag.bench.runner import run_experiment
from coi_rag.providers import (
    SCRIPTED_CREATED_AT,
    CallCache,
    GenerationRequest,
    HashedEmbedder,
    ProviderError,
    RemoteEmbedder,
    RemoteGenerator,
    ScriptedGenerator,
    request_hash,
)

PROMPT = "Explain vex lists."
# Hashed by hand: the established chat key format, decoding included.
CHAT_KEY = request_hash({
    "endpoint": "chat",
    "model": "m",
    "messages": [{"role": "user", "content": PROMPT}],
    "temperature": 0.5,
    "top_p": 0.0,
})


def chat_reply(text: str) -> dict:
    return {"choices": [{"message": {"content": text}}]}


def http_error(status: int) -> requests.HTTPError:
    response = requests.Response()
    response.status_code = status
    return requests.HTTPError(f"{status} from server", response=response)


def dead_transport(url, body, headers):
    raise AssertionError("transport called although the cache should answer")


SHARED_KEY = request_hash({"shared": "key"})


def put_rounds(directory: str, writer: int, start) -> None:
    """Spawned writer: 50 rounds of puts to one key, after both writers are up."""
    cache = CallCache(directory)
    start.wait(timeout=60)
    try:
        for j in range(50):
            cache.put(SHARED_KEY, {"writer": writer, "round": j, "pad": "x" * 4096})
    finally:
        cache.close()


def embed_rounds(directory: str, writer: int, start) -> None:
    """Spawned writer: embeds its 100 of ``SHARED_TEXTS``, 10 per call, after every writer is up.

    Neighbouring writers' texts overlap by 50, and odd writers go through
    theirs backwards, so two writers reach the shared ones at about the
    same time.
    """
    cache = CallCache(directory)
    texts = SHARED_TEXTS[50 * writer:50 * writer + 100][::-1 if writer % 2 else 1]
    start.wait(timeout=60)
    try:
        emb = remote(cache=cache, transport=EmbeddingServer())
        for i in range(0, len(texts), 10):
            emb.embed(texts[i:i + 10])
    finally:
        cache.close()


EMBED_WRITERS = 3  # more than the cores of a small CI machine
SHARED_TEXTS = [f"text number {i} of the shared pool" for i in range(50 * EMBED_WRITERS + 50)]


class TestCallCache:
    def test_corrupt_entry_is_a_miss_and_put_overwrites_it(self, tmp_path):
        cache = CallCache(tmp_path)
        key = request_hash({"any": "payload"})
        (tmp_path / f"{key}.json").write_text('{"text": "trunc', encoding="utf-8")
        assert cache.get(key) is None
        cache.put(key, {"text": "whole"})
        assert cache.get(key) == {"text": "whole"}

    def test_entry_bytes_are_the_sorted_json_dumps_string(self, tmp_path):
        cache = CallCache(tmp_path)
        payload = {"text": "na\u00efve \u2014 caf\u00e9", "data": [1.5, 2e-300, -0.0, None], "a": {"z": 1, "y": True}}
        key = request_hash(payload)
        cache.put(key, payload)
        cache.close()
        with closing(sqlite3.connect(tmp_path / providers.CACHE_FILE)) as conn:
            (stored,) = conn.execute("SELECT payload FROM calls WHERE key = ?", (key,)).fetchone()
        assert stored == json.dumps(payload, sort_keys=True, ensure_ascii=False)

    def test_corrupt_entry_is_refetched_by_a_provider(self, tmp_path):
        cache = CallCache(tmp_path)
        (tmp_path / f"{CHAT_KEY}.json").write_bytes(b"\xff\xfe not json")
        calls = []

        def transport(url, body, headers):
            calls.append(url)
            return chat_reply("fresh")

        gen = RemoteGenerator("m", cache=cache, transport=transport, backoff=0.0)
        assert gen.complete(PROMPT).text == "fresh"
        assert gen.complete(PROMPT).text == "fresh"
        assert len(calls) == 1

    def test_concurrent_puts_of_one_key(self, tmp_path):
        spawn = multiprocessing.get_context("spawn")
        start = spawn.Barrier(2)
        writers = [spawn.Process(target=put_rounds, args=(str(tmp_path), i, start)) for i in range(2)]
        for w in writers:
            w.start()
        for w in writers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in writers)
        assert [w.exitcode for w in writers] == [0, 0]
        cache = CallCache(tmp_path)
        final = cache.get(SHARED_KEY)
        cache.close()
        assert final["round"] == 49 and final["writer"] in (0, 1)
        assert [p.name for p in tmp_path.iterdir()] == [providers.CACHE_FILE]

    def test_concurrent_embeds_of_overlapping_batches(self, tmp_path):
        spawn = multiprocessing.get_context("spawn")
        start = spawn.Barrier(EMBED_WRITERS)
        writers = [spawn.Process(target=embed_rounds, args=(str(tmp_path), i, start)) for i in range(EMBED_WRITERS)]
        for w in writers:
            w.start()
        for w in writers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in writers)
        assert [w.exitcode for w in writers] == [0] * EMBED_WRITERS
        hasher = HashedEmbedder(dims=EMBED_DIMS)
        cache = CallCache(tmp_path)
        try:
            stored = [stored_vector(cache.get(remote()._key(t))) for t in SHARED_TEXTS]
        finally:
            cache.close()
        assert stored == [hasher.embed_raw(t).tolist() for t in SHARED_TEXTS]
        with closing(sqlite3.connect(tmp_path / providers.CACHE_FILE)) as conn:
            assert conn.execute("SELECT COUNT(*) FROM calls").fetchone() == (len(SHARED_TEXTS),)
        assert [p.name for p in tmp_path.iterdir()] == [providers.CACHE_FILE]

    def test_legacy_entries_imported_once_and_left_in_place(self, tmp_path):
        """Old one-file-per-entry caches keep hitting; a broken old entry is refetched."""
        good_key = GenerationRequest("m", "Old question?").cache_key()
        legacy = {
            good_key: json.dumps({"created_at": "2024-01-01T00:00:00Z", "text": "old answer"}).encode(),
            CHAT_KEY: b'{"text": "trunc',
            request_hash({"other": 1}): b"\xff\xfe not utf-8",
        }
        for key, blob in legacy.items():
            (tmp_path / f"{key}.json").write_bytes(blob)
        calls = []

        def transport(url, body, headers):
            calls.append(url)
            return chat_reply("fresh")

        cache = CallCache(tmp_path)
        gen = RemoteGenerator("m", cache=cache, transport=transport, backoff=0.0)
        assert gen.complete("Old question?").text == "old answer"
        assert gen.complete(PROMPT).text == "fresh"
        assert cache.get(CHAT_KEY)["text"] == "fresh"
        cache.close()
        assert len(calls) == 1
        for key, blob in legacy.items():
            assert (tmp_path / f"{key}.json").read_bytes() == blob
        (tmp_path / f"{good_key}.json").unlink()  # imported already: the store answers
        warm = CallCache(tmp_path)
        assert RemoteGenerator("m", cache=warm, transport=dead_transport).complete("Old question?").text == "old answer"
        warm.close()

    def test_corrupt_row_is_a_miss_and_put_overwrites_it(self, tmp_path):
        cache = CallCache(tmp_path)
        key = request_hash({"any": "payload"})
        cache.put(key, {"text": "whole"})
        with closing(sqlite3.connect(tmp_path / providers.CACHE_FILE)) as conn:
            conn.execute("UPDATE calls SET payload = ? WHERE key = ?", ('{"text": "trunc', key))
            conn.commit()
        assert cache.get(key) is None
        cache.put(key, {"text": "again"})
        assert cache.get(key) == {"text": "again"}
        cache.close()

    def test_unused_cache_leaves_its_directory_empty(self, tmp_path):
        cache = CallCache(tmp_path / "cache")
        assert cache.get(request_hash({"any": "payload"})) is None
        cache.close()
        assert list((tmp_path / "cache").iterdir()) == []

    def test_store_that_is_not_sqlite_raises_and_is_kept(self, tmp_path):
        blob = b"paid replies, somehow not a database" * 100
        (tmp_path / providers.CACHE_FILE).write_bytes(blob)
        cache = CallCache(tmp_path)
        with pytest.raises(RuntimeError, match=re.escape(str(tmp_path / providers.CACHE_FILE))):
            cache.put(request_hash({"any": "payload"}), {"text": "x"})
        assert (tmp_path / providers.CACHE_FILE).read_bytes() == blob


class TestGetMany:
    """``CallCache.get_many`` returns what ``get`` returns, key by key, leaving out the misses."""

    @staticmethod
    def agrees_with_get(cache: CallCache, keys: list[str]) -> dict:
        found = cache.get_many(keys)
        assert found == {k: v for k in keys if (v := cache.get(k)) is not None}
        return found

    def test_every_entry_kind(self, tmp_path):
        cache = CallCache(tmp_path)
        blob, text = request_hash({"kind": "bytes"}), request_hash({"kind": "text"})
        broken, unknown = request_hash({"kind": "broken"}), request_hash({"kind": "unknown"})
        cache.put(blob, np.arange(1.0, 9.0).tobytes())
        cache.put(text, {"text": "caf\u00e9", "created_at": "2024-01-01T00:00:00Z"})
        cache.put(broken, {"text": "placeholder"})
        with closing(sqlite3.connect(tmp_path / providers.CACHE_FILE)) as conn:
            conn.execute("UPDATE calls SET payload = ? WHERE key = ?", ('{"text": "trunc', broken))
            conn.commit()
        found = self.agrees_with_get(cache, [unknown, blob, text, broken, blob, text])
        assert found == {blob: np.arange(1.0, 9.0).tobytes(), text: {"text": "caf\u00e9", "created_at": "2024-01-01T00:00:00Z"}}
        assert self.agrees_with_get(cache, []) == {}
        assert self.agrees_with_get(cache, [unknown]) == {}
        cache.close()

    def test_keys_beyond_one_statement(self, tmp_path):
        cache = CallCache(tmp_path)
        keys = [request_hash({"n": i}) for i in range(1200)]
        cache.put_many((k, np.full(2, float(i + 1)).tobytes()) for i, k in enumerate(keys) if i % 3)
        assert 1200 > 2 * providers.GET_MANY_CHUNK
        found = self.agrees_with_get(cache, keys[::-1] + keys[:10])
        assert sorted(found) == sorted(k for i, k in enumerate(keys) if i % 3)
        cache.close()

    def test_fresh_directory_gets_no_store(self, tmp_path):
        cache = CallCache(tmp_path / "cache")
        assert cache.get_many([request_hash({"any": "payload"})]) == {}
        assert cache.get_many([]) == {}
        cache.close()
        assert list((tmp_path / "cache").iterdir()) == []

    def test_legacy_entries_hit_on_the_first_open(self, tmp_path):
        key = GenerationRequest("m", "Old question?").cache_key()
        entry = {"created_at": "2024-01-01T00:00:00Z", "text": "old answer"}
        (tmp_path / f"{key}.json").write_text(json.dumps(entry), encoding="utf-8")
        cache = CallCache(tmp_path)
        assert cache.get_many([key, CHAT_KEY]) == {key: entry}
        cache.close()

    @pytest.mark.parametrize("model_id", ["emb", "mod\u00e8le-\u5d4c\u5165"])
    def test_key_builder_equals_request_hash(self, model_id):
        texts = ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "na\u00efve \u2014 \U0001f600",
                 "line\u2028separator\u2029", "plain"]
        emb = RemoteEmbedder(model_id, dims=EMBED_DIMS)
        want = [request_hash({"endpoint": "embeddings", "model": model_id, "input": [t]}) for t in texts]
        assert emb._keys(texts) == want
        assert [emb._key(t) for t in texts] == want

    def test_one_select_per_embed_call_of_up_to_500_new_texts(self, tmp_path):
        texts = [f"text {i} of many" for i in range(providers.GET_MANY_CHUNK + 1)]
        cache = CallCache(tmp_path)
        cache.put(request_hash({"open": "the store"}), {"text": "x"})
        statements = []
        cache._conn.set_trace_callback(statements.append)

        def selects() -> int:
            count = sum(s.lstrip().upper().startswith("SELECT") for s in statements)
            statements.clear()
            return count

        try:
            cold = remote(cache=cache, transport=EmbeddingServer())
            cold.embed(texts[:500])
            assert selects() == 1
            cold.embed(texts)  # one new text
            assert selects() == 1
            warm = remote(cache=cache, transport=dead_transport)
            warm.embed(texts[:500])
            assert selects() == 1
            warm.embed(texts[:500])  # remembered: no read
            assert selects() == 0
            assert remote(cache=cache, transport=dead_transport).embed(texts).shape == (501, EMBED_DIMS)
            assert selects() == 2
        finally:
            cache.close()


class TestRetries:
    def fail_with(self, monkeypatch, status: int, retries: int = 3):
        sleeps = []
        monkeypatch.setattr("coi_rag.providers.time.sleep", sleeps.append)
        calls = []

        def transport(url, body, headers):
            calls.append(url)
            raise http_error(status)

        gen = RemoteGenerator("m", transport=transport, retries=retries, backoff=1.0)
        with pytest.raises(ProviderError) as exc:
            gen.complete(PROMPT)
        return exc.value, calls, sleeps

    def test_client_error_is_not_retried(self, monkeypatch):
        err, calls, sleeps = self.fail_with(monkeypatch, 401)
        assert len(calls) == 1
        assert err.attempts == 1
        assert sleeps == []

    def test_server_error_is_retried_with_backoff(self, monkeypatch):
        err, calls, sleeps = self.fail_with(monkeypatch, 503, retries=3)
        assert len(calls) == 3
        assert err.attempts == 3
        assert sleeps == [1.0, 2.0]

    def test_numeric_retry_after_replaces_backoff(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("coi_rag.providers.time.sleep", sleeps.append)
        errors = [http_error(429), http_error(503)]
        errors[0].response.headers["Retry-After"] = "7"
        errors[1].response.headers["Retry-After"] = "Wed, 21 Oct 2015 07:28:00 GMT"

        def transport(url, body, headers):
            if errors:
                raise errors.pop(0)
            return chat_reply("ok")

        gen = RemoteGenerator("m", transport=transport, retries=3, backoff=1.0)
        assert gen.complete(PROMPT).text == "ok"
        assert sleeps == [7.0, 2.0]  # an HTTP-date falls back to the backoff

    @pytest.mark.parametrize("status", [408, 429, 500])
    def test_transient_statuses_are_retried(self, monkeypatch, status):
        _, calls, _ = self.fail_with(monkeypatch, status, retries=2)
        assert len(calls) == 2

    def test_malformed_response_raises_at_once(self, tmp_path):
        calls = []

        def transport(url, body, headers):
            calls.append(url)
            return {"choices": []}

        cache = CallCache(tmp_path)
        gen = RemoteGenerator("m", cache=cache, transport=transport, backoff=0.0)
        with pytest.raises(ProviderError, match="malformed"):
            gen.complete(PROMPT)
        assert len(calls) == 1
        assert list(tmp_path.iterdir()) == []  # nothing cached


class TestCacheKeys:
    """Entries written under the established key formats keep hitting."""

    def test_embedding_entry_served_without_transport(self, tmp_path):
        cache = CallCache(tmp_path)
        key = request_hash({"endpoint": "embeddings", "model": "emb", "input": ["vex lists"]})
        cache.put(key, {"object": "list", "data": [{"index": 0, "embedding": [3.0, 4.0]}]})
        emb = RemoteEmbedder("emb", cache=cache, transport=dead_transport, dims=2)
        np.testing.assert_allclose(emb.embed(["vex lists"]), [[0.6, 0.8]])

    def test_chat_entry_served_without_transport(self, tmp_path):
        cache = CallCache(tmp_path)
        cache.put(CHAT_KEY, {"text": "cached answer", "created_at": "2024-01-01T00:00:00Z"})
        gen = RemoteGenerator("m", cache=cache, transport=dead_transport)
        result = gen.complete(PROMPT)
        assert (result.text, result.created_at) == ("cached answer", "2024-01-01T00:00:00Z")

    def test_blank_cached_chat_entry_raises_without_transport(self, tmp_path):
        cache = CallCache(tmp_path)
        cache.put(CHAT_KEY, {"text": " ", "created_at": "2024-01-01T00:00:00Z"})
        gen = RemoteGenerator("m", cache=cache, transport=dead_transport)
        with pytest.raises(ProviderError, match="empty completion"):
            gen.complete(PROMPT)


class TestMalformedCacheEntries:
    """A cache entry of the wrong shape is a miss: fetched once more, then overwritten."""

    @pytest.mark.parametrize(
        "entry",
        [
            {"text": None},
            {"text": None, "created_at": "2024-01-01T00:00:00Z"},
            {"text": "x"},
            {},
            [],
            pytest.param(json.dumps({"text": "x", "created_at": "2024-01-01T00:00:00Z"}).encode(), id="blob"),
        ],
    )
    def test_chat_entry_refetched_and_overwritten(self, tmp_path, entry):
        cache = CallCache(tmp_path)
        cache.put(CHAT_KEY, entry)
        calls = []

        def transport(url, body, headers):
            calls.append(url)
            return chat_reply("fresh")

        gen = RemoteGenerator("m", cache=cache, transport=transport, backoff=0.0)
        assert gen.complete(PROMPT).text == "fresh"
        assert cache.get(CHAT_KEY)["text"] == "fresh"
        assert RemoteGenerator("m", cache=cache, transport=dead_transport).complete(PROMPT).text == "fresh"
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "entry",
        [
            {"data": [{"embedding": "x"}]},
            {},
            {"data": []},
            {"data": [{"embedding": []}]},
            {"data": [{"embedding": [1.0, None]}]},
            {"data": [{"embedding": [[1.0], [2.0, 3.0]]}]},
            {"data": [{"embedding": [True, False]}]},
            {"data": [{"embedding": [0.0] * 8}]},
            {"data": [{"embedding": [3.0, 4.0]}]},
            {"data": [{"embedding": [1.0] * 7 + [float("nan")]}]},
            pytest.param(np.ones(8, dtype="<f4").tobytes(), id="blob-4x-dims-bytes"),
            pytest.param(np.ones(8).tobytes() + b"\0", id="blob-8x-dims-plus-1-bytes"),
            pytest.param(b"", id="blob-empty"),
            pytest.param(np.array([1.0] * 7 + [float("nan")]).tobytes(), id="blob-nan"),
            pytest.param(np.full(8, float("inf")).tobytes(), id="blob-inf"),
            pytest.param(np.zeros(8).tobytes(), id="blob-zero"),
        ],
    )
    def test_embedding_entry_refetched_and_overwritten(self, tmp_path, entry):
        cache = CallCache(tmp_path)
        key = request_hash({"endpoint": "embeddings", "model": "emb", "input": [TEXTS[0]]})
        cache.put(key, entry)
        server = EmbeddingServer()
        want = HashedEmbedder(dims=8).embed(TEXTS[:1])
        np.testing.assert_array_equal(remote(cache=cache, transport=server).embed(TEXTS[:1]), want)
        assert server.inputs == [TEXTS[:1]]
        assert stored_vector(cache.get(key)) == server.hasher.embed_raw(TEXTS[0]).tolist()
        warm = remote(cache=cache, transport=dead_transport)
        np.testing.assert_array_equal(warm.embed(TEXTS[:1]), want)

    def test_mixed_batch_refetches_exactly_the_bad_entries(self, tmp_path):
        """Good, short, NaN, all-zero and unparsable entries in one call: only the bad ones are sent."""
        texts = TEXTS + ["a sixth text kept as json"]
        hasher = HashedEmbedder(dims=EMBED_DIMS)
        raw = {t: hasher.embed_raw(t) for t in texts}
        cache = CallCache(tmp_path)
        emb = remote(cache=cache, transport=EmbeddingServer())
        cache.put(emb._key(texts[0]), raw[texts[0]].tobytes())
        cache.put(emb._key(texts[1]), raw[texts[1]][:4].tobytes())
        cache.put(emb._key(texts[2]), np.array([1.0] * 7 + [float("nan")]).tobytes())
        cache.put(emb._key(texts[3]), np.zeros(EMBED_DIMS).tobytes())
        cache.put(emb._key(texts[4]), {"text": "placeholder"})
        cache.put(emb._key(texts[5]), {"data": [{"embedding": raw[texts[5]].tolist()}]})
        with closing(sqlite3.connect(tmp_path / providers.CACHE_FILE)) as conn:
            conn.execute("UPDATE calls SET payload = ? WHERE key = ?", ('{"data": [', emb._key(texts[4])))
            conn.commit()
        out = emb.embed(texts)
        assert emb.transport.inputs == [texts[1:5]]
        np.testing.assert_array_equal(out, remote(transport=EmbeddingServer()).embed(texts))
        np.testing.assert_array_equal(out, hasher.embed(texts))
        stored = cache.get_many([emb._key(t) for t in texts[:5]])
        assert [stored_vector(stored[emb._key(t)]) for t in texts[:5]] == [raw[t].tolist() for t in texts[:5]]
        cache.close()


EMBED_DIMS = 8  # the length of every row ``EmbeddingServer`` sends


class ConnectionRecorder:
    """Forwards to a sqlite connection, recording each ``execute`` and ``executemany`` call."""

    def __init__(self, conn):
        self.conn = conn
        self.calls: list[tuple[str, str]] = []  # (method, SQL)

    def __getattr__(self, name):
        attr = getattr(self.conn, name)
        if name not in ("execute", "executemany"):
            return attr

        def recorded(sql, *args):
            self.calls.append((name, sql))
            return attr(sql, *args)

        return recorded


class TestPutMany:
    def test_one_executemany_in_one_commit_storing_what_put_stores(self, tmp_path):
        cache = CallCache(tmp_path)
        opened = request_hash({"open": "the store"})
        cache.put(opened, {"text": "x"})
        recorder = cache._conn = ConnectionRecorder(cache._conn)
        entries = {
            request_hash({"n": i}): np.full(2, float(i)).tobytes() if i % 2 else
            {"text": f"caf\u00e9 {i}", "data": [1.5, -0.0, None], "a": {"z": 1, "y": True}}
            for i in range(600)
        }
        cache.put_many(iter(entries.items()))
        insert = "INSERT OR REPLACE INTO calls (key, payload) VALUES (?, ?)"
        assert recorder.calls == [
            ("execute", "BEGIN IMMEDIATE"), ("executemany", insert), ("execute", "COMMIT"),
        ]
        recorder.calls.clear()
        emb = remote(cache=cache, transport=EmbeddingServer())
        emb.embed(TEXTS)
        assert [method for method, _ in recorder.calls] == ["execute", "execute", "executemany", "execute"]
        cache.close()
        with closing(sqlite3.connect(tmp_path / providers.CACHE_FILE)) as conn:
            stored = dict(conn.execute("SELECT key, payload FROM calls"))
        put_cache = CallCache(tmp_path / "put")
        for key, payload in entries.items():
            put_cache.put(key, payload)
        put_cache.close()
        with closing(sqlite3.connect(tmp_path / "put" / providers.CACHE_FILE)) as conn:
            assert {k: stored[k] for k in entries} == dict(conn.execute("SELECT key, payload FROM calls"))
        assert len(stored) == 1 + len(entries) + len(TEXTS)


def remote(**kw) -> RemoteEmbedder:
    """The embedder under test, at ``EmbeddingServer``'s length."""
    return RemoteEmbedder("emb", dims=EMBED_DIMS, **kw)


class EmbeddingServer:
    """Transport answering every input with its hashed count vector and index.

    ``edits`` rewrite the reply rows of successive requests, one each; an
    edit may raise instead.
    """

    def __init__(self, *edits):
        self.hasher = HashedEmbedder(dims=EMBED_DIMS)
        self.inputs: list[list[str]] = []
        self.edits = list(edits)

    def __call__(self, url, body, headers):
        self.inputs.append(list(body["input"]))
        data = [
            {"index": i, "embedding": self.hasher.embed_raw(t).tolist()}
            for i, t in enumerate(body["input"])
        ]
        if self.edits:
            data = self.edits.pop(0)(data)
        return {"object": "list", "data": data}


TEXTS = ["vex lists grow", "a parser reads tokens", "the linker joins objects",
         "every loop keeps a counter", "queries hit the index"]


class TestEmbeddingBatches:
    def test_one_request_for_all_misses(self):
        server = EmbeddingServer()
        out = remote(transport=server).embed(TEXTS)
        assert server.inputs == [TEXTS]
        np.testing.assert_array_equal(out, HashedEmbedder(dims=8).embed(TEXTS))

    def test_duplicates_sent_once(self):
        server = EmbeddingServer()
        out = remote(transport=server).embed(TEXTS[:2] + TEXTS[:1])
        assert server.inputs == [TEXTS[:2]]
        np.testing.assert_array_equal(out[2], out[0])

    def test_rows_ordered_by_index(self):
        shuffled = EmbeddingServer(lambda data: [data[i] for i in (3, 0, 4, 2, 1)])
        out = remote(transport=shuffled).embed(TEXTS)
        np.testing.assert_array_equal(out, HashedEmbedder(dims=8).embed(TEXTS))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda data: data[:-1],  # a row short
            lambda data: data + data[:1],  # a row too many
            lambda data: [dict(r, index=r["index"] + 1) for r in data],  # index 0 missing
            lambda data: data[:-1] + [dict(data[-1], index=0)],  # index 0 twice
            lambda data: [dict(r, embedding=[0.0] * 8) if r["index"] == 2 else r for r in data],
        ],
        ids=["short", "long", "missing-index", "duplicate-index", "zero-row"],
    )
    def test_bad_reply_raises_and_caches_nothing(self, tmp_path, edit):
        emb = remote(cache=CallCache(tmp_path), transport=EmbeddingServer(edit))
        with pytest.raises(ProviderError):
            emb.embed(TEXTS)
        assert list(tmp_path.iterdir()) == []

    def test_ragged_reply_raises_and_caches_nothing(self, tmp_path):
        ragged = EmbeddingServer(lambda data: [dict(r, embedding=r["embedding"][:4]) if r["index"] == 2 else r for r in data])
        cache = CallCache(tmp_path)
        with pytest.raises(ProviderError, match=re.escape("length 4, not 8 ([embedder] dims)")):
            remote(cache=cache, transport=ragged).embed(TEXTS)
        cache.close()
        assert list(tmp_path.iterdir()) == []

    def test_short_cache_entry_beside_fetched_rows_is_refetched(self, tmp_path):
        cache = CallCache(tmp_path)
        key = remote()._key(TEXTS[0])
        cache.put(key, {"data": [{"embedding": [3.0, 4.0]}]})
        server = EmbeddingServer()
        emb = remote(cache=cache, transport=server)
        np.testing.assert_array_equal(emb.embed(TEXTS[:2]), HashedEmbedder(dims=8).embed(TEXTS[:2]))
        assert server.inputs == [TEXTS[:2]]
        assert len(stored_vector(cache.get(key))) == 8
        cache.close()

    def test_of_cached_entries_of_two_lengths_only_the_off_one_is_refetched(self, tmp_path):
        cache = CallCache(tmp_path)
        cache.put(remote()._key(TEXTS[0]), {"data": [{"embedding": [3.0, 4.0]}]})
        for text in TEXTS[1:3]:
            row = HashedEmbedder(dims=8).embed_raw(text).tolist()
            cache.put(remote()._key(text), {"data": [{"embedding": row}]})
        server = EmbeddingServer()
        emb = remote(cache=cache, transport=server)
        np.testing.assert_array_equal(emb.embed(TEXTS[:3]), HashedEmbedder(dims=8).embed(TEXTS[:3]))
        assert server.inputs == [TEXTS[:1]]
        cache.close()

    def test_off_length_cache_entry_is_refetched_once_dims_are_known(self, tmp_path):
        cache = CallCache(tmp_path)
        key = remote()._key(TEXTS[0])
        cache.put(key, {"data": [{"embedding": [3.0, 4.0]}]})
        server = EmbeddingServer()
        emb = remote(cache=cache, transport=server)
        emb.embed(TEXTS[1:])
        assert emb.dims == 8
        np.testing.assert_array_equal(emb.embed(TEXTS[:1]), HashedEmbedder(dims=8).embed(TEXTS[:1]))
        assert server.inputs == [TEXTS[1:], TEXTS[:1]]
        assert len(stored_vector(cache.get(key))) == 8
        cache.close()

    def test_reply_of_another_length_raises_and_caches_nothing(self, tmp_path):
        cache = CallCache(tmp_path)
        server = EmbeddingServer(lambda data: data, lambda data: [dict(r, embedding=r["embedding"][:4]) for r in data])
        emb = remote(cache=cache, transport=server)
        emb.embed(TEXTS[:1])
        with pytest.raises(ProviderError, match=re.escape("length 4, not 8 ([embedder] dims)")):
            emb.embed(TEXTS[1:3])
        assert cache.get(emb._key(TEXTS[1])) is None and cache.get(emb._key(TEXTS[2])) is None
        np.testing.assert_array_equal(emb.embed(TEXTS[1:3]), HashedEmbedder(dims=8).embed(TEXTS[1:3]))
        cache.close()

    def test_rows_of_one_reply_are_stored_in_one_commit(self, tmp_path, monkeypatch):
        """A reply whose second row fails to store leaves none of its rows behind.

        The failure comes while ``executemany`` steps through the rows, after
        the first one was inserted.
        """
        encoded = providers._encoded
        rows = []

        def encoded_failing_second(payload):
            rows.append(payload)
            if len(rows) == 2:
                raise sqlite3.OperationalError("disk I/O error")
            return encoded(payload)

        monkeypatch.setattr(providers, "_encoded", encoded_failing_second)
        cache = CallCache(tmp_path)
        server = EmbeddingServer()
        with pytest.raises(sqlite3.OperationalError, match="disk I/O error"):
            remote(cache=cache, transport=server).embed(TEXTS[:3])
        assert all(cache.get(remote()._key(t)) is None for t in TEXTS[:3])
        with closing(sqlite3.connect(tmp_path / providers.CACHE_FILE)) as conn:
            assert conn.execute("SELECT COUNT(*) FROM calls").fetchone() == (0,)
        monkeypatch.setattr(providers, "_encoded", encoded)
        emb = remote(cache=cache, transport=server)
        np.testing.assert_array_equal(emb.embed(TEXTS[:3]), HashedEmbedder(dims=8).embed(TEXTS[:3]))
        assert server.inputs == [TEXTS[:3], TEXTS[:3]]
        assert [stored_vector(cache.get(emb._key(t))) for t in TEXTS[:3]] == [
            server.hasher.embed_raw(t).tolist() for t in TEXTS[:3]
        ]
        cache.close()

    def test_failed_call_remembers_nothing(self, tmp_path):
        cache = CallCache(tmp_path)
        cache.put(remote()._key(TEXTS[0]), {"data": [{"embedding": [3.0, 4.0]}]})
        emb = remote(cache=cache, transport=EmbeddingServer(lambda data: data[:-1]))
        with pytest.raises(ProviderError):
            emb.embed(TEXTS[:2])
        assert emb._vectors == {}
        np.testing.assert_array_equal(emb.embed(TEXTS[:2]), HashedEmbedder(dims=8).embed(TEXTS[:2]))
        cache.close()

    def test_split_at_batch_cap(self, monkeypatch):
        monkeypatch.setattr(providers, "EMBED_BATCH", 2)
        server = EmbeddingServer()
        out = remote(transport=server).embed(TEXTS)
        assert server.inputs == [TEXTS[0:2], TEXTS[2:4], TEXTS[4:5]]
        np.testing.assert_array_equal(out, HashedEmbedder(dims=8).embed(TEXTS))

    def test_transient_failure_retries_whole_batch(self, monkeypatch):
        monkeypatch.setattr("coi_rag.providers.time.sleep", lambda s: None)

        def unavailable(data):
            raise http_error(503)

        server = EmbeddingServer(unavailable)
        out = remote(transport=server).embed(TEXTS)
        assert server.inputs == [TEXTS, TEXTS]
        np.testing.assert_array_equal(out, HashedEmbedder(dims=8).embed(TEXTS))

    def test_each_text_read_from_cache_once(self, tmp_path, monkeypatch):
        """Each call reads its new texts' entries in one ``get_many``; remembered texts are not read."""
        reads = []
        get_many = CallCache.get_many
        monkeypatch.setattr(CallCache, "get_many", lambda self, keys: reads.append(list(keys)) or get_many(self, keys))
        monkeypatch.setattr(CallCache, "get", lambda self, key: pytest.fail("per-key read"))
        emb = remote(cache=CallCache(tmp_path), transport=EmbeddingServer())
        emb.embed(TEXTS[:3])
        emb.embed(TEXTS[1:] + TEXTS[1:])
        emb.embed(TEXTS)
        assert reads == [[emb._key(t) for t in TEXTS[:3]], [emb._key(t) for t in TEXTS[3:]]]
        emb.cache.close()

    def test_each_cache_key_computed_once_on_a_cold_embed(self, tmp_path, monkeypatch):
        """One key builder call per ``embed`` call, over its distinct new texts."""
        keyed = []
        keys = RemoteEmbedder._keys
        monkeypatch.setattr(RemoteEmbedder, "_keys", lambda self, texts: keyed.append(list(texts)) or keys(self, texts))
        cache = CallCache(tmp_path)
        try:
            remote(cache=cache, transport=EmbeddingServer()).embed(TEXTS + TEXTS[:2])
            assert keyed == [TEXTS]
            warm = remote(cache=cache, transport=dead_transport).embed(TEXTS)
        finally:
            cache.close()
        assert keyed == [TEXTS, TEXTS]
        np.testing.assert_array_equal(warm, HashedEmbedder(dims=EMBED_DIMS).embed(TEXTS))

    def test_fresh_embedder_on_warm_cache_sends_nothing(self, tmp_path):
        cold = remote(cache=CallCache(tmp_path), transport=EmbeddingServer())
        first = cold.embed(TEXTS)
        warm = remote(cache=CallCache(tmp_path), transport=dead_transport)
        np.testing.assert_array_equal(warm.embed(TEXTS[::-1]), first[::-1])

    @pytest.mark.parametrize(
        "row",
        [["x"] * 8, [1.0] * 7 + [None], [[1.0]] * 8, [True] * 8, [1.0] * 7 + [float("nan")], [float("inf")] * 8],
        ids=["strings", "none", "nested", "bools", "nan", "inf"],
    )
    def test_non_numeric_reply_row_raises_and_caches_nothing(self, tmp_path, row):
        server = EmbeddingServer(lambda data: [dict(r, embedding=row) if r["index"] == 1 else r for r in data])
        cache = CallCache(tmp_path)
        with pytest.raises(ProviderError, match="row 1 is not all finite real numbers"):
            remote(cache=cache, transport=server).embed(TEXTS[:2])
        cache.close()
        path = tmp_path / providers.CACHE_FILE
        if path.exists():
            with closing(sqlite3.connect(path)) as conn:
                assert conn.execute("SELECT COUNT(*) FROM calls").fetchone() == (0,)

    def test_zero_reply_does_not_poison_the_cache(self, tmp_path):
        server = EmbeddingServer(lambda data: [dict(r, embedding=[0.0] * 8) for r in data])
        with pytest.raises(ProviderError, match="zero vector"):
            remote(cache=CallCache(tmp_path), transport=server).embed(TEXTS[:1])
        fresh = remote(cache=CallCache(tmp_path), transport=server)
        np.testing.assert_array_equal(fresh.embed(TEXTS[:1]), HashedEmbedder(dims=8).embed(TEXTS[:1]))
        assert len(server.inputs) == 2


    def test_empty_batch_raises_before_cache_or_network(self, tmp_path, monkeypatch):
        monkeypatch.setattr(CallCache, "get", lambda self, key: pytest.fail("cache read"))
        monkeypatch.setattr(CallCache, "get_many", lambda self, keys: pytest.fail("cache read"))
        emb = remote(cache=CallCache(tmp_path), transport=dead_transport)
        with pytest.raises(ValueError, match="empty batch"):
            emb.embed([])
        assert HashedEmbedder(dims=8).embed([]).shape == (0, 8)


class TestScripted:
    def test_fixed_created_at(self):
        gen = ScriptedGenerator(model_id="m", script={CHAT_KEY: "A reply."})
        assert gen.complete(PROMPT).created_at == SCRIPTED_CREATED_AT == "1970-01-01T00:00:00Z"

    def test_unknown_behavior_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown scripted behavior: context_ecoh"):
            ScriptedGenerator(model_id="m", behavior="context_ecoh")

    def test_no_entry_error_names_the_request_key(self):
        gen = ScriptedGenerator(model_id="m", script={"0" * 64: "Unused."})
        with pytest.raises(ProviderError, match=f"no entry for request {CHAT_KEY[:12]}$"):
            gen.complete(PROMPT)
        with pytest.raises(ProviderError, match=f"no entry for request {CHAT_KEY[:12]}$"):
            ScriptedGenerator(model_id="m").complete(PROMPT)


# Pieces of evidence text, chosen to reach every branch of the sentence
# scan: every kind of line break and whitespace that str.split() collapses,
# non-printable characters, each block header (also padded with spaces),
# and a second marker.
PROMPT_PIECES = [
    "Text chunks:", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x85", "\u2028",
    "\t", "\xa0", "\u3000", " ", "  ", "\x00", ".", "!", "?", "A", "Bee", "c", "dog",
    "Page 1-2:", "  Page 3-4:  ", "Context:", " Context: ", "Question:",
    "Implicit question 2: Why so?", "# Topic.", "#", "Caps Here.",
]


class TestContextSentences:
    @given(
        st.lists(st.sampled_from(PROMPT_PIECES), max_size=40).map("".join),
        st.booleans(),
        st.lists(st.sampled_from(PROMPT_PIECES), max_size=80).map("".join),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, before, marked, after):
        prompt = before + ("\nText chunks:" if marked else "") + after
        assert providers._context_sentences(prompt) == reference_context_sentences(prompt)

    def test_matches_reference_on_every_golden_prompt(self, golden_dir, tmp_path, monkeypatch):
        prompts = []
        complete = ScriptedGenerator.complete

        def recording(self, prompt):
            prompts.append(prompt)
            return complete(self, prompt)

        monkeypatch.setattr(ScriptedGenerator, "complete", recording)
        cfg = load_config(golden_dir / "config.ini")
        cfg.output_dir = tmp_path / "out"
        cfg.cache_dir = tmp_path / "cache"
        run_experiment(cfg)
        evidence = [p for p in prompts if "Text chunks:" in p]
        assert evidence and len(evidence) < len(prompts)
        for prompt in prompts:
            assert providers._context_sentences(prompt) == reference_context_sentences(prompt)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_memo_across_prompts_matches_reference(self, data):
        # Prompts are drawn from a small pool of fragments, so that lines
        # recur across prompts and later prompts hit lines the memo holds.
        fragment = st.lists(st.sampled_from(PROMPT_PIECES), max_size=12).map("".join)
        pool = data.draw(st.lists(fragment, min_size=1, max_size=6))
        prompt = st.builds(
            lambda before, marked, after: before + ("\nText chunks:" if marked else "") + "\n".join(after),
            st.sampled_from(pool), st.booleans(), st.lists(st.sampled_from(pool), max_size=10),
        )
        prompts = data.draw(st.lists(prompt, min_size=1, max_size=6))
        for behavior in ECHO_BEHAVIORS:
            gen = ScriptedGenerator(model_id="m", behavior=behavior)
            replies = [gen.complete(p).text for p in prompts]
            assert replies == [reference_echo_reply(behavior, p) for p in prompts]
            fresh = [ScriptedGenerator(model_id="m", behavior=behavior).complete(p).text for p in prompts]
            assert fresh == replies

    def test_each_answer_generator_scans_each_evidence_line_once(self, golden_dir, tmp_path, monkeypatch):
        scanned: list[str] = []
        calls: list[tuple[ScriptedGenerator, str, list[str]]] = []
        sentence_re = providers._SENTENCE_RE
        complete = ScriptedGenerator.complete

        class CountingPattern:
            def findall(self, line):
                scanned.append(line)
                return sentence_re.findall(line)

            def __getattr__(self, name):
                return getattr(sentence_re, name)

        def recording(self, prompt):
            start = len(scanned)
            result = complete(self, prompt)
            calls.append((self, prompt, scanned[start:]))
            return result

        monkeypatch.setattr(providers, "_SENTENCE_RE", CountingPattern())
        monkeypatch.setattr(ScriptedGenerator, "complete", recording)
        cfg = load_config(golden_dir / "config.ini")
        cfg.output_dir = tmp_path / "out"
        cfg.cache_dir = tmp_path / "cache"
        run_experiment(cfg)

        assert all(not lines for _, prompt, lines in calls if "Text chunks:" not in prompt)
        answer_gens = {id(gen): gen for gen, _, _ in calls if gen.behavior in ECHO_BEHAVIORS}
        assert len(answer_gens) == 2
        all_lines = set()
        for gen in answer_gens.values():
            prompts = [prompt for g, prompt, _ in calls if g is gen]
            lines = [line for p in prompts for line in evidence_lines(p)]
            distinct = list(dict.fromkeys(lines))
            assert len(distinct) < len(lines)
            assert [line for g, _, ls in calls if g is gen for line in ls] == distinct
            all_lines.update(distinct)

            # The memo belongs to the instance: a twin scans every line again,
            # and still equals the generator that has answered.
            twin = ScriptedGenerator(model_id=gen.model_id, script=gen.script, behavior=gen.behavior)
            assert twin == gen and repr(twin) == repr(gen)
            start = len(scanned)
            for prompt in prompts:
                twin.complete(prompt)
            assert scanned[start:] == distinct
            assert twin == gen == ScriptedGenerator(
                model_id=gen.model_id, script=gen.script, behavior=gen.behavior
            )

        # No module-level memo outlives the stage.
        monkeypatch.undo()
        for name, value in vars(providers).items():
            if isinstance(value, (dict, list, set, frozenset, tuple)):
                assert not any(isinstance(v, str) and v in all_lines for v in value), name
            if hasattr(value, "cache_info"):
                assert value.cache_info().currsize == 0, name


ECHO_BEHAVIORS = ("context_echo", "context_echo_short")


def evidence_lines(prompt: str) -> list[str]:
    """The lines after a prompt's first ``Text chunks:`` marker; none without one."""
    marker = "Text chunks:"
    idx = prompt.find(marker)
    return prompt[idx + len(marker):].splitlines() if idx >= 0 else []


def reference_echo_reply(behavior: str, prompt: str) -> str:
    """An echo behavior's reply, built from ``reference_context_sentences``."""
    sentences = reference_context_sentences(prompt)
    if behavior == "context_echo_short":
        sentences = sentences[::2]
    if not sentences:
        first_line = next((ln for ln in prompt.splitlines() if ln.startswith("#")), "#the question")
        return f"{providers._ECHO_PREAMBLE} No reference material was given for {first_line.lstrip('#')}"
    return " ".join([providers._ECHO_PREAMBLE] + sentences)
