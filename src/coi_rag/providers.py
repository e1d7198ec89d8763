"""Embedding and generation providers, plus the call cache.

Two provider families exist for each role: a remote one speaking an
OpenAI-compatible HTTP API, and a hermetic one (hashed embeddings,
scripted generators) that keeps tests and demos fully offline. Remote
chat calls are cached per request and remote embeddings per text, as
rows of one sqlite file per cache directory: a chat reply as JSON text,
an embedding as the raw little-endian float64 bytes of its vector. Each
``embed`` call reads the entries of its new texts in one query per
``GET_MANY_CHUNK`` keys, sends its uncached texts in as few requests as
the batch cap allows, and stores the rows of one embeddings reply in one
commit; hermetic calls are cheap and deterministic, so they are not
cached and never open the cache file.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

# Stamped on every scripted reply so hermetic runs are byte-identical.
SCRIPTED_CREATED_AT = "1970-01-01T00:00:00Z"

# Remote client defaults, shared with the experiment config.
DEFAULT_ENDPOINT = "https://api.openai.com/v1"
DEFAULT_API_KEY_ENV = "OPENAI_API_KEY"
DEFAULT_RETRIES = 3
DEFAULT_BACKOFF = 0.5

# The call cache's file in its directory, and the tries, 10 ms apart, at
# switching a new one to WAL while another process opens it too.
CACHE_FILE = "calls.sqlite3"
WAL_SWITCH_ATTEMPTS = 100

# Inputs per embeddings request: the OpenAI API's per-request limit.
EMBED_BATCH = 2048

# Keys per ``SELECT`` of ``CallCache.get_many``: well under sqlite's
# smallest limit on bound parameters (999 before sqlite 3.32).
GET_MANY_CHUNK = 500

# (temperature, top_p) of every chat request: explanations and bank extraction.
DECODING = (0.5, 0.0)


class ProviderError(RuntimeError):
    """A provider call failed after all retry attempts."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


def request_hash(payload: dict) -> str:
    """Stable content hash of a request payload (canonical JSON, sha256)."""
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CallCache:
    """Map from request-content hash to response payload, in one sqlite file.

    Entries are rows of ``calls.sqlite3`` in ``directory``. A dict payload
    is stored as its ``json.dumps(sort_keys=True, ensure_ascii=False)``
    text and read back parsed; a bytes payload is stored as a BLOB and read
    back as the same bytes. ``get_many`` reads many keys in one query per
    ``GET_MANY_CHUNK`` of them, and ``get`` is its one-key case, so every
    row is decoded by one rule, and ``put_many`` writes a group of entries
    with one ``executemany``. The file runs in WAL mode with one commit
    per ``put``, or per ``put_many`` for a group of entries, so an
    interrupted run keeps every reply already stored and concurrent
    writers of one key cannot tear it; WAL needs the directory on a local
    file system. ``sqlite3`` is imported and the file opened on the first
    read or ``put``, and a read with nothing stored yet is a miss that
    creates nothing. The open that creates the table imports every
    ``<key>.json`` entry of the older one-file-per-entry layout, leaving
    the files in place. A text row or an old entry that does not parse is
    a miss, and the next ``put`` overwrites it. Hits return the stored
    payload. A store file that is not a sqlite database raises instead of
    being replaced, since it may hold paid replies. A ``CallCache`` is used
    from the thread that opened it; threads or processes that share a
    directory each make their own.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / CACHE_FILE
        self._conn = None

    def _store(self, create: bool):
        """The open connection; None while nothing is stored and ``create`` is false."""
        if self._conn is None:
            if not (create or self.path.exists() or any(self.directory.glob("*.json"))):
                return None
            self._conn = _open_store(self.path)
        return self._conn

    def get(self, key: str) -> dict | bytes | None:
        return self.get_many([key]).get(key)

    def get_many(self, keys: list[str]) -> dict[str, dict | bytes]:
        """The payload of each of ``keys`` that is stored and well formed, by key."""
        conn = self._store(create=False) if keys else None
        if conn is None:
            return {}
        found = {}
        for start in range(0, len(keys), GET_MANY_CHUNK):
            chunk = keys[start:start + GET_MANY_CHUNK]
            marks = ",".join("?" * len(chunk))
            for key, payload in conn.execute(f"SELECT key, payload FROM calls WHERE key IN ({marks})", chunk):
                if isinstance(payload, bytes):
                    found[key] = payload
                    continue
                try:
                    found[key] = json.loads(payload)
                except (TypeError, ValueError):
                    pass
        return found

    def put(self, key: str, payload: dict | bytes) -> None:
        self._store(create=True).execute(_PUT, (key, _encoded(payload)))

    def put_many(self, entries) -> None:
        """``put`` each (key, payload) of ``entries`` with one ``executemany`` in one commit.

        If one entry fails, none is stored.
        """
        conn = self._store(create=True)
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.executemany(_PUT, ((key, _encoded(payload)) for key, payload in entries))
            conn.execute("COMMIT")
        except BaseException:
            if conn.in_transaction:
                conn.execute("ROLLBACK")
            raise

    def close(self) -> None:
        """Close the store file, if open; a later ``get`` or ``put`` reopens it."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None


_PUT = "INSERT OR REPLACE INTO calls (key, payload) VALUES (?, ?)"


def _encoded(payload: dict | bytes) -> str | bytes:
    """A payload as stored: bytes as they are, a dict as its sorted JSON text."""
    if isinstance(payload, bytes):
        return payload
    return json.dumps(payload, sort_keys=True, ensure_ascii=False)


def _open_store(path: Path):
    """A connection to the cache file at ``path``, its table made and old entries imported."""
    import sqlite3  # here, not at the top: a hermetic run never loads it

    conn = sqlite3.connect(path, timeout=30.0, isolation_level=None)
    try:
        for attempt in range(WAL_SWITCH_ATTEMPTS):
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError:
                # Two connections switching a new file to WAL at once: sqlite
                # fails one of them at once instead of waiting out the timeout.
                if attempt == WAL_SWITCH_ATTEMPTS - 1:
                    raise
                time.sleep(0.01)
        conn.execute("PRAGMA synchronous=NORMAL")  # WAL commits stay atomic; no fsync per put
        conn.execute("PRAGMA cache_size=-64")  # KiB; point lookups are served by the OS page cache
        conn.execute("BEGIN IMMEDIATE")
        if conn.execute("PRAGMA user_version").fetchone()[0] == 0:
            conn.execute("CREATE TABLE IF NOT EXISTS calls (key TEXT PRIMARY KEY, payload TEXT)")
            conn.executemany(
                "INSERT OR IGNORE INTO calls (key, payload) VALUES (?, ?)",
                _legacy_entries(path.parent),
            )
            conn.execute("PRAGMA user_version = 1")
        conn.execute("COMMIT")
    except BaseException as exc:
        conn.close()
        if isinstance(exc, sqlite3.DatabaseError):
            raise RuntimeError(f"call cache {path} is not a usable sqlite store: {exc}") from exc
        raise
    return conn


def _legacy_entries(directory: Path):
    """(key, payload text) of each ``<key>.json`` entry in ``directory`` that parses."""
    for entry in directory.glob("*.json"):
        try:
            text = entry.read_text(encoding="utf-8")
            json.loads(text)
        except (OSError, ValueError):  # UnicodeDecodeError is a ValueError
            continue
        yield entry.stem, text


def _transient(exc: OSError) -> bool:
    """Connection errors, timeouts and HTTP 408, 429 and 5xx are retried."""
    from requests import HTTPError

    if isinstance(exc, HTTPError):
        status = getattr(exc.response, "status_code", 0)
        return status in (408, 429) or status >= 500
    return True


def _retry_delay(exc: OSError, backoff: float) -> float:
    """The response's numeric ``Retry-After`` in seconds, else ``backoff``."""
    response = getattr(exc, "response", None)
    retry_after = str(getattr(response, "headers", {}).get("Retry-After", "")).strip()
    return float(retry_after) if retry_after.isdecimal() else backoff


class RemoteProvider:
    """Endpoint, credentials, cache and retry settings of a remote client."""

    def __init__(
        self,
        model_id: str,
        endpoint: str = DEFAULT_ENDPOINT,
        api_key_env: str = DEFAULT_API_KEY_ENV,
        cache: CallCache | None = None,
        transport: Callable[[str, dict, dict], dict] | None = None,
        retries: int = DEFAULT_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
    ):
        self.model_id = model_id
        self.endpoint = endpoint.rstrip("/")
        self.api_key_env = api_key_env
        self.cache = cache
        self.transport = transport
        self.retries = retries
        self.backoff = backoff

    def _post(self, path: str, body: dict, parse: Callable[[dict], object]):
        """``parse`` of the response to POSTing ``body`` to ``path``.

        Transient failures are retried after the response's numeric
        ``Retry-After`` or, without one, an exponential backoff; any other
        HTTP error, or a response ``parse`` cannot read, raises at once.
        """
        url = f"{self.endpoint}/{path}"
        headers = {
            "Authorization": f"Bearer {os.environ.get(self.api_key_env, '')}",
            "Content-Type": "application/json",
        }
        attempts = max(1, self.retries)
        for attempt in range(1, attempts + 1):
            try:
                if self.transport is not None:
                    response = self.transport(url, body, headers)
                else:
                    import requests  # here, not at the top: a hermetic run never loads it

                    resp = requests.post(url, json=body, headers=headers, timeout=60)
                    resp.raise_for_status()
                    response = resp.json()
                break
            except OSError as exc:  # requests' errors are OSErrors too
                if not _transient(exc) or attempt == attempts:
                    raise ProviderError(f"request to {url} failed: {exc}", attempts=attempt) from exc
                time.sleep(_retry_delay(exc, self.backoff * (2 ** (attempt - 1))))
        try:
            return parse(response)
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed response from {url}: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Embedding providers
# ---------------------------------------------------------------------------


def _token_bucket(token: str, dims: int) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dims


class HashedEmbedder:
    """Deterministic bag-of-words embedder.

    Each whitespace token is hashed (stable 64-bit digest) into one of
    ``dims`` buckets; the count vector is L2-normalized. ``embed`` counts
    and normalizes a whole batch in one pass. No network; the only state
    is a per-instance memo of each token's bucket, so a token is hashed
    once per embedder. The same text always maps to the same unit vector.
    """

    def __init__(self, dims: int = 256):
        if dims <= 0:
            raise ValueError("dims must be positive")
        self.dims = dims
        self._buckets: dict[str, int] = {}

    def embed(self, texts: list[str]) -> np.ndarray:
        """One unit row per text, from one count over the whole batch.

        Each row is divided by the square root of its exact integer sum of
        squares, so it is bit-identical to ``embed_raw(t) /
        np.linalg.norm(embed_raw(t))``.
        """
        if not texts:
            return np.zeros((0, self.dims))
        token_lists = [text.split() for text in texts]
        lengths = [len(tokens) for tokens in token_lists]
        if 0 in lengths:
            raise ValueError(f"cannot embed empty text at position {lengths.index(0)}")
        ids = self._bucket_ids(list(itertools.chain.from_iterable(token_lists)))
        cells = np.repeat(np.arange(0, len(texts) * self.dims, self.dims), lengths) + ids
        # Float weights make bincount count straight into the float rows.
        out = np.bincount(cells, weights=np.ones(len(ids)), minlength=len(texts) * self.dims)
        out = out.reshape(len(texts), self.dims)
        out /= np.sqrt(np.einsum("ij,ij->i", out, out))[:, None]
        return out

    def embed_raw(self, text: str) -> np.ndarray:
        """Unnormalized token-count vector; zero vector for empty text."""
        return np.bincount(self._bucket_ids(text.split()), minlength=self.dims).astype(float)

    def _bucket_ids(self, tokens: list[str]) -> np.ndarray:
        """Each token's bucket; a token the memo lacks is hashed once and remembered."""
        buckets = self._buckets
        for tok in set(tokens).difference(buckets):
            buckets[tok] = _token_bucket(tok, self.dims)
        return np.fromiter(map(buckets.__getitem__, tokens), dtype=np.intp, count=len(tokens))


def _embedding_rows(response: dict, count: int, dims: int) -> list[np.ndarray]:
    """The ``count`` float vectors of a reply, in the order of their ``index``.

    A reply with another number of rows, a missing or repeated index, a
    row whose length is not ``dims``, a row that is not all finite real
    numbers, or an all-zero row is an error, so nothing from it reaches
    the cache.
    """
    data = response["data"]
    rows = {item["index"]: item["embedding"] for item in data}
    if len(data) != count or sorted(rows) != list(range(count)):
        raise ProviderError(f"embedding reply does not index its {count} inputs once each")
    ordered = []
    for i in range(count):
        row = rows[i]
        if len(row) != dims:
            raise ProviderError(f"embedding row has length {len(row)}, not {dims} ([embedder] dims)")
        vector = _real_vector(row, dims)
        if vector is None:
            raise ProviderError(f"embedding row {i} is not all finite real numbers")
        ordered.append(vector)
    if not all(vector.any() for vector in ordered):
        raise ProviderError("embedding service returned a zero vector")
    return ordered


def _real_vector(row, dims: int) -> np.ndarray | None:
    """``row`` as a float vector if it is ``dims`` finite real numbers; else None."""
    try:
        vector = np.array(row)
    except ValueError:  # a ragged row
        return None
    if vector.shape != (dims,) or vector.dtype.kind not in "iuf" or not np.isfinite(vector).all():
        return None
    return vector.astype(float, copy=False)


def _cached_vector(payload, dims: int) -> np.ndarray | None:
    """The vector of a JSON embedding cache entry; None for a malformed one.

    Entries written before the bytes form, and imported ``<key>.json``
    files, hold ``{"data": [{"embedding": [number, ...]}]}``; well formed
    is ``dims`` finite numbers, not all zero. Anything else counts as a
    miss, so the text is fetched again and its entry overwritten.
    """
    try:
        vector = _real_vector(payload["data"][0]["embedding"], dims)
    except (KeyError, IndexError, TypeError):
        return None
    return vector if vector is not None and vector.any() else None


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` each divided by its own norm; a row's result does not depend on the others."""
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class RemoteEmbedder(RemoteProvider):
    """OpenAI-compatible embeddings client, cached per text.

    Each ``embed`` call reads the cache entries of its distinct new texts
    with one ``CallCache.get_many`` and checks their bytes as one array,
    then sends the texts still missing in one request per ``EMBED_BATCH``
    of them. Every text keeps its own cache entry, keyed as a one-input
    request, and its unit row is remembered by the instance once a call
    returns it, so a text is read from the cache or the network at most
    once per embedder and a call only copies remembered rows into one
    array. Every vector has length ``dims``, the model's length as the
    experiment states it. An entry is stored as the ``8 * dims``
    little-endian float64 bytes of its vector, and the entries of one reply
    are stored in one commit; a hit is never rewritten.
    """

    def __init__(self, *args, dims: int, **kwargs):
        if dims <= 0:
            raise ValueError("dims must be positive")
        super().__init__(*args, **kwargs)
        self.dims = dims
        self._vectors: dict[str, np.ndarray] = {}  # unit rows

    def _keys(self, texts: list[str]) -> list[str]:
        """Each text's cache key: ``request_hash`` of its one-input embeddings request.

        The canonical JSON of that request is the JSON string of the text
        between a prefix and a suffix that hold the sorted other keys.
        ``encode_basestring`` is the string encoder ``json.dumps`` uses with
        ``ensure_ascii=False``, so the bytes hashed are the same.
        """
        prefix = '{"endpoint":"embeddings","input":['
        suffix = '],"model":' + encode_basestring(self.model_id) + "}"
        return [
            hashlib.sha256(f"{prefix}{encode_basestring(t)}{suffix}".encode("utf-8")).hexdigest()
            for t in texts
        ]

    def _key(self, text: str) -> str:
        return self._keys([text])[0]

    def _cached_rows(self, texts: list[str], keys: list[str]) -> dict[str, np.ndarray]:
        """The unit row of each text whose cache entry is well formed, by text.

        Bytes entries of the right length and the vectors of JSON entries
        are checked as one ``(n, dims)`` array: each row all finite and not
        all zero.
        """
        entries = self.cache.get_many(keys)
        size = 8 * self.dims
        blob_texts, blobs, json_texts, json_rows = [], [], [], []
        for text, key in zip(texts, keys):
            payload = entries.get(key)
            if isinstance(payload, bytes):
                if len(payload) == size:
                    blob_texts.append(text)
                    blobs.append(payload)
            elif payload is not None and (vector := _cached_vector(payload, self.dims)) is not None:
                json_texts.append(text)
                json_rows.append(vector)
        rows = np.frombuffer(b"".join(blobs), dtype="<f8").reshape(len(blobs), self.dims)
        if json_rows:
            rows = np.vstack([rows, *json_rows])
        good = np.isfinite(rows).all(axis=1) & rows.any(axis=1)
        return dict(zip(itertools.compress(blob_texts + json_texts, good), _unit_rows(rows[good])))

    def embed(self, texts: list[str]) -> np.ndarray:
        """One unit-length row per text, in order.

        An empty batch raises ``ValueError`` before any cache or network
        work; ``HashedEmbedder`` returns a ``(0, dims)`` array instead.
        Every vector must be a nonzero row of ``dims`` finite numbers: a cache
        entry that is not is fetched again and overwritten, and a reply
        that is not raises ``ProviderError`` and caches nothing.
        """
        if not texts:
            raise ValueError("cannot embed an empty batch")
        for i, t in enumerate(texts):
            if not t.strip():
                raise ValueError(f"cannot embed empty text at position {i}")
        new = [t for t in dict.fromkeys(texts) if t not in self._vectors]
        keys = self._keys(new) if self.cache else [None] * len(new)
        # Remembered only if this call returns.
        found = self._cached_rows(new, keys) if self.cache and new else {}
        missing = [(text, key) for text, key in zip(new, keys) if text not in found]
        while missing:
            batch, missing = missing[:EMBED_BATCH], missing[EMBED_BATCH:]
            rows = self._post(
                "embeddings", {"model": self.model_id, "input": [text for text, _ in batch]},
                lambda response: _embedding_rows(response, len(batch), self.dims),
            )
            if self.cache:
                self.cache.put_many(
                    (key, vector.astype("<f8").tobytes()) for (_, key), vector in zip(batch, rows)
                )
            found.update(zip((text for text, _ in batch), _unit_rows(np.stack(rows))))
        self._vectors.update(found)
        return np.array([self._vectors[t] for t in texts])  # one copy of the rows, as np.stack


# ---------------------------------------------------------------------------
# Generation providers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenerationRequest:
    model_id: str
    prompt: str

    def payload(self) -> dict:
        temperature, top_p = DECODING
        return {
            "model": self.model_id,
            "messages": [{"role": "user", "content": self.prompt}],
            "temperature": temperature,
            "top_p": top_p,
        }

    def cache_key(self) -> str:
        """The request's key in the call cache and in scripted ``script`` maps."""
        return request_hash({"endpoint": "chat", **self.payload()})


@dataclass
class GenerationResult:
    text: str
    created_at: str

    def __post_init__(self) -> None:
        # Replies, scripts and cache entries are all outside input.
        if not isinstance(self.text, str):
            raise ProviderError(f"completion text is not a string: {type(self.text).__name__}")
        if not self.text.strip():
            raise ProviderError("empty completion from generator")


def _completion_payload(response: dict) -> dict:
    """The cached part of a chat response, its text and arrival time, checked as a result."""
    created_at = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return vars(GenerationResult(response["choices"][0]["message"]["content"], created_at))


def _well_formed_completion(payload) -> bool:
    """Whether a chat cache entry has a string ``text`` and ``created_at``.

    A blank ``text`` is well formed here and fails as an empty completion.
    """
    return (
        isinstance(payload, dict)
        and isinstance(payload.get("text"), str)
        and isinstance(payload.get("created_at"), str)
    )


class RemoteGenerator(RemoteProvider):
    """OpenAI-compatible chat-completions client, cached per request.

    A missing or malformed cache entry, a bytes one included, is a miss:
    the request is sent and its entry overwritten.
    """

    def complete(self, prompt: str) -> GenerationResult:
        request = GenerationRequest(self.model_id, prompt)
        key = request.cache_key()
        payload = self.cache.get(key) if self.cache else None
        if not _well_formed_completion(payload):
            payload = self._post("chat/completions", request.payload(), _completion_payload)
            if self.cache:
                self.cache.put(key, payload)
        return GenerationResult(text=payload["text"], created_at=payload["created_at"])


_SENTENCE_RE = re.compile(r"[A-Z][^.!?\n]*[.!]")
_BLOCK_HEADER_RE = re.compile(
    r"^(Page \d+-\d+:|Context:|Text chunks:|Implicit question \d+: .*|Question:|#.*)$"
)

# Evidence line -> its sentences as the keys of a dict, in order.
LineMemo = dict[str, dict[str, None]]


def _context_sentences(prompt: str, memo: LineMemo | None = None) -> list[str]:
    """Complete sentences from the evidence blocks of a prompt.

    Everything before the first ``Text chunks:`` marker (the instructions
    and the question) is discarded; each line after it is looked up in
    ``memo``, and scanned by ``_line_sentences`` only the first time
    ``memo`` sees it. Order of first appearance is kept; duplicates are
    dropped. Without a ``memo`` every line is scanned, through a fresh one.
    A line's sentences depend on that line alone, so a memo shared by many
    prompts changes no result.
    """
    marker = "Text chunks:"
    idx = prompt.find(marker)
    if idx < 0:
        return []
    if memo is None:
        memo = {}
    sentences: dict[str, None] = {}
    for line in prompt[idx + len(marker):].splitlines():
        found = memo.get(line)
        if found is None:
            found = memo[line] = _line_sentences(line)
        sentences.update(found)
    return list(sentences)


def _line_sentences(line: str) -> dict[str, None]:
    """The sentences of one evidence line, in order, as the keys of a dict.

    A block-header line, or a line with no capitalized sentence ending in
    terminal punctuation, has none. A sentence never crosses a line, since
    ``_SENTENCE_RE`` cannot match a newline, so each line is scanned on its
    own. A sentence's whitespace is collapsed only on a line with a double
    space or a character that is not printable: U+0020 is the only
    printable whitespace character, so on any other line the sentences are
    already in normal form.
    """
    found = _SENTENCE_RE.findall(line)
    if not found or _BLOCK_HEADER_RE.match(line.strip()):
        return {}
    if "  " in line or not line.isprintable():
        found = [" ".join(s.split()) for s in found]
    return dict.fromkeys(found)


_ECHO_PREAMBLE = (
    "Here follows an explanation assembled from the supplied reference excerpts. "
    "Several broad remarks appear first because assistants typically add framing. "
    "Readers should weigh unsourced framing differently than quoted material. "
    "Everything past this point restates whichever excerpts were provided."
)


def _behavior_context_echo(prompt: str, memo: LineMemo | None = None) -> str:
    """Answer by restating every complete sentence found in the context.

    The evidence lines are looked up in ``memo``, the calling generator's
    memo of each line's sentences; without one, every line is scanned.
    """
    sentences = _context_sentences(prompt, memo)
    if not sentences:
        first_line = next(
            (ln for ln in prompt.splitlines() if ln.startswith("#")), "#the question"
        )
        return f"{_ECHO_PREAMBLE} No reference material was given for {first_line.lstrip('#')}"
    return " ".join([_ECHO_PREAMBLE] + sentences)


def _behavior_context_echo_short(prompt: str, memo: LineMemo | None = None) -> str:
    """Like ``context_echo`` but keeps every other context sentence.

    ``memo`` is used as ``context_echo`` uses it.
    """
    sentences = _context_sentences(prompt, memo)
    if not sentences:
        return _behavior_context_echo(prompt, memo)
    return " ".join([_ECHO_PREAMBLE] + sentences[::2])


def _behavior_qa_stub(prompt: str, memo: LineMemo | None = None) -> str:
    """Emit deterministic dash-list Q&As for a question-extraction prompt.

    It reads no evidence lines, so ``memo`` is unused.
    """
    marker = "Paragraph for Analysis:"
    idx = prompt.find(marker)
    paragraph = prompt[idx + len(marker):].strip() if idx >= 0 else prompt
    lines = []
    for m in _SENTENCE_RE.finditer(paragraph):
        words = m.group(0).rstrip(".!").split()
        if len(words) < 4:
            continue
        topic = " ".join(words[:3])
        lines.append(f"- What is {topic}? {' '.join(words[3:])}.")
        if len(lines) >= 2:
            break
    return "\n".join(lines) if lines else "- What is this passage? A short fragment."


class ScriptedBehavior(Protocol):
    """A builtin reply rule: the reply to ``prompt``, with evidence lines looked up in ``memo``."""

    def __call__(self, prompt: str, memo: LineMemo | None = None) -> str: ...


SCRIPTED_BEHAVIORS: dict[str, ScriptedBehavior] = {
    "context_echo": _behavior_context_echo,
    "context_echo_short": _behavior_context_echo_short,
    "qa_stub": _behavior_qa_stub,
}


@dataclass
class ScriptedGenerator:
    """Deterministic offline generator.

    Responses come from an explicit request-hash -> text mapping, else a
    named builtin behavior, else ``ProviderError``. Replies are not cached
    and carry the fixed ``SCRIPTED_CREATED_AT`` stamp. An unknown
    ``behavior`` name fails on construction. Where a test needs other
    replies, any object with ``complete(prompt)`` stands in for this one.

    The instance remembers the sentences of each evidence line its
    behavior has scanned, so a line that recurs across prompts, such as a
    textbook chunk cited by both a question's rag and rag_coi prompts, is
    scanned once per instance. The memo lives as long as the generator
    (one stage) and takes no part in construction, ``==`` or ``repr``.
    """

    model_id: str = "scripted"
    script: dict[str, str] = field(default_factory=dict)
    behavior: str | None = None
    _lines: LineMemo = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.behavior is not None and self.behavior not in SCRIPTED_BEHAVIORS:
            raise ValueError(f"unknown scripted behavior: {self.behavior}")

    def complete(self, prompt: str) -> GenerationResult:
        # The request hash serialises the whole prompt, so it is computed
        # only when there is a script to look it up in, or an error to name.
        if self.script and (key := self._key(prompt)) in self.script:
            text = self.script[key]
        elif self.behavior is not None:
            text = SCRIPTED_BEHAVIORS[self.behavior](prompt, self._lines)
        else:
            key = self._key(prompt)
            raise ProviderError(f"scripted generator has no entry for request {key[:12]}")
        return GenerationResult(text=text, created_at=SCRIPTED_CREATED_AT)

    def _key(self, prompt: str) -> str:
        return GenerationRequest(self.model_id, prompt).cache_key()
