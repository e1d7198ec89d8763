"""Experiment configuration, read from an INI file.

Sections: ``[experiment]`` (seed, modes, cache/output dirs), one
``[corpus.TAG]`` per evidence source, ``[questions]``, ``[chunking]``,
``[embedder]``, ``[bank]``, ``[planner]``, ``[adherence]``, ``[stats]``, and
one ``[model.NAME]`` per generator. ``SECTIONS`` lists every key a section
accepts; a key left out keeps its dataclass field's default, and an unknown
section or key, or a ``[DEFAULT]`` section, is an error naming the file, the
section and the key. Booleans take configparser's spellings (1/yes/true/on,
0/no/false/off). Values keep configparser's interpolation, so a literal
``%`` is written ``%%``; a lone ``%`` is an error naming the key. Values
that could only fail once provider calls have been paid for are rejected
on load. Relative paths, defaults included, resolve against the config
file's directory. Credentials come from environment variables named in
the config, never from the file itself.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..adherence import MATCHING_PARTS
from ..prompting import MODES
from ..providers import (
    DEFAULT_API_KEY_ENV, DEFAULT_BACKOFF, DEFAULT_ENDPOINT, DEFAULT_RETRIES, SCRIPTED_BEHAVIORS,
    CallCache, HashedEmbedder, RemoteEmbedder, RemoteGenerator, ScriptedGenerator,
)


@dataclass(frozen=True)
class CorpusSpec:
    tag: str
    path: Path
    title: str


@dataclass(frozen=True)
class ModelSpec:
    name: str
    kind: str = "remote"  # or "scripted"
    model_id: str = ""  # empty: the model's name
    endpoint: str = DEFAULT_ENDPOINT
    api_key_env: str = DEFAULT_API_KEY_ENV
    behavior: str | None = None
    script_path: Path | None = None
    answer: bool = True  # false for helper models (e.g. the bank generator)
    retries: int = DEFAULT_RETRIES
    backoff: float = DEFAULT_BACKOFF

    def __post_init__(self) -> None:
        if self.kind not in ("remote", "scripted"):
            raise ValueError(f"model {self.name}: unknown kind {self.kind!r}")
        if self.kind == "scripted" and self.behavior not in (None, *SCRIPTED_BEHAVIORS):
            raise ValueError(f"model {self.name}: unknown scripted behavior {self.behavior!r}")

    def build(self, cache: CallCache | None, transport=None):
        if self.kind == "remote":
            return RemoteGenerator(
                model_id=self.model_id or self.name,
                endpoint=self.endpoint,
                api_key_env=self.api_key_env,
                cache=cache,
                transport=transport,
                retries=self.retries,
                backoff=self.backoff,
            )
        script = {}
        if self.script_path is not None:
            script = json.loads(Path(self.script_path).read_text(encoding="utf-8"))
        return ScriptedGenerator(
            model_id=self.model_id or self.name,
            script=script,
            behavior=self.behavior,
        )


@dataclass
class ExperimentConfig:
    corpora: list[CorpusSpec]
    questions_path: Path
    models: list[ModelSpec]
    modes: list[str] = field(default_factory=lambda: list(MODES))
    embedder_kind: str = "hashed"  # or "remote"
    embedder_dims: int = 256
    embedder_model_id: str = ""
    embedder_endpoint: str = DEFAULT_ENDPOINT
    embedder_api_key_env: str = DEFAULT_API_KEY_ENV
    bank_model: str = ""
    pool_size: int = 25
    per_question_chunks: int = 10
    keep_questions: int = 5
    chunk_size: int = 150
    chunk_overlap: int = 75
    chunk_min_tokens: int = 100
    threshold: float = 0.7
    matching: str = "whole_clause"
    fdr_q: float = 0.05
    bootstrap_samples: int = 10000
    seed: int = 0
    cache_dir: Path = Path("cache")
    output_dir: Path = Path("out")
    _model_by_name: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"[experiment] seed must be >= 0, got {self.seed}")
        if not self.modes:
            raise ValueError("modes must be non-empty")
        for i, mode in enumerate(self.modes):
            if mode not in MODES:
                raise ValueError(f"unknown mode: {mode}")
            if mode in self.modes[:i]:
                raise ValueError(f"repeated mode: {mode}")
        if self.matching not in MATCHING_PARTS:
            raise ValueError(f"unknown matching mode: {self.matching}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {self.threshold}")
        if not 1 <= self.keep_questions <= self.pool_size or self.per_question_chunks < 1:
            raise ValueError("planner needs 1 <= selected <= pool_size, per_question_chunks >= 1")
        if not 0.0 < self.fdr_q < 1.0:
            raise ValueError(f"fdr_q must lie in (0, 1), got {self.fdr_q}")
        if self.bootstrap_samples < 1:
            raise ValueError(f"bootstrap_samples must be >= 1, got {self.bootstrap_samples}")
        if self.embedder_kind not in ("hashed", "remote"):
            raise ValueError(f"unknown embedder kind: {self.embedder_kind}")
        if self.embedder_dims < 1:
            raise ValueError(f"embedder dims must be >= 1, got {self.embedder_dims}")
        if not self.corpora:
            raise ValueError("at least one corpus is required")
        self._model_by_name = {m.name: m for m in self.models}
        if self.bank_model and self.bank_model not in self._model_by_name:
            raise ValueError(f"bank generator {self.bank_model!r} is no configured model")

    @property
    def tags(self) -> set[str]:
        return {c.tag for c in self.corpora}

    @property
    def answer_models(self) -> list[ModelSpec]:
        return [m for m in self.models if m.answer]

    def corpus(self, tag: str) -> CorpusSpec:
        for c in self.corpora:
            if c.tag == tag:
                return c
        raise KeyError(f"no corpus configured for tag {tag!r}")

    def model(self, name: str) -> ModelSpec:
        return self._model_by_name[name]

    def build_embedder(self, cache: CallCache | None = None, transport=None):
        if self.embedder_kind == "hashed":
            return HashedEmbedder(dims=self.embedder_dims)
        return RemoteEmbedder(
            model_id=self.embedder_model_id,
            endpoint=self.embedder_endpoint,
            api_key_env=self.embedder_api_key_env,
            cache=cache,
            transport=transport,
            dims=self.embedder_dims,
        )


# Every key a section accepts: INI key -> (dataclass field, converter), read
# with the parser's ``get<converter>``. ``corpus.*`` keys fill a CorpusSpec,
# ``model.*`` keys a ModelSpec, and every other section the ExperimentConfig.
SECTIONS: dict[str, dict[str, tuple[str, str]]] = {
    "experiment": {"seed": ("seed", "int"), "modes": ("modes", "list"),
                   "cache_dir": ("cache_dir", "path"), "output_dir": ("output_dir", "path")},
    "questions": {"path": ("questions_path", "path")},
    "corpus.*": {"path": ("path", "path"), "title": ("title", "str")},
    "chunking": {"size": ("chunk_size", "int"), "overlap": ("chunk_overlap", "int"),
                 "min_tokens": ("chunk_min_tokens", "int")},
    "embedder": {"kind": ("embedder_kind", "str"), "dims": ("embedder_dims", "int"),
                 "model_id": ("embedder_model_id", "str"),
                 "endpoint": ("embedder_endpoint", "str"),
                 "api_key_env": ("embedder_api_key_env", "str")},
    "bank": {"generator": ("bank_model", "str")},
    "planner": {"pool_size": ("pool_size", "int"), "selected": ("keep_questions", "int"),
                "per_question_chunks": ("per_question_chunks", "int")},
    "adherence": {"threshold": ("threshold", "float"), "matching": ("matching", "str")},
    "stats": {"fdr_q": ("fdr_q", "float"), "bootstrap_samples": ("bootstrap_samples", "int")},
    "model.*": {"kind": ("kind", "str"), "model_id": ("model_id", "str"),
                "endpoint": ("endpoint", "str"), "api_key_env": ("api_key_env", "str"),
                "behavior": ("behavior", "str"), "script": ("script_path", "path"),
                "answer": ("answer", "boolean"), "retries": ("retries", "int"),
                "backoff": ("backoff", "float")},
}


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    base = path.parent
    parser = configparser.ConfigParser(
        converters={
            "str": str,
            "path": lambda value: base / value,
            "list": lambda value: [v.strip() for v in value.split(",") if v.strip()],
        }
    )
    if not parser.read(path, encoding="utf-8"):
        raise FileNotFoundError(f"config file not found: {path}")
    if parser.defaults():
        raise ValueError(f"{path}: [DEFAULT] {', '.join(parser.defaults())}: section not supported")

    settings: dict = {}
    corpora, models = [], []
    for section in parser.sections():
        kind, dot, name = section.partition(".")
        table = SECTIONS.get(kind + ".*" if dot else section)
        if table is None:
            raise ValueError(f"{path}: [{section}] {', '.join(parser[section])}: unknown section")
        values = {}
        for key in parser[section]:
            if key not in table:
                raise ValueError(f"{path}: [{section}] {key}: unknown key")
            field_name, converter = table[key]
            try:
                values[field_name] = getattr(parser[section], "get" + converter)(key)
            except (ValueError, configparser.InterpolationError) as exc:
                raise ValueError(f"{path}: [{section}] {key}: {exc}") from None
        if not dot:
            settings.update(values)
        elif kind == "model":
            models.append(ModelSpec(name=name, **values))
        elif "path" in values:
            corpora.append(CorpusSpec(tag=name, **{"title": name, **values}))
        else:
            raise ValueError(f"{path}: [{section}] path: missing")
    if "questions_path" not in settings:
        raise ValueError(f"{path}: [questions] path: missing")
    for name in ("cache_dir", "output_dir"):
        settings.setdefault(name, base / getattr(ExperimentConfig, name))
    return ExperimentConfig(
        corpora=sorted(corpora, key=lambda c: c.tag),
        models=sorted(models, key=lambda m: m.name),
        **settings,
    )
