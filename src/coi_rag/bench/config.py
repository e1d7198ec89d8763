"""Experiment configuration, read from an INI file.

Sections: ``[experiment]`` (seed, modes, cache/output dirs), one
``[corpus.TAG]`` per evidence source, ``[questions]``, ``[embedder]``,
``[bank]``, ``[planner]``, ``[adherence]``, ``[stats]``, and one
``[model.NAME]`` per generator. Relative paths resolve against the config
file's directory. Provider credentials come from environment variables
named in the config, never from the file itself.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from ..adherence import MATCHING_PARTS
from ..prompting import MODES
from ..providers import (
    CallCache,
    HashedEmbedder,
    RemoteEmbedder,
    RemoteGenerator,
    ScriptedGenerator,
)


@dataclass(frozen=True)
class CorpusSpec:
    tag: str
    path: Path
    title: str


@dataclass(frozen=True)
class ModelSpec:
    name: str
    kind: str  # "remote" or "scripted"
    model_id: str = ""
    endpoint: str = "https://api.openai.com/v1"
    api_key_env: str = "OPENAI_API_KEY"
    behavior: str | None = None
    script_path: Path | None = None
    answer: bool = True  # false for helper models (e.g. the bank generator)
    retries: int = 3
    backoff: float = 0.5

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
        if self.kind == "scripted":
            script = {}
            if self.script_path is not None:
                import json

                script = json.loads(Path(self.script_path).read_text(encoding="utf-8"))
            return ScriptedGenerator(
                model_id=self.model_id or self.name,
                script=script,
                behavior=self.behavior,
            )
        raise ValueError(f"unknown model kind: {self.kind}")


@dataclass
class ExperimentConfig:
    corpora: list[CorpusSpec]
    questions_path: Path
    modes: list[str]
    models: list[ModelSpec]
    embedder_kind: str = "hashed"
    embedder_dims: int = 256
    embedder_model_id: str = ""
    embedder_endpoint: str = "https://api.openai.com/v1"
    embedder_api_key_env: str = "OPENAI_API_KEY"
    bank_model: str = ""
    pool_size: int = 25
    per_question_chunks: int = 10
    keep_questions: int = 5
    chunk_size: int = 150
    chunk_overlap: int = 75
    chunk_min_tokens: int = 100
    threshold: float = 0.7
    matching: str = "whole_clause"
    alpha: float = 0.05
    fdr_q: float = 0.05
    bootstrap_samples: int = 10000
    seed: int = 0
    cache_dir: Path = Path("cache")
    output_dir: Path = Path("out")
    allow_partial: bool = False
    metrics: tuple[str, ...] = ("factscore", "mean_similarity", "adherent_count")
    _model_by_name: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.modes:
            raise ValueError("modes must be non-empty")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown mode: {mode}")
        if self.matching not in MATCHING_PARTS:
            raise ValueError(f"unknown matching mode: {self.matching}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {self.threshold}")
        if not self.corpora:
            raise ValueError("at least one corpus is required")
        self._model_by_name = {m.name: m for m in self.models}

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
        if self.embedder_kind == "remote":
            return RemoteEmbedder(
                model_id=self.embedder_model_id,
                endpoint=self.embedder_endpoint,
                api_key_env=self.embedder_api_key_env,
                cache=cache,
                transport=transport,
            )
        raise ValueError(f"unknown embedder kind: {self.embedder_kind}")


def _resolve(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else base / p


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    parser = configparser.ConfigParser()
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    base = path.parent

    exp = parser["experiment"] if parser.has_section("experiment") else {}
    modes = [m.strip() for m in exp.get("modes", "genai, rag, rag_coi").split(",") if m.strip()]

    corpora = []
    for section in parser.sections():
        if section.startswith("corpus."):
            tag = section.split(".", 1)[1]
            corpora.append(
                CorpusSpec(
                    tag=tag,
                    path=_resolve(base, parser[section]["path"]),
                    title=parser[section].get("title", tag),
                )
            )
    corpora.sort(key=lambda c: c.tag)

    models = []
    for section in parser.sections():
        if section.startswith("model."):
            name = section.split(".", 1)[1]
            sec = parser[section]
            script_path = sec.get("script")
            models.append(
                ModelSpec(
                    name=name,
                    kind=sec.get("kind", "remote"),
                    model_id=sec.get("model_id", name),
                    endpoint=sec.get("endpoint", "https://api.openai.com/v1"),
                    api_key_env=sec.get("api_key_env", "OPENAI_API_KEY"),
                    behavior=sec.get("behavior"),
                    script_path=_resolve(base, script_path) if script_path else None,
                    answer=sec.get("answer", "true").lower() in ("1", "true", "yes"),
                    retries=int(sec.get("retries", "3")),
                    backoff=float(sec.get("backoff", "0.5")),
                )
            )
    models.sort(key=lambda m: m.name)

    emb = parser["embedder"] if parser.has_section("embedder") else {}
    planner_sec = parser["planner"] if parser.has_section("planner") else {}
    chunking = parser["chunking"] if parser.has_section("chunking") else {}
    adh = parser["adherence"] if parser.has_section("adherence") else {}
    st = parser["stats"] if parser.has_section("stats") else {}
    bank = parser["bank"] if parser.has_section("bank") else {}
    questions = parser["questions"] if parser.has_section("questions") else {}
    if "path" not in questions:
        raise ValueError("config needs a [questions] section with a path")

    return ExperimentConfig(
        corpora=corpora,
        questions_path=_resolve(base, questions["path"]),
        modes=modes,
        models=models,
        embedder_kind=emb.get("kind", "hashed"),
        embedder_dims=int(emb.get("dims", "256")),
        embedder_model_id=emb.get("model_id", ""),
        embedder_endpoint=emb.get("endpoint", "https://api.openai.com/v1"),
        embedder_api_key_env=emb.get("api_key_env", "OPENAI_API_KEY"),
        bank_model=bank.get("generator", ""),
        pool_size=int(planner_sec.get("pool_size", "25")),
        per_question_chunks=int(planner_sec.get("per_question_chunks", "10")),
        keep_questions=int(planner_sec.get("selected", "5")),
        chunk_size=int(chunking.get("size", "150")),
        chunk_overlap=int(chunking.get("overlap", "75")),
        chunk_min_tokens=int(chunking.get("min_tokens", "100")),
        threshold=float(adh.get("threshold", "0.7")),
        matching=adh.get("matching", "whole_clause"),
        alpha=float(st.get("alpha", "0.05")),
        fdr_q=float(st.get("fdr_q", "0.05")),
        bootstrap_samples=int(st.get("bootstrap_samples", "10000")),
        seed=int(exp.get("seed", "0")),
        cache_dir=_resolve(base, exp.get("cache_dir", "cache")),
        output_dir=_resolve(base, exp.get("output_dir", "out")),
        allow_partial=exp.get("allow_partial", "false").lower() in ("1", "true", "yes"),
    )
