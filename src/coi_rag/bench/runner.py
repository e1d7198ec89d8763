"""Staged experiment pipeline.

Each stage (also a CLI subcommand) writes its artifacts to the output
directory: ``ingest`` chunks and the chunk indexes, ``build-bank`` the
implicit-question banks, ``plan`` the illocution plans, ``answer`` the
generated explanations, ``evaluate`` the per-item adherence records,
``analyze`` the statistical comparisons, and ``report`` the aggregate CSV
and plots. ``run`` chains all of them and writes a manifest of content
hashes. A stage writes every artifact through :meth:`StageContext.keep`
and reads one through :meth:`StageContext.artifact`, so within ``run``
each stage hands what it wrote to the next in memory; a stage run alone
reads it from the output directory, and fails naming a file no earlier
stage wrote.

Each stage decides from the configured modes whether it has work to do:
``build-bank`` does nothing unless ``rag_coi`` runs, and ``plan`` then
writes an empty ``plans.jsonl``. A stage reads the files its modes need
strictly: ``answer`` with ``rag_coi`` fails before any generator call when
``plans.jsonl``, or the plan of any question, is missing.

A stage that embeds item by item makes one stage-wide call, and its
per-item code reads its results from that call: ``plan`` embeds every
question's query text and template questions in one ``embed`` call, and
``answer`` every query text, each item reading its rows from the call's
result (``StageRows``); ``evaluate`` matches the new clauses of all of a
corpus's explanations in one ``match_clauses`` call, one per corpus, and
reads each explanation's pairs from the source index's memo. If that call
fails, each item embeds or matches its own texts as if there were no
stage-wide call, so one bad input still fails only its own items.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .. import planner as planner_mod
from ..adherence import (
    AdherenceReport, build_source_index, extract_sentences, match_pending, score_sentences,
)
from ..corpus import Chunk, Document, chunk, chunks_from_jsonl, read_document
from ..planner import IllocutionPlan
from ..prompting import assemble_genai, assemble_rag, assemble_rag_coi, generate, strip_citations
from ..providers import DECODING, CallCache, ProviderError
from ..question_bank import QuestionBank, build_bank, template_questions
from ..records import QuestionRecord, json_line, read_jsonl, write_jsonl, write_records
from ..vector_index import VectorIndex, build_index
from .config import CorpusSpec, ExperimentConfig
from .report import write_analysis, write_csv_and_plots


def load_questions(path: str | Path, allowed_tags: set[str] | None = None) -> list[QuestionRecord]:
    """Read the question dataset (JSON Lines).

    Required fields per line: id, tag, title, body, accepted_answer,
    views. Records come back ordered by (tag, views descending, id) so
    every run sees the same sequence; a line whose views is a bool or has
    a fractional part fails, naming its ``path:line``, rather than being
    truncated into another place in that order.
    """
    required = ("id", "tag", "title", "body", "accepted_answer", "views")
    records: list[QuestionRecord] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed JSON ({exc})") from exc
            if not isinstance(rec, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object, got {type(rec).__name__}")
            for fld in required:
                if fld not in rec:
                    raise ValueError(f"{path}:{lineno}: missing field {fld!r}")
            try:
                record = QuestionRecord(
                    id=str(rec["id"]), tag=rec["tag"], title=rec["title"], body=rec["body"],
                    accepted_answer=rec["accepted_answer"], views=_view_count(rec["views"]),
                )
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: invalid question record ({exc})") from exc
            if record.id in seen:
                raise ValueError(f"{path}:{lineno}: duplicate question id {record.id!r}")
            seen.add(record.id)
            if allowed_tags is not None and record.tag not in allowed_tags:
                raise ValueError(f"{path}:{lineno}: tag {record.tag!r} has no configured corpus")
            records.append(record)
    records.sort(key=lambda q: (q.tag, -q.views, q.id))
    return records


def _view_count(value) -> int:
    """A record's ``views`` as an int: ``12``, ``12.0`` and ``"12"`` are 12.

    A bool, or a number with a fractional part, raises ``ValueError``.
    """
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"views must be a whole number, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# Stage context
# ---------------------------------------------------------------------------


@dataclass
class StageContext:
    """Shared handles for one invocation of the pipeline.

    ``kept`` maps an artifact's file name, or an input file's path, to its
    value, so each is written or read once per invocation. A stage writes
    every artifact through :meth:`keep` and reads every artifact through
    :meth:`artifact`, which falls back to the file in ``out`` when nothing
    is kept, as for a stage run alone; the inputs are read through
    :meth:`load`, keyed by their own path.
    """

    cfg: ExperimentConfig
    embedder: object
    cache: CallCache
    out: Path
    transports: dict = field(default_factory=dict)
    kept: dict[str, object] = field(default_factory=dict)

    def generator(self, model_name: str):
        spec = self.cfg.model(model_name)
        return spec.build(self.cache, transport=self.transports.get(model_name))

    def needs_retrieval(self) -> bool:
        return any(m in ("rag", "rag_coi") for m in self.cfg.modes)

    def keep(self, name: str, value, write=write_jsonl) -> None:
        """Write ``value`` to the artifact ``name`` with ``write(path, value)`` and keep it."""
        write(self.out / name, value)
        self.kept[name] = value

    def load(self, key: str, read):
        """The value kept under ``key``, else ``read()``, kept under ``key``."""
        if key not in self.kept:
            self.kept[key] = read()
        return self.kept[key]

    def artifact(self, name: str, read=read_jsonl):
        """The artifact ``name``, kept or else ``read(path)``; raises if its file is missing."""
        return self.load(name, lambda: read(self._written(name)))

    def _written(self, name: str) -> Path:
        path = self.out / name
        if not path.exists():
            raise FileNotFoundError(f"{path} not found: run the stage that writes it first")
        return path

    def questions(self) -> list[QuestionRecord]:
        """The question dataset, read once per invocation."""
        path = self.cfg.questions_path
        return self.load(str(path), lambda: load_questions(path, allowed_tags=self.cfg.tags))

    def document(self, tag: str) -> Document:
        """The source document of corpus ``tag``, read once per invocation."""
        spec = self.cfg.corpus(tag)
        return self.load(
            str(spec.path), lambda: read_document(spec.path, doc_id=spec.tag, title=spec.title)
        )

    def chunks(self, tag: str) -> list[Chunk]:
        return self.artifact(f"chunks.{tag}.jsonl", chunks_from_jsonl)

    def chunk_index(self, tag: str) -> VectorIndex:
        """The chunk index of corpus ``tag``, each chunk its key's payload."""

        def read(path: Path) -> VectorIndex:
            index = VectorIndex.load(path)
            chunks = {c.id: c for c in self.chunks(tag)}
            index.payloads = [chunks[k] for k in index.keys]
            return index

        return self.artifact(f"chunk_index.{tag}.jsonl", read)

    def bank(self, tag: str) -> QuestionBank:
        """The implicit-question bank of corpus ``tag``, indexed by ``embedder``."""
        name = f"bank.{tag}.jsonl"
        if name in self.kept:
            return QuestionBank(self.kept[name], self.embedder)
        return QuestionBank.load(self._written(name), self.embedder)


def make_context(
    cfg: ExperimentConfig, embedder=None, transports: dict | None = None
) -> StageContext:
    if not planner_mod.pool_ratio_check(cfg.pool_size, cfg.keep_questions):
        warnings.warn(
            f"candidate pool {cfg.pool_size} is below 5x the kept count "
            f"{cfg.keep_questions}; the planner has little room to discard "
            "unsupported candidates",
            stacklevel=2,
        )
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    cache = CallCache(cfg.cache_dir)
    if embedder is None:
        embedder = cfg.build_embedder(cache=cache)
    return StageContext(
        cfg=cfg, embedder=embedder, cache=cache, out=cfg.output_dir,
        transports=transports or {},
    )


class StageRows:
    """The rows of one ``embed`` call over ``texts``, served by text to per-item code.

    ``embed`` copies the stored rows into one array and calls no provider;
    the plan and answer stages read their per-item rows from it.
    """

    def __init__(self, texts: list[str], embedder):
        texts = list(dict.fromkeys(texts))
        self.rows = dict(zip(texts, embedder.embed(texts))) if texts else {}

    def embed(self, texts: list[str]):
        # Each row depends on its text alone, so it is bit-identical to what a
        # call over any other batch returns: HashedEmbedder divides exact integer
        # counts by the square root of their exact integer sum, and
        # RemoteEmbedder remembers each row divided by its own
        # np.linalg.norm(axis=1), whichever call first read or fetched it.
        # np.array copies the equal-length rows once, as np.stack would.
        return np.array([self.rows[t] for t in texts])


def _stage_rows(texts: list[str], embedder):
    """``StageRows`` of ``texts``, or ``embedder`` itself when that call raises ``ProviderError``.

    Per-item code then embeds each item's texts on its own, so a failure
    fails only the items whose texts cause it, at the cost of the failed
    call's retries.
    """
    try:
        return StageRows(texts, embedder)
    except ProviderError:
        return embedder


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def stage_ingest(ctx: StageContext) -> None:
    """Chunk every corpus; embed chunks when a retrieval mode is active."""
    for spec in ctx.cfg.corpora:
        chunks = chunk(
            ctx.document(spec.tag),
            size=ctx.cfg.chunk_size,
            overlap=ctx.cfg.chunk_overlap,
            min_tokens=ctx.cfg.chunk_min_tokens,
        )
        if not chunks:
            raise ValueError(f"corpus {spec.tag!r} ({spec.path}) yields no chunks")
        ctx.keep(f"chunks.{spec.tag}.jsonl", chunks, write_records)
        if ctx.needs_retrieval():
            index = build_index([(c.id, c.text, None) for c in chunks], ctx.embedder)
            ctx.keep(f"chunk_index.{spec.tag}.jsonl", index, lambda path, index: index.save(path))
            index.payloads = chunks  # saved without payloads; keys are the chunk ids in order


def stage_build_bank(ctx: StageContext) -> None:
    """Write every corpus's implicit questions, none without a bank generator (rag_coi only).

    Nothing is embedded here: the plan stage indexes the banks it searches.
    """
    if "rag_coi" not in ctx.cfg.modes:
        return
    generator = ctx.generator(ctx.cfg.bank_model) if ctx.cfg.bank_model else None
    for spec in ctx.cfg.corpora:
        questions = build_bank(ctx.chunks(spec.tag), generator, tag=spec.tag) if generator else []
        ctx.keep(f"bank.{spec.tag}.jsonl", questions, write_records)


def stage_plan(ctx: StageContext) -> None:
    """Write one illocution plan per question (rag_coi runs only).

    A provider failure while planning a question writes
    ``{"primary_id": ..., "error": "plan: ..."}`` in place of its plan.
    """
    if "rag_coi" not in ctx.cfg.modes:
        ctx.keep("plans.jsonl", [])
        return
    questions = ctx.questions()
    indexes = {tag: ctx.chunk_index(tag) for tag in sorted(ctx.cfg.tags)}
    banks = {tag: ctx.bank(tag) for tag in sorted(ctx.cfg.tags)}
    embedder = _stage_rows(
        [t for q in questions for t in (q.query_text(), *template_questions(q))], ctx.embedder
    )
    plans = []
    for q in questions:
        try:
            plan = planner_mod.plan(
                q,
                banks[q.tag],
                indexes[q.tag],
                embedder,
                pool_size=ctx.cfg.pool_size,
                per_question_chunks=ctx.cfg.per_question_chunks,
                keep=ctx.cfg.keep_questions,
            ).to_json()
        except ProviderError as exc:
            plan = {"primary_id": q.id, "error": f"plan: {exc}"}
        plans.append(plan)
    ctx.keep("plans.jsonl", plans)


def _load_plans(ctx: StageContext, questions: list[QuestionRecord]) -> dict[str, dict]:
    """The plan record of every question, by question id; a failed plan holds an ``error``."""
    plans = {rec["primary_id"]: rec for rec in ctx.artifact("plans.jsonl")}
    missing = [q.id for q in questions if q.id not in plans]
    if missing:
        raise ValueError(
            f"{ctx.out / 'plans.jsonl'} has no plan for question(s) {', '.join(missing)}; "
            "rerun the plan stage"
        )
    return plans


def stage_answer(ctx: StageContext) -> None:
    """Generate one explanation per (question, model, mode).

    A provider failure while embedding a question's query fails that
    question's rag and rag_coi items, their ``error`` prefixed ``embed:``;
    a question whose plan failed gets its plan's ``error`` on its rag_coi
    items. Each (question, mode) prompt is assembled once for every model.
    """
    questions = ctx.questions()
    plans = _load_plans(ctx, questions) if "rag_coi" in ctx.cfg.modes else {}
    indexes = {}
    if ctx.needs_retrieval():
        for tag in sorted(ctx.cfg.tags):
            indexes[tag] = ctx.chunk_index(tag)
        embedder = _stage_rows([q.query_text() for q in questions], ctx.embedder)

    generators = {m.name: ctx.generator(m.name) for m in ctx.cfg.answer_models}

    rows = []
    for q in questions:
        title = ctx.cfg.corpus(q.tag).title
        primary, embed_error = [], None
        if indexes:
            index = indexes[q.tag]
            try:
                vec = embedder.embed([q.query_text()])[0]
            except ProviderError as exc:
                embed_error = f"embed: {exc}"
            else:
                hits = index.top_k(vec, ctx.cfg.per_question_chunks)
                primary = [index.payload(key) for key, _ in hits]
        # Per mode, its prompt and the prompt's sha256, or the error every model's item gets.
        prompts, errors = {}, {}
        for mode in ctx.cfg.modes:
            if mode != "genai" and embed_error:
                errors[mode] = embed_error
            elif mode == "rag_coi" and "error" in plans[q.id]:
                errors[mode] = plans[q.id]["error"]
            else:
                try:
                    if mode == "genai":
                        bundle = assemble_genai(q)
                    elif mode == "rag":
                        bundle = assemble_rag(q, title, primary)
                    else:
                        plan = IllocutionPlan.from_json(plans[q.id], q, index.payload)
                        bundle = assemble_rag_coi(q, title, primary, plan)
                except ValueError as exc:
                    errors[mode] = str(exc)
                else:
                    prompts[mode] = (bundle, hashlib.sha256(bundle.text.encode("utf-8")).hexdigest())
        for model_name, generator in generators.items():
            for mode in ctx.cfg.modes:
                rec = {
                    "question_id": q.id,
                    "tag": q.tag,
                    "model": model_name,
                    "mode": mode,
                }
                if mode in errors:
                    rows.append({**rec, "error": errors[mode]})
                    continue
                bundle, sha = prompts[mode]
                try:
                    result = generate(bundle, generator)
                except (ProviderError, ValueError) as exc:
                    rec["error"] = str(exc)
                else:
                    rec.update(
                        {
                            "text": result.text,
                            "created_at": result.created_at,
                            "decoding": list(DECODING),
                            "retrieved_chunk_ids": list(bundle.retrieved_chunk_ids),
                            "prompt_sha256": sha,
                        }
                    )
                rows.append(rec)
    ctx.keep("explanations.jsonl", rows)


# The item metrics compared between rag_coi and rag.
METRICS = ("factscore", "mean_similarity", "adherent_count")

ITEM_CSV_FIELDS = (
    "question_id", "tag", "model", "mode",
    *(f.name for f in fields(AdherenceReport) if f.name != "threshold"),
)


def stage_evaluate(ctx: StageContext) -> None:
    """Score every explanation against its corpus; one item row each.

    Corpus by corpus: index the source, extract every explanation's new
    sentences in one pass, match all their clauses in one ``match_clauses``
    call, then read each explanation's report from the source index's memo.
    If that call fails, each explanation matches its own new clauses, and a
    provider failure there fails that item: its ``error`` starts with
    ``embed:``. A failure while indexing a corpus fails the run, naming the
    corpus.
    """
    records = ctx.artifact("explanations.jsonl")
    items = list(records)
    # The positions of each corpus's explanations; a tag with no corpus raises KeyError.
    by_tag = {spec.tag: [] for spec in ctx.cfg.corpora}
    for i, rec in enumerate(records):
        if "error" not in rec:
            by_tag[rec["tag"]].append(i)
    for spec in ctx.cfg.corpora:
        _score_corpus(ctx, spec, records, by_tag[spec.tag], items)

    ctx.keep("items.jsonl", items)
    with open(ctx.out / "items.csv", "w", encoding="utf-8", newline="") as dst:
        writer = csv.DictWriter(
            dst, fieldnames=ITEM_CSV_FIELDS, extrasaction="ignore", lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(i for i in items if "factscore" in i)


def _score_corpus(
    ctx: StageContext,
    spec: CorpusSpec,
    records: list[dict],
    positions: list[int],
    items: list[dict],
) -> None:
    """Score the explanations at ``positions`` in ``records`` against ``spec``, into ``items``.

    One ``match_pending`` call matches the new clauses of every
    explanation through ``ctx.embedder``; each pair is the one a call per
    explanation would give (see ``match_pending``). When it raises
    ``ProviderError``, ``score_sentences`` matches each explanation's own
    unseen sentences, so one bad input fails only its own items. The
    corpus's source index dies when this returns, before the next corpus
    is indexed.
    """
    try:
        source = build_source_index(ctx.document(spec.tag).text, ctx.embedder, ctx.cfg.matching)
    except ProviderError as exc:
        raise ProviderError(
            f"source index of corpus {spec.tag!r}: {exc}", attempts=exc.attempts
        ) from exc
    sentences = {
        i: extract_sentences(strip_citations(records[i]["text"], spec.title), source)
        for i in positions
    }
    try:
        match_pending(source, ctx.embedder)
    except ProviderError:
        pass  # each explanation below matches its own sentences
    for i, explanation in sentences.items():
        item = items[i] = dict(records[i])
        try:
            report = score_sentences(explanation, source, ctx.embedder, t=ctx.cfg.threshold)
        except ProviderError as exc:
            item["error"] = f"embed: {exc}"
            continue
        if report is None:
            item["unevaluable"] = True
        else:
            item.update(vars(report), matching=ctx.cfg.matching)


def stage_analyze(ctx: StageContext) -> dict:
    analysis = analyze_items(ctx.artifact("items.jsonl"), ctx.cfg)
    ctx.keep("analysis.json", analysis, lambda path, analysis: write_analysis(analysis, path))
    return analysis


def analyze_items(items: list[dict], cfg: ExperimentConfig) -> dict:
    """Paired rag_coi-vs-rag comparisons per (model, metric), BH-corrected.

    A question enters a comparison only when both modes produced an
    evaluable explanation for that model. Each comparison runs the
    normality-gated paired test one-sided in the improvement direction;
    the BH family is every comparison in the run.
    """
    from ..stats import (
        NORMALITY_ALPHA, PairedSample, benjamini_hochberg, bh_adjusted_pvalues, select_paired_test,
    )

    scored = [i for i in items if "factscore" in i]
    by_key = {(i["model"], i["mode"], i["question_id"]): i for i in scored}
    models = sorted({i["model"] for i in scored})
    question_ids = sorted({i["question_id"] for i in scored})

    comparisons = []
    if "rag" in cfg.modes and "rag_coi" in cfg.modes:
        for model in models:
            for metric in METRICS:
                labels, coi, rag = [], [], []
                for qid in question_ids:
                    lhs = by_key.get((model, "rag_coi", qid))
                    rhs = by_key.get((model, "rag", qid))
                    if lhs is None or rhs is None:
                        continue
                    labels.append(qid)
                    coi.append(float(lhs[metric]))
                    rag.append(float(rhs[metric]))
                entry = {
                    "model": model,
                    "metric": metric,
                    "n": len(labels),
                    "comparison": "rag_coi_minus_rag",
                }
                if len(labels) < 2:
                    entry["skipped"] = "fewer than 2 evaluable pairs"
                    comparisons.append(entry)
                    continue
                sample = PairedSample.from_lists(labels, coi, rag)
                result = select_paired_test(sample, alternative="greater")
                entry.update(
                    {
                        "test": result.test_name,
                        "statistic": result.statistic,
                        "p_one_sided": result.p_one_sided,
                        "p_two_sided": result.p_two_sided,
                        "dz": _json_float(result.effect_size),
                        "ci95": [result.ci95[0], result.ci95[1]],
                        "exact": result.exact,
                    }
                )
                comparisons.append(entry)

    tested = [c for c in comparisons if "p_one_sided" in c]
    pvals = [c["p_one_sided"] for c in tested]
    flags = benjamini_hochberg(pvals, q=cfg.fdr_q)
    adjusted = bh_adjusted_pvalues(pvals)
    for c, rej, adj in zip(tested, flags, adjusted):
        c["bh_rejected"] = bool(rej)
        c["p_bh_adjusted"] = adj

    failures = [i for i in items if "error" in i]
    unevaluable = [i for i in items if i.get("unevaluable")]
    return {
        "comparisons": comparisons,
        "fdr_q": cfg.fdr_q,
        "alpha": NORMALITY_ALPHA,
        "seed": cfg.seed,
        "counts": {
            "items": len(items),
            "scored": len(scored),
            "failed": len(failures),
            "unevaluable": len(unevaluable),
        },
    }


def _json_float(x: float) -> float | None:
    return None if x != x else x  # NaN is not representable in strict JSON


def stage_report(ctx: StageContext) -> None:
    items = ctx.artifact("items.jsonl")
    analysis = ctx.artifact(
        "analysis.json", lambda path: json.loads(path.read_text(encoding="utf-8"))
    )
    write_csv_and_plots(items, analysis, ctx.cfg, ctx.out)


def write_manifest(out: Path) -> None:
    files = {}
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            files[str(p.relative_to(out))] = hashlib.sha256(p.read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json_line({"files": files}), encoding="utf-8")


@dataclass
class ExperimentReport:
    items: int
    failed: int
    unevaluable: int
    analysis: dict
    output_dir: Path

    @property
    def ok(self) -> bool:
        return self.failed == 0


def run_experiment(
    cfg: ExperimentConfig, embedder=None, transports: dict | None = None
) -> ExperimentReport:
    """Run every stage end to end and write the manifest.

    A provider failure while planning, answering or scoring one item does
    not abort the run; the affected items carry an error record and the
    report flags the run as partial. A failure of a call made for a whole
    corpus or chunk does abort it, in four stages: embedding a corpus's
    chunks (ingest), generating one chunk's implicit questions
    (build-bank), embedding a corpus's bank to index it (plan), and
    embedding a corpus's source clauses (evaluate).
    The call cache the run opened is closed when it ends.
    """
    ctx = make_context(cfg, embedder=embedder, transports=transports)
    try:
        stage_ingest(ctx)
        stage_build_bank(ctx)
        stage_plan(ctx)
        stage_answer(ctx)
        stage_evaluate(ctx)
        analysis = stage_analyze(ctx)
        stage_report(ctx)
    finally:
        ctx.cache.close()
    write_manifest(ctx.out)
    counts = analysis["counts"]
    return ExperimentReport(
        items=counts["items"],
        failed=counts["failed"],
        unevaluable=counts["unevaluable"],
        analysis=analysis,
        output_dir=ctx.out,
    )
