from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import shutil
import sqlite3
import subprocess
import sys
from collections import Counter
from contextlib import closing
from pathlib import Path

import pytest
import requests
from cache_entries import json_entry, stored_vector
from scoring_reference import ReferenceSource, reference_score

import coi_rag
from coi_rag.adherence import AdherenceReport, build_source_index, evaluate_text
from coi_rag.bench.cli import STAGES
from coi_rag.bench.cli import main as cli_main
from coi_rag.bench.config import (
    SECTIONS, CorpusSpec, ExperimentConfig, ModelSpec, load_config,
)
from coi_rag.bench.runner import (
    analyze_items, load_questions, make_context, run_experiment, stage_answer,
    stage_build_bank, stage_evaluate, stage_ingest, stage_plan,
)
from coi_rag.corpus import chunks_from_jsonl, read_document
from coi_rag.planner import plan
from coi_rag.prompting import assemble_genai, strip_citations
from coi_rag.providers import (
    CACHE_FILE, DEFAULT_ENDPOINT, SCRIPTED_BEHAVIORS, CallCache, GenerationRequest, HashedEmbedder,
    ProviderError, RemoteEmbedder, ScriptedGenerator, request_hash,
)
from coi_rag.question_bank import QuestionBank
from coi_rag.records import json_line, read_jsonl
from coi_rag.vector_index import build_index


def write_questions(path: Path, rows) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


GOOD_ROW = {
    "id": "a1", "tag": "vex", "title": "How does it work?", "body": "b",
    "accepted_answer": "ans", "views": 10,
}


class TestLoadQuestions:
    def test_orders_by_tag_then_views_desc(self, tmp_path):
        rows = [
            dict(GOOD_ROW, id="x", tag="orm", views=5),
            dict(GOOD_ROW, id="y", tag="vex", views=2),
            dict(GOOD_ROW, id="z", tag="vex", views=9),
        ]
        got = load_questions(write_questions(tmp_path / "q.jsonl", rows))
        assert [q.id for q in got] == ["x", "z", "y"]

    def test_empty_file(self, tmp_path):
        assert load_questions(write_questions(tmp_path / "q.jsonl", [])) == []

    def test_missing_field_names_it(self, tmp_path):
        row = {k: v for k, v in GOOD_ROW.items() if k != "accepted_answer"}
        path = write_questions(tmp_path / "q.jsonl", [row])
        with pytest.raises(ValueError, match="accepted_answer"):
            load_questions(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "q.jsonl"
        bad_lines = [
            "{nope",
            "3",
            "null",
            '["a1"]',
            json.dumps(dict(GOOD_ROW, id="a2", views="many")),
            json.dumps(dict(GOOD_ROW, id="a2", title="  ")),
            json.dumps(dict(GOOD_ROW, id="a2", title=7)),
            json.dumps(dict(GOOD_ROW, id="a2", views=None)),
            json.dumps(dict(GOOD_ROW, id="a2", views=3.7)),
            json.dumps(dict(GOOD_ROW, id="a2", views=-0.5)),
            json.dumps(dict(GOOD_ROW, id="a2", views=True)),
            json.dumps(dict(GOOD_ROW, id="a2", views=False)),
            json.dumps(dict(GOOD_ROW, id="a2", views="3.7")),
            json.dumps(dict(GOOD_ROW, id="a2", views=float("nan"))),
            json.dumps(dict(GOOD_ROW, id="a2", views=float("inf"))),
        ]
        for line in bad_lines:
            path.write_text(json.dumps(GOOD_ROW) + "\n" + line + "\n", encoding="utf-8")
            with pytest.raises(ValueError, match=re.escape(f"{path}:2: ")):
                load_questions(path)

    def test_integral_views_kept(self, tmp_path):
        rows = [dict(GOOD_ROW, id="a", views=12), dict(GOOD_ROW, id="b", views=12.0),
                dict(GOOD_ROW, id="c", views="12"), dict(GOOD_ROW, id="d", views=13)]
        records = load_questions(write_questions(tmp_path / "q.jsonl", rows))
        assert [(q.id, q.views) for q in records] == [("d", 13), ("a", 12), ("b", 12), ("c", 12)]
        assert all(type(q.views) is int for q in records)

    @pytest.mark.parametrize("field", ["tag", "title", "body", "accepted_answer"])
    def test_non_string_text_field_reports_line_number(self, tmp_path, field):
        path = write_questions(tmp_path / "q.jsonl", [GOOD_ROW, dict(GOOD_ROW, id="a2", **{field: ["vex"]})])
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: ") + f".*{field} must be a string"):
            load_questions(path, allowed_tags={"vex"})

    def test_mixed_int_and_string_tags_report_line_number(self, tmp_path):
        # Used to pass every line and then fail the final sort with a bare TypeError.
        path = write_questions(tmp_path / "q.jsonl", [GOOD_ROW, dict(GOOD_ROW, id="a2", tag=3)])
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: ")):
            load_questions(path)

    def test_duplicate_id_rejected(self, tmp_path):
        # 1 and "1" are one id: records keep ids as strings.
        for rows in ([GOOD_ROW, GOOD_ROW], [dict(GOOD_ROW, id=1), dict(GOOD_ROW, id="1")]):
            path = write_questions(tmp_path / "q.jsonl", rows)
            with pytest.raises(ValueError, match="duplicate"):
                load_questions(path)

    def test_unknown_tag_rejected_when_tags_given(self, tmp_path):
        path = write_questions(tmp_path / "q.jsonl", [GOOD_ROW])
        with pytest.raises(ValueError, match="corpus"):
            load_questions(path, allowed_tags={"orm"})

    def test_golden_dataset_counts(self, golden_dir):
        got = load_questions(golden_dir / "questions.jsonl")
        assert len(got) == 6
        assert sum(1 for q in got if q.tag == "vex") == 3
        assert sum(1 for q in got if q.tag == "orm") == 3


def edited_golden_config(golden_dir: Path, tmp_path: Path, old: str, new: str) -> Path:
    """The golden config with one line replaced, its fixtures copied next to it."""
    text = (golden_dir / "config.ini").read_text()
    assert old in text
    p = tmp_path / "bad.ini"
    p.write_text(text.replace(old, new))
    # paths are relative to the config file, so copy fixtures next to it
    for name in ("questions.jsonl", "vex_book.txt", "orm_book.txt"):
        (tmp_path / name).write_bytes((golden_dir / name).read_bytes())
    return p


class TestConfig:
    def test_golden_config_parses(self, golden_dir):
        cfg = load_config(golden_dir / "config.ini")
        assert cfg.tags == {"vex", "orm"}
        assert cfg.modes == ["genai", "rag", "rag_coi"]
        assert [m.name for m in cfg.answer_models] == ["mock-a", "mock-b"]
        assert cfg.bank_model == "bankgen"
        assert cfg.pool_size == 25 and cfg.keep_questions == 5
        assert cfg.threshold == 0.7

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.ini")

    def test_unknown_mode_rejected(self, tmp_path, golden_dir):
        p = edited_golden_config(
            golden_dir, tmp_path, "modes = genai, rag, rag_coi", "modes = psychic"
        )
        with pytest.raises(ValueError, match="psychic"):
            load_config(p)

    def test_repeated_mode_rejected(self, tmp_path, golden_dir):
        p = edited_golden_config(
            golden_dir, tmp_path, "modes = genai, rag, rag_coi", "modes = genai, rag, rag, rag_coi"
        )
        with pytest.raises(ValueError, match="^repeated mode: rag$"):
            load_config(p)

    @pytest.mark.parametrize(
        "line, bad, error",
        [
            ("matching = whole_clause", "matching = fuzzy", "fuzzy"),
            ("threshold = 0.7", "threshold = 1.5", "threshold"),
            ("threshold = 0.7", "threshold = -0.1", "threshold"),
        ],
    )
    def test_bad_adherence_section_rejected(self, tmp_path, golden_dir, line, bad, error):
        # Rejected on load, before any stage runs or any provider is called.
        p = edited_golden_config(golden_dir, tmp_path, line, bad)
        with pytest.raises(ValueError, match=error):
            load_config(p)

    @pytest.mark.parametrize(
        "line, bad, error",
        [
            ("selected = 5", "selected = 30", "selected <= pool_size"),
            ("selected = 5", "selected = 0", "1 <= selected"),
            ("pool_size = 25", "pool_size = 0", "pool_size"),
            ("per_question_chunks = 10", "per_question_chunks = 0", "per_question_chunks"),
            ("fdr_q = 0.05", "fdr_q = 1.0", "fdr_q"),
            ("fdr_q = 0.05", "fdr_q = 0", "fdr_q"),
            ("bootstrap_samples = 2000", "bootstrap_samples = 0", "bootstrap_samples"),
            ("generator = bankgen", "generator = bankgne", "bankgne"),
            ("behavior = context_echo_short", "behavior = context_echo_shrot", "context_echo_shrot"),
            ("kind = scripted\nbehavior = qa_stub", "kind = scriptd\nbehavior = qa_stub", "scriptd"),
            ("kind = hashed", "kind = hashd", "hashd"),
            ("dims = 256", "dims = 0", "dims must be >= 1"),
            ("seed = 7", "seed = -1", "[experiment] seed"),
        ],
    )
    def test_value_failing_after_provider_calls_rejected_on_load(
        self, tmp_path, golden_dir, line, bad, error
    ):
        p = edited_golden_config(golden_dir, tmp_path, line, bad)
        with pytest.raises(ValueError, match=re.escape(error)):
            load_config(p)

    @pytest.mark.parametrize(
        "line, bad, section, key",
        [
            ("[stats]", "[statz]", "[statz]", "bootstrap_samples"),
            ("pool_size = 25", "pool_sise = 50", "[planner]", "pool_sise"),
            ("answer = false", "answer = maybe", "[model.bankgen]", "answer"),
            ("output_dir = out", "output_dir = out\nallow_partial = true", "[experiment]",
             "allow_partial"),
            ("[experiment]", "[DEFAULT]\nseed = 3\n\n[experiment]", "[DEFAULT]", "seed"),
            ("dims = 256", "dims = 256\nmodel_id = bench%2Fembed", "[embedder]", "model_id"),
        ],
    )
    def test_unknown_or_unreadable_key_rejected(
        self, tmp_path, golden_dir, line, bad, section, key
    ):
        p = edited_golden_config(golden_dir, tmp_path, line, bad)
        with pytest.raises(ValueError) as exc:
            load_config(p)
        message = str(exc.value)
        assert str(p) in message and section in message and key in message

    def test_doubled_percent_is_a_literal_percent(self, tmp_path, golden_dir):
        p = edited_golden_config(golden_dir, tmp_path, "dims = 256", "model_id = bench%%2Fembed")
        assert load_config(p).embedder_model_id == "bench%2Fembed"

    def test_booleans_take_configparser_spellings(self, tmp_path, golden_dir):
        p = edited_golden_config(golden_dir, tmp_path, "answer = false", "answer = on")
        assert load_config(p).model("bankgen").answer is True

    def test_every_key_lands_in_its_field(self, tmp_path):
        p = tmp_path / "all.ini"
        p.write_text(
            "[experiment]\nseed = 11\nmodes = rag, genai\ncache_dir = c\noutput_dir = o\n"
            "[questions]\npath = q.jsonl\n"
            "[corpus.vex]\npath = v.txt\ntitle = Vex\n"
            "[chunking]\nsize = 120\noverlap = 60\nmin_tokens = 80\n"
            "[embedder]\nkind = remote\ndims = 128\nmodel_id = emb\n"
            "endpoint = http://localhost:1/v1\napi_key_env = EMB_KEY\n"
            "[bank]\ngenerator = helper\n"
            "[planner]\npool_size = 30\nper_question_chunks = 7\nselected = 4\n"
            "[adherence]\nthreshold = 0.6\nmatching = component_weighted\n"
            "[stats]\nfdr_q = 0.1\nbootstrap_samples = 500\n"
            "[model.helper]\nkind = scripted\nmodel_id = helper-id\n"
            "endpoint = http://localhost:2/v1\napi_key_env = GEN_KEY\nbehavior = qa_stub\n"
            "script = s.json\nanswer = off\nretries = 5\nbackoff = 2.0\n"
        )
        model = ModelSpec(
            name="helper", kind="scripted", model_id="helper-id",
            endpoint="http://localhost:2/v1", api_key_env="GEN_KEY", behavior="qa_stub",
            script_path=tmp_path / "s.json", answer=False, retries=5, backoff=2.0,
        )
        expected = ExperimentConfig(
            corpora=[CorpusSpec(tag="vex", path=tmp_path / "v.txt", title="Vex")],
            questions_path=tmp_path / "q.jsonl",
            models=[model],
            modes=["rag", "genai"],
            embedder_kind="remote", embedder_dims=128, embedder_model_id="emb",
            embedder_endpoint="http://localhost:1/v1", embedder_api_key_env="EMB_KEY",
            bank_model="helper",
            pool_size=30, per_question_chunks=7, keep_questions=4,
            chunk_size=120, chunk_overlap=60, chunk_min_tokens=80,
            threshold=0.6, matching="component_weighted",
            fdr_q=0.1, bootstrap_samples=500,
            seed=11, cache_dir=tmp_path / "c", output_dir=tmp_path / "o",
        )
        assert load_config(p) == expected
        assert expected.build_embedder().dims == 128
        # Every field is set away from its default, so no table row goes untested.
        for spec in (expected, model):
            for f in dataclasses.fields(spec):
                default = f.default_factory() if callable(f.default_factory) else f.default
                if f.init and default is not dataclasses.MISSING:
                    assert getattr(spec, f.name) != default, f.name

    def test_readme_example_loads_and_names_every_key(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        p = tmp_path / "readme.ini"
        p.write_text(block)
        cfg = load_config(p)
        assert [m.name for m in cfg.models] == ["bankgen", "gpt-4o"]
        # Each accepted key is set, or shown as a commented-out example, in its section.
        documented: dict[str, set[str]] = {}
        for line in block.splitlines():
            header = re.match(r"\[([^.\]]+)(\.?)", line)
            if header:
                keys = documented.setdefault(header[1] + (".*" if header[2] else ""), set())
            elif key := re.match(r"[;#]?\s*(\w+)\s*=", line):
                keys.add(key[1])
        for section, table in SECTIONS.items():
            assert set(table) <= documented.get(section, set()), section


class TestReadme:
    def test_library_snippet_runs(self, golden_dir, tmp_path):
        """The README's python block runs against the golden book and prints three scores."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        snippet = readme.split("```python\n", 1)[1].split("```", 1)[0]
        (tmp_path / "book.txt").write_bytes((golden_dir / "vex_book.txt").read_bytes())
        src = str(Path(coi_rag.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", snippet], cwd=tmp_path, capture_output=True, text=True,
            timeout=300, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        factscore, mean_similarity, adherent_count = proc.stdout.split()
        assert 0.0 <= float(factscore) <= 1.0
        assert 0.0 <= float(mean_similarity) <= 1.0
        assert int(adherent_count) > 0


@pytest.fixture
def golden_cfg(golden_dir, tmp_path):
    cfg = load_config(golden_dir / "config.ini")
    cfg.output_dir = tmp_path / "out"
    cfg.cache_dir = tmp_path / "cache"
    return cfg


class TestRunner:
    def test_accounting(self, golden_cfg):
        report = run_experiment(golden_cfg)
        assert report.items == 6 * 3 * 2  # questions x modes x models
        assert report.failed == 0
        items = [
            json.loads(l)
            for l in (golden_cfg.output_dir / "items.jsonl").read_text().splitlines()
        ]
        assert len(items) == report.items

    def test_outputs_exist(self, golden_cfg):
        run_experiment(golden_cfg)
        out = golden_cfg.output_dir
        for name in (
            "chunks.vex.jsonl", "chunk_index.vex.jsonl", "bank.vex.jsonl",
            "plans.jsonl", "explanations.jsonl", "items.jsonl", "items.csv",
            "analysis.json", "report.csv", "manifest.json",
            "boxplot_factscore.svg",
        ):
            assert (out / name).exists(), name
        header = (out / "items.csv").read_text().splitlines()[0]
        assert header == ("question_id,tag,model,mode,factscore,mean_similarity,"
                          "adherent_count,clause_count,word_count")

    def test_manifest_covers_outputs(self, golden_cfg):
        run_experiment(golden_cfg)
        manifest = json.loads((golden_cfg.output_dir / "manifest.json").read_text())
        assert "items.jsonl" in manifest["files"]
        assert all(len(h) == 64 for h in manifest["files"].values())

    def test_genai_only_embeds_nothing_but_source_clauses(
        self, golden_cfg, spy_embedder
    ):
        golden_cfg.modes = ["genai"]
        run_experiment(golden_cfg, embedder=spy_embedder)
        # Only the adherence source index and AI clause renderings embed;
        # no chunk, bank, query, or candidate embeddings happen.
        out = golden_cfg.output_dir
        assert not (out / "chunk_index.vex.jsonl").exists()
        assert (out / "plans.jsonl").read_text() == ""
        assert all("?" not in t for t in spy_embedder.texts)

    def test_rag_coi_with_empty_bank_and_no_templates_matches_rag(
        self, golden_cfg, tmp_path
    ):
        # No bank and question titles that yield no clause labels (hence no
        # template questions): the planner degrades and every rag_coi item
        # must be identical to its rag counterpart.
        rows = [
            dict(GOOD_ROW, id="v1", tag="vex", title="Vex list growth?", body=""),
            dict(GOOD_ROW, id="o1", tag="orm", title="Orm stream layout?", body=""),
        ]
        golden_cfg.questions_path = write_questions(tmp_path / "bare.jsonl", rows)
        golden_cfg.bank_model = ""
        report = run_experiment(golden_cfg)
        assert report.failed == 0
        items = [
            json.loads(l)
            for l in (golden_cfg.output_dir / "items.jsonl").read_text().splitlines()
        ]
        by_key = {(i["model"], i["mode"], i["question_id"]): i for i in items}
        compared = 0
        for (model, mode, qid), item in by_key.items():
            if mode != "rag_coi":
                continue
            rag = by_key[(model, "rag", qid)]
            for field in ("prompt_sha256", "text", "retrieved_chunk_ids",
                          "factscore", "mean_similarity", "adherent_count",
                          "clause_count", "word_count"):
                assert item[field] == rag[field], field
            compared += 1
        assert compared == 4  # 2 questions x 2 models

    def test_empty_corpus_named_before_any_generator_call(self, golden_dir, tmp_path, monkeypatch):
        for name in ("config.ini", "questions.jsonl", "vex_book.txt"):
            (tmp_path / name).write_bytes((golden_dir / name).read_bytes())
        (tmp_path / "orm_book.txt").write_text("", encoding="utf-8")
        prompts = []
        complete = ScriptedGenerator.complete
        monkeypatch.setattr(
            ScriptedGenerator, "complete",
            lambda self, prompt: prompts.append(prompt) or complete(self, prompt),
        )
        cfg = load_config(tmp_path / "config.ini")
        cfg.modes = ["genai"]
        with pytest.raises(ValueError, match=re.escape(f"'orm' ({tmp_path / 'orm_book.txt'})")):
            run_experiment(cfg)
        assert prompts == []

    def test_each_generator_built_once(self, golden_cfg, monkeypatch):
        built = []
        build = ModelSpec.build

        def counting_build(spec, *args, **kwargs):
            built.append(spec.name)
            return build(spec, *args, **kwargs)

        monkeypatch.setattr(ModelSpec, "build", counting_build)
        run_experiment(golden_cfg)
        assert sorted(built) == ["bankgen", "mock-a", "mock-b"]

    def test_failed_items_recorded_and_run_continues(self, golden_cfg):
        calls = {"n": 0}

        def flaky(url, body, headers):
            calls["n"] += 1
            raise ConnectionError("nope")

        golden_cfg.models = list(golden_cfg.models) + [
            ModelSpec(name="dead-remote", kind="remote", model_id="x", backoff=0.0)
        ]
        golden_cfg.__post_init__()  # refresh the name registry
        report = run_experiment(
            golden_cfg, transports={"dead-remote": flaky}
        )
        assert report.failed == 6 * 3  # every item of the dead model
        assert report.items == 6 * 3 * 3
        assert not report.ok


    @pytest.mark.parametrize(
        "content", [5, {"a": 1}, [{"type": "text", "text": "Hi."}]], ids=["int", "dict", "parts"]
    )
    def test_non_string_reply_fails_its_item_and_is_not_cached(self, golden_cfg, content):
        prompts = []

        def transport(url, body, headers):
            prompts.append(body["messages"][0]["content"])
            text = content if len(prompts) == 1 else "A plain reply."
            return {"choices": [{"message": {"content": text}}]}

        golden_cfg.models = list(golden_cfg.models) + [
            ModelSpec(name="odd-remote", kind="remote", model_id="odd", backoff=0.0)
        ]
        golden_cfg.__post_init__()  # refresh the name registry
        report = run_experiment(golden_cfg, transports={"odd-remote": transport})
        assert (report.items, report.failed) == (6 * 3 * 3, 1)
        items = read_jsonl(golden_cfg.output_dir / "items.jsonl")
        [failed] = [item for item in items if "error" in item]
        assert failed["model"] == "odd-remote"
        assert failed["error"] == f"completion text is not a string: {type(content).__name__}"
        with closing(CallCache(golden_cfg.cache_dir)) as cache:
            assert cache.get(GenerationRequest("odd", prompts[0]).cache_key()) is None
            assert cache.get(GenerationRequest("odd", prompts[1]).cache_key())["text"] == "A plain reply."

    def test_non_string_script_value_fails_its_item(self, golden_cfg, tmp_path):
        q = load_questions(golden_cfg.questions_path)[0]
        key = GenerationRequest("mock-a", assemble_genai(q).text).cache_key()
        script = tmp_path / "script.json"
        script.write_text(json.dumps({key: ["Hi."]}))
        golden_cfg.models = [
            dataclasses.replace(m, script_path=script) if m.name == "mock-a" else m
            for m in golden_cfg.models
        ]
        golden_cfg.__post_init__()  # refresh the name registry
        report = run_experiment(golden_cfg)
        assert (report.items, report.failed) == (6 * 3 * 2, 1)
        [failed] = [i for i in read_jsonl(golden_cfg.output_dir / "items.jsonl") if "error" in i]
        assert (failed["question_id"], failed["model"], failed["mode"]) == (q.id, "mock-a", "genai")
        assert failed["error"] == "completion text is not a string: list"

    def test_embed_failure_while_scoring_fails_one_item(self, golden_cfg, tmp_path):
        run_experiment(golden_cfg)
        healthy = (golden_cfg.output_dir / "items.jsonl").read_text().splitlines()
        golden_cfg.output_dir = tmp_path / "faulty"
        # Only explanations hold the scripted preamble: the first corpus's stage
        # batch fails, and then the first of its explanations scored.
        embedder = FailingEmbedder(golden_cfg.build_embedder(), "Here follows an explanation")
        report = run_experiment(golden_cfg, embedder=embedder)
        assert report.failed == 1
        faulty = (golden_cfg.output_dir / "items.jsonl").read_text().splitlines()
        assert len(faulty) == len(healthy)
        changed = [i for i, (a, b) in enumerate(zip(healthy, faulty)) if a != b]
        assert len(changed) == 1
        item = json.loads(faulty[changed[0]])
        assert item["error"] == "embed: embedding service unavailable"
        assert "factscore" not in item

    def test_query_embed_failure_fails_that_questions_retrieval_items(self, golden_cfg, tmp_path):
        golden_cfg.modes = ["genai", "rag"]
        run_experiment(golden_cfg)
        healthy = (golden_cfg.output_dir / "items.jsonl").read_text().splitlines()
        golden_cfg.output_dir = tmp_path / "faulty"
        # Only the question's query text holds its title: the answer stage's
        # batch fails, and then that question's own retrieval.
        failing = load_questions(golden_cfg.questions_path)[1]
        embedder = FailingEmbedder(golden_cfg.build_embedder(), failing.title)
        report = run_experiment(golden_cfg, embedder=embedder)
        assert report.failed == 2  # its rag item for each of the two models
        faulty = (golden_cfg.output_dir / "items.jsonl").read_text().splitlines()
        assert len(faulty) == len(healthy)
        for before, after in zip(healthy, faulty):
            item = json.loads(after)
            if item["question_id"] == failing.id and item["mode"] == "rag":
                assert item["error"] == "embed: embedding service unavailable"
                assert "text" not in item
            else:
                assert after == before

    def test_plan_embed_failure_fails_that_questions_rag_coi_items(self, golden_cfg, tmp_path):
        run_experiment(golden_cfg)
        healthy = (golden_cfg.output_dir / "items.jsonl").read_text().splitlines()
        golden_cfg.output_dir = tmp_path / "faulty"
        # The plan stage embeds the query first: its batch fails, and then that
        # question's own plan; the answer stage's embedding succeeds.
        failing = load_questions(golden_cfg.questions_path)[1]
        embedder = FailingEmbedder(golden_cfg.build_embedder(), failing.title)
        report = run_experiment(golden_cfg, embedder=embedder)
        assert report.failed == 2  # its rag_coi item for each of the two models
        faulty = (golden_cfg.output_dir / "items.jsonl").read_text().splitlines()
        assert len(faulty) == len(healthy)
        for before, after in zip(healthy, faulty):
            item = json.loads(after)
            if item["question_id"] == failing.id and item["mode"] == "rag_coi":
                assert item["error"] == "plan: embedding service unavailable"
                assert "text" not in item
            else:
                assert after == before

    def test_bank_stage_embeds_nothing_and_each_query_is_embedded_twice(
        self, golden_cfg, spy_embedder
    ):
        ctx = make_context(golden_cfg, embedder=spy_embedder)
        questions = load_questions(golden_cfg.questions_path)
        embedded = []
        try:  # analyze and report embed nothing
            for stage in (stage_ingest, stage_build_bank, stage_plan, stage_answer, stage_evaluate):
                start = len(spy_embedder.texts)
                stage(ctx)
                embedded.append(Counter(spy_embedder.texts[start:]))
        finally:
            ctx.cache.close()
        _ingest, bank, plan, answer, _evaluate = embedded
        assert bank == Counter()
        assert (golden_cfg.output_dir / "bank.vex.jsonl").stat().st_size > 0
        total = sum(embedded, Counter())
        for q in questions:
            text = q.query_text()
            assert (plan[text], answer[text], total[text]) == (1, 1, 2), q.id

    @pytest.mark.parametrize("marker", [None, "Here follows an explanation"], ids=["golden", "one-item-fails"])
    def test_kept_values_equal_what_their_files_read_back(self, golden_cfg, marker, monkeypatch):
        from coi_rag.bench import runner

        embedder = golden_cfg.build_embedder()
        if marker is not None:  # a stage batch and the first explanation scored fail
            embedder = FailingEmbedder(embedder, marker)
        reads = Counter()
        for name in ("read_document", "load_questions"):
            def counting(path, *args, _read=getattr(runner, name), **kwargs):
                reads[str(path)] += 1
                return _read(path, *args, **kwargs)
            monkeypatch.setattr(runner, name, counting)
        ctx = make_context(golden_cfg, embedder=embedder)
        try:
            for stage in STAGES.values():
                stage(ctx)
        finally:
            ctx.cache.close()
        out, tags = golden_cfg.output_dir, sorted(golden_cfg.tags)
        inputs = [str(golden_cfg.questions_path)] + [str(golden_cfg.corpus(tag).path) for tag in tags]
        assert reads == Counter(inputs)  # each input file read once by all seven stages
        rows = ["plans.jsonl", "explanations.jsonl", "items.jsonl"]
        assert sorted(ctx.kept) == sorted(
            inputs + rows + ["analysis.json"]
            + [f"{kind}.{tag}.jsonl" for kind in ("bank", "chunk_index", "chunks") for tag in tags]
        )
        for name in rows:
            assert ctx.kept[name] == read_jsonl(out / name), name
        assert ctx.kept["analysis.json"] == json.loads((out / "analysis.json").read_text(encoding="utf-8"))
        assert any("error" in i for i in ctx.kept["items.jsonl"]) == (marker is not None)
        assert ctx.kept[inputs[0]] == load_questions(golden_cfg.questions_path, allowed_tags=golden_cfg.tags)
        from_files = dataclasses.replace(ctx, kept={})
        for tag in tags:
            spec = golden_cfg.corpus(tag)
            assert ctx.kept[str(spec.path)] == read_document(spec.path, doc_id=tag, title=spec.title)
            chunks = chunks_from_jsonl(out / f"chunks.{tag}.jsonl")
            assert ctx.kept[f"chunks.{tag}.jsonl"] == chunks
            assert [dataclasses.asdict(q) for q in ctx.kept[f"bank.{tag}.jsonl"]] == read_jsonl(
                out / f"bank.{tag}.jsonl"
            )
            kept, loaded = ctx.kept[f"chunk_index.{tag}.jsonl"], from_files.chunk_index(tag)
            assert kept.keys == loaded.keys
            assert kept.vectors.tobytes() == loaded.vectors.tobytes()
            assert kept.payloads == loaded.payloads == chunks

    def test_each_prompt_assembled_once_for_every_model(self, golden_cfg, monkeypatch):
        from coi_rag.bench import runner

        assembled = Counter()
        failing = load_questions(golden_cfg.questions_path)[1]
        for name in ("assemble_genai", "assemble_rag", "assemble_rag_coi"):
            def counting(q, *args, _name=name, _assemble=getattr(runner, name)):
                assembled[_name, q.id] += 1
                if _name == "assemble_rag" and q.id == failing.id:
                    raise ValueError("no chunks for this prompt")
                return _assemble(q, *args)

            monkeypatch.setattr(runner, name, counting)
        report = run_experiment(golden_cfg)
        questions = load_questions(golden_cfg.questions_path)
        assert assembled == Counter(
            {(name, q.id): 1 for name in ("assemble_genai", "assemble_rag", "assemble_rag_coi")
             for q in questions}
        )
        assert report.failed == 2  # that question's rag item for each of the two models
        rows = read_jsonl(golden_cfg.output_dir / "explanations.jsonl")
        failed = [(r["model"], r["mode"], r["question_id"], r["error"]) for r in rows if "error" in r]
        assert failed == [(m, "rag", failing.id, "no chunks for this prompt") for m in ("mock-a", "mock-b")]

    def test_embed_failure_while_indexing_names_the_corpus(self, golden_cfg):
        golden_cfg.modes = ["genai"]  # the source index is then the first embedding
        embedder = FailingEmbedder(golden_cfg.build_embedder(), "", times=1)  # "" is in every text
        with pytest.raises(ProviderError, match=f"corpus {golden_cfg.corpora[0].tag!r}: embedding"):
            run_experiment(golden_cfg, embedder=embedder)

    @pytest.mark.parametrize("stage, modes", [
        ("plan", ["genai", "rag", "rag_coi"]),
        ("answer", ["genai", "rag"]),
        ("evaluate", ["genai", "rag", "rag_coi"]),
    ])
    def test_failed_stage_batch_alone_fails_no_item(self, golden_cfg, tmp_path, stage, modes):
        """The stage-wide batch fails once; every item then embeds its own texts and succeeds."""
        golden_cfg.modes = modes
        run_experiment(golden_cfg)
        healthy = (golden_cfg.output_dir / "items.jsonl").read_bytes()
        golden_cfg.output_dir = tmp_path / "faulty"
        # A question's title is first embedded in the plan stage's batch when
        # rag_coi runs, else in the answer stage's; the preamble, in the first
        # corpus's evaluate batch.
        marker = load_questions(golden_cfg.questions_path)[1].title
        if stage == "evaluate":
            marker = "Here follows an explanation"
        embedder = FailingEmbedder(golden_cfg.build_embedder(), marker, times=1)
        assert run_experiment(golden_cfg, embedder=embedder).failed == 0
        assert embedder.times == 0
        assert (golden_cfg.output_dir / "items.jsonl").read_bytes() == healthy

    def test_persistent_fault_retries_the_stage_batch_and_the_items_own_call_once(
        self, golden_cfg, tmp_path
    ):
        """A service that fails every batch holding one explanation's sentence fails that item only.

        With 3 tries per call, the failed corpus batch costs 3 requests and
        the item's own call 3 more; each other explanation of that corpus
        sends one request of its own in place of the batch.
        """
        golden_cfg.modes = ["genai"]  # each explanation ends in a sentence naming its question
        golden_cfg.models = [m for m in golden_cfg.models if m.name != "mock-b"]  # one item each
        golden_cfg.__post_init__()  # refresh the name registry
        questions = load_questions(golden_cfg.questions_path)
        failing = questions[1]
        healthy_calls, healthy = run_behind_failing_service(golden_cfg, tmp_path / "healthy", None)
        calls, faulty = run_behind_failing_service(golden_cfg, tmp_path / "faulty", failing.title)
        assert not any(healthy_calls)
        assert calls.count(True) == 3 + 3
        others = sum(q.tag == failing.tag for q in questions) - 1
        assert calls.count(False) == len(healthy_calls) - 1 + others
        assert len(faulty) == len(healthy)
        for before, after in zip(healthy, faulty):
            item = json.loads(after)
            if item["question_id"] == failing.id:
                assert item["error"].startswith("embed: request to ")
                assert item["error"].endswith("/embeddings failed: 500 from server")
                assert "factscore" not in item
            else:
                assert after == before

    def test_failed_scoring_call_is_not_sent_again_for_the_same_sentences(self, golden_cfg, tmp_path):
        """Two explanations with the same unseen sentences share one failed call and its error.

        In ``genai`` mode mock-a and mock-b explain a question with the same
        text. The corpus batch fails 3 times and mock-a's own call 3 more;
        mock-b's item then fails with mock-a's error and sends nothing.
        """
        golden_cfg.modes = ["genai"]
        questions = load_questions(golden_cfg.questions_path)
        failing = questions[1]
        healthy_calls, healthy = run_behind_failing_service(golden_cfg, tmp_path / "healthy", None)
        calls, faulty = run_behind_failing_service(golden_cfg, tmp_path / "faulty", failing.title)
        assert not any(healthy_calls)
        assert calls.count(True) == 3 + 3
        assert len(faulty) == len(healthy)
        errors = []
        for before, after in zip(healthy, faulty):
            item = json.loads(after)
            if item["question_id"] == failing.id:
                assert "factscore" not in item
                errors.append(item["error"])
            else:
                assert after == before
        assert len(errors) == 2 and errors[0] == errors[1]
        assert errors[0].startswith("embed: request to ")
        assert errors[0].endswith("/embeddings failed: 500 from server")


def run_behind_failing_service(cfg, out: Path, title: str | None) -> tuple[list[bool], list[str]]:
    """Run ``cfg`` into ``out`` behind a remote embedder with 3 tries per call.

    The service answers HTTP 500 to every batch holding the sentence that
    names the question ``title``, the last of a ``genai`` explanation, and
    hashed count vectors to the rest; with no ``title`` it fails nothing.
    Returns, per request, whether it failed, and the ``items.jsonl`` lines.
    """
    marker = None if title is None else f"given for {title.rstrip('?')}"
    healthy_transport = hashed_transport(cfg.embedder_dims)
    calls = []

    def transport(url, body, headers):
        calls.append(marker is not None and any(marker in t for t in body["input"]))
        if calls[-1]:
            response = requests.Response()
            response.status_code = 500
            raise requests.HTTPError("500 from server", response=response)
        return healthy_transport(url, body, headers)

    cfg.output_dir = out
    embedder = RemoteEmbedder("emb", transport=transport, dims=cfg.embedder_dims, retries=3, backoff=0.0)
    run_experiment(cfg, embedder=embedder)
    return calls, (out / "items.jsonl").read_text().splitlines()


class FailingEmbedder:
    """Wraps an embedder; the first ``times`` batches with a text containing ``marker`` fail.

    Two failures reach an item: the first fails the stage-wide batch that
    holds every item's texts, the second the item's own call that follows.
    """

    def __init__(self, inner, marker: str, times: int = 2):
        self.inner = inner
        self.marker = marker
        self.times = times

    def embed(self, texts):
        if self.times and any(self.marker in t for t in texts):
            self.times -= 1
            raise ProviderError("embedding service unavailable")
        return self.inner.embed(texts)


def scored_item(model, mode, qid, factscore):
    return {"model": model, "mode": mode, "question_id": qid, "factscore": factscore,
            "mean_similarity": factscore / 2, "adherent_count": round(10 * factscore)}


class TestAnalyze:
    def test_all_zero_differences_reported_degenerate(self, golden_cfg):
        scores = [0.2, 0.5, 0.4, 0.9]
        items = []
        for q, f in enumerate(scores):
            items += [scored_item("same", "rag", f"q{q}", f), scored_item("same", "rag_coi", f"q{q}", f),
                      scored_item("up", "rag", f"q{q}", f), scored_item("up", "rag_coi", f"q{q}", f + 0.1 * q)]
        comparisons = analyze_items(items, golden_cfg)["comparisons"]
        assert [(c["model"], c["test"]) for c in comparisons][:3] == [("same", "degenerate")] * 3
        assert all(c["test"] != "degenerate" for c in comparisons if c["model"] == "up")
        for entry, metric in zip(comparisons, ("factscore", "mean_similarity", "adherent_count")):
            assert list(entry) == [
                "model", "metric", "n", "comparison", "test", "statistic", "p_one_sided",
                "p_two_sided", "dz", "ci95", "exact", "bh_rejected", "p_bh_adjusted",
            ]
            assert entry["metric"] == metric
            assert entry["n"] == 4
            assert entry["comparison"] == "rag_coi_minus_rag"
            assert entry["statistic"] == 0.0
            assert entry["p_one_sided"] == entry["p_two_sided"] == 1.0
            assert entry["dz"] == 0.0
            assert entry["ci95"] == [0.0, 0.0]
            assert entry["exact"] is True
            assert entry["bh_rejected"] is False
            assert entry["p_bh_adjusted"] == 1.0


class TestReport:
    def test_csv_row_shape(self, golden_cfg):
        run_experiment(golden_cfg)
        lines = (golden_cfg.output_dir / "report.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "model", "mode", "metric", "median", "mean", "ci_lo", "ci_hi",
            "p_one_sided", "p_bh_adjusted", "dz", "n",
        ]
        # 2 models x 3 modes x 4 metrics
        assert len(lines) - 1 == 2 * 3 * 4
        coi_rows = [l for l in lines[1:] if ",rag_coi,factscore," in l]
        assert all(row.split(",")[7] != "" for row in coi_rows)  # p filled

    def test_single_question_leaves_ci_empty(self, golden_cfg, golden_dir, tmp_path):
        one = (golden_dir / "questions.jsonl").read_text().splitlines()[0]
        write_questions(tmp_path / "one.jsonl", [json.loads(one)])
        golden_cfg.questions_path = tmp_path / "one.jsonl"
        run_experiment(golden_cfg)
        lines = (golden_cfg.output_dir / "report.csv").read_text().splitlines()
        data = [l.split(",") for l in lines[1:] if l.split(",")[10] == "1"]
        assert data, "expected rows with n=1"
        for row in data:
            assert row[5] == "" and row[6] == ""  # ci_lo, ci_hi unavailable

    def test_box_plots_parse_with_markup_in_model_names(self, golden_dir, tmp_path):
        import xml.etree.ElementTree as ET

        text = (golden_dir / "config.ini").read_text()
        text += "\n[model.a&b]\nkind = scripted\nbehavior = context_echo\n"
        (tmp_path / "config.ini").write_text(text)
        for name in ("questions.jsonl", "vex_book.txt", "orm_book.txt"):
            (tmp_path / name).write_bytes((golden_dir / name).read_bytes())
        run_experiment(load_config(tmp_path / "config.ini"))
        plots = sorted((tmp_path / "out").glob("boxplot_*.svg"))
        assert len(plots) == 4
        for svg in plots:
            labels = [t.text for t in ET.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}text")]
            assert "a&b/genai" in labels

    def test_escape_equals_saxutils(self):
        from xml.sax.saxutils import escape as sax_escape

        from coi_rag.bench.report import escape

        for text in ("a&b/genai", "<&>", "&amp;&lt;", "x > y < z & w", "plain", "\"it's\" \u00e9"):
            assert escape(text) == sax_escape(text)

    def test_thin_pool_warns(self, golden_cfg):
        import warnings as w

        golden_cfg.pool_size = 6
        golden_cfg.keep_questions = 5
        with w.catch_warnings(record=True) as caught:
            w.simplefilter("always")
            run_experiment(golden_cfg)
        assert any("candidate pool" in str(c.message) for c in caught)


# sha256 of the golden run's outputs. A digest may change only in a change
# that says why; scripted replies carry a fixed created_at, so they are
# stable across runs and caches.
GOLDEN_DIGESTS = {
    "items.jsonl": "5ead576fe8b653049565369f7f51c51389c23d31d6d6912a6d65e044cbb35630",
    "analysis.json": "57df536f45d6364cc2abd29e95e834dd6449ffc4ca9681ca4c2ba5e1ec5cd12b",
    "report.csv": "ee0d5f85ffc9dd72834d9dc0094a5c80a608f7217e596f9bbb5a49085bed634f",
}
# The same run with ``[adherence] matching = component_weighted``.
COMPONENT_WEIGHTED_DIGESTS = {
    "items.jsonl": "86b01ea8dd521a979f6228dc56520e9ff752ccb5f60340ef8b2684f34bbdc48e",
    "analysis.json": "04eeb89e12b67ab76bb211d2a4d97f1a0a54df4242145068a18e2c2a96d16fe2",
    "report.csv": "d12c799243073a635735b7d737d54ead639cff6b458ff1d5ea8ea62b12690f9f",
}


class TestGoldenDigest:
    def test_cold_cache_runs_are_byte_identical_and_pinned(self, golden_dir, tmp_path):
        outputs = []
        for run in ("a", "b"):
            cfg = load_config(golden_dir / "config.ini")
            cfg.output_dir = tmp_path / run / "out"
            cfg.cache_dir = tmp_path / run / "cache"
            assert run_experiment(cfg).failed == 0
            assert list(cfg.cache_dir.iterdir()) == []  # hermetic runs cache nothing
            outputs.append({p.name: p.read_bytes() for p in cfg.output_dir.iterdir()})
        first, second = outputs
        assert sorted(first) == sorted(second)
        for name in first:
            assert first[name] == second[name], f"{name} differs between cold runs"
        for name, digest in GOLDEN_DIGESTS.items():
            assert hashlib.sha256(first[name]).hexdigest() == digest, name
        rows = [json.loads(line) for line in first["explanations.jsonl"].splitlines()]
        assert {r["created_at"] for r in rows} == {"1970-01-01T00:00:00Z"}

    def test_component_weighted_run_is_pinned(self, golden_dir, tmp_path):
        text = (golden_dir / "config.ini").read_text()
        assert "matching = whole_clause" in text
        (tmp_path / "config.ini").write_text(
            text.replace("matching = whole_clause", "matching = component_weighted")
        )
        for name in ("questions.jsonl", "vex_book.txt", "orm_book.txt"):
            (tmp_path / name).write_bytes((golden_dir / name).read_bytes())
        cfg = load_config(tmp_path / "config.ini")
        assert cfg.matching == "component_weighted"
        assert run_experiment(cfg).failed == 0
        for name, digest in COMPONENT_WEIGHTED_DIGESTS.items():
            assert hashlib.sha256((cfg.output_dir / name).read_bytes()).hexdigest() == digest, name

    def test_memos_do_not_leak_between_runs(self, golden_dir, tmp_path):
        """Seed 7, then seed 3 on four questions, one retitled with new words (a new
        bootstrap draw and new tokens), then seed 7 again, all in one interpreter."""
        questions = (golden_dir / "questions.jsonl").read_text().splitlines(keepends=True)
        assert len(questions) == 6
        retitled = json.loads(questions[0])
        retitled["title"] = "Why would quixotic zephyrs unmarshal glyphs in vex?"
        fewer = [json.dumps(retitled) + "\n"] + questions[1:2] + questions[3:5]
        trees = []
        for run, (seed, rows) in enumerate([(7, questions), (3, fewer), (7, questions)]):
            run_dir = tmp_path / str(run)
            run_dir.mkdir()
            text = (golden_dir / "config.ini").read_text()
            assert "seed = 7\n" in text
            (run_dir / "config.ini").write_text(text.replace("seed = 7\n", f"seed = {seed}\n"))
            (run_dir / "questions.jsonl").write_text("".join(rows))
            for name in ("vex_book.txt", "orm_book.txt"):
                (run_dir / name).write_bytes((golden_dir / name).read_bytes())
            cfg = load_config(run_dir / "config.ini")
            assert run_experiment(cfg).failed == 0
            trees.append({p.name: p.read_bytes() for p in cfg.output_dir.iterdir()})
        first, middle, third = trees
        assert first == third
        assert middle["report.csv"] != first["report.csv"]
        assert b"zephyrs" in middle["explanations.jsonl"]
        for name, digest in GOLDEN_DIGESTS.items():
            assert hashlib.sha256(third[name]).hexdigest() == digest, name


RUN_AND_LIST_MODULES = """
import sys
from coi_rag.bench.cli import main
code = main(["run", "-c", sys.argv[1], "-o", sys.argv[2] + "/out", "--cache-dir", sys.argv[2] + "/cache"])
print(code, sorted(m for m in sys.modules if m.split(".")[0] in (
    "scipy", "sqlite3", "_sqlite3", "requests", "urllib3", "xml", "http", "email",
)))
"""


class TestRunPathImports:
    def test_hermetic_run_never_imports_scipy_stats(self, golden_dir, tmp_path):
        """A golden ``coi-bench run`` in a fresh interpreter loads no scipy, sqlite, HTTP, XML or email module.

        ``scipy.special`` alone costs about 0.2 s and 13 MB a process and
        ``scipy.stats`` a second and 40 MB, so a deferred import on the run
        path fails this test as well; only required_pairs may load scipy.
        A hermetic run caches nothing, so it never opens the call cache,
        and sends nothing, so it never loads ``requests`` (about 45 ms).
        ``xml.sax.saxutils`` pulls in ``urllib.request``, ``http.client``
        and ``email`` (about 40 ms and 3 MB). ``urllib.parse``, which
        ``pathlib`` loads, is not checked.
        """
        src = str(Path(coi_rag.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", RUN_AND_LIST_MODULES, str(golden_dir / "config.ini"), str(tmp_path)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"


class TestPackageExports:
    def test_every_exported_name_resolves(self):
        assert [name for name in coi_rag.__all__ if not hasattr(coi_rag, name)] == []


class TestCacheSoundness:
    def test_warm_cache_completes_without_transport(self, golden_dir, tmp_path):
        """A remote generator run, once warmed, replays with no network."""
        responses = {"n": 0}

        def fake_remote(url, body, headers):
            responses["n"] += 1
            prompt = body["messages"][0]["content"]
            return {"choices": [{"message": {"content": f"Answer with {len(prompt)} chars."}}]}

        def dead_remote(url, body, headers):
            raise AssertionError("network touched after warmup")

        text = (golden_dir / "config.ini").read_text()
        text = text.replace(
            "[model.mock-a]\nkind = scripted\nbehavior = context_echo",
            "[model.mock-a]\nkind = remote\nmodel_id = fake-remote",
        )
        cfg_path = tmp_path / "config.ini"
        cfg_path.write_text(text)
        for name in ("questions.jsonl", "vex_book.txt", "orm_book.txt"):
            (tmp_path / name).write_bytes((golden_dir / name).read_bytes())

        cfg = load_config(cfg_path)
        cfg.output_dir = tmp_path / "out1"
        cfg.cache_dir = tmp_path / "cache"
        run_experiment(cfg, transports={"mock-a": fake_remote})
        assert responses["n"] == 18  # 6 questions x 3 modes

        cfg2 = load_config(cfg_path)
        cfg2.output_dir = tmp_path / "out2"
        cfg2.cache_dir = tmp_path / "cache"
        report = run_experiment(cfg2, transports={"mock-a": dead_remote})
        assert report.failed == 0
        a = (tmp_path / "out1" / "items.jsonl").read_bytes()
        b = (tmp_path / "out2" / "items.jsonl").read_bytes()
        assert a == b

    def test_legacy_json_entries_replay_without_transport(self, golden_dir, tmp_path):
        """A cache of one-file-per-entry ``<key>.json`` replays a remote run."""
        golden = RemoteGolden(golden_dir, tmp_path)
        cold = golden.run("cold", tmp_path / "cache", golden.transport)
        with closing(sqlite3.connect(tmp_path / "cache" / CACHE_FILE)) as conn:
            rows = conn.execute("SELECT key, payload FROM calls").fetchall()
        assert len(golden.chats) == 18  # 6 questions x 3 modes
        assert len(rows) == len(golden.chats) + len(golden.embedded)
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        for key, payload in rows:  # in the JSON form a legacy directory holds
            (legacy / f"{key}.json").write_text(json_entry(payload), encoding="utf-8")
        assert golden.run("warm", legacy, golden.dead) == cold
        assert golden.requests == []
        assert len(list(legacy.glob("*.json"))) == len(rows)

    def test_json_text_rows_replay_without_transport_and_stay_as_written(self, golden_dir, tmp_path):
        """A store whose embedding rows hold JSON text, as older versions wrote them, replays a remote run.

        No row is rewritten: a hit leaves its entry as it was stored.
        """
        golden = RemoteGolden(golden_dir, tmp_path)
        cold = golden.run("cold", tmp_path / "cache", golden.transport)
        with closing(sqlite3.connect(tmp_path / "cache" / CACHE_FILE)) as conn:
            rows = conn.execute("SELECT key, payload FROM calls").fetchall()
        assert sum(isinstance(payload, bytes) for _, payload in rows) == len(golden.embedded)
        old = {key: json_entry(payload) for key, payload in rows}
        (tmp_path / "old").mkdir()
        with closing(sqlite3.connect(tmp_path / "old" / CACHE_FILE)) as conn:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("CREATE TABLE calls (key TEXT PRIMARY KEY, payload TEXT)")
            conn.execute("PRAGMA user_version = 1")
            conn.executemany("INSERT INTO calls (key, payload) VALUES (?, ?)", old.items())
            conn.commit()
        assert golden.run("warm", tmp_path / "old", golden.dead) == cold
        assert golden.requests == []
        with closing(sqlite3.connect(tmp_path / "old" / CACHE_FILE)) as conn:
            assert dict(conn.execute("SELECT key, payload FROM calls")) == old

    @pytest.mark.parametrize("stage", [None, "plan", "answer"], ids=["run", "plan-alone", "answer-alone"])
    def test_short_query_entry_beside_8_dim_index_is_refetched(self, golden_dir, tmp_path, stage):
        """A 2-float cache entry under a query's key is fetched again, not ranked against 8-dim chunks.

        A stage run alone loads the chunk index before it embeds anything,
        so the query may be the first text a fresh embedder sees.
        """
        hasher = HashedEmbedder(dims=8)

        def transport(url, body, headers):
            rows = [hasher.embed_raw(t).tolist() for t in body["input"]]
            return {"data": [{"index": i, "embedding": r} for i, r in enumerate(rows)]}

        cfg = load_config(golden_dir / "config.ini")
        cfg.output_dir, cfg.cache_dir = tmp_path / "out", tmp_path / "cache"
        query = load_questions(cfg.questions_path, allowed_tags=cfg.tags)[0].query_text()
        cache = CallCache(cfg.cache_dir)
        try:
            if stage is not None:
                run_experiment(cfg, embedder=RemoteEmbedder("emb", cache=cache, transport=transport, dims=8))
            embedder = RemoteEmbedder("emb", cache=cache, transport=transport, dims=8)
            short = [query]
            if stage == "plan":  # the banks are embedded first, and their entries agree in length
                for bank in cfg.output_dir.glob("bank.*.jsonl"):
                    short += [json.loads(line)["question"] for line in bank.read_text().splitlines()]
            for text in short:
                cache.put(embedder._key(text), {"data": [{"embedding": [3.0, 4.0]}]})
            if stage is None:
                assert run_experiment(cfg, embedder=embedder).failed == 0
            else:
                STAGES[stage](make_context(cfg, embedder=embedder))
            assert {len(stored_vector(cache.get(embedder._key(t)))) for t in short} == {8}
        finally:
            cache.close()

    def test_script_file_backed_model(self, tmp_path):
        from coi_rag.providers import GenerationRequest, request_hash

        key = request_hash({"endpoint": "chat", **GenerationRequest("m", "What is up?").payload()})
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps({key: "canned reply"}))
        spec = ModelSpec(name="m", kind="scripted", model_id="m",
                         script_path=script_path)
        generator = spec.build(cache=None)
        assert generator.complete("What is up?").text == "canned reply"

    def test_remote_credentials_come_from_named_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MY_PROVIDER_KEY", "sk-test-123")
        seen = {}

        def transport(url, body, headers):
            seen["auth"] = headers["Authorization"]
            return {"choices": [{"message": {"content": "ok"}}]}

        spec = ModelSpec(name="m", kind="remote", model_id="m",
                         api_key_env="MY_PROVIDER_KEY")
        generator = spec.build(cache=None, transport=transport)
        generator.complete("hi")
        assert seen["auth"] == "Bearer sk-test-123"

    def test_cache_hits_are_byte_identical(self, tmp_path):
        cache = CallCache(tmp_path / "c")
        key = request_hash({"any": "payload"})
        cache.put(key, {"text": "stored", "created_at": "2024-01-01T00:00:00Z"})
        assert cache.get(key) == {"text": "stored", "created_at": "2024-01-01T00:00:00Z"}
        assert cache.get("0" * 64) is None


class RemoteGolden:
    """The golden config with mock-a and a 16-dim embedder remote, behind a fake service.

    ``transport`` answers every request; ``dead`` records and refuses it.
    """

    def __init__(self, golden_dir: Path, tmp_path: Path):
        text = (golden_dir / "config.ini").read_text().replace(
            "[model.mock-a]\nkind = scripted\nbehavior = context_echo",
            "[model.mock-a]\nkind = remote\nmodel_id = fake-remote",
        )
        self.config = tmp_path / "config.ini"
        self.config.write_text(text)
        for name in ("questions.jsonl", "vex_book.txt", "orm_book.txt"):
            (tmp_path / name).write_bytes((golden_dir / name).read_bytes())
        self.hasher = HashedEmbedder(dims=16)
        self.embedded: set[str] = set()
        self.chats: list[dict] = []
        self.requests: list[str] = []

    def transport(self, url, body, headers):
        if url.endswith("/embeddings"):
            self.embedded.update(body["input"])
            rows = [self.hasher.embed_raw(t).tolist() for t in body["input"]]
            return {"data": [{"index": i, "embedding": r} for i, r in enumerate(rows)]}
        self.chats.append(body)
        return {"choices": [{"message": {"content": f"Answer of {len(body['messages'][0]['content'])} chars."}}]}

    def dead(self, url, body, headers):
        self.requests.append(url)
        raise AssertionError("network touched by a replay")

    def run(self, out: str, cache_dir: Path, transport) -> bytes:
        """The ``items.jsonl`` bytes of a run into ``out`` on the cache in ``cache_dir``."""
        cfg = load_config(self.config)
        cfg.output_dir, cfg.cache_dir = self.config.parent / out, cache_dir
        cache = CallCache(cache_dir)
        try:
            embedder = RemoteEmbedder("emb", cache=cache, transport=transport, dims=16)
            report = run_experiment(cfg, embedder=embedder, transports={"mock-a": transport})
        finally:
            cache.close()
        assert report.failed == 0
        return (cfg.output_dir / "items.jsonl").read_bytes()


def hashed_transport(dims: int, urls: list | None = None):
    """A fake embeddings service answering hashed count vectors; each URL goes to ``urls``."""
    hasher = HashedEmbedder(dims=dims)

    def transport(url, body, headers):
        if urls is not None:
            urls.append(url)
        rows = [hasher.embed_raw(t).tolist() for t in body["input"]]
        return {"data": [{"index": i, "embedding": r} for i, r in enumerate(rows)]}

    return transport


class TestStageBatches:
    """Each stage that embeds item by item makes one ``embed`` call per corpus."""

    @pytest.mark.parametrize("modes, expected", [
        (["genai", "rag", "rag_coi"], {"ingest": 2, "plan: bank index": 2, "plan": 1}),
        (["genai", "rag"], {"ingest": 2, "answer": 1}),
    ], ids=["all-modes", "genai-rag"])
    def test_embeddings_requests_per_stage(self, golden_cfg, monkeypatch, modes, expected):
        """Through a remote ``component_weighted`` embedder: at most one request per
        stage and corpus, none in answer once plan has run, and none on a warm cache."""
        from coi_rag.bench import runner

        golden_cfg.modes, golden_cfg.matching = modes, "component_weighted"
        phase, urls = [""], []
        requested = Counter()
        transport = hashed_transport(golden_cfg.embedder_dims, urls)

        def counting(url, body, headers):
            requested[phase[0]] += 1
            return transport(url, body, headers)

        def within(label, fn):
            def wrapped(*args, **kwargs):
                outer = phase[0]
                phase[0] = f"{outer}: {label}"
                try:
                    return fn(*args, **kwargs)
                finally:
                    phase[0] = outer
            return wrapped

        build, bank = runner.build_source_index, runner.StageContext.bank
        monkeypatch.setattr(runner, "build_source_index", within("source index", build))
        monkeypatch.setattr(runner.StageContext, "bank", within("bank index", bank))
        cache = CallCache(golden_cfg.cache_dir)
        try:
            for run in ("cold", "warm"):
                golden_cfg.output_dir = golden_cfg.cache_dir.parent / run
                embedder = RemoteEmbedder(
                    "emb", cache=cache, transport=counting, dims=golden_cfg.embedder_dims
                )
                ctx = make_context(golden_cfg, embedder=embedder)
                try:
                    for name, stage in STAGES.items():
                        phase[0] = name if run == "cold" else "warm"
                        stage(ctx)
                finally:
                    ctx.cache.close()
        finally:
            cache.close()
        assert set(urls) == {f"{DEFAULT_ENDPOINT}/embeddings"}
        assert requested == Counter({**expected, "evaluate: source index": 2, "evaluate": 2})
        warm, cold = (golden_cfg.cache_dir.parent / run / "items.jsonl" for run in ("warm", "cold"))
        assert warm.read_bytes() == cold.read_bytes()

    @pytest.mark.parametrize("matching", ["whole_clause", "component_weighted"])
    @pytest.mark.parametrize("remote", [False, True], ids=["hashed", "remote"])
    def test_stage_batches_equal_per_item_calls(self, golden_cfg, matching, remote):
        """Plans and reports equal those of one ``plan`` and one ``evaluate_text`` per item.

        The per-item reference has an embedder of its own, and scores each
        explanation on a fresh source index, so it shares no memo with the stages.
        """
        golden_cfg.matching = matching
        dims = golden_cfg.embedder_dims

        def embedder():
            if remote:
                return RemoteEmbedder("emb", transport=hashed_transport(dims), dims=dims)
            return HashedEmbedder(dims=dims)

        assert run_experiment(golden_cfg, embedder=embedder()).failed == 0
        out, reference = golden_cfg.output_dir, embedder()
        questions = load_questions(golden_cfg.questions_path)
        plans = read_jsonl(out / "plans.jsonl")
        assert [p["primary_id"] for p in plans] == [q.id for q in questions]
        for q, row in zip(questions, plans):
            chunks = chunks_from_jsonl(out / f"chunks.{q.tag}.jsonl")
            index = build_index([(c.id, c.text, c) for c in chunks], reference)
            bank = QuestionBank.load(out / f"bank.{q.tag}.jsonl", reference)
            want = plan(
                q, bank, index, reference, pool_size=golden_cfg.pool_size,
                per_question_chunks=golden_cfg.per_question_chunks, keep=golden_cfg.keep_questions,
            )
            assert row == json.loads(json_line(want.to_json())), q.id
        scored = [i for i in read_jsonl(out / "items.jsonl") if "factscore" in i]
        assert len(scored) == 36
        report_fields = [f.name for f in dataclasses.fields(AdherenceReport)]
        for item in scored:
            spec = golden_cfg.corpus(item["tag"])
            source = build_source_index(read_document(spec.path).text, reference, matching)
            text = strip_citations(item["text"], spec.title)
            want = evaluate_text(text, source, reference, t=golden_cfg.threshold)
            assert AdherenceReport(**{f: item[f] for f in report_fields}) == want


class TestScoringReference:
    """The frozen plain scorer of ``tests/scoring_reference.py`` reproduces every scored golden item."""

    @pytest.mark.parametrize("matching", ["whole_clause", "component_weighted"])
    def test_golden_items_bit_exact(self, golden_cfg, matching):
        golden_cfg.matching = matching
        assert run_experiment(golden_cfg).failed == 0
        embedder = golden_cfg.build_embedder()
        sources = {
            spec.tag: ReferenceSource(read_document(spec.path).text, embedder, matching)
            for spec in golden_cfg.corpora
        }
        scored = [i for i in read_jsonl(golden_cfg.output_dir / "items.jsonl") if "factscore" in i]
        assert len(scored) == 36 and {i["matching"] for i in scored} == {matching}
        for item in scored:
            text = strip_citations(item["text"], golden_cfg.corpus(item["tag"]).title)
            want = reference_score(text, sources[item["tag"]], embedder, golden_cfg.threshold)
            # json.dumps writes each float's repr: equal strings are equal bits.
            assert json.dumps({f: item[f] for f in want}) == json.dumps(want), item["question_id"]


class TestCorpusMatch:
    """The evaluate stage matches each corpus's new clauses in one ``match_clauses`` call."""

    @staticmethod
    def record_matches(monkeypatch) -> list[tuple[object, list[str]]]:
        """(source index, clause renderings) of every ``match_clauses`` call, raising or not."""
        from coi_rag import adherence

        calls, match = [], adherence.match_clauses

        def recorded(ai, source, embedder):
            calls.append((source, [c.render() for c in ai]))
            return match(ai, source, embedder)

        monkeypatch.setattr(adherence, "match_clauses", recorded)
        return calls

    @pytest.mark.parametrize("matching", ["whole_clause", "component_weighted"])
    @pytest.mark.parametrize("remote", [False, True], ids=["hashed", "remote"])
    def test_one_call_per_corpus(self, golden_cfg, monkeypatch, matching, remote):
        golden_cfg.matching = matching
        dims = golden_cfg.embedder_dims
        embedder = (
            RemoteEmbedder("emb", transport=hashed_transport(dims), dims=dims) if remote
            else HashedEmbedder(dims=dims)
        )
        calls = self.record_matches(monkeypatch)
        assert run_experiment(golden_cfg, embedder=embedder).failed == 0
        assert len(calls) == len(golden_cfg.corpora) == len({id(source) for source, _ in calls})

    def test_failed_corpus_call_leaves_each_explanation_its_own(self, golden_cfg, monkeypatch):
        """After the first corpus's call fails, each of its explanations with new
        sentences matches exactly those, in one call of its own; the other corpus
        still makes one call."""
        calls = self.record_matches(monkeypatch)
        run_experiment(golden_cfg)
        healthy = (golden_cfg.output_dir / "items.jsonl").read_bytes()
        healthy_calls = [clauses for _, clauses in calls]
        calls.clear()
        golden_cfg.output_dir = golden_cfg.output_dir.parent / "faulty"
        # Only explanations hold the scripted preamble: the first corpus's call fails once.
        embedder = FailingEmbedder(golden_cfg.build_embedder(), "Here follows an explanation", times=1)
        assert run_experiment(golden_cfg, embedder=embedder).failed == 0
        assert (golden_cfg.output_dir / "items.jsonl").read_bytes() == healthy
        first, *own, last = calls
        assert [clauses for _, clauses in (first, last)] == healthy_calls
        assert len(own) > 1 and all(source is first[0] for source, _ in own)
        # Each explanation's new sentences are the next run of the corpus's pending ones.
        assert [c for _, clauses in own for c in clauses] == first[1]
        explanations = [
            r for r in read_jsonl(golden_cfg.output_dir / "explanations.jsonl")
            if "error" not in r and r["tag"] == golden_cfg.corpora[0].tag
        ]
        assert len(own) < len(explanations)  # some repeat only earlier sentences

    def test_lone_explanation_resends_the_failed_corpus_call(self, golden_cfg, tmp_path, monkeypatch):
        """With one explanation per corpus, its own call holds exactly the sentences
        of the failed corpus call, and it is still sent, not failed from a memo."""
        calls = self.record_matches(monkeypatch)
        golden_cfg.modes = ["genai"]
        golden_cfg.models = [m for m in golden_cfg.models if m.name != "mock-b"]
        golden_cfg.__post_init__()  # refresh the name registry
        rows = read_jsonl(golden_cfg.questions_path)
        first = {row["tag"]: row for row in reversed(rows)}
        golden_cfg.questions_path = write_questions(tmp_path / "questions.jsonl", first.values())
        embedder = FailingEmbedder(golden_cfg.build_embedder(), "Here follows an explanation", times=1)
        assert run_experiment(golden_cfg, embedder=embedder).failed == 0
        assert embedder.times == 0
        failed, own, *_ = calls
        assert own == failed and len(calls) == 1 + len(golden_cfg.corpora)

    @pytest.mark.parametrize("texts", [["one text"], ["b", "a", "b", "a", "a"], ["cached", "new", "cached 2"]],
                             ids=["one", "repeated", "mixed"])
    def test_rows_are_assembled_as_np_stack_would(self, tmp_path, texts):
        """``RemoteEmbedder.embed`` and ``StageRows.embed`` return the bits, dtype,
        shape and C order of ``np.stack`` over the same rows."""
        import numpy as np

        from coi_rag.bench.runner import StageRows

        def assert_stacked(out, rows):
            want = np.stack(rows)
            assert (out.dtype, out.shape, out.flags.c_contiguous) == (want.dtype, want.shape, True)
            assert out.tobytes() == want.tobytes()

        cache = CallCache(tmp_path)
        try:
            # Warm the cache with every text named "cached...": the "mixed" call reads
            # those rows and fetches the rest.
            RemoteEmbedder("emb", cache=cache, transport=hashed_transport(16), dims=16).embed(
                [t for t in texts if t.startswith("cached")] or ["unused"]
            )
            embedder = RemoteEmbedder("emb", cache=cache, transport=hashed_transport(16), dims=16)
            assert_stacked(embedder.embed(texts), [embedder._vectors[t] for t in texts])
        finally:
            cache.close()
        stage = StageRows(texts + ["another"], HashedEmbedder(dims=16))
        assert_stacked(stage.embed(texts), [stage.rows[t] for t in texts])


def assert_same_files(a: Path, b: Path) -> None:
    """Both directory trees hold the same files with the same bytes."""
    names = sorted(str(p.relative_to(a)) for p in a.rglob("*") if p.is_file())
    assert names == sorted(str(p.relative_to(b)) for p in b.rglob("*") if p.is_file())
    assert "manifest.json" in names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestCli:
    def test_run_subcommand(self, golden_dir, tmp_path, capsys):
        rc = cli_main(
            [
                "run",
                "-c", str(golden_dir / "config.ini"),
                "-o", str(tmp_path / "out"),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "out" / "report.csv").exists()
        assert "items=36 failed=0" in capsys.readouterr().out

    def test_staged_subcommands(self, golden_dir, tmp_path):
        args = ["-c", str(golden_dir / "config.ini"),
                "-o", str(tmp_path / "out"),
                "--cache-dir", str(tmp_path / "cache")]
        for stage in ("ingest", "build-bank", "plan", "answer", "evaluate",
                      "analyze", "report"):
            assert cli_main([stage, *args]) == 0
        staged = tmp_path / "out"
        analysis = json.loads((staged / "analysis.json").read_text())
        assert analysis["counts"]["failed"] == 0
        for name, digest in GOLDEN_DIGESTS.items():
            assert hashlib.sha256((staged / name).read_bytes()).hexdigest() == digest, name
        cfg = load_config(golden_dir / "config.ini")
        cfg.output_dir = tmp_path / "run" / "out"
        cfg.cache_dir = tmp_path / "run" / "cache"
        run_experiment(cfg)
        assert_same_files(staged, cfg.output_dir)

    def test_staged_subcommands_on_a_warm_remote_cache(self, golden_dir, tmp_path, monkeypatch):
        """Stages run alone on the cache a remote ``run`` warmed write the run's files.

        Every reply then comes from the cache, ``created_at`` included.
        """
        cfg_path = edited_golden_config(
            golden_dir, tmp_path, "kind = hashed\n", "kind = remote\nmodel_id = emb\n"
        )
        cfg_path.write_text(re.sub(r"kind = scripted\nbehavior = \w+", "kind = remote", cfg_path.read_text()))
        behaviors = {"bankgen": "qa_stub", "mock-a": "context_echo", "mock-b": "context_echo_short"}
        cfg = load_config(cfg_path)
        hasher = HashedEmbedder(dims=cfg.embedder_dims)
        requested = []

        def transport(url, body, headers):
            requested.append(url)
            if url.endswith("/embeddings"):
                rows = [hasher.embed_raw(t).tolist() for t in body["input"]]
                return {"data": [{"index": i, "embedding": r} for i, r in enumerate(rows)]}
            reply = SCRIPTED_BEHAVIORS[behaviors[body["model"]]](body["messages"][0]["content"])
            return {"choices": [{"message": {"content": reply}}]}

        cfg.output_dir, cfg.cache_dir = tmp_path / "run", tmp_path / "cache"
        cache = CallCache(cfg.cache_dir)
        try:
            embedder = cfg.build_embedder(cache=cache, transport=transport)
            report = run_experiment(cfg, embedder=embedder, transports={m.name: transport for m in cfg.models})
        finally:
            cache.close()
        assert report.failed == 0 and report.items == 36
        assert requested
        created = {r["created_at"] for r in read_jsonl(cfg.output_dir / "explanations.jsonl")}
        assert "1970-01-01T00:00:00Z" not in created  # remote replies, not scripted ones

        def unreachable(*args, **kwargs):
            raise AssertionError("a staged run on a warm cache sent a request")

        monkeypatch.setattr(requests, "post", unreachable)
        args = ["-c", str(cfg_path), "-o", str(tmp_path / "staged"), "--cache-dir", str(cfg.cache_dir)]
        for stage in STAGES:
            assert cli_main([stage, *args]) == 0
        assert_same_files(tmp_path / "staged", cfg.output_dir)

    def test_relative_config_path(self, golden_dir, tmp_path, monkeypatch):
        """Inputs named relative to a config given by a relative path are not looked up in the output dir."""
        shutil.copytree(golden_dir, tmp_path / "golden", ignore=shutil.ignore_patterns("out*", "cache"))
        monkeypatch.chdir(tmp_path)
        args = ["-c", "golden/config.ini", "--cache-dir", "cache"]
        assert cli_main(["run", *args, "-o", "run"]) == 0
        for stage in STAGES:
            assert cli_main([stage, *args, "-o", "staged"]) == 0
        assert_same_files(tmp_path / "staged", tmp_path / "run")

    def count_completions(self, monkeypatch) -> list[str]:
        calls = []
        complete = ScriptedGenerator.complete

        def counting(gen, request):
            calls.append(gen.model_id)
            return complete(gen, request)

        monkeypatch.setattr(ScriptedGenerator, "complete", counting)
        return calls

    def test_build_bank_without_rag_coi_does_nothing(self, golden_dir, tmp_path, monkeypatch):
        cfg_path = edited_golden_config(
            golden_dir, tmp_path, "modes = genai, rag, rag_coi", "modes = genai, rag"
        )
        args = ["-c", str(cfg_path), "-o", str(tmp_path / "out"),
                "--cache-dir", str(tmp_path / "cache")]
        assert cli_main(["ingest", *args]) == 0
        calls = self.count_completions(monkeypatch)
        assert cli_main(["build-bank", *args]) == 0
        assert calls == []
        assert not list((tmp_path / "out").glob("bank.*.jsonl"))

    @pytest.mark.parametrize(
        "run_plan, error, message",
        [(False, FileNotFoundError, "plans.jsonl not found"),
         (True, ValueError, "no plan for question")],
        ids=["plan-stage-skipped", "one-plan-dropped"],
    )
    def test_rag_coi_answer_needs_every_plan(
        self, golden_dir, tmp_path, monkeypatch, run_plan, error, message
    ):
        out = tmp_path / "out"
        args = ["-c", str(golden_dir / "config.ini"), "-o", str(out),
                "--cache-dir", str(tmp_path / "cache")]
        for stage in ("ingest", "build-bank", "plan")[: 3 if run_plan else 2]:
            assert cli_main([stage, *args]) == 0
        if run_plan:
            plans = (out / "plans.jsonl").read_text().splitlines(keepends=True)
            (out / "plans.jsonl").write_text("".join(plans[1:]))
        calls = self.count_completions(monkeypatch)
        with pytest.raises(error, match=message):
            cli_main(["answer", *args])
        assert calls == []
        assert not (out / "explanations.jsonl").exists()

    @pytest.mark.parametrize(
        "before, stage, missing",
        [((), "evaluate", "explanations.jsonl"),
         ((), "analyze", "items.jsonl"),
         (("ingest", "build-bank", "plan", "answer", "evaluate"), "report", "analysis.json"),
         ((), "plan", "chunk_index.orm.jsonl")],
        ids=["evaluate", "analyze", "report", "plan"],
    )
    def test_stage_run_out_of_order_names_the_artifact_it_lacks(
        self, golden_dir, tmp_path, before, stage, missing
    ):
        args = ["-c", str(golden_dir / "config.ini"), "-o", str(tmp_path / "out"),
                "--cache-dir", str(tmp_path / "cache")]
        for earlier in before:
            assert cli_main([earlier, *args]) == 0
        with pytest.raises(FileNotFoundError, match=re.escape(f"{missing} not found")):
            cli_main([stage, *args])

    def failing_config(self, golden_dir, tmp_path) -> Path:
        # A remote model pointed at a dead local port: every call fails fast.
        text = (golden_dir / "config.ini").read_text()
        text = text.replace("modes = genai, rag, rag_coi", "modes = genai")
        text = text.replace(
            "[model.mock-a]\nkind = scripted\nbehavior = context_echo",
            "[model.mock-a]\nkind = remote\nmodel_id = x\n"
            "endpoint = http://127.0.0.1:9/v1\nretries = 1\nbackoff = 0.0",
        )
        cfg_path = tmp_path / "fail.ini"
        cfg_path.write_text(text)
        for name in ("questions.jsonl", "vex_book.txt", "orm_book.txt"):
            (tmp_path / name).write_bytes((golden_dir / name).read_bytes())
        return cfg_path

    def test_failures_exit_nonzero(self, golden_dir, tmp_path):
        cfg_path = self.failing_config(golden_dir, tmp_path)
        args = ["-c", str(cfg_path), "-o", str(tmp_path / "out"),
                "--cache-dir", str(tmp_path / "cache")]
        assert cli_main(["run", *args]) == 1
        assert cli_main(["run", *args, "--allow-partial"]) == 0
