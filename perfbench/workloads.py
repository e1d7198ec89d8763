"""Seeded benchmark inputs: scaled books, distinct questions and configs.

The books and questions are built from the theme tables of
``scripts/make_golden_fixture.py`` and the config from its golden
``CONFIG``, so a workload is the golden experiment at a larger size. The
program only ever sees the files written by :func:`write_inputs`.
"""

from __future__ import annotations

import configparser
import hashlib
import importlib.util
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURE_SCRIPT = ROOT / "scripts" / "make_golden_fixture.py"

# --seed selects one of this many input variants; digests.json pins the
# expected outputs of every variant.
VARIANTS = 64
BOOK_SCALE = 4  # sentences per theme relative to the golden books (30)
SENTENCES_PER_PAGE = 30
# Never contacted: the benchmark passes an in-process transport and makes
# requests.post raise.
FAKE_ENDPOINT = "http://fake-openai.invalid/v1"


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str  # "hermetic" or "remote"; names the pinned digest table
    questions_per_tag: int
    warm_cache: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hermetic-scaled", "hermetic", questions_per_tag=12, warm_cache=False),
        Workload("remote-cold", "remote", questions_per_tag=3, warm_cache=False),
        Workload("remote-warm", "remote", questions_per_tag=3, warm_cache=True),
    )
}


def load_fixture_module():
    """Import the golden fixture script without running its ``main``."""
    spec = importlib.util.spec_from_file_location("make_golden_fixture", FIXTURE_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def build_book(themes: dict, rng: random.Random) -> str:
    """Every theme contributes ``30 * BOOK_SCALE`` distinct sentences."""
    lines: list[str] = []
    page = 1
    per_theme = SENTENCES_PER_PAGE * BOOK_SCALE
    for bank in themes.values():
        combos = [
            (s, v, o)
            for s in bank["subjects"]
            for v in bank["verbs"]
            for o in bank["objects"]
        ]
        rng.shuffle(combos)
        for start in range(0, per_theme, SENTENCES_PER_PAGE):
            lines.append(f"@@PAGE {page}@@")
            lines.extend(f"{s} {v} {o}." for s, v, o in combos[start:start + SENTENCES_PER_PAGE])
            page += 1
    return "\n".join(lines) + "\n"


def _lower_first(text: str) -> str:
    return text[0].lower() + text[1:]


def build_questions(tag: str, themes: dict, count: int, rng: random.Random) -> list[dict]:
    """``count`` questions with pairwise distinct titles for one corpus tag."""
    facts = [
        (theme, s, v, o)
        for theme, bank in themes.items()
        for s in bank["subjects"]
        for v in bank["verbs"]
        for o in bank["objects"]
    ]
    rows = []
    for i, (theme, s, v, o) in enumerate(rng.sample(facts, count)):
        other = rng.choice(themes[theme]["subjects"])
        rows.append(
            {
                "id": f"{tag}-{i + 1}",
                "tag": tag,
                "title": f"How is it that {_lower_first(s)} {v} {o} in {tag}?",
                "body": (
                    f"I read that {_lower_first(s)} {v} {o} and I want to know "
                    f"how {_lower_first(other)} takes part in the {theme} rules."
                ),
                "accepted_answer": f"{s} {v} {o}.",
                "views": 100 * (count - i) + rng.randrange(100),
            }
        )
    return rows


def render_config(fixture, pipeline: str) -> tuple[str, dict[str, str]]:
    """The golden config, switched to remote providers for ``remote``.

    Returns the INI text and, for the fake transport, the scripted
    behaviour each remote model id stands for.
    """
    cp = configparser.ConfigParser()
    cp.read_string(fixture.CONFIG)
    behaviors = {}
    if pipeline == "remote":
        cp["embedder"] = {"kind": "remote", "model_id": "bench-embed", "endpoint": FAKE_ENDPOINT}
        cp["adherence"]["matching"] = "component_weighted"
        for section in cp.sections():
            if section.startswith("model."):
                name = section.split(".", 1)[1]
                behaviors[name] = cp[section].pop("behavior")
                cp[section]["kind"] = "remote"
                cp[section]["model_id"] = name
                cp[section]["endpoint"] = FAKE_ENDPOINT
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue(), behaviors


def write_inputs(workload: Workload, seed: int, directory: Path) -> tuple[str, dict[str, str]]:
    """Write config.ini, both books and questions.jsonl into ``directory``.

    Returns the sha256 of the written files and the model behaviours for
    the fake transport.
    """
    fixture = load_fixture_module()
    rng = random.Random(f"perfbench-{variant_of(seed)}")
    directory.mkdir(parents=True, exist_ok=True)
    files = {
        "vex_book.txt": build_book(fixture.VEX_THEMES, rng),
        "orm_book.txt": build_book(fixture.ORM_THEMES, rng),
    }
    questions = build_questions("vex", fixture.VEX_THEMES, workload.questions_per_tag, rng)
    questions += build_questions("orm", fixture.ORM_THEMES, workload.questions_per_tag, rng)
    files["questions.jsonl"] = "".join(
        json.dumps(q, ensure_ascii=False, sort_keys=True) + "\n" for q in questions
    )
    files["config.ini"], behaviors = render_config(fixture, workload.pipeline)
    digest = hashlib.sha256()
    for name in sorted(files):
        data = files[name].encode("utf-8")
        (directory / name).write_bytes(data)
        digest.update(name.encode("utf-8") + b"\0" + data + b"\0")
    return digest.hexdigest(), behaviors
