"""Regenerate the golden end-to-end fixture under tests/fixtures/golden/.

The two synthetic textbooks are built from themed sentence templates with
a fixed seed. Constraints that the hermetic providers rely on: every
sentence starts with one capitalized word, contains no other capitals and
no abbreviations, and ends with a period, so complete sentences can be
recognized exactly inside token-window chunks.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

OUT = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "golden"

VEX_THEMES = {
    "variables": {
        "subjects": [
            "The vex compiler", "A let binding", "The scope checker",
            "Every declared variable", "The type tag", "A mutable slot",
        ],
        "verbs": ["stores", "binds", "checks", "rejects", "tracks", "marks"],
        "objects": [
            "every symbol inside one flat table",
            "each name to a typed slot",
            "shadowed names in nested blocks",
            "duplicate declarations at parse time",
            "the initial value of the binding",
            "unused variables with a warning flag",
        ],
    },
    "functions": {
        "subjects": [
            "A vex function", "The return keyword", "Every parameter",
            "The call frame", "A pure routine", "The arity checker",
        ],
        "verbs": ["returns", "copies", "pushes", "evaluates", "rejects", "yields"],
        "objects": [
            "exactly one value to the caller",
            "its arguments onto a fresh frame",
            "default expressions left to right",
            "calls with a mismatched arity",
            "a closure over the defining scope",
            "the last expression of the body",
        ],
    },
    "lists": {
        "subjects": [
            "A vex list", "The growth policy", "Every element slot",
            "The slice operator", "An append call", "The bounds checker",
        ],
        "verbs": ["doubles", "copies", "keeps", "raises", "shares", "packs"],
        "objects": [
            "its backing buffer when full",
            "elements in one contiguous block",
            "a separate length field in the header",
            "an index fault on overflow",
            "storage between shallow copies",
            "small items without boxing them",
        ],
    },
    "errors": {
        "subjects": [
            "A vex fault", "The trap handler", "Every raised signal",
            "The recover block", "An unchecked fault", "The fault code",
        ],
        "verbs": ["unwinds", "catches", "carries", "resumes", "aborts", "names"],
        "objects": [
            "the frame stack toward the nearest trap",
            "signals by their declared fault class",
            "a message and the faulting frame",
            "execution after the failing call",
            "the whole program with a report",
            "the origin module of the failure",
        ],
    },
}

ORM_THEMES = {
    "objects": {
        "subjects": [
            "An orm object", "The class table", "Every instance header",
            "The field layout", "A fresh instance", "The identity hash",
        ],
        "verbs": ["holds", "maps", "records", "fixes", "receives", "keeps"],
        "objects": [
            "its fields behind one hidden pointer",
            "each class name to a slot layout",
            "the class index and a mark bit",
            "field offsets at load time",
            "default values from the class body",
            "the same value for the object lifetime",
        ],
    },
    "messages": {
        "subjects": [
            "A message send", "The dispatch table", "Every selector",
            "The lookup path", "A missing method", "The receiver slot",
        ],
        "verbs": ["selects", "caches", "names", "climbs", "triggers", "binds"],
        "objects": [
            "a method by the receiver class",
            "recent lookups in a small window",
            "one method of the receiving class",
            "the superclass chain until a match",
            "a catch all handler on the receiver",
            "the object that received the send",
        ],
    },
    "streams": {
        "subjects": [
            "An orm stream", "The read cursor", "Every write call",
            "The flush rule", "A closed stream", "The line reader",
        ],
        "verbs": ["buffers", "advances", "appends", "drains", "raises", "splits"],
        "objects": [
            "bytes in fixed sized pages",
            "past each consumed element",
            "data at the current position",
            "the page once it fills up",
            "a use fault on any access",
            "input at every newline byte",
        ],
    },
    "memory": {
        "subjects": [
            "The orm collector", "A minor cycle", "Every live object",
            "The old space", "A weak slot", "The allocation pointer",
        ],
        "verbs": ["scans", "moves", "survives", "compacts", "drops", "bumps"],
        "objects": [
            "the root set before each sweep",
            "young survivors into the old space",
            "two cycles before promotion",
            "itself when fragmentation grows",
            "its referent once nothing else remains",
            "forward by the rounded object size",
        ],
    },
}


def build_book(themes: dict, seed: int) -> str:
    rng = random.Random(seed)
    lines = []
    page = 1
    for name, bank in themes.items():
        lines.append(f"@@PAGE {page}@@")
        combos = [
            (s, v, o)
            for s in bank["subjects"]
            for v in bank["verbs"]
            for o in bank["objects"]
        ]
        rng.shuffle(combos)
        for s, v, o in combos[:30]:
            lines.append(f"{s} {v} {o}.")
        page += 1
    return "\n".join(lines) + "\n"


QUESTIONS = [
    {
        "id": "vex-1",
        "tag": "vex",
        "title": "How do you declare a variable in vex?",
        "body": "I want to know how a let binding stores a name and which table the compiler checks.",
        "accepted_answer": "A let binding binds each name to a typed slot inside one flat table.",
        "views": 900,
    },
    {
        "id": "vex-2",
        "tag": "vex",
        "title": "What does a vex function return to the caller?",
        "body": "My routine evaluates several expressions and I am unsure which value the call frame yields.",
        "accepted_answer": "A vex function returns exactly one value, the last expression of the body.",
        "views": 700,
    },
    {
        "id": "vex-3",
        "tag": "vex",
        "title": "How does a vex list grow when it is full?",
        "body": "Appending many elements seems cheap and I want to understand the growth policy of the backing buffer.",
        "accepted_answer": "The growth policy doubles the backing buffer and copies elements in one contiguous block.",
        "views": 500,
    },
    {
        "id": "orm-1",
        "tag": "orm",
        "title": "How does a message send pick a method in orm?",
        "body": "I send a selector to an object and wonder how the dispatch table and the lookup path find the method.",
        "accepted_answer": "The dispatch table selects a method by the receiver class and climbs the superclass chain until a match.",
        "views": 800,
    },
    {
        "id": "orm-2",
        "tag": "orm",
        "title": "What does an orm stream do with bytes before a flush?",
        "body": "Writes look batched and I want to know how the stream buffers data and when the page drains.",
        "accepted_answer": "An orm stream buffers bytes in fixed sized pages and drains the page once it fills up.",
        "views": 600,
    },
    {
        "id": "orm-3",
        "tag": "orm",
        "title": "When does the orm collector move an object to the old space?",
        "body": "Short lived objects disappear quickly and I want to know how many cycles a live object survives before promotion.",
        "accepted_answer": "A minor cycle moves young survivors into the old space after two cycles.",
        "views": 400,
    },
]

CONFIG = """\
[experiment]
seed = 7
modes = genai, rag, rag_coi
cache_dir = cache
output_dir = out

[questions]
path = questions.jsonl

[corpus.vex]
path = vex_book.txt
title = The Vex Language Handbook

[corpus.orm]
path = orm_book.txt
title = Programming in Orm

[embedder]
kind = hashed
dims = 256

[bank]
generator = bankgen

[planner]
pool_size = 25
per_question_chunks = 10
selected = 5

[adherence]
threshold = 0.7
matching = whole_clause

[stats]
fdr_q = 0.05
bootstrap_samples = 2000

[model.bankgen]
kind = scripted
behavior = qa_stub
answer = false

[model.mock-a]
kind = scripted
behavior = context_echo

[model.mock-b]
kind = scripted
behavior = context_echo_short
"""


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "vex_book.txt").write_text(build_book(VEX_THEMES, seed=11), encoding="utf-8")
    (OUT / "orm_book.txt").write_text(build_book(ORM_THEMES, seed=23), encoding="utf-8")
    with open(OUT / "questions.jsonl", "w", encoding="utf-8") as fh:
        for q in QUESTIONS:
            fh.write(json.dumps(q, ensure_ascii=False, sort_keys=True) + "\n")
    (OUT / "config.ini").write_text(CONFIG, encoding="utf-8")
    print(f"wrote fixture to {OUT}")


if __name__ == "__main__":
    main()
