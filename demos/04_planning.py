"""Plan the implicit-question scaffold for one primary question.

The planner over-generates a pool of 25 candidate questions (bank
retrieval plus "What is {X}?" templates), retrieves up to 10 chunks per
candidate, gives each contested chunk to the candidate that scores it
highest, drops candidates left without evidence, and keeps the best 5.
"""

from pathlib import Path

from coi_rag import (
    HashedEmbedder,
    QuestionBank,
    QuestionRecord,
    ScriptedGenerator,
    build_bank,
    build_index,
    chunk,
    plan,
    pool_ratio_check,
    read_document,
)

FIXTURE = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "golden"

embedder = HashedEmbedder(256)
doc = read_document(FIXTURE / "vex_book.txt", doc_id="vex")
chunks = chunk(doc)
chunk_index = build_index([(c.id, c.text, c) for c in chunks], embedder)
bank = QuestionBank(
    build_bank(chunks, ScriptedGenerator(model_id="stub", behavior="qa_stub"), tag="vex"),
    embedder,
)

primary = QuestionRecord(
    id="demo", tag="vex",
    title="How does a vex list grow when it is full?",
    body="Appending many elements seems cheap and I want to understand the growth policy.",
    accepted_answer="", views=1,
)

print("pool ratio healthy (M >= 5m):", pool_ratio_check(25, 5))
scaffold = plan(primary, bank, chunk_index, embedder,
                pool_size=25, per_question_chunks=10, keep=5)

print(f"\nprimary: {primary.title}")
print(f"selected {len(scaffold.selected)} implicit questions:")
for i, sel in enumerate(scaffold.selected, 1):
    ids = ", ".join(c.id for c, _ in sel.chunks[:3])
    more = "..." if len(sel.chunks) > 3 else ""
    print(f"  {i}. [{sel.best_score:.3f}] ({sel.question.origin}) {sel.question.text}")
    print(f"       evidence: {ids}{more}")

ids = scaffold.chunk_ids()
assert len(ids) == len(set(ids))
print("\nno chunk is assigned to two different implicit questions")
