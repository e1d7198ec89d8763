"""Assemble the three prompt modes: genai, rag, and rag_coi.

All three decode with ``DECODING`` and are sent as a user message. The
rag_coi prompt is the rag prompt with the planner's question-context pairs
appended after the primary text chunks, so an empty plan degrades
byte-for-byte to plain rag.
"""

from pathlib import Path

from coi_rag import (
    DECODING,
    HashedEmbedder,
    IllocutionPlan,
    QuestionBank,
    QuestionRecord,
    ScriptedGenerator,
    assemble_genai,
    assemble_rag,
    assemble_rag_coi,
    build_bank,
    build_index,
    chunk,
    plan,
    read_document,
)

FIXTURE = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "golden"
TITLE = "The Vex Language Handbook"

embedder = HashedEmbedder(256)
doc = read_document(FIXTURE / "vex_book.txt", doc_id="vex", title=TITLE)
chunks = chunk(doc)
index = build_index([(c.id, c.text, c) for c in chunks], embedder)
bank = QuestionBank(
    build_bank(chunks, ScriptedGenerator(model_id="stub", behavior="qa_stub"), tag="vex"),
    embedder,
)

q = QuestionRecord(
    id="demo", tag="vex",
    title="What does a vex function return to the caller?",
    body="My routine evaluates several expressions.",
    accepted_answer="", views=1,
)

genai = assemble_genai(q)
print("=== genai ===")
print(genai.text)
print(f"[decoding temperature={DECODING[0]}, top_p={DECODING[1]}]")

primary = [index.payload(k) for k, _ in index.top_k(embedder.embed([q.query_text()])[0], 3)]
rag = assemble_rag(q, TITLE, primary)
print("\n=== rag (first 12 lines) ===")
print("\n".join(rag.text.splitlines()[:12]))

scaffold = plan(q, bank, index, embedder, per_question_chunks=3)
coi = assemble_rag_coi(q, TITLE, primary, scaffold)
implicit_lines = [ln for ln in coi.text.splitlines() if ln.startswith("Implicit question")]
print(f"\n=== rag_coi adds {len(implicit_lines)} implicit-question blocks ===")
for ln in implicit_lines:
    print(" ", ln)

empty = assemble_rag_coi(q, TITLE, primary, IllocutionPlan(primary=q))
print("\nempty plan degrades to rag byte-for-byte:", empty.text == rag.text)
