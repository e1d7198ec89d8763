"""Build an offline bank of implicit questions from textbook chunks.

A generator model reads each chunk through the Q&A extraction prompt and
emits dash-prefixed "question? answer" lines. Here a scripted generator
stands in for the model so the demo runs offline; swap in a remote
generator config to extract with a real LLM.
"""

from pathlib import Path

from coi_rag import (
    HashedEmbedder, QuestionBank, ScriptedGenerator, build_bank, chunk, read_document,
)
from coi_rag.question_bank import extract_qas
from coi_rag.templates import QA_EXTRACTION_TEMPLATE

FIXTURE = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "golden"

print("extraction prompt (head):")
print("  " + QA_EXTRACTION_TEMPLATE.splitlines()[0][:76] + "...")

generator = ScriptedGenerator(model_id="stub", behavior="qa_stub")

paragraph = (
    "A vex list doubles its backing buffer when full. "
    "The bounds checker raises an index fault on overflow."
)
print("\nparagraph:", paragraph)
for question, answer in extract_qas(paragraph, generator):
    print(f"  Q: {question}\n  A: {answer}")

doc = read_document(FIXTURE / "vex_book.txt", doc_id="vex")
chunks = chunk(doc)
bank = QuestionBank(build_bank(chunks, generator, tag="vex"), HashedEmbedder(256))
print(f"\nbank built from {len(chunks)} chunks: {len(bank)} implicit questions")
for q in bank.questions[:3]:
    print(f"  [{q.source_chunk_id}] {q.question}")
