"""Chain-of-illocution retrieval augmentation and source-adherence scoring.

The library splits into: corpus ingestion and chunking (:mod:`.corpus`),
embedding providers and exact vector search (:mod:`.providers`,
:mod:`.vector_index`), the implicit-question bank (:mod:`.question_bank`),
the illocution planner (:mod:`.planner`), prompt assembly and generation
(:mod:`.prompting`), clause-level adherence metrics (:mod:`.adherence`),
the statistical protocol (:mod:`.stats`), and the experiment harness
(:mod:`.bench`).
"""

from .adherence import (
    AdherenceReport,
    Clause,
    SourceClauseIndex,
    build_source_index,
    evaluate_text,
    extract_clauses,
    match_clauses,
)
from .corpus import Chunk, Document, chunk, read_document, tokenize
from .planner import (
    CandidateQuestion,
    IllocutionPlan,
    SelectedQuestion,
    plan,
    pool_ratio_check,
)
from .prompting import (
    PromptBundle,
    assemble_genai,
    assemble_rag,
    assemble_rag_coi,
    generate,
    strip_citations,
)
from .providers import (
    DECODING,
    CallCache,
    HashedEmbedder,
    ProviderError,
    RemoteEmbedder,
    RemoteGenerator,
    ScriptedGenerator,
)
from .question_bank import (
    ImplicitQuestion,
    QuestionBank,
    build_bank,
    extract_qas,
    template_questions,
)
from .records import QuestionRecord
from .vector_index import VectorIndex, build_index, clamp01, cosine

__version__ = "0.1.0"

__all__ = [
    "AdherenceReport",
    "CallCache",
    "CandidateQuestion",
    "Chunk",
    "Clause",
    "DECODING",
    "Document",
    "HashedEmbedder",
    "IllocutionPlan",
    "ImplicitQuestion",
    "PromptBundle",
    "ProviderError",
    "QuestionBank",
    "QuestionRecord",
    "RemoteEmbedder",
    "RemoteGenerator",
    "ScriptedGenerator",
    "SelectedQuestion",
    "SourceClauseIndex",
    "VectorIndex",
    "assemble_genai",
    "assemble_rag",
    "assemble_rag_coi",
    "build_bank",
    "build_index",
    "build_source_index",
    "chunk",
    "clamp01",
    "cosine",
    "evaluate_text",
    "extract_clauses",
    "extract_qas",
    "generate",
    "match_clauses",
    "plan",
    "pool_ratio_check",
    "read_document",
    "strip_citations",
    "template_questions",
    "tokenize",
]
