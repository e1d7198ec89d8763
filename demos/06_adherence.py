"""Score explanations for source adherence at the clause level.

Each explanation is split into subject-predicate-object clauses; every
clause is matched to its most similar source clause by embedding cosine.
The adherence ratio counts clauses whose best match clears t=0.7, mean
similarity averages the match scores, and the adherent-clause count gives
the absolute number of grounded statements.
"""

from coi_rag import (
    AdherenceReport,
    HashedEmbedder,
    build_source_index,
    evaluate_text,
    extract_clauses,
    strip_citations,
    match_clauses,
)

SOURCE = (
    "The parser reads one token at a time. "
    "Every symbol lives inside a flat table. "
    "The compiler checks each declaration before use. "
    "A stack frame holds the local bindings. "
    "The allocator returns aligned memory blocks."
)

embedder = HashedEmbedder(256)
source = build_source_index(SOURCE, embedder)
print(f"source clauses ({len(source)}):")
for key, clause in zip(source.keys, source.clauses):
    print(f"  {key}: ({clause.subject} | {clause.predicate} | {clause.object})")

faithful = (
    "The parser reads one token at a time [p. 3]. "
    "A stack frame holds the local bindings (see page 7)."
)
clean = strip_citations(faithful)
print(f"\nfaithful explanation (citations stripped): {clean}")
report = evaluate_text(clean, source, embedder, t=0.7)
print(f"  adherence ratio {report.factscore:.2f}, mean similarity "
      f"{report.mean_similarity:.2f}, adherent clauses {report.adherent_count}")

unfaithful = (
    "The parser consults a cloud service for hints. "
    "Garbage pixies rearrange the heap at midnight."
)
report2 = evaluate_text(unfaithful, source, embedder, t=0.7)
print(f"\nunfaithful explanation:")
print(f"  adherence ratio {report2.factscore:.2f}, mean similarity "
      f"{report2.mean_similarity:.2f}, adherent clauses {report2.adherent_count}")

mixed = clean + " " + unfaithful
sims = [sim for _key, sim in match_clauses(extract_clauses(mixed), source, embedder)]
print("\nthreshold sweep on the mixed explanation:")
for t in [0.5, 0.6, 0.7, 0.8, 0.9]:
    score = AdherenceReport.from_similarities(sims, t, len(mixed.split())).factscore
    print(f"  t={t:.1f}: adherence {score:.2f}")
