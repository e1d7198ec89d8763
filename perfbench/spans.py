"""Span tracing of the pipeline from outside, by wrapping public functions.

Each wrapped name is patched where its caller looks it up: a name the
runner imported with ``from .. import`` is patched on the runner module, a
name looked up through its module or class is patched there. Spans are
kept in memory with their parent ids and turned into per-layer metrics
when the run ends; nothing is written while the run is timed.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent id, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, span: str, count=None):
        """``fn`` recorded as ``span``; ``count(args, result)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [span, self._stack[-1] if self._stack else None, time.perf_counter(), None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            self.counts[f"{span}.calls"] += 1
            if count is not None:
                self.counts.update(count(args, result))
            return result

        return traced

    def patch(self, owner, attr: str, span: str, count=None) -> None:
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(original.__func__, span, count))
        else:
            wrapped = self.wrap(original, span, count)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, trace_id: str) -> None:
        """Spans as JSON lines; ``start``/``end`` are perf_counter seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, start, end) in enumerate(self.spans):
                rec = {"trace": trace_id, "id": sid, "parent": parent, "name": name,
                       "start": start, "end": end}
                fh.write(json.dumps(rec) + "\n")

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus direct children."""
        child_time = defaultdict(float)
        for _name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for sid, (name, _parent, start, end) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[sid]
        return dict(totals)


def instrument(tracer: Tracer, fake=None) -> None:
    """Patch every layer the per-layer metrics name."""
    from coi_rag import adherence, planner, providers, question_bank, stats
    from coi_rag.bench import report, runner
    from coi_rag.vector_index import VectorIndex

    p = tracer.patch
    for stage in ("ingest", "build_bank", "plan", "answer", "evaluate", "analyze", "report"):
        p(runner, f"stage_{stage}", f"stage.{stage}")
    p(runner, "write_manifest", "stage.manifest")

    p(VectorIndex, "top_k", "vector_index.top_k",
      lambda a, r: {"vector_index.top_k.rows": len(a[0])})
    p(VectorIndex, "load", "vector_index.load")
    p(VectorIndex, "save", "vector_index.save")

    p(adherence, "extract_clauses", "adherence.extract_clauses")
    p(question_bank, "extract_clauses", "adherence.extract_clauses")
    p(runner, "build_source_index", "adherence.build_source_index",
      lambda a, r: {"adherence.source_clauses": len(r)})
    p(adherence, "match_clauses", "adherence.match_clauses",
      lambda a, r: {"adherence.ai_clauses": len(a[0])})

    for cls in (providers.HashedEmbedder, providers.RemoteEmbedder):
        p(cls, "embed", "providers.embed", lambda a, r: {"providers.embed.texts": len(a[1])})
    for cls in (providers.ScriptedGenerator, providers.RemoteGenerator):
        p(cls, "complete", "providers.complete")
    p(providers.CallCache, "get", "providers.cache.get",
      lambda a, r: {"providers.cache.hits": r is not None})
    p(providers.CallCache, "put", "providers.cache.put")
    if fake is not None:
        p(type(fake), "post", "providers.http")

    p(runner, "read_document", "corpus.read_document")
    p(runner, "chunk", "corpus.chunk", lambda a, r: {"corpus.chunks": len(r)})

    p(runner, "build_bank", "question_bank.build_bank",
      lambda a, r: {"question_bank.questions": len(r)})
    p(question_bank.QuestionBank, "load", "question_bank.load")

    p(planner, "plan", "planner.plan", lambda a, r: {"planner.selected": len(r)})
    p(runner, "generate", "prompting.generate",
      lambda a, r: {"prompting.prompt_chars": len(a[0].text)})

    p(stats, "select_paired_test", "stats.select_paired_test")
    p(report, "bootstrap_ci", "stats.bootstrap_ci")
    p(runner, "write_analysis", "report.write_analysis")
    p(runner, "write_csv_and_plots", "report.write_csv_and_plots")
