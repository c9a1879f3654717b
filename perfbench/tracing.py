"""Span recorder for the benchmark, kept outside the program.

Each public function the benchmark measures is replaced, for the length of
one pass, by a wrapper that records a span (name, start, end, parent span,
example id) around the original call.  A name is patched where its caller
looks it up:

* ``sqlmend.orchestrator`` imports ``parse_actions``, ``inspect_sequence``
  and ``detect`` by name at module import, so they are patched there;
* ``pipeline_predictor`` binds ``run``, ``assemble``, ``predict_connectives``,
  ``load_catalog`` and ``build_cell_index`` from their modules when the
  factory is called, so the patches go in before it is called;
* ``run_benchmark`` imports ``load_catalog`` and ``build_cell_index`` when
  called and ``rewrite`` inside its per-example ``score``;
* ``check_condition`` calls ``rank_candidates`` and ``execution_accuracy``
  calls ``execute_sql`` through their own module globals.

Counts are taken at the same boundaries from arguments and results, after
the span has closed, so counting is not charged to the measured layer.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import sqlmend.assembler
import sqlmend.evaluation
import sqlmend.orchestrator
import sqlmend.postprocess
import sqlmend.retriever
import sqlmend.schema_catalog
from sqlmend.postprocess import extract_conditions
from sqlmend.retriever import Matched, Mismatch

SETUP_SPANS = ("schema_catalog.load_catalog", "schema_catalog.build_cell_index")
PREDICT_SPAN = "bench.predict"
AGENT_SPAN = "bench.agent"


def _cells_indexed(rec, args, kwargs, index) -> None:
    rec.counts["schema_catalog.cells_indexed"] += sum(
        len(index.column_cells(t, c).cells) for t, c in index.columns())


def _verdicts(rec, args, kwargs, verdicts) -> None:
    for _path, verdict in verdicts:
        key = ("matched" if isinstance(verdict, Matched)
               else "mismatch" if isinstance(verdict, Mismatch) else "not_applicable")
        rec.counts[f"retriever.verdicts.{key}"] += 1


def _ranked(rec, args, kwargs, result) -> None:
    cells = args[1] if len(args) > 1 else kwargs["cells"]
    rec.counts["retriever.cells_scored"] += len(cells.cells)


def _findings(rec, args, kwargs, findings) -> None:
    rec.counts["detector.findings"] += len(findings)


def _run_outcome(rec, args, kwargs, trace) -> None:
    rec.counts["orchestrator.iterations"] += len(trace.iterations)
    rec.counts["orchestrator.approved"] += bool(trace.iterations and trace.iterations[-1][1].approved)
    rec.counts["orchestrator.fallback"] += bool(trace.fallback_applied)


def _rewritten(rec, args, kwargs, sql) -> None:
    before = [c.literal for c in extract_conditions(args[0])]
    after = [c.literal for c in extract_conditions(sql)]
    rec.counts["postprocess.literals_changed"] += sum(a != b for a, b in zip(before, after))


def _em(rec, args, kwargs, result) -> None:
    rec.counts["evaluation.em_covered"] += result is not None


# (module, attribute, span name, count hook)
TRACED = (
    (sqlmend.schema_catalog, "load_catalog", "schema_catalog.load_catalog", None),
    (sqlmend.schema_catalog, "build_cell_index", "schema_catalog.build_cell_index",
     _cells_indexed),
    (sqlmend.orchestrator, "parse_actions", "actions.parse_actions", None),
    (sqlmend.orchestrator, "inspect_sequence", "retriever.inspect_sequence", _verdicts),
    (sqlmend.retriever, "rank_candidates", "retriever.rank_candidates", _ranked),
    (sqlmend.orchestrator, "detect", "detector.detect", _findings),
    (sqlmend.orchestrator, "run", "orchestrator.run", _run_outcome),
    (sqlmend.assembler, "assemble", "assembler.assemble", None),
    (sqlmend.assembler, "predict_connectives", "assembler.predict_connectives", None),
    (sqlmend.postprocess, "rewrite", "postprocess.rewrite", _rewritten),
    (sqlmend.evaluation, "execution_accuracy", "evaluation.execution_accuracy", None),
    (sqlmend.evaluation, "execute_sql", "evaluation.execute_sql", None),
    (sqlmend.evaluation, "exact_match", "evaluation.exact_match", _em),
)
UNTRACED = tuple(p for p in TRACED if p[2] in SETUP_SPANS)


class Recorder:
    """Spans and counts of one pass.

    A span is ``[name, start, end, parent index, example id]``; the parent
    index is -1 for a span with no enclosing span.  Untraced passes record
    only the set-up spans and the predictor entries that the end-to-end
    metrics need.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.example: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.example]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch the measured names for the duration of one pass."""
        saved = []
        table = TRACED if self.traced else UNTRACED
        try:
            for module, attr, name, hook in table:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, getattr(module, attr), hook))
            if self.traced:
                saved.append((sqlmend.postprocess, "TrigramBackend",
                              sqlmend.postprocess.TrigramBackend))
                sqlmend.postprocess.TrigramBackend = self._counting_backend()
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _counting_backend(self):
        """The post-processing scorer, counting literals and the cell texts
        passed to it."""
        counts = self.counts

        class CountingTrigramBackend(sqlmend.retriever.TrigramBackend):
            def score(self, query, texts):
                counts["postprocess.literals"] += 1
                counts["postprocess.cells_scored"] += len(texts)
                return super().score(query, texts)

        return CountingTrigramBackend

    # -- analysis ----------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Self time per span name in ms: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _ex in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _ex) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * 1000.0
        return dict(out)

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def setup_s(self) -> float:
        return sum(end - start for name, start, end, _p, _e in self.spans
                   if name in SETUP_SPANS)

    def example_ms(self, pass_end: float) -> dict[str, float]:
        """Per-example wall time by example id: the interval from one
        predictor entry to the next (the last one ends with the pass), minus
        the set-up spans that start inside it."""
        entries = [(span[1], span[4]) for span in self.spans if span[0] == PREDICT_SPAN]
        setups = [(s, e - s) for name, s, e, _p, _x in self.spans if name in SETUP_SPANS]
        out = {}
        for i, (start, example) in enumerate(entries):
            end = entries[i + 1][0] if i + 1 < len(entries) else pass_end
            inside = sum(d for s, d in setups if start <= s < end)
            out[example] = (end - start - inside) * 1000.0
        return out


def write_spans(path: Path, recorders: list[Recorder]) -> None:
    """One JSON object per span, for every recorded pass."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for number, rec in enumerate(recorders):
            for i, (name, start, end, parent, example) in enumerate(rec.spans):
                handle.write(json.dumps({"pass": number, "span": i, "name": name,
                                         "start": start, "end": end, "parent": parent,
                                         "example": example}) + "\n")
