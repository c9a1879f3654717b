"""Automated disturbances over annotated question/SQL pairs.

Three transformations make evaluation questions harder while leaving the
gold SQL structurally intact: dropping an explicit column mention,
stripping the highlighting (quotes, capitalization, internal articles)
from a value mention, and swapping a value for a different cell of the
same column on both the question and the gold side. Outputs are labeled
machine-perturbed; they approximate a hand-curated process, they do not
reproduce it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from .actions import ColumnRef
from .schema_catalog import CellIndex, SchemaCatalog
from .sqllex import STRING_KINDS, quote, tokenize, unquote

QUOTE_CHARS = "\"'`“”‘’"
ARTICLES = frozenset({"a", "an", "the"})


class NoApplicableSpan(Exception):
    """The example has no span the disturbance can act on."""


class AnnotationError(Exception):
    """An annotated example fails validation at load time."""


@dataclass(frozen=True)
class Span:
    start: int
    end: int

    def shifted(self, delta: int) -> "Span":
        return Span(start=self.start + delta, end=self.end + delta)


@dataclass(frozen=True)
class ValueSpan:
    span: Span
    column: str  # "table.column" or bare "column"
    literal: str


@dataclass(frozen=True)
class ColumnMentionSpan:
    span: Span
    column: str


@dataclass(frozen=True)
class AnnotatedExample:
    question: str
    gold_sql: str
    db_id: str
    value_spans: tuple[ValueSpan, ...] = ()
    column_mention_spans: tuple[ColumnMentionSpan, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "question": self.question,
            "gold_sql": self.gold_sql,
            "db_id": self.db_id,
            "value_spans": [
                {"start": v.span.start, "end": v.span.end, "column": v.column,
                 "literal": v.literal}
                for v in self.value_spans],
            "column_mention_spans": [
                {"start": c.span.start, "end": c.span.end, "column": c.column}
                for c in self.column_mention_spans],
        }


def example_from_json(record: dict) -> AnnotatedExample:
    try:
        example = AnnotatedExample(
            question=record["question"],
            gold_sql=record["gold_sql"],
            db_id=record["db_id"],
            value_spans=tuple(
                ValueSpan(span=Span(v["start"], v["end"]), column=v["column"],
                          literal=v["literal"])
                for v in record.get("value_spans", ())),
            column_mention_spans=tuple(
                ColumnMentionSpan(span=Span(c["start"], c["end"]), column=c["column"])
                for c in record.get("column_mention_spans", ())),
        )
    except KeyError as exc:
        raise AnnotationError(f"missing field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise AnnotationError(f"bad annotated example: {exc}") from exc
    _validate(example)
    return example


def _validate(example: AnnotatedExample) -> None:
    spans = [v.span for v in example.value_spans] + \
            [c.span for c in example.column_mention_spans]
    texts = [example.question, example.gold_sql, example.db_id,
             *(c.column for c in example.column_mention_spans),
             *(text for v in example.value_spans for text in (v.column, v.literal))]
    if not all(isinstance(text, str) for text in texts) or not all(
            isinstance(bound, int) for span in spans for bound in (span.start, span.end)):
        raise AnnotationError("bad annotated example: texts must be strings "
                              "and span bounds integers")
    n = len(example.question)
    for span in spans:
        if not (0 <= span.start < span.end <= n):
            raise AnnotationError(f"span {span} out of bounds for question of length {n}")
    ordered = sorted(spans, key=lambda s: s.start)
    for first, second in zip(ordered, ordered[1:]):
        if second.start < first.end:
            raise AnnotationError(f"overlapping spans {first} and {second}")
    for value in example.value_spans:
        if value.literal not in example.gold_sql:
            raise AnnotationError(f"literal {value.literal!r} not found in gold SQL")


def _splice(example: AnnotatedExample, span: Span, replacement: str,
            drop_span: bool = False) -> AnnotatedExample:
    """Replace span text in the question, re-basing every other span.

    When removing text entirely (empty replacement), a doubled space at
    the junction collapses.
    """
    left = example.question[:span.start]
    right = example.question[span.end:]
    extra = 0
    if not replacement and left.endswith(" ") and right.startswith(" "):
        right = right[1:]
        extra = 1
    if not replacement and not left and right.startswith(" "):
        right = right[1:]
        extra = 1
    question = left + replacement + right
    delta = len(replacement) - (span.end - span.start) - extra

    def rebase(s: Span) -> Span | None:
        if s.start == span.start and s.end == span.end:
            if drop_span:
                return None
            return Span(start=span.start, end=span.start + len(replacement))
        if s.start >= span.end:
            return s.shifted(delta)
        return s

    value_spans = []
    for v in example.value_spans:
        new_span = rebase(v.span)
        if new_span is not None:
            value_spans.append(replace(v, span=new_span))
    mention_spans = []
    for c in example.column_mention_spans:
        new_span = rebase(c.span)
        if new_span is not None:
            mention_spans.append(replace(c, span=new_span))
    return replace(example, question=question, value_spans=tuple(value_spans),
                   column_mention_spans=tuple(mention_spans))


def remove_column_mention(example: AnnotatedExample) -> AnnotatedExample:
    """Delete the first explicit column mention from the question; the gold
    SQL is untouched.
    """
    if not example.column_mention_spans:
        raise NoApplicableSpan("no column mention spans")
    target = min(example.column_mention_spans, key=lambda c: c.span.start)
    return _splice(example, target.span, "", drop_span=True)


def _strip_quotes(text: str) -> str:
    return text.strip(QUOTE_CHARS).strip()


def _drop_internal_articles(text: str) -> str:
    words = text.split()
    kept = [words[0]] if words else []
    for word in words[1:]:
        if word in ARTICLES:
            continue
        kept.append(word)
    return " ".join(kept)


def dehighlight(text: str) -> str:
    """Quote-stripped, case-folded, internal articles dropped."""
    return _drop_internal_articles(_strip_quotes(text).casefold())


def remove_highlight(example: AnnotatedExample) -> AnnotatedExample:
    """Strip the highlighting from the first quoted-or-capitalized value
    mention. The gold SQL literal stays as is; the resulting mismatch is
    the point of the disturbance.
    """
    for value in sorted(example.value_spans, key=lambda v: v.span.start):
        text = example.question[value.span.start:value.span.end]
        quoted = len(text) >= 2 and text[0] in QUOTE_CHARS and text[-1] in QUOTE_CHARS
        if quoted or any(ch.isupper() for ch in text):
            return _splice(example, value.span, dehighlight(text))
    raise NoApplicableSpan("no quoted or capitalized value span")


def replace_common_value(example: AnnotatedExample, catalog: SchemaCatalog,
                         index: CellIndex, rng_seed: int) -> AnnotatedExample:
    """Swap the first applicable value for a different cell of the same
    column, in both the question and the gold SQL, so the gold stays
    correct. The new cell is none that a value of that column already
    names, so distinct values stay distinct.
    """
    spans = [(value, _resolved_column(catalog, value.column)) for value in example.value_spans]
    for value, column in sorted(spans, key=lambda pair: pair[0].span.start):
        if column is None:
            continue
        cells = index.column_cells(*column)
        if cells is None or len(cells.cells) < 2:
            continue
        taken = {other.literal for other, other_column in spans if other_column == column}
        candidates = [raw for raw in cells.cells if raw not in taken]
        if not candidates:
            continue
        new_cell = random.Random(rng_seed).choice(candidates)
        new_gold = _replace_sql_literal(example.gold_sql, value.literal, new_cell)
        if new_gold is None:  # no string literal of the gold holds the value
            continue
        spliced = _splice(example, value.span, new_cell)
        value_spans = tuple(
            replace(v, literal=new_cell) if v.span.start == value.span.start else v
            for v in spliced.value_spans)
        return replace(spliced, gold_sql=new_gold, value_spans=value_spans)
    raise NoApplicableSpan("no value span whose column has another cell to swap in")


def _resolved_column(catalog: SchemaCatalog, text: str) -> tuple[str, str] | None:
    ref = ColumnRef.parse(text)
    found = catalog.resolve(ref.table, ref.column)
    return (found.table.name, found.column.name) if found.status == "ok" else None


def _replace_sql_literal(sql: str, old: str, new: str) -> str | None:
    """`sql` with `old` replaced by `new` inside one string literal: the
    first literal equal to `old`, else the first that contains it (so
    `'%Fire%'` keeps its wildcards); None when no literal holds `old`."""
    literals = [token for token in tokenize(sql) if token.kind in STRING_KINDS]
    holder = next((t for t in literals if unquote(t) == old), None) \
        or next((t for t in literals if old in unquote(t)), None)
    if holder is None:
        return None
    body = unquote(holder).replace(old, new, 1)
    return sql[:holder.start] + quote(body, holder.text[0]) + sql[holder.end:]


DISTURBANCE_KINDS = ("remove_column", "remove_highlight", "replace_value")


def perturb_example(example: AnnotatedExample, kinds, seed: int,
                    catalog: SchemaCatalog | None = None,
                    index: CellIndex | None = None) -> tuple[AnnotatedExample, list[str]]:
    """Apply the selected disturbances in order, skipping inapplicable
    ones; returns the result and the list of kinds that actually fired.
    """
    applied: list[str] = []
    for kind in DISTURBANCE_KINDS:
        if kind not in kinds:
            continue
        try:
            if kind == "remove_column":
                example = remove_column_mention(example)
            elif kind == "remove_highlight":
                example = remove_highlight(example)
            else:
                if catalog is None or index is None:
                    continue
                example = replace_common_value(example, catalog, index, seed)
            applied.append(kind)
        except NoApplicableSpan:
            continue
    return example, applied


def read_examples(path: str | Path) -> list[AnnotatedExample]:
    examples = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                examples.append(example_from_json(json.loads(line)))
            except (json.JSONDecodeError, AnnotationError) as exc:
                raise AnnotationError(f"line {line_number}: {exc}") from exc
    return examples


def write_examples(handle, records) -> None:
    for record in records:
        handle.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")
