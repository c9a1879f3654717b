"""Condition post-processing baseline: force every string literal in a
predicted SQL query that is not a cell onto the most similar cell of its
column.

The extraction reads the query's SELECT cores through `sqllex`, not a
full SQL parse, so it degrades gracefully on malformed predictions: each
string comparison in a core's WHERE or HAVING clause, or in an
aggregate's FILTER (WHERE …), is resolved against that core's own FROM
tables and aliases. Replacement is the retriever's top-ranked cell, with
no minimum score by default; that forced behavior is the point of the
baseline, and a threshold exists only as an opt-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from typing import Iterator

from . import retriever
# unused here; perfbench/tracing.py still reads and swaps postprocess.TrigramBackend
from .retriever import TrigramBackend  # noqa: F401
from .schema_catalog import CellIndex, SchemaCatalog
from .sqllex import (STRING_KINDS, Core, Token, from_items, name, quote, select_cores,
                     tokenize, unquote, word)


@dataclass(frozen=True)
class ExtractedCondition:
    table: str | None
    column: str
    op: str
    literal: str
    start: int  # span of the quoted literal token
    end: int
    quote: str


def extract_conditions(sql: str) -> list[ExtractedCondition]:
    """String-literal comparisons inside the WHERE/HAVING clauses and the
    aggregate FILTER (WHERE …) groups of every SELECT core, in textual
    order, with byte spans for in-place rewriting. Unrecognizable input
    yields an empty list.
    """
    return sorted((c for core in select_cores(tokenize(sql)) for c in _conditions(core)),
                  key=lambda condition: condition.start)


def _condition_runs(core: Core) -> Iterator[list[Token]]:
    """A core's WHERE and HAVING runs, and elsewhere the body of each
    aggregate's FILTER (WHERE …); one inside HAVING is read with that run."""
    for clause, run in core.clauses:
        if clause in ("where", "having"):
            yield run
            continue
        for i, token in enumerate(run[:-2]):
            if word(token) == "filter" and run[i + 1].text == "(" and word(run[i + 2]) == "where":
                yield list(takewhile(lambda t: t.depth > token.depth, run[i + 3:]))


def _conditions(core: Core) -> Iterator[ExtractedCondition]:
    for run in _condition_runs(core):
        for i, token in enumerate(run):
            # the lexer's `op` tokens are exactly the comparison operators
            if token.kind not in STRING_KINDS or i < 2 or \
                    run[i - 1].kind != "op" and word(run[i - 1]) != "like":
                continue
            op = "LIKE" if run[i - 1].kind == "word" else run[i - 1].text.replace("<>", "!=")
            # look back for [table .] column
            column = name(run[i - 2])
            if column is None:
                continue
            table = name(run[i - 4]) if i >= 4 and run[i - 3].text == "." else None
            yield ExtractedCondition(table=table, column=column, op=op, literal=unquote(token),
                                     start=token.start, end=token.end, quote=token.text[0])


def rewrite(sql: str, catalog: SchemaCatalog, index: CellIndex, *,
            min_score: float = 0.0) -> str:
    """Replace each extracted literal with the most similar raw cell of its
    resolved column. A literal that already is a cell, and ambiguous or
    unindexed columns, leave the literal untouched; everything outside
    literal spans is byte-preserved.
    """
    replacements: list[tuple[int, int, str]] = []
    for core in select_cores(tokenize(sql)):
        items = from_items(core)
        # a core naming no known table leaves the whole catalog as its scope
        scope = [item.table for item in items
                 if item.table and catalog.table(item.table)] or None
        # a derived table's alias maps to None: it names no catalog table
        aliases = {item.alias.lower(): item.table for item in items if item.alias is not None}
        for condition in _conditions(core):
            table = condition.table
            if table is not None:
                table = aliases.get(table.lower(), table)
                if table is None:
                    continue
            found = catalog.resolve(table, condition.column, scope)
            if found.status != "ok":
                continue
            cells = index.column_cells(found.table.name, found.column.name)
            # a literal that already is a cell stays, as the retriever's match does
            if cells is None or not cells.cells or condition.literal in cells:
                continue
            # looked up on the module per call, so a wrapper there sees this ranking
            best = retriever.rank_candidates(condition.literal, cells, 1)[0]
            if best.score < min_score:
                continue
            replacements.append((condition.start, condition.end,
                                 quote(best.raw_value, condition.quote)))
    for start, end, text in sorted(replacements, reverse=True):
        sql = sql[:start] + text + sql[end:]
    return sql
