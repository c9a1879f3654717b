"""Condition post-processing baseline: force every string literal in a
predicted SQL query that is not a cell onto the most similar cell of its
column.

The extraction reads the query's SELECT cores through `sqllex`, not a
full SQL parse, so it degrades gracefully on malformed predictions: each
string comparison in a core's WHERE or HAVING clause, or in an
aggregate's FILTER (WHERE …), is resolved in the innermost core whose
FROM knows it, as SQL resolves a correlated reference. Replacement is the
retriever's top-ranked cell, with no minimum score by default; that
forced behavior is the point of the baseline, and a threshold exists only
as an opt-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from typing import Iterator

from . import retriever
# unused here; perfbench/tracing.py still reads and swaps postprocess.TrigramBackend
from .retriever import TrigramBackend  # noqa: F401
from .schema_catalog import CellIndex, Resolution, SchemaCatalog, TableInfo
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


def _from(core: Core, catalog: SchemaCatalog) -> tuple[list[TableInfo], dict[str, str | None]]:
    """The catalog tables a core's FROM names, in order, and each of its
    lowercased aliases with its table."""
    items = from_items(core)
    tables = [catalog.table(item.table) for item in items if item.table]
    # a derived table's alias maps to None: it names no catalog table
    aliases = {item.alias.lower(): item.table for item in items if item.alias is not None}
    return [table for table in tables if table], aliases


def _resolve(condition: ExtractedCondition, core: Core | None, froms: dict[int, tuple],
             catalog: SchemaCatalog) -> Resolution | None:
    """The column a condition compares, read in the innermost core whose
    FROM knows its qualifier or, when it has none, owns its column or
    finds it ambiguous; then in the enclosing cores outward. A qualifier
    that no FROM knows is read as a catalog table."""
    qualifier = condition.table
    while core is not None:
        tables, aliases = froms[id(core)]
        if qualifier is None:
            # a FROM naming no catalog table leaves the whole catalog as its scope
            found = catalog.resolve(None, condition.column,
                                    [table.name for table in tables] or None)
            if found.status in ("ok", "ambiguous"):
                return found
        elif qualifier.lower() in aliases:
            table = aliases[qualifier.lower()]
            return None if table is None else catalog.resolve(table, condition.column)
        elif catalog.table(qualifier) in tables:
            break
        core = core.parent
    return None if qualifier is None else catalog.resolve(qualifier, condition.column)


def rewrite(sql: str, catalog: SchemaCatalog, index: CellIndex, *,
            min_score: float = 0.0) -> str:
    """Replace each extracted literal with the most similar raw cell of its
    resolved column. A literal that already is a cell, and ambiguous,
    unresolved or unindexed columns, leave the literal untouched;
    everything outside literal spans is byte-preserved.
    """
    replacements: list[tuple[int, int, str]] = []
    cores = select_cores(tokenize(sql))
    froms = {id(core): _from(core, catalog) for core in cores}
    for core in cores:
        for condition in _conditions(core):
            found = _resolve(condition, core, froms, catalog)
            if found is None or found.status != "ok":
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
