"""Condition post-processing baseline: force every string literal in a
predicted SQL query that is not a cell onto the most similar cell of its
column.

The extraction is a lightweight token scan, not a SQL parse, so it
degrades gracefully on malformed predictions. Replacement is the
retriever's top-ranked cell, with no minimum score by default; that
forced behavior is the point of the baseline, and a threshold exists
only as an opt-in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .retriever import TrigramBackend, rank_candidates
from .schema_catalog import CellIndex, SchemaCatalog
from .sqllex import STRING_KINDS, Token, quote, tokenize, unquote

_REGION_OPENERS = {"where", "having"}
_REGION_CLOSERS = {"select", "from", "group", "order", "limit", "union",
                   "intersect", "except", "window"}
_COMPARE_OPS = {"=", "!=", "<>", "<", "<=", ">", ">="}
_FROM_STOP = {"where", "group", "order", "limit", "having", "union",
              "intersect", "except", "select"}
_JOIN_NOISE = {"join", "inner", "left", "right", "outer", "cross", "natural", "as", "on"}


@dataclass(frozen=True)
class ExtractedCondition:
    table: str | None
    column: str
    op: str
    literal: str
    start: int  # span of the quoted literal token
    end: int
    quote: str


def _name(token: Token) -> str | None:
    """The name a word or quoted identifier token spells."""
    if token.kind == "word":
        return token.text
    return unquote(token) if token.kind == "ident" else None


def extract_conditions(sql: str) -> list[ExtractedCondition]:
    """String-literal comparisons inside WHERE/HAVING regions, in textual
    order, with byte spans for in-place rewriting. Unrecognizable input
    yields an empty list.
    """
    return _conditions(tokenize(sql))


def _conditions(tokens: list[Token]) -> list[ExtractedCondition]:
    out: list[ExtractedCondition] = []
    in_region = False
    for i, token in enumerate(tokens):
        if token.kind == "word":
            lowered = token.text.lower()
            if lowered in _REGION_OPENERS:
                in_region = True
            elif lowered in _REGION_CLOSERS:
                in_region = False
            continue
        if not in_region or token.kind not in STRING_KINDS or i < 2:
            continue
        op_token = tokens[i - 1]
        op_text = op_token.text
        if op_token.kind == "word" and op_token.text.lower() == "like":
            op_text = "LIKE"
        elif op_token.kind != "op" or op_token.text not in _COMPARE_OPS:
            continue
        # look back for [table .] column
        column = _name(tokens[i - 2])
        if column is None:
            continue
        table = _name(tokens[i - 4]) if i >= 4 and tokens[i - 3].text == "." else None
        out.append(ExtractedCondition(
            table=table, column=column, op="!=" if op_text == "<>" else op_text,
            literal=unquote(token), start=token.start, end=token.end, quote=token.text[0]))
    return out


def _from_scope(tokens: list[Token]) -> tuple[list[str], dict[str, str]]:
    """Tables named in FROM/JOIN clauses plus an alias -> table map."""
    tables: list[str] = []
    aliases: dict[str, str] = {}
    state = None  # None | "expect_table" | "after_table" | "in_on"
    for i, token in enumerate(tokens):
        name = _name(token)
        if name is None:
            if token.text == "," and state in ("after_table", "in_on"):
                state = "expect_table"
            continue
        lowered = token.text.lower() if token.kind == "word" else None
        if lowered == "from":
            state = "expect_table"
            continue
        if state is None:
            continue
        if lowered in _FROM_STOP:
            state = None
            continue
        if lowered == "join":
            state = "expect_table"
            continue
        if lowered == "on":
            state = "in_on"
            continue
        if lowered in _JOIN_NOISE:
            continue
        if state == "expect_table":
            # skip qualified column parts that slip through
            if i + 1 < len(tokens) and tokens[i + 1].text == ".":
                continue
            tables.append(name)
            state = "after_table"
        elif state == "after_table":
            aliases[name.lower()] = tables[-1]
            state = "in_on"
    return tables, aliases


def rewrite(sql: str, catalog: SchemaCatalog, index: CellIndex, *,
            min_score: float = 0.0) -> str:
    """Replace each extracted literal with the most similar raw cell of its
    resolved column. A literal that already is a cell, and ambiguous or
    unindexed columns, leave the literal untouched; everything outside
    literal spans is byte-preserved.
    """
    backend = TrigramBackend()  # read from this module per call, so it can be swapped
    tokens = tokenize(sql)
    tables, aliases = _from_scope(tokens)
    # a query naming no known table leaves the whole catalog as the scope
    scope = [t for t in tables if catalog.table(t) is not None] or None
    replacements: list[tuple[int, int, str]] = []
    for condition in _conditions(tokens):
        table = condition.table
        if table is not None:
            table = aliases.get(table.lower(), table)
        found = catalog.resolve(table, condition.column, scope)
        if found.status != "ok":
            continue
        cells = index.column_cells(found.table.name, found.column.name)
        # a literal that already is a cell stays, as the retriever's match does
        if cells is None or not cells.cells or condition.literal in cells:
            continue
        best = rank_candidates(condition.literal, cells, 1, backend)[0]
        if best.score < min_score:
            continue
        replacements.append((condition.start, condition.end,
                             quote(best.raw_value, condition.quote)))
    for start, end, text in sorted(replacements, reverse=True):
        sql = sql[:start] + text + sql[end:]
    return sql
