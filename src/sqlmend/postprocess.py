"""Condition post-processing baseline: force every string literal in a
predicted SQL query onto the most similar cell of its column.

The extraction is a lightweight token scan, not a SQL parse, so it
degrades gracefully on malformed predictions. Replacement is argmax by
similarity with no minimum score by default; that forced behavior is the
point of the baseline, and a threshold exists only as an opt-in.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .retriever import TrigramBackend
from .schema_catalog import CellIndex, SchemaCatalog

_TOKEN_RE = re.compile(
    r"""(?P<squote>'(?:[^']|'')*')
      | (?P<dquote>"(?:[^"]|"")*")
      | (?P<word>[A-Za-z_]\w*)
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<op><>|<=|>=|!=|=|<|>)
      | (?P<punct>[.,()*;])
    """,
    re.VERBOSE,
)

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


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    start: int
    end: int


def _tokenize(sql: str) -> list[_Token]:
    tokens = []
    for match in _TOKEN_RE.finditer(sql):
        kind = match.lastgroup
        tokens.append(_Token(kind=kind, text=match.group(), start=match.start(),
                             end=match.end()))
    return tokens


def _unquote(token: _Token) -> str:
    body = token.text[1:-1]
    if token.kind == "squote":
        return body.replace("''", "'")
    return body.replace('""', '"')


def _requote(value: str, quote: str) -> str:
    if quote == "'":
        return "'" + value.replace("'", "''") + "'"
    return '"' + value.replace('"', '""') + '"'


def extract_conditions(sql: str) -> list[ExtractedCondition]:
    """String-literal comparisons inside WHERE/HAVING regions, in textual
    order, with byte spans for in-place rewriting. Unrecognizable input
    yields an empty list.
    """
    tokens = _tokenize(sql)
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
        if not in_region or token.kind not in ("squote", "dquote"):
            continue
        op_token = tokens[i - 1] if i >= 1 else None
        if op_token is None:
            continue
        op_text = op_token.text
        if op_token.kind == "word" and op_token.text.lower() == "like":
            op_text = "LIKE"
        elif op_token.kind != "op" or op_token.text not in _COMPARE_OPS:
            continue
        # look back for [table .] column
        j = i - 2
        if j < 0 or tokens[j].kind != "word":
            continue
        column = tokens[j].text
        table = None
        if j >= 2 and tokens[j - 1].kind == "punct" and tokens[j - 1].text == "." \
                and tokens[j - 2].kind == "word":
            table = tokens[j - 2].text
        out.append(ExtractedCondition(
            table=table, column=column, op="!=" if op_text == "<>" else op_text,
            literal=_unquote(token), start=token.start, end=token.end,
            quote="'" if token.kind == "squote" else '"'))
    return out


def _from_scope(sql: str) -> tuple[list[str], dict[str, str]]:
    """Tables named in FROM/JOIN clauses plus an alias -> table map."""
    tokens = _tokenize(sql)
    tables: list[str] = []
    aliases: dict[str, str] = {}
    state = None  # None | "expect_table" | "after_table" | "in_on"
    last_table: str | None = None
    for i, token in enumerate(tokens):
        if token.kind != "word":
            if token.kind == "punct" and token.text == "," and state in ("after_table", "in_on"):
                state = "expect_table"
            continue
        lowered = token.text.lower()
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
            if i + 1 < len(tokens) and tokens[i + 1].kind == "punct" and tokens[i + 1].text == ".":
                continue
            tables.append(token.text)
            last_table = token.text
            state = "after_table"
        elif state == "after_table":
            if last_table is not None:
                aliases[token.text.lower()] = last_table
            state = "in_on"
    return tables, aliases


def rewrite(sql: str, catalog: SchemaCatalog, index: CellIndex, *,
            backend=None, min_score: float = 0.0) -> str:
    """Replace each extracted literal with the most similar raw cell of its
    resolved column. Ambiguous or unindexed columns leave the literal
    untouched; everything outside literal spans is byte-preserved.
    """
    backend = backend or TrigramBackend()
    tables, aliases = _from_scope(sql)
    # a query naming no known table leaves the whole catalog as the scope
    scope = [t for t in tables if catalog.table(t) is not None] or None
    replacements: list[tuple[int, int, str]] = []
    for condition in extract_conditions(sql):
        table = condition.table
        if table is not None:
            table = aliases.get(table.lower(), table)
        found = catalog.resolve(table, condition.column, scope)
        if found.status != "ok":
            continue
        cells = index.column_cells(found.table.name, found.column.name)
        if cells is None or not cells.cells:
            continue
        raws = cells.raw_values()
        scores = backend.score(condition.literal, raws)
        best_raw, best_score = min(zip(raws, scores), key=lambda p: (-p[1], p[0]))
        if best_score < min_score:
            continue
        replacements.append((condition.start, condition.end,
                             _requote(best_raw, condition.quote)))
    for start, end, text in sorted(replacements, reverse=True):
        sql = sql[:start] + text + sql[end:]
    return sql
