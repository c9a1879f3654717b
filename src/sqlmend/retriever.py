"""Database cell retrieval: match checks for conditional actions and
ranked similar-cell feedback when a literal matches nothing.

The match test is byte equality against raw cell values, so a Matched
verdict predicts that the assembled equality condition can select rows.
Ranking scores cosine similarity over character-trigram profiles of
normalized text and needs no model or network.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence, Union

from .actions import (
    Action,
    ActionSequence,
    AddFrom,
    CONDITIONAL_KINDS,
    condition_column,
    value_literals,
    walk,
)
from .schema_catalog import CellIndex, SchemaCatalog, normalize_cell

EQUALITY_OPS = ("=", "!=", "IN", "NOT IN")

DEFAULT_CANDIDATES = 5


@dataclass(frozen=True)
class CellCandidate:
    table: str
    column: str
    raw_value: str
    score: float


@dataclass(frozen=True)
class Matched:
    raw_value: str


@dataclass(frozen=True)
class Mismatch:
    candidates: tuple[CellCandidate, ...]


@dataclass(frozen=True)
class NotApplicable:
    reason: str


ConditionVerdict = Union[Matched, Mismatch, NotApplicable]


def _trigram_profile(normalized: str) -> Counter:
    """Trigram counts of normalized text, padded by two spaces."""
    padded = f"  {normalized}  "
    return Counter(padded[i:i + 3] for i in range(len(padded) - 2))


def _length(profile: Counter) -> float:
    return math.sqrt(sum(w * w for w in profile.values()))


class TrigramBackend:
    """The similarity scorer: trigram-profile cosine over normalized text.
    Equal normalized forms score 1.0; an empty one scores 0.0 against any
    other."""

    def score(self, query: str, texts: Sequence[str]) -> list[float]:
        query_norm = normalize_cell(query)
        query_profile = _trigram_profile(query_norm)
        query_length = _length(query_profile)
        scores = []
        for text in texts:
            normalized = normalize_cell(text)
            if normalized == query_norm:
                scores.append(1.0)
            elif not normalized or not query_norm:
                scores.append(0.0)
            else:
                profile = _trigram_profile(normalized)
                dot = sum(weight * profile.get(gram, 0)
                          for gram, weight in query_profile.items())
                scores.append(min(1.0, dot / (query_length * _length(profile))))
        return scores


_DEFAULT_BACKEND = TrigramBackend()


def rank_candidates(literal: str, cells, k: int, backend=None) -> tuple[CellCandidate, ...]:
    """Top-k cells of one column by similarity to the literal; strict
    (score desc, raw asc) ordering for determinism. `backend` is the
    TrigramBackend that scores them, a shared one when None.
    """
    backend = backend or _DEFAULT_BACKEND
    scores = backend.score(literal, cells.cells)
    ranked = heapq.nsmallest(k, zip(cells.cells, scores), key=lambda pair: (-pair[1], pair[0]))
    return tuple(
        CellCandidate(table=cells.table, column=cells.column, raw_value=raw, score=score)
        for raw, score in ranked
    )


def check_condition(action: Action, catalog: SchemaCatalog, index: CellIndex, *,
                    k: int = DEFAULT_CANDIDATES,
                    scope_tables: Sequence[str] | None = None) -> ConditionVerdict:
    """Verdict for one conditional action.

    Matched iff the text literal byte-equals a raw cell of the resolved
    column; otherwise Mismatch with top-k similar cells from that same
    column. Numeric comparisons, wildcard LIKE patterns, non-text values
    and non-TEXT columns are NotApplicable.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    column = condition_column(action)
    if column is None:
        return NotApplicable(reason="aggregate expression")

    found = catalog.resolve(column.table, column.column, scope_tables or None)
    if found.status != "ok":
        return NotApplicable(reason=f"column {column.text()!r} does not resolve uniquely")
    table_info, column_info = found.table, found.column
    if column_info.affinity != "TEXT":
        return NotApplicable(reason=f"non-text column ({column_info.affinity})")

    op = action.op
    literals = value_literals(action.value)
    if not literals or any(literal.kind != "text" for literal in literals):
        return NotApplicable(reason="non-text value")
    probes = [literal.value for literal in literals]
    if op == "LIKE":
        if any("%" in p or "_" in p for p in probes):
            return NotApplicable(reason="pattern match")
    elif op not in EQUALITY_OPS:
        return NotApplicable(reason="numeric comparison")

    cells = index.column_cells(table_info.name, column_info.name)
    if cells is None:
        return Mismatch(candidates=())
    for literal in probes:
        if literal not in cells.cells:
            return Mismatch(candidates=rank_candidates(literal, cells, k))
    return Matched(raw_value=probes[0])


def inspect_sequence(seq: ActionSequence, catalog: SchemaCatalog, index: CellIndex, *,
                     k: int = DEFAULT_CANDIDATES) -> list[tuple[tuple, ConditionVerdict]]:
    """One verdict per conditional action, in walk order, merge and
    resolved-QA children included. Paths index into the sequence tree.
    """
    out: list[tuple[tuple, ConditionVerdict]] = []
    for path, level, action in walk(seq):
        if isinstance(action, CONDITIONAL_KINDS):
            from_action = level.first(AddFrom)
            scope = list(from_action.tables) if from_action is not None else None
            out.append((path, check_condition(action, catalog, index, k=k,
                                              scope_tables=scope)))
    return out
