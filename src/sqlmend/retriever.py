"""Database cell retrieval: match checks for conditional actions and
ranked similar-cell feedback when a literal matches nothing.

The match test is byte equality against raw cell values, so a Matched
verdict predicts that the assembled equality condition can select rows.
Ranking scores cosine similarity over character-trigram profiles of
normalized text and needs no model or network.

A column's first miss builds its TrigramPostings, an exact inverted index
from each trigram to the cells that hold it, and caches it on the column's
ColumnCells. Later misses score only the cells that share a trigram with
the literal, with the same integer dot products and the same float
arithmetic as TrigramBackend, so every score and ranking equals the
brute-force one; cells that share none score 0.0.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import islice
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


def _trigrams(normalized: str) -> list[str]:
    """The trigrams of normalized text, padded by two spaces, in order."""
    padded = f"  {normalized}  "
    return [padded[i:i + 3] for i in range(len(padded) - 2)]


def _trigram_profile(normalized: str) -> Counter:
    """Trigram counts of normalized text."""
    return Counter(_trigrams(normalized))


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


class TrigramPostings:
    """Exact trigram postings of one column's cells: TrigramBackend's
    ranking without a pass over every cell.

    Each trigram maps to the positions of the cells whose profile holds
    it, a position repeated once per occurrence, so counting a literal's
    postings, each repeated by its own weight, gives its integer dot
    product with every cell. `lengths` holds each cell's profile length.
    Cells with an empty normalized form post nothing and are listed in
    `empty`. `cells` must be sorted, as ColumnCells keeps them.
    """

    def __init__(self, cells: Sequence[str]):
        self.cells = cells
        self.grams: dict[str, array] = defaultdict(partial(array, "i"))
        self.lengths = array("d")
        self.empty: list[int] = []
        for i, raw in enumerate(cells):
            normalized = normalize_cell(raw)
            if not normalized:
                self.empty.append(i)
                self.lengths.append(0.0)
                continue
            grams = _trigrams(normalized)
            # n distinct trigrams weigh 1 each, so _length would give sqrt(n)
            self.lengths.append(math.sqrt(len(grams)) if len(set(grams)) == len(grams)
                                else _length(Counter(grams)))
            for gram in grams:
                self.grams[gram].append(i)

    def top(self, query: str, k: int) -> list[tuple[str, float]]:
        """The k best (raw, score) pairs by TrigramBackend's score of the
        query, in (score desc, raw asc) order."""
        cells = self.cells
        query_norm = normalize_cell(query)
        if query_norm:
            query_profile = _trigram_profile(query_norm)
            query_sumsq = sum(w * w for w in query_profile.values())
            query_length = math.sqrt(query_sumsq)
            dots: Counter = Counter()
            for gram, weight in query_profile.items():
                ids = self.grams.get(gram)
                if ids is not None:
                    dots.update(ids * weight)
            lengths = self.lengths
            # (-score, raw) per touched cell, made as the heap reads it; an
            # equal form has an equal profile, so dot == query_sumsq
            keyed = ((-1.0 if dot == query_sumsq and normalize_cell(cells[i]) == query_norm
                      else -min(1.0, dot / (query_length * lengths[i])), cells[i])
                     for i, dot in dots.items())
            scored = dots.keys()
        else:
            keyed = ((-1.0, cells[i]) for i in self.empty)
            scored = set(self.empty)
        # scored cells score above 0.0; the others fill the rest with 0.0
        ranked = [(raw, -key) for key, raw in heapq.nsmallest(k, keyed)]
        ranked += islice(((raw, 0.0) for i, raw in enumerate(cells) if i not in scored),
                         max(0, k - len(ranked)))
        return ranked


def rank_candidates(literal: str, cells, k: int, backend=None) -> tuple[CellCandidate, ...]:
    """Top-k cells of one column by similarity to the literal; strict
    (score desc, raw asc) ordering for determinism. A `backend` given
    scores every cell; otherwise the column's postings rank the literal.
    """
    if backend is None:
        ranked = cells.postings.top(literal, k)
    else:
        ranked = heapq.nsmallest(k, zip(cells.cells, backend.score(literal, cells.cells)),
                                 key=lambda pair: (-pair[1], pair[0]))
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
        if literal not in cells:
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
