"""Database cell retrieval: match checks for conditional actions and
ranked similar-cell feedback when a literal matches nothing.

The match test is byte equality against raw cell values, so a Matched
verdict predicts that the assembled equality condition can select rows.
Ranking scores cosine similarity over character-trigram profiles of
normalized text and needs no model or network.

rank_candidates is the one ranking path, for the retriever's feedback and
for the post-processing baseline alike. A column's first miss builds its
TrigramPostings, an exact inverted index from each trigram to the cells
that hold it, and caches it on the column's ColumnCells. Every miss scores
only the cells that share a trigram with the literal, with the same
integer dot products and the same float arithmetic as TrigramBackend, so
every score and ranking equals the brute-force one; cells that share none
score 0.0.

The build and the ranking loop over cells and trigrams in C iterators
(map, zip, compress), not in bytecode. The build joins 2,048 padded cells
into one string and reads its trigrams in order. It rests on two facts: no
normalized cell holds the trigram "   ", so every one read belongs to the
padding between two cells and is dropped; and cell positions ascend in
every posting, so a trigram repeated within one cell is a run of its
position there. The ranking sorts only the touched cells whose score
reaches the k-th best.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, count, islice, repeat
from operator import add, eq, ge, gt, mul, not_, truediv
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
from .schema_catalog import CellIndex, SchemaCatalog, normalize_cell, normalize_cells

EQUALITY_OPS = ("=", "!=", "IN", "NOT IN")

DEFAULT_CANDIDATES = 5

_CHUNK = 2048  # cells read as one string; bounds the build's extra memory
_GAP = "   "  # the trigram of the padding between two cells
_SEPARATOR = array("i", [-1]).tobytes()  # between flattened postings: no cell's position
_NO_CELLS = array("i")  # a new posting copies it, which is faster than array("i")


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
    table: str  # the resolved column the literal missed
    column: str
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

    The build reads _CHUNK cells at a time as one string, each cell
    padded by two spaces on each side. A normalized form holds no two
    spaces in a row, so no cell holds the trigram "   ", and each one
    read from the string belongs to the gap between two cells. Positions
    ascend in every posting, so a trigram repeated within one cell is a
    run of its position, and each pair of equal entries in a run adds 2
    to the cell's squared length.
    """

    def __init__(self, cells: Sequence[str]):
        self.cells = cells
        self.grams: dict[str, array] = defaultdict(_NO_CELLS.__copy__)
        self.lengths = array("d")
        self.empty: list[int] = []
        for start in range(0, len(cells), _CHUNK):
            stop = min(start + _CHUNK, len(cells))
            norms = normalize_cells(cells[start:stop])
            sizes = list(map(len, norms))
            empty = list(compress(range(start, stop), map(not_, sizes)))
            text = "  " + "    ".join(norms) + "  "
            del norms  # the text holds them; this bounds the build's peak memory
            # each cell's n + 2 trigrams, then the two gap trigrams after it
            ids = chain.from_iterable(map(repeat, range(start, stop), map(add, sizes, repeat(4))))
            # the first chunk posts straight into the index; a later one
            # posts apart, so that each is scanned for repeats alone
            chunk = defaultdict(_NO_CELLS.__copy__) if start else self.grams
            deque(map(array.append, map(chunk.__getitem__, map("".join, zip(text, text[1:], text[2:]))),
                      ids), 0)
            chunk.pop(_GAP, None)
            # a cell's squared length: its n + 2 trigrams, plus 2 for each
            # pair of equal ones; an empty cell's is 0
            sumsq = list(map(add, sizes, repeat(2)))
            for i in empty:
                sumsq[i - start] = 0
            for i in _equal_pairs(chunk.values()):
                sumsq[i - start] += 2
            if start:
                deque(map(array.extend, map(self.grams.__getitem__, chunk), chunk.values()), 0)
            self.lengths.extend(map(math.sqrt, sumsq))
            self.empty += empty

    def top(self, query: str, k: int) -> list[tuple[str, float]]:
        """The k best (raw, score) pairs by TrigramBackend's score of the
        query, in (score desc, raw asc) order."""
        if k == 0:
            return []
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
            # each touched cell's score, unclipped
            scores = list(map(truediv, dots.values(),
                              map(mul, repeat(query_length), map(self.lengths.__getitem__, dots))))
            # an equal form has an equal profile, so dot == query_sumsq
            for j, i in compress(enumerate(dots), map(eq, dots.values(), repeat(query_sumsq))):
                if normalize_cell(cells[i]) == query_norm:
                    scores[j] = 1.0
            # min(1.0, score) is monotone, so the cells whose score reaches
            # the k-th best one, clipped, hold the k best
            floor = min(1.0, heapq.nlargest(k, scores)[-1]) if k < len(scores) else 0.0
            ranked = sorted((-min(1.0, score), cells[i]) for score, i in
                            compress(zip(scores, dots), map(ge, scores, repeat(floor))))
            ranked = [(raw, -key) for key, raw in ranked[:k]]
            scored = dots.keys()
        else:
            ranked = [(cells[i], 1.0) for i in self.empty[:k]]
            scored = set(self.empty)
        # scored cells score above 0.0; the others fill the rest with 0.0
        ranked += islice(((raw, 0.0) for i, raw in enumerate(cells) if i not in scored),
                         k - len(ranked))
        return ranked


def _equal_pairs(postings):
    """A cell's position once for each pair of equal entries it has
    within one posting. Entries ascend, so equal ones form a run, and a
    run of c holds c - d pairs d apart for each d < c."""
    # a posting of one entry holds no pair
    flat = memoryview(_SEPARATOR.join(compress(postings, map(gt, map(len, postings), repeat(1)))))
    flat = flat.cast("i")
    # the first of each pair one apart, then of each pair two apart, ...
    at = list(compress(count(), map(eq, flat, islice(flat, 1, None))))
    while at:
        yield from map(flat.__getitem__, at)
        ends = set(at)
        at = list(compress(at, map(ends.__contains__, map(add, at, repeat(1)))))


def rank_candidates(literal: str, cells, k: int) -> tuple[CellCandidate, ...]:
    """Top-k cells of one column by similarity to the literal, ranked
    through the column's postings; strict (score desc, raw asc) ordering
    for determinism."""
    return tuple(
        CellCandidate(table=cells.table, column=cells.column, raw_value=raw, score=score)
        for raw, score in cells.postings.top(literal, k)
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
    missed = partial(Mismatch, table=table_info.name, column=column_info.name)
    if cells is None:
        return missed(candidates=())
    for literal in probes:
        if literal not in cells:
            return missed(candidates=rank_candidates(literal, cells, k))
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
