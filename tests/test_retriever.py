from __future__ import annotations

import math
import sys
import threading
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqlmend import retriever
from sqlmend.actions import AddWhere, ColumnRef, Literal, LiteralList, parse_actions
from sqlmend.retriever import (
    Matched,
    Mismatch,
    NotApplicable,
    TrigramBackend,
    check_condition,
    inspect_sequence,
    rank_candidates,
)
from sqlmend.schema_catalog import ColumnCells, Database, normalize_cell


def where(column: str, op: str, value) -> AddWhere:
    table = None
    if "." in column:
        table, column = column.split(".", 1)
    if isinstance(value, str):
        literal = Literal(kind="text", value=value)
    elif isinstance(value, (list, tuple)):
        literal = LiteralList(items=tuple(Literal(kind="text", value=v) for v in value))
    else:
        literal = Literal(kind="number", value=value)
    return AddWhere(column=ColumnRef(column=column, table=table), op=op, value=literal)


def similarity(a: str, b: str) -> float:
    return TrigramBackend().score(a, [b])[0]


def test_similarity_identity():
    assert similarity("Todd Casey", "Todd Casey") == 1.0


def test_similarity_disjoint_trigrams():
    assert similarity("abc", "xyz") == 0.0


def test_similarity_case_fold_normalization():
    assert similarity("todd casey", "Todd Casey") == 1.0


def test_similarity_partial_overlap_is_strictly_between():
    score = similarity("Todd Casey", "todd case")
    assert 0.0 < score < 1.0


@given(st.text(max_size=20), st.text(max_size=20))
@settings(max_examples=200)
def test_similarity_symmetric_and_bounded(a, b):
    ab, ba = similarity(a, b), similarity(b, a)
    assert ab == pytest.approx(ba)
    assert 0.0 <= ab <= 1.0


@given(st.text(min_size=1, max_size=20))
@settings(max_examples=200)
def test_similarity_self_is_one(a):
    assert similarity(a, a) == 1.0


def test_mismatch_ranks_normalized_equal_cell_first(episode_catalog, episode_index):
    verdict = check_condition(where("written_by", "=", "todd casey"),
                              episode_catalog, episode_index)
    assert isinstance(verdict, Mismatch)
    top = verdict.candidates[0]
    assert top.raw_value == "Todd Casey"
    assert top.score == 1.0
    assert top.table == "episode" and top.column == "written_by"


def test_exact_presence_is_matched(episode_catalog, episode_index):
    verdict = check_condition(where("written_by", "=", "Todd Casey"),
                              episode_catalog, episode_index)
    assert verdict == Matched(raw_value="Todd Casey")


def test_numeric_comparison_not_applicable(episode_catalog, episode_index):
    verdict = check_condition(where("episode.id", ">", 5), episode_catalog, episode_index)
    assert isinstance(verdict, NotApplicable)


def test_non_text_column_not_applicable(episode_catalog, episode_index):
    verdict = check_condition(where("pairing.rating", "=", "7.5"),
                              episode_catalog, episode_index)
    assert isinstance(verdict, NotApplicable)
    assert "non-text column" in verdict.reason


def test_wildcard_like_not_applicable(episode_catalog, episode_index):
    verdict = check_condition(where("title", "LIKE", "%Love%"),
                              episode_catalog, episode_index)
    assert isinstance(verdict, NotApplicable)


def test_wildcardless_like_is_checked(episode_catalog, episode_index):
    verdict = check_condition(where("title", "LIKE", "Double Down"),
                              episode_catalog, episode_index)
    assert verdict == Matched(raw_value="Double Down")


def test_in_list_all_members_matched(episode_catalog, episode_index):
    verdict = check_condition(where("title", "IN", ["Double Down", "The Firefly"]),
                              episode_catalog, episode_index)
    assert verdict == Matched(raw_value="Double Down")


def test_in_list_missing_member_mismatches(episode_catalog, episode_index):
    verdict = check_condition(where("title", "IN", ["Double Down", "double down 2"]),
                              episode_catalog, episode_index)
    assert isinstance(verdict, Mismatch)


def test_empty_literal_is_a_mismatch_with_candidates(episode_catalog, episode_index):
    verdict = check_condition(where("title", "=", ""), episode_catalog, episode_index)
    assert isinstance(verdict, Mismatch)
    assert len(verdict.candidates) > 0


def test_unresolved_column_not_applicable(episode_catalog, episode_index):
    verdict = check_condition(where("flavor", "=", "x"), episode_catalog, episode_index)
    assert isinstance(verdict, NotApplicable)


def test_ambiguous_unqualified_column_not_applicable(episode_catalog, episode_index):
    # id exists in all three tables
    verdict = check_condition(where("id", "=", "3"), episode_catalog, episode_index)
    assert isinstance(verdict, NotApplicable)


def test_candidates_limited_to_k_and_ordered(episode_catalog, episode_index):
    verdict = check_condition(where("title", "=", "the"), episode_catalog,
                              episode_index, k=3)
    assert isinstance(verdict, Mismatch)
    assert len(verdict.candidates) == 3
    scores = [c.score for c in verdict.candidates]
    assert scores == sorted(scores, reverse=True)


def test_candidates_all_from_same_column(episode_catalog, episode_index):
    verdict = check_condition(where("written_by", "=", "nobody"),
                              episode_catalog, episode_index, k=10)
    assert isinstance(verdict, Mismatch)
    assert {(c.table, c.column) for c in verdict.candidates} == {("episode", "written_by")}


def test_candidate_ordering_is_deterministic(episode_catalog, episode_index):
    first = check_condition(where("title", "=", "xx"), episode_catalog, episode_index)
    second = check_condition(where("title", "=", "xx"), episode_catalog, episode_index)
    assert first == second


def test_rank_candidates_tie_break_is_raw_ascending(episode_index):
    cells = episode_index.column_cells("network", "name")
    ranked = rank_candidates("zzz", cells, k=5)
    assert [c.raw_value for c in ranked] == ["ABC", "Fox"]  # both score 0.0


def test_check_condition_ranks_through_the_module_global(monkeypatch, episode_catalog,
                                                         episode_index):
    # perfbench/tracing.py times ranking by swapping this name
    calls = []
    rank = retriever.rank_candidates

    def counting(literal, cells, k, *args):
        calls.append((literal, cells.column, k))
        return rank(literal, cells, k, *args)

    monkeypatch.setattr(retriever, "rank_candidates", counting)
    hit = check_condition(where("written_by", "=", "Todd Casey"), episode_catalog, episode_index)
    assert hit == Matched(raw_value="Todd Casey")
    assert calls == []
    miss = check_condition(where("written_by", "=", "todd casey"), episode_catalog,
                           episode_index, k=2)
    assert calls == [("todd casey", "written_by", 2)]
    assert miss.candidates[0].raw_value == "Todd Casey"


def _oracle_profile(text: str) -> Counter:
    normalized = normalize_cell(text)
    if not normalized:
        return Counter()
    padded = f"  {normalized}  "
    return Counter(padded[i:i + 3] for i in range(len(padded) - 2))


def _oracle_cosine(a: Counter, b: Counter) -> float:
    if not a or not b:
        return 0.0
    dot = sum(weight * b.get(gram, 0) for gram, weight in a.items())
    norm_a = math.sqrt(sum(w * w for w in a.values()))
    norm_b = math.sqrt(sum(w * w for w in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return min(1.0, dot / (norm_a * norm_b))


def oracle_rank(literal: str, raws, k: int) -> list[tuple[str, float]]:
    """Brute force: normalize each text inside its own profile and again
    for the equality check, score every cell, sort, cut at k."""
    query_norm = normalize_cell(literal)
    query_profile = _oracle_profile(literal)
    scored = [(raw, 1.0 if normalize_cell(raw) == query_norm
               else _oracle_cosine(query_profile, _oracle_profile(raw))) for raw in raws]
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))[:k]


_TEXTS = st.one_of(
    st.text(alphabet="aAbBcC '\"!-.", max_size=8),
    st.sampled_from(["!!!", "", "  ", "'Ab c'", '"ab C"', "`abc`", "ab-c", "AB C"]),
)


@given(st.lists(_TEXTS, unique=True, max_size=12), _TEXTS, st.integers(0, 6))
@settings(max_examples=400)
def test_rank_candidates_equals_brute_force_oracle(raws, literal, k):
    cells = ColumnCells(table="t", column="v", cells=tuple(sorted(raws)))
    ranked = rank_candidates(literal, cells, k)
    assert [(c.raw_value, c.score) for c in ranked] == oracle_rank(literal, cells.cells, k)


# repeated trigrams weigh above 1; "aaa a" and "a aaa" have equal profiles
# but unequal forms, so they score 0.9999999999999999, not 1.0
_CELL_TEXTS = st.one_of(_TEXTS, st.sampled_from(["aaaa", "abab", "AbAb", "aaa a", "a aaa"]))


# a few hundred cells: every concatenation of two of 15-20 texts
_WIDE = st.lists(_CELL_TEXTS, unique=True, min_size=15, max_size=20).map(
    lambda texts: list({a + b for a in texts for b in texts}))


@given(st.one_of(st.lists(_CELL_TEXTS, unique=True, max_size=12), _WIDE),
       st.lists(_CELL_TEXTS, min_size=1, max_size=4), st.integers(0, 12))
@example(["a aaa", "aaa a", "AAA A", "", "!!", "abab", "b"], ["aaa a", "", "?!", "ab ab", "x"], 12)
@settings(max_examples=150, deadline=None)
def test_postings_rank_equals_brute_force_over_many_queries(raws, literals, k):
    cells = ColumnCells(table="t", column="v", cells=tuple(sorted(raws)))
    built = []
    for literal in literals:
        ranked = rank_candidates(literal, cells, k)
        built.append(cells.postings)
        assert ranked == rank_candidates(literal, cells, k, backend=TrigramBackend())
        assert [(c.raw_value, c.score) for c in ranked] == oracle_rank(literal, cells.cells, k)
    assert all(postings is built[0] for postings in built)


def test_first_miss_from_many_threads(tmp_db):
    names = [(i, f"artist {i:04d} {'ab' * (i % 4)}") for i in range(3000)]
    path = tmp_db("CREATE TABLE t(id INTEGER PRIMARY KEY, name TEXT);", {"t": names})
    miss = where("name", "=", "artst 0042")
    serial_db = Database(path)
    serial = check_condition(miss, serial_db.catalog, serial_db.index)
    assert isinstance(serial, Mismatch) and len(serial.candidates) == 5

    db = Database(path)
    catalog, index = db.catalog, db.index  # the race is on the column's postings
    barrier = threading.Barrier(16)
    seen = []

    def use():
        barrier.wait(timeout=30)
        seen.append(check_condition(miss, catalog, index))

    threads = [threading.Thread(target=use) for _ in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [serial] * 16


def test_inspect_sequence_no_conditions(episode_catalog, episode_index):
    seq = parse_actions("add_select(title)\nadd_from(episode)").sequence
    assert inspect_sequence(seq, episode_catalog, episode_index) == []


def test_inspect_sequence_orders_verdicts(episode_catalog, episode_index):
    seq = parse_actions(
        'add_select(title)\n'
        'add_from(episode)\n'
        'add_where(written_by, =, "Todd Casey")\n'
        'add_where(title, =, "double down")'
    ).sequence
    verdicts = inspect_sequence(seq, episode_catalog, episode_index)
    assert [path for path, _ in verdicts] == [(2,), (3,)]
    assert isinstance(verdicts[0][1], Matched)
    assert isinstance(verdicts[1][1], Mismatch)
    # brute-force oracle agreement
    assert verdicts[1][1].candidates[0].raw_value == "Double Down"


def test_inspect_sequence_scope_resolves_unqualified_columns(episode_catalog, episode_index):
    # "name" only in network; scoping to the FROM table makes it unambiguous
    seq = parse_actions('add_select(name)\nadd_from(network)\n'
                        'add_where(name, =, "Fox")').sequence
    [(path, verdict)] = inspect_sequence(seq, episode_catalog, episode_index)
    assert verdict == Matched(raw_value="Fox")


def test_inspect_sequence_recurses_into_merge_children(episode_catalog, episode_index):
    text = """add_merge(UNION):
    left:
        add_select(title)
        add_from(episode)
    right:
        add_select(name)
        add_from(network)
        add_where(name, =, "fox")
"""
    seq = parse_actions(text).sequence
    [(path, verdict)] = inspect_sequence(seq, episode_catalog, episode_index)
    assert path == (0, "right", 2)
    assert isinstance(verdict, Mismatch)
    assert verdict.candidates[0].raw_value == "Fox"


def test_inspect_sequence_paths_follow_the_depth_first_walk(episode_catalog, episode_index):
    # a child's verdicts come right after the action that owns the child,
    # before the verdicts of the parent's later actions
    text = """add_select(title)
add_from(episode)
add_where(written_by, =, "Todd Casey")
qa("which episodes aired in 2009"):
    add_select(id)
    add_from(episode)
    add_where(title, =, "double down")
add_where(title, =, "The Firefly")
"""
    seq = parse_actions(text).sequence
    verdicts = inspect_sequence(seq, episode_catalog, episode_index)
    assert [path for path, _ in verdicts] == [(2,), (3, "qa", 2), (4,)]
    assert [type(v) for _, v in verdicts] == [Matched, Mismatch, Matched]


def test_inspect_sequence_paths_through_merge_and_nested_qa(episode_catalog, episode_index):
    text = """add_merge(UNION):
    left:
        add_select(title)
        add_from(episode)
        qa("a sub question"):
            add_select(name)
            add_from(network)
            add_where(name, =, "fox")
        add_where(title, =, "Double Down")
    right:
        add_select(name)
        add_from(network)
        add_where(name, =, "ABC")
"""
    seq = parse_actions(text).sequence
    verdicts = inspect_sequence(seq, episode_catalog, episode_index)
    assert [path for path, _ in verdicts] == [
        (0, "left", 2, "qa", 2), (0, "left", 3), (0, "right", 2)]
    assert [type(v) for _, v in verdicts] == [Mismatch, Matched, Matched]
