from __future__ import annotations

import os
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlmend.actions import parse_actions
from sqlmend.detector import (
    AMBIGUOUS_COLUMN,
    CUSTOM_RULE_VIOLATION,
    EXECUTION_ERROR,
    FOREIGN_KEY_MISMATCH,
    GROUP_BY_ABSENCE,
    GROUP_BY_IMPROPER,
    HAVING_WITHOUT_GROUP_BY,
    JOIN_ABSENCE,
    JOIN_REDUNDANCY,
    TYPE_MISMATCH,
    UNKNOWN_COLUMN,
    UNKNOWN_TABLE,
    InvalidRuleConfig,
    _bfs_distances,
    _bridges,
    detect,
    detect_via_dbms,
    load_rules,
)
from sqlmend.schema_catalog import load_catalog

# Each corpus entry: finding kind -> (triggering actions, minimally repaired actions).
# The repaired variant must be completely clean, not merely free of its own kind.
CORPUS = {
    UNKNOWN_TABLE: (
        "add_select(*)\nadd_from(episodes)",
        "add_select(*)\nadd_from(episode)",
    ),
    UNKNOWN_COLUMN: (
        "add_select(flavor)\nadd_from(episode)",
        "add_select(title)\nadd_from(episode)",
    ),
    AMBIGUOUS_COLUMN: (
        "add_select(id)\nadd_from(episode, pairing, join(pairing.episode_id, episode.id))",
        "add_select(episode.id, pairing.guest)\n"
        "add_from(episode, pairing, join(pairing.episode_id, episode.id))",
    ),
    FOREIGN_KEY_MISMATCH: (
        "add_select(pairing.guest, episode.title)\n"
        "add_from(pairing, episode, join(pairing.episode_id, episode.title))",
        "add_select(pairing.guest, episode.title)\n"
        "add_from(pairing, episode, join(pairing.episode_id, episode.id))",
    ),
    JOIN_ABSENCE: (
        "add_select(episode.title, pairing.guest)\nadd_from(pairing)",
        "add_select(episode.title, pairing.guest)\n"
        "add_from(pairing, episode, join(pairing.episode_id, episode.id))",
    ),
    JOIN_REDUNDANCY: (
        "add_select(air_date)\nadd_from(episode, pairing, join(pairing.episode_id, episode.id))",
        "add_select(air_date)\nadd_from(episode)",
    ),
    TYPE_MISMATCH: (
        'add_select(title)\nadd_from(episode)\nadd_where(id, =, "abc")',
        "add_select(title)\nadd_from(episode)\nadd_where(id, =, 3)",
    ),
    GROUP_BY_ABSENCE: (
        "add_select(written_by, COUNT(*))\nadd_from(episode)",
        "add_select(written_by, COUNT(*))\nadd_from(episode)\nadd_group_by(written_by)",
    ),
    GROUP_BY_IMPROPER: (
        "add_select(written_by, air_date, COUNT(*))\nadd_from(episode)\n"
        "add_group_by(written_by)",
        "add_select(written_by, air_date, COUNT(*))\nadd_from(episode)\n"
        "add_group_by(written_by, air_date)",
    ),
    HAVING_WITHOUT_GROUP_BY: (
        "add_select(COUNT(*))\nadd_from(episode)\nadd_having(COUNT(*), >, 1)",
        "add_select(COUNT(*))\nadd_from(episode)\nadd_group_by(written_by)\n"
        "add_having(COUNT(*), >, 1)",
    ),
}

NULL_RULE = [{"rule_id": "no-null-airdates", "kind": "require_null_filter",
              "params": {"column": "episode.air_date"}}]

CUSTOM_CORPUS = (
    "add_select(air_date)\nadd_from(episode)",
    "add_select(air_date)\nadd_from(episode)\nadd_where(air_date, !=, NULL)",
)


def seq_of(text: str):
    result = parse_actions(text)
    assert not result.errors, result.errors
    return result.sequence


@pytest.mark.parametrize("kind", sorted(CORPUS))
def test_trigger_fixture_raises_exactly_its_kind(kind, episode_catalog):
    trigger, _repair = CORPUS[kind]
    findings = detect(seq_of(trigger), episode_catalog)
    assert {f.kind for f in findings} == {kind}


@pytest.mark.parametrize("kind", sorted(CORPUS))
def test_repaired_fixture_is_clean(kind, episode_catalog):
    _trigger, repair = CORPUS[kind]
    assert detect(seq_of(repair), episode_catalog) == []


def test_custom_rule_trigger_and_repair(episode_catalog):
    rules = load_rules(NULL_RULE)
    trigger, repair = CUSTOM_CORPUS
    findings = detect(seq_of(trigger), episode_catalog, rules)
    assert {f.kind for f in findings} == {CUSTOM_RULE_VIOLATION}
    assert findings[0].machine_data["rule_id"] == "no-null-airdates"
    assert detect(seq_of(repair), episode_catalog, rules) == []


def test_fk_mismatch_example_carries_both_endpoints(episode_catalog):
    trigger, _ = CORPUS[FOREIGN_KEY_MISMATCH]
    [finding] = detect(seq_of(trigger), episode_catalog)
    assert finding.machine_data == {"left": "pairing.episode_id", "right": "episode.title"}


def test_clean_single_table_query(episode_catalog):
    seq = seq_of('add_select(title)\nadd_from(episode)\n'
                 'add_where(written_by, =, "Todd Casey")')
    assert detect(seq, episode_catalog) == []


def test_findings_are_exhaustive_not_first_error(episode_catalog):
    seq = seq_of('add_select(flavor)\nadd_from(episodes)\nadd_where(id, =, "abc")')
    kinds = {f.kind for f in detect(seq, episode_catalog)}
    assert UNKNOWN_TABLE in kinds
    assert UNKNOWN_COLUMN in kinds


def test_text_column_vs_numeric_literal(episode_catalog):
    seq = seq_of("add_select(title)\nadd_from(episode)\nadd_where(title, =, 7)")
    assert [f.kind for f in detect(seq, episode_catalog)] == [TYPE_MISMATCH]


def test_numeric_looking_text_on_numeric_column_is_fine(episode_catalog):
    seq = seq_of('add_select(title)\nadd_from(episode)\nadd_where(id, =, "5")')
    assert detect(seq, episode_catalog) == []


def test_sum_over_text_column(episode_catalog):
    seq = seq_of("add_select(SUM(title))\nadd_from(episode)")
    assert [f.kind for f in detect(seq, episode_catalog)] == [TYPE_MISMATCH]


def test_allow_name_equijoin_downgrade(tmp_db):
    db = tmp_db("""
        CREATE TABLE a (ref_id INTEGER, x TEXT);
        CREATE TABLE b (ref_id INTEGER, y TEXT);
    """)
    catalog = load_catalog(db)
    seq = seq_of("add_select(a.x, b.y)\n"
                 "add_from(a, b, join(a.ref_id, b.ref_id))")
    assert [f.kind for f in detect(seq, catalog)] == [FOREIGN_KEY_MISMATCH]
    assert detect(seq, catalog, allow_name_equijoin=True) == []


def test_bridge_table_is_not_redundant(tmp_db):
    db = tmp_db("""
        CREATE TABLE author (id INTEGER PRIMARY KEY, name TEXT);
        CREATE TABLE book (id INTEGER PRIMARY KEY, title TEXT);
        CREATE TABLE wrote (author_id INTEGER REFERENCES author(id),
                            book_id INTEGER REFERENCES book(id));
    """)
    catalog = load_catalog(db)
    seq = seq_of("add_select(author.name, book.title)\n"
                 "add_from(author, wrote, book, join(wrote.author_id, author.id), "
                 "join(wrote.book_id, book.id))")
    assert detect(seq, catalog) == []


def test_a_join_spelled_in_another_case_matches_its_declared_key(music_catalog):
    seq = seq_of("add_select(album.Title, Artist.Name)\n"
                 "add_from(album, Artist, join(ALBUM.ArtistID, artist.ARTISTID))")
    assert detect(seq, music_catalog) == []


def test_join_absence_names_missing_tables_lowercased_in_lowercase_order(music_catalog):
    one = detect(seq_of("add_select(Artist.Name, album.Title)\nadd_from(album)"),
                 music_catalog)
    assert [(f.kind, f.machine_data) for f in one] == [(JOIN_ABSENCE, {"table": "artist"})]
    two = detect(seq_of("add_select(Artist.Name, Genre.Name, album.Title)\nadd_from(Artist)"),
                 music_catalog)
    assert [f.machine_data["table"] for f in two if f.kind == JOIN_ABSENCE] == ["album", "genre"]


def test_a_mixed_case_bridge_table_is_not_redundant(music_catalog):
    seq = seq_of("add_select(ARTIST.Name, genre.name)\n"
                 "add_from(artist, ALBUM, Genre, join(Album.ArtistId, ARTIST.artistid), "
                 "join(album.GenreID, genre.genreid))")
    assert detect(seq, music_catalog) == []


def test_a_rule_names_its_table_in_any_case(music_catalog):
    seq = seq_of("add_select(name)\nadd_from(artist)")
    for table, fires in (("ARTIST", True), ("genre", False)):
        rules = load_rules([{"rule_id": "r", "kind": "require_null_filter",
                             "params": {"column": f"{table}.NAME"}}])
        assert [f.kind for f in detect(seq, music_catalog, rules)] == \
            ([CUSTOM_RULE_VIOLATION] if fires else [])


def test_detect_recurses_into_merge_children(episode_catalog):
    text = """add_merge(UNION):
    left:
        add_select(title)
        add_from(episode)
    right:
        add_select(flavor)
        add_from(episode)
"""
    findings = detect(seq_of(text), episode_catalog)
    assert len(findings) == 1
    assert findings[0].kind == UNKNOWN_COLUMN
    assert findings[0].action_path == (0, "right", 0)


def test_monotonicity_removing_offender_removes_finding(episode_catalog):
    seq = seq_of('add_select(title)\nadd_from(episode)\nadd_where(id, =, "abc")')
    assert len(detect(seq, episode_catalog)) == 1
    del seq.actions[2]
    assert detect(seq, episode_catalog) == []


def test_detect_is_pure_after_source_deletion(tmp_db):
    db = tmp_db("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT);")
    catalog = load_catalog(db)
    os.unlink(db)
    seq = seq_of('add_select(v)\nadd_from(t)\nadd_where(id, =, "oops")')
    assert [f.kind for f in detect(seq, catalog)] == [TYPE_MISMATCH]


def test_detect_determinism(episode_catalog):
    seq = seq_of('add_select(flavor)\nadd_from(episodes)\nadd_where(id, =, "abc")')
    assert detect(seq, episode_catalog) == detect(seq, episode_catalog)


def test_detect_reports_each_level_before_its_children(episode_catalog):
    # levels in pre-order: the root, then each child sequence with its own
    # children before the next sibling, so the root's last action comes first
    seq = seq_of("""add_select(flavor)
add_from(episode)
qa("merged"):
    add_merge(UNION):
        left:
            add_select(colour)
            add_from(episode)
            qa("inner"):
                add_select(title)
                add_from(episode)
                add_where(id, =, "abc")
        right:
            add_select(title)
            add_from(episodes)
qa("outer"):
    add_select(title, COUNT(*))
    add_from(episode)
add_where(id, =, "xyz")""")
    findings = detect(seq, episode_catalog)
    merge = (2, "qa", 0)
    assert [(f.kind, f.action_path) for f in findings] == [
        (UNKNOWN_COLUMN, (0,)),
        (TYPE_MISMATCH, (4,)),
        (UNKNOWN_COLUMN, merge + ("left", 0)),
        (TYPE_MISMATCH, merge + ("left", 2, "qa", 2)),
        (UNKNOWN_TABLE, merge + ("right", 1)),
        (JOIN_ABSENCE, merge + ("right", 1)),
        (GROUP_BY_ABSENCE, (3, "qa", 0)),
    ]


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def test_value_format_rule_conforming_literal(episode_catalog):
    rules = load_rules([{"rule_id": "iso-dates", "kind": "value_format",
                         "params": {"column": "episode.air_date",
                                    "pattern": r"^\d{4}-\d{2}-\d{2}$"}}])
    seq = seq_of('add_select(title)\nadd_from(episode)\n'
                 'add_where(air_date, =, "2009-01-01")')
    findings = detect(seq, episode_catalog, rules)
    assert [f for f in findings if f.kind == CUSTOM_RULE_VIOLATION] == []


def test_value_format_rule_nonconforming_literal(episode_catalog):
    rules = load_rules([{"rule_id": "iso-dates", "kind": "value_format",
                         "params": {"column": "episode.air_date",
                                    "pattern": r"^\d{4}-\d{2}-\d{2}$"}}])
    seq = seq_of('add_select(title)\nadd_from(episode)\n'
                 'add_where(air_date, =, "Jan 1, 2009")')
    findings = [f for f in detect(seq, episode_catalog, rules)
                if f.kind == CUSTOM_RULE_VIOLATION]
    assert len(findings) == 1
    assert findings[0].kind == CUSTOM_RULE_VIOLATION
    assert findings[0].machine_data["literal"] == "Jan 1, 2009"


def test_value_format_rule_reads_an_aggregate_having(episode_catalog):
    rules = load_rules([{"rule_id": "title-case", "kind": "value_format",
                         "params": {"column": "title", "pattern": "[A-Z].*"}}])
    seq = seq_of('add_select(title)\nadd_from(episode)\nadd_group_by(title)\n'
                 'add_having(MAX(title), =, "lower")')
    findings = detect(seq, episode_catalog, rules)
    assert [(f.kind, f.action_path, f.machine_data["literal"]) for f in findings] == \
        [(CUSTOM_RULE_VIOLATION, (3,), "lower")]


def test_null_filter_rule_ignores_an_order_by_use(episode_catalog):
    rules = load_rules(NULL_RULE)
    for order_by in ("air_date", "episode.air_date", "MAX(air_date)"):
        seq = seq_of(f"add_select(title)\nadd_from(episode)\nadd_order_by({order_by}, DESC)")
        assert detect(seq, episode_catalog, rules) == []


@pytest.mark.parametrize("bad", [
    [{"rule_id": "x", "kind": "nonsense", "params": {"column": "a"}}],
    [{"rule_id": "x", "kind": "value_format", "params": {"column": "a", "pattern": "("}}],
    [{"rule_id": "x", "kind": "require_null_filter", "params": {"column": "not a column!"}}],
    [{"kind": "require_null_filter", "params": {"column": "a"}}],
    [{"rule_id": "x", "kind": "require_null_filter", "params": {"column": "a"}},
     {"rule_id": "x", "kind": "require_null_filter", "params": {"column": "b"}}],
    {"rule_id": "x"},
    [{"rule_id": "x", "kind": "require_null_filter", "params": "oops"}],
    # loaded, it would never fire: no parsed column ends in a newline
    [{"rule_id": "x", "kind": "require_null_filter", "params": {"column": "episode.title\n"}}],
])
def test_invalid_rule_configs_fail_at_load(bad):
    with pytest.raises(InvalidRuleConfig):
        load_rules(bad)


# ---------------------------------------------------------------------------
# DBMS-feedback mode
# ---------------------------------------------------------------------------


def test_dbms_mode_flags_unknown_table(episode_db):
    seq = seq_of("add_select(title)\nadd_from(episodes)")
    findings = detect_via_dbms(seq, episode_db)
    assert len(findings) == 1
    assert findings[0].kind == UNKNOWN_TABLE


def test_dbms_mode_misses_stricter_constraints(episode_db, episode_catalog):
    # type-confused comparison executes fine, so DBMS feedback sees nothing
    seq = seq_of('add_select(title)\nadd_from(episode)\nadd_where(id, =, "abc")')
    assert detect_via_dbms(seq, episode_db) == []
    assert [f.kind for f in detect(seq, episode_catalog)] == [TYPE_MISMATCH]


def test_dbms_mode_reports_generic_execution_errors(episode_db):
    seq = seq_of("add_having(COUNT(*), >, 1)\nadd_select(title)\nadd_from(episode)")
    findings = detect_via_dbms(seq, episode_db)
    assert [f.kind for f in findings] == [EXECUTION_ERROR]


def test_dbms_mode_reports_a_timeout_as_an_execution_error(monkeypatch, tmp_db):
    import sqlmend.detector as detector

    rows = [(i,) for i in range(200)]
    db = tmp_db("CREATE TABLE a (x INTEGER); CREATE TABLE b (y INTEGER);", {"a": rows, "b": rows})
    # 40,000 joined rows take far more than one progress-handler interval
    seq = seq_of("add_select(COUNT(*))\nadd_from(a, b)")
    monkeypatch.setattr(detector, "DBMS_TIMEOUT_S", 0.0)
    findings = detect_via_dbms(seq, db)
    assert [(f.kind, f.detail) for f in findings] == [(EXECUTION_ERROR, "query exceeded 0.0s")]
    assert "COUNT(*)" in findings[0].machine_data["sql"]


def test_dbms_mode_reports_an_unopenable_database_with_its_sql(tmp_path):
    findings = detect_via_dbms(seq_of("add_select(title)\nadd_from(episode)"),
                               tmp_path / "missing.sqlite")
    assert [f.kind for f in findings] == [EXECUTION_ERROR]
    assert findings[0].machine_data == {"error": findings[0].detail,
                                        "sql": "SELECT title FROM episode"}
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# The bridge rule against a BFS-per-candidate oracle
# ---------------------------------------------------------------------------


def _on_shortest_path_oracle(graph: dict[str, set[str]], table: str,
                             endpoints: list[str]) -> bool:
    """The bridge rule as a fresh BFS from the candidate and from every
    endpoint, per candidate."""
    if table in endpoints:
        return True
    dist_from_table = _bfs_distances(graph, table)
    for i, a in enumerate(endpoints):
        dist_from_a = _bfs_distances(graph, a)
        for b in endpoints[i + 1:]:
            if b not in dist_from_a or table not in dist_from_a or table not in dist_from_table:
                continue
            if dist_from_a[table] + dist_from_table.get(b, 1 << 30) == dist_from_a[b]:
                return True
    return False


@st.composite
def _fk_graphs(draw):
    """An undirected FK graph of 1-7 tables, connected or not, and the
    payload tables (a sorted subset) of one level over it."""
    names = [f"t{i}" for i in range(draw(st.integers(1, 7)))]
    pairs = list(combinations(names, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph: dict[str, set[str]] = {name: set() for name in names}
    for a, b in edges:
        graph[a].add(b)
        graph[b].add(a)
    payload = sorted(draw(st.sets(st.sampled_from(names))))
    return graph, payload


@settings(max_examples=300, deadline=None)
@given(_fk_graphs())
def test_bridge_rule_agrees_with_a_bfs_per_candidate(case):
    graph, payload = case
    distances = {a: _bfs_distances(graph, a) for a in payload}
    for table in graph:
        if table not in payload:  # the detector asks only about non-payload tables
            assert _bridges(distances, table) == \
                _on_shortest_path_oracle(graph, table, payload), (graph, payload, table)
