from __future__ import annotations

import json
import re
import sqlite3
import string
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqlmend.schema_catalog
from sqlmend.actions import AddWhere, ColumnRef, Literal, parse_actions
from sqlmend.detector import UNKNOWN_TABLE, detect
from sqlmend.orchestrator import render_schema, verdict_to_json
from sqlmend.perturb import (
    AnnotatedExample,
    NoApplicableSpan,
    Span,
    ValueSpan,
    replace_common_value,
)
from sqlmend.postprocess import rewrite
from sqlmend.retriever import Matched, check_condition, inspect_sequence, rank_candidates
from sqlmend.schema_catalog import (
    ColumnCells,
    ColumnInfo,
    CorruptDatabase,
    Database,
    SchemaCatalog,
    TableInfo,
    affinity_of,
    build_cell_index,
    load_catalog,
    normalize_cell,
)
from sqlmend.sqllex import quote
from conftest import make_db


def test_load_catalog_episode_table(tmp_db):
    db = tmp_db("""
        CREATE TABLE episode (
            id INTEGER PRIMARY KEY,
            title TEXT,
            air_date TEXT,
            written_by TEXT,
            directed_by TEXT
        );
    """)
    catalog = load_catalog(db)
    assert len(catalog.tables) == 1
    table = catalog.tables[0]
    assert table.name == "episode"
    assert len(table.columns) == 5
    assert sum(1 for c in table.columns if c.is_primary_key) == 1
    assert table.column("id").affinity == "INTEGER"
    assert table.column("written_by").affinity == "TEXT"


def test_load_catalog_empty_db(tmp_db):
    catalog = load_catalog(tmp_db("CREATE TABLE t(x INTEGER); DROP TABLE t;"))
    assert catalog.tables == ()


def test_load_catalog_foreign_key_matches_direct_introspection(tmp_db):
    db = tmp_db("""
        CREATE TABLE episode (id INTEGER PRIMARY KEY, title TEXT);
        CREATE TABLE pairing (id INTEGER PRIMARY KEY,
                              episode_id INTEGER REFERENCES episode(id));
    """)
    catalog = load_catalog(db)
    assert len(catalog.foreign_keys) == 1
    fk = catalog.foreign_keys[0]

    conn = sqlite3.connect(db)
    raw = conn.execute("PRAGMA foreign_key_list(pairing)").fetchall()
    conn.close()
    assert len(raw) == 1
    _, _, ref_table, src, dst = raw[0][:5]
    assert (fk.table, fk.column) == ("pairing", src)
    assert fk.ref_table == ref_table
    assert fk.ref_column == (dst or "id")


def _links(catalog) -> list[tuple[str, str, str, str]]:
    return [(fk.table, fk.column, fk.ref_table, fk.ref_column) for fk in catalog.foreign_keys]


def test_a_keyless_foreign_key_pairs_with_the_primary_key_in_key_order(tmp_db):
    db = tmp_db("""
        CREATE TABLE a (x INTEGER, y INTEGER, PRIMARY KEY (y, x));
        CREATE TABLE b (p INTEGER, q INTEGER, FOREIGN KEY (p, q) REFERENCES a);
    """)
    # SQLite pairs the key's columns with the primary key's, in key order
    conn = sqlite3.connect(db)
    conn.execute("PRAGMA foreign_keys = ON")
    conn.execute("INSERT INTO a VALUES (1, 2)")  # x = 1, y = 2
    conn.execute("INSERT INTO b VALUES (2, 1)")  # p -> y, q -> x
    conn.close()
    assert _links(load_catalog(db)) == [("b", "p", "a", "y"), ("b", "q", "a", "x")]
    # a key column past the end of the primary key has no partner
    db = tmp_db("""
        CREATE TABLE a (x INTEGER PRIMARY KEY, y INTEGER);
        CREATE TABLE b (p INTEGER, q INTEGER, FOREIGN KEY (q, p) REFERENCES a);
    """, name="longer.sqlite")
    assert _links(load_catalog(db)) == [("b", "q", "a", "x")]


# a link whose target column cannot be named is left out
UNLINKED_FOREIGN_KEYS = {
    "missing-table": "CREATE TABLE b (p INTEGER REFERENCES ghost(id));",
    "missing-column": "CREATE TABLE a (x INTEGER PRIMARY KEY);"
                      "CREATE TABLE b (p INTEGER REFERENCES a(nope));",
    "keyless-without-primary-key": "CREATE TABLE a (x INTEGER);"
                                   "CREATE TABLE b (p INTEGER REFERENCES a);",
}


@pytest.mark.parametrize("case", sorted(UNLINKED_FOREIGN_KEYS))
def test_a_foreign_key_without_a_target_column_is_left_out(tmp_db, case):
    assert _links(load_catalog(tmp_db(UNLINKED_FOREIGN_KEYS[case]))) == []


def test_a_foreign_key_is_spelled_as_its_columns_are_declared(tmp_db, music_catalog):
    db = tmp_db("""
        CREATE TABLE Album (AlbumId INTEGER PRIMARY KEY, Title TEXT);
        CREATE TABLE track (TrackId INTEGER PRIMARY KEY, AlbumId INTEGER,
                            FOREIGN KEY (ALBUMID) REFERENCES album(albumid));
    """)
    assert _links(load_catalog(db)) == [("track", "AlbumId", "Album", "AlbumId")]
    assert _links(music_catalog) == [("album", "artistid", "Artist", "ArtistId"),
                                     ("album", "GenreID", "Genre", "GenreId")]
    assert render_schema(music_catalog).splitlines()[-1] == (
        "foreign keys: album.artistid -> Artist.ArtistId; album.GenreID -> Genre.GenreId")


def _sqlite_fold(name: str) -> str:
    return "".join(chr(ord(c) + 32) if "A" <= c <= "Z" else c for c in name)


_NAME_TEXT = st.text(string.ascii_letters + "_\u00e4\u00c4\u00df", min_size=1, max_size=3)


@settings(max_examples=300)
@given(st.lists(_NAME_TEXT, min_size=1, max_size=6), _NAME_TEXT)
def test_table_and_column_lookups_equal_a_folding_scan(names, probe):
    table = TableInfo(name="t", columns=tuple(ColumnInfo(name, "TEXT") for name in names))
    catalog = SchemaCatalog(tables=tuple(TableInfo(name, ()) for name in names),
                            foreign_keys=(), source_path="")
    for spelling in [probe] + [f(name) for name in names for f in (str, str.swapcase, str.upper)]:
        # the first of two names that fold alike wins
        first = next((i for i, name in enumerate(names)
                      if _sqlite_fold(name) == _sqlite_fold(spelling)), None)
        assert table.column(spelling) is (None if first is None else table.columns[first])
        assert catalog.table(spelling) is (None if first is None else catalog.tables[first])


def test_names_fold_as_sqlite_folds_them(tmp_db):
    db = tmp_db('CREATE TABLE "St\u00e4dte"(Name TEXT);', {'"St\u00e4dte"': [("Berlin",)]})
    catalog = load_catalog(db)
    index = build_cell_index(catalog, db)
    conn = sqlite3.connect(db)
    with pytest.raises(sqlite3.OperationalError, match="no such table"):
        conn.execute("SELECT Name FROM ST\u00c4DTE")
    assert conn.execute("SELECT Name FROM st\u00e4dte").fetchall() == [("Berlin",)]
    conn.close()

    def check(table):
        seq = parse_actions(f'add_select(Name)\nadd_from({table})\n'
                            f'add_where(Name, =, "Berlin")').sequence
        return detect(seq, catalog), inspect_sequence(seq, catalog, index)[0][1]

    findings, verdict = check("ST\u00c4DTE")
    assert UNKNOWN_TABLE in [f.kind for f in findings]
    assert not isinstance(verdict, Matched)
    assert catalog.table("ST\u00c4DTE") is None
    assert index.column_cells("ST\u00c4DTE", "name") is None
    findings, verdict = check("st\u00e4dte")
    assert findings == [] and verdict == Matched(raw_value="Berlin")
    assert index.column_cells("st\u00e4dte", "NAME").cells == ("Berlin",)


def _is_foreign_key_pair_oracle(catalog, left_table, left_column, right_table, right_column):
    """The linear scan that SchemaCatalog.fk_pairs replaced."""
    a = (left_table.lower(), left_column.lower())
    b = (right_table.lower(), right_column.lower())
    for fk in catalog.foreign_keys:
        src = (fk.table.lower(), fk.column.lower())
        dst = (fk.ref_table.lower(), fk.ref_column.lower())
        if (a, b) in ((src, dst), (dst, src)):
            return True
    return False


def _fk_graph_oracle(catalog) -> dict[str, set[str]]:
    """The detector's per-level graph build that SchemaCatalog.fk_neighbors replaced."""
    graph: dict[str, set[str]] = {t.name.lower(): set() for t in catalog.tables}
    for fk in catalog.foreign_keys:
        graph[fk.table.lower()].add(fk.ref_table.lower())
        graph[fk.ref_table.lower()].add(fk.table.lower())
    return graph


def _respell(rng, name: str) -> str:
    return "".join(c.upper() if rng.random() < 0.5 else c.lower() for c in name)


@st.composite
def _mixed_case_fk_schemas(draw):
    """DDL for 1-4 tables with 0-3 foreign keys each, every name and every
    reference to it spelled in random ASCII case; a key names the target's
    id or name column, or no column, which pairs it with the id."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 4))
    statements = []
    for i in range(n):
        columns = [f"{_respell(rng, 'id')} INTEGER PRIMARY KEY", f"{_respell(rng, 'name')} TEXT"]
        keys = []
        for j, target in enumerate(draw(st.lists(st.integers(0, n - 1), max_size=3))):
            columns.append(f"{_respell(rng, f'ref{j}')} INTEGER")
            ref_column = draw(st.sampled_from(["(id)", "(name)", ""]))
            keys.append(f"FOREIGN KEY ({_respell(rng, f'ref{j}')}) REFERENCES "
                        f"{_respell(rng, f't{target}')}{_respell(rng, ref_column)}")
        statements.append(f"CREATE TABLE {_respell(rng, f't{i}')} ({', '.join(columns + keys)});")
    return "\n".join(statements), rng


@settings(max_examples=100, deadline=None)
@given(_mixed_case_fk_schemas())
def test_fk_pairs_and_neighbors_equal_the_case_folding_scans(case):
    ddl, rng = case
    with tempfile.TemporaryDirectory() as tmp:
        catalog = load_catalog(make_db(Path(tmp) / "keys.sqlite", ddl))
    assert {table.lower(): {n.lower() for n in neighbors}
            for table, neighbors in catalog.fk_neighbors.items()} == _fk_graph_oracle(catalog)
    assert set(catalog.fk_neighbors) == {t.name for t in catalog.tables}
    columns = [(t.name, c.name) for t in catalog.tables for c in t.columns]
    for left in columns:
        for right in columns:
            spelled = [_respell(rng, name) for name in left + right]
            # as the detector asks: each end resolved to its catalog names
            ends = [catalog.resolve(table, column) for table, column in (spelled[:2], spelled[2:])]
            assert (tuple((end.table.name, end.column.name) for end in ends)
                    in catalog.fk_pairs) == _is_foreign_key_pair_oracle(catalog, *spelled)


def test_load_catalog_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_catalog(tmp_path / "nope.sqlite")


def test_readonly_opens_keep_uri_characters_in_the_path(tmp_path):
    from sqlmend.actions import parse_actions
    from sqlmend.detector import detect_via_dbms
    from sqlmend.evaluation import execute_sql

    db_dir = tmp_path / "we?ird#dir"
    db_dir.mkdir()
    db = db_dir / "x.sqlite"
    conn = sqlite3.connect(db)
    conn.execute("CREATE TABLE t (v TEXT)")
    conn.execute("INSERT INTO t VALUES ('a')")
    conn.commit()
    conn.close()
    before = sorted(tmp_path.rglob("*"))

    catalog = load_catalog(db)
    assert [t.name for t in catalog.tables] == ["t"]
    assert build_cell_index(catalog, db).column_cells("t", "v").cells == ("a",)
    assert execute_sql(db, "SELECT v FROM t") == [("a",)]
    assert detect_via_dbms(parse_actions("add_select(v)\nadd_from(t)").sequence, db) == []
    assert sorted(tmp_path.rglob("*")) == before


def test_execute_sql_on_a_missing_file_is_an_engine_error(tmp_path):
    from sqlmend.evaluation import execute_sql

    with pytest.raises(sqlite3.Error):
        execute_sql(tmp_path / "nope.sqlite", "SELECT 1")
    assert list(tmp_path.iterdir()) == []


def test_load_catalog_corrupt_file(tmp_path):
    bad = tmp_path / "bad.sqlite"
    bad.write_text("this is not a database at all, not even close padding padding")
    with pytest.raises(CorruptDatabase):
        load_catalog(bad)


def test_a_directory_is_not_a_database(tmp_path):
    with pytest.raises(CorruptDatabase, match="is a directory, not a database file"):
        load_catalog(tmp_path)
    with pytest.raises(CorruptDatabase, match="is a directory, not a database file"):
        build_cell_index(SchemaCatalog(tables=(), foreign_keys=(), source_path=""), tmp_path)


@pytest.mark.parametrize("breakage", [
    "DROP TABLE t",  # the catalog names a table the file no longer has
    "INSERT INTO t VALUES (CAST(X'FF' AS TEXT))",  # a cell that is not UTF-8
])
def test_a_failed_cell_read_is_a_corrupt_database(tmp_db, breakage):
    db = tmp_db("CREATE TABLE t (v TEXT); INSERT INTO t VALUES ('a');")
    catalog = load_catalog(db)
    conn = sqlite3.connect(db)
    conn.execute(breakage)
    conn.commit()
    conn.close()
    with pytest.raises(CorruptDatabase):
        build_cell_index(catalog, db)


def test_database_builds_on_first_use_and_keeps_the_path_as_given(tmp_path, monkeypatch,
                                                                 episode_db):
    missing = Database(tmp_path / "nope.sqlite")  # nothing is opened yet
    with pytest.raises(FileNotFoundError):
        missing.index
    calls = []
    for name in ("load_catalog", "build_cell_index"):
        original = getattr(sqlmend.schema_catalog, name)
        monkeypatch.setattr(sqlmend.schema_catalog, name,
                            lambda *a, _n=name, _f=original: calls.append(_n) or _f(*a))
    db = Database(str(episode_db))
    assert db.path == str(episode_db)
    assert db.index is db.index and db.catalog is db.catalog
    assert calls == ["load_catalog", "build_cell_index"]
    assert db.catalog == load_catalog(episode_db)


def test_database_first_use_from_many_threads(episode_db, episode_catalog, episode_index):
    def snapshot(catalog, index):
        return catalog, [index.column_cells(t, c) for t, c in index.columns()]

    db = Database(episode_db)
    seen = []

    def use():
        seen.append(snapshot(db.catalog, db.index))

    threads = [threading.Thread(target=use) for _ in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [snapshot(episode_catalog, episode_index)] * 16


def test_load_catalog_excludes_internal_tables(tmp_db):
    db = tmp_db("CREATE TABLE t(x TEXT); CREATE INDEX ix ON t(x);")
    catalog = load_catalog(db)
    assert [t.name for t in catalog.tables] == ["t"]


def test_load_catalog_deterministic(episode_db):
    assert load_catalog(episode_db) == load_catalog(episode_db)


@pytest.mark.parametrize("declared, expected", [
    ("VARCHAR(40)", "TEXT"),
    ("text", "TEXT"),
    ("BIGINT", "INTEGER"),
    ("INT", "INTEGER"),
    ("DOUBLE PRECISION", "REAL"),
    ("FLOAT", "REAL"),
    ("NUMERIC(10,2)", "NUMERIC"),
    ("DECIMAL", "NUMERIC"),
    ("BOOLEAN", "BOOLEAN"),
    ("DATETIME", "DATE"),
    ("DATE", "DATE"),
    ("BLOB", "OTHER"),
    ("", "OTHER"),
])
def test_affinity_mapping(declared, expected):
    assert affinity_of(declared) == expected


def test_normalize_cell_strips_quotes_and_folds_case():
    assert normalize_cell('"A Love of a Lifetime"') == "a love of a lifetime"
    assert normalize_cell("Todd Casey") == "todd casey"
    assert normalize_cell("  spaced   out  ") == "spaced out"
    assert normalize_cell("O'Hara-Smith") == "o hara smith"


@given(st.text(max_size=40))
@settings(max_examples=200)
def test_normalize_cell_idempotent(text):
    once = normalize_cell(text)
    assert normalize_cell(once) == once


def _two_pass_normalize(text: str) -> str:
    """normalize_cell as two passes: punctuation runs, then whitespace runs."""
    s = text.strip()
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "'\"`":
        s = s[1:-1]
    s = re.sub(r"[^\w\s]+", " ", s.casefold())
    return re.sub(r"\s+", " ", s).strip()


@given(st.one_of(st.text(max_size=40),
                 st.text(alphabet=" \t\n\u00a0\u2003\u3000.,-_'\"`!aZ\u00e9\u0301\u0663\u00df",
                         max_size=20)))
@settings(max_examples=300)
def test_normalize_cell_equals_the_two_pass_form(text):
    assert normalize_cell(text) == _two_pass_normalize(text)


def test_index_distinct_and_null_exclusion(tmp_db):
    db = tmp_db(
        "CREATE TABLE t (written_by TEXT, n INTEGER);",
        {"t": [("Todd Casey", 1), ("Todd Casey", 2), (None, 3)]},
    )
    catalog = load_catalog(db)
    index = build_cell_index(catalog, db)
    cells = index.column_cells("t", "written_by")
    assert cells.cells == ("Todd Casey",)
    assert index.column_cells("t", "n") is None


def test_index_covers_exactly_text_columns(episode_catalog, episode_index):
    expected = {
        (t.name, c.name)
        for t in episode_catalog.tables
        for c in t.columns
        if c.affinity == "TEXT"
    }
    assert set(episode_index.columns()) == expected


def test_index_normalization_applied(tmp_db):
    db = tmp_db("CREATE TABLE t (v TEXT);",
                {"t": [('"A Love of a Lifetime"',), ("A Lifetime",), ("Love",)]})
    catalog = load_catalog(db)
    cells = build_cell_index(catalog, db).column_cells("t", "v")
    top = rank_candidates("a love of a lifetime", cells, 3)[0]
    assert (top.raw_value, top.score) == ('"A Love of a Lifetime"', 1.0)


def test_index_raw_count_at_least_normalized_count(episode_index):
    for table, column in episode_index.columns():
        cells = episode_index.column_cells(table, column).cells
        assert all(isinstance(cell, str) for cell in cells)
        assert list(cells) == sorted(set(cells))


@given(st.lists(st.text(alphabet="aAb \u00e9\U0001f600", max_size=4), unique=True, max_size=12),
       st.text(alphabet="aAb \u00e9\U0001f600", max_size=4))
@settings(max_examples=300)
def test_column_cells_membership_equals_tuple_scan(raws, value):
    cells = ColumnCells(table="t", column="v", cells=tuple(sorted(raws)))
    assert (value in cells) == (value in cells.cells)
    assert all(raw in cells for raw in raws)


def test_index_cap_keeps_most_frequent(tmp_db, monkeypatch):
    rows = [("common",)] * 5 + [("rare",)] + [("middling",)] * 2
    db = tmp_db("CREATE TABLE t (v TEXT);", {"t": rows})
    catalog = load_catalog(db)
    monkeypatch.setattr(sqlmend.schema_catalog, "DEFAULT_CELL_CAP", 2)
    cells = build_cell_index(catalog, db).column_cells("t", "v")
    assert set(cells.cells) == {"common", "middling"}


def _grouped_cells(db, table: str, column: str, cap: int) -> tuple[str, ...]:
    """The index's cells of one column as one GROUP BY query reads them:
    the `cap` most frequent non-NULL values, ties to the smaller value,
    TEXT values only, sorted."""
    col, tab = quote(column, '"'), quote(table, '"')
    conn = sqlite3.connect(db)
    try:
        rows = conn.execute(f"SELECT {col}, COUNT(*) AS n FROM {tab} WHERE {col} IS NOT NULL "
                            f"GROUP BY {col} ORDER BY n DESC, {col} ASC LIMIT {cap}").fetchall()
    finally:
        conn.close()
    return tuple(sorted(v for v, _count in rows if isinstance(v, str)))


_CELL_VALUES = st.one_of(
    st.none(), st.binary(max_size=2), st.integers(-2, 2),
    st.sampled_from(["fox", "Fox", "FOX", "fox ", "", "\u00e9", "\u00c9"]),
    st.text(alphabet="aAb \u00e9", max_size=3))


@given(st.integers(1, 4).flatmap(lambda width: st.tuples(st.just(width), st.lists(
           st.tuples(st.integers(-9, 9), *[_CELL_VALUES] * width), max_size=30))),
       st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_index_equals_one_grouped_query_per_column(table, cap):
    width, rows = table
    names = ["n"] + [f"c{j}" for j in range(width)]
    ddl = "CREATE TABLE t (n INTEGER, " + ", ".join(f"{c} TEXT" for c in names[1:]) + ");"
    with tempfile.TemporaryDirectory() as workdir:
        db = make_db(Path(workdir) / "t.sqlite", ddl, {"t": rows})
        catalog = load_catalog(db)
        with mock.patch.object(sqlmend.schema_catalog, "DEFAULT_CELL_CAP", cap):
            index = build_cell_index(catalog, db)
        assert index.columns() == [("t", c) for c in names[1:]]
        for column in names[1:]:
            assert index.column_cells("t", column).cells == _grouped_cells(db, "t", column, cap)


@pytest.mark.parametrize("cap, nocase, rtrim", [
    (50_000, ("FOX", "Fox", "fox"), ("fox", "fox ", "fox  ")),
    # past the cap: the most frequent byte-distinct values, ties to the smaller
    (2, ("FOX", "fox"), ("fox", "fox ")),
])
def test_every_byte_distinct_cell_is_indexed_whatever_the_collation(tmp_db, monkeypatch,
                                                                    cap, nocase, rtrim):
    db = tmp_db("CREATE TABLE t (name TEXT COLLATE NOCASE, code TEXT COLLATE RTRIM);",
                {"t": [("Fox", "fox "), ("fox", "fox"), ("FOX", "fox  "), ("fox", "fox")]})
    monkeypatch.setattr(sqlmend.schema_catalog, "DEFAULT_CELL_CAP", cap)
    catalog = load_catalog(db)
    index = build_cell_index(catalog, db)
    assert index.column_cells("t", "name").cells == nocase
    assert index.column_cells("t", "code").cells == rtrim
    for column in ("name", "code"):
        action = AddWhere(column=ColumnRef(column=column), op="=",
                          value=Literal(kind="text", value="fox"))
        assert check_condition(action, catalog, index) == Matched(raw_value="fox")


def test_catalog_json_export_is_stable(episode_catalog):
    first = json.dumps(episode_catalog.to_json_dict(), sort_keys=True)
    second = json.dumps(episode_catalog.to_json_dict(), sort_keys=True)
    assert first == second
    parsed = json.loads(first)
    assert {t["name"] for t in parsed["tables"]} == {"episode", "pairing", "network"}
    assert parsed["foreign_keys"] == [{
        "table": "pairing", "column": "episode_id",
        "references_table": "episode", "references_column": "id"}]


# ---------------------------------------------------------------------------
# Which table owns a condition's column: each caller's policy, pinned through
# its public entry point. In the fixture `guest` lives in pairing only,
# `title` in episode only, and `id` in all three tables.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("table, column, scope, status, owner", [
    ("pairing", "guest", None, "ok", "pairing"),
    ("PAIRING", "GUEST", ["network"], "ok", "pairing"),  # qualified: scope unused
    ("nosuch", "guest", None, "unknown_table", None),
    ("pairing", "nope", None, "unknown_column", None),
    (None, "guest", None, "ok", "pairing"),
    (None, "id", None, "ambiguous", None),
    (None, "nope", None, "unknown_column", None),
    (None, "id", ["network"], "ok", "network"),
    (None, "id", ["network", "nosuch", "pairing"], "ambiguous", None),
    (None, "title", ["episode", "Episode"], "ambiguous", None),
    (None, "guest", ["network"], "out_of_scope", "pairing"),
    (None, "guest", [], "out_of_scope", "pairing"),
    (None, "guest", ["nosuch"], "out_of_scope", "pairing"),
    (None, "id", ["nosuch"], "unknown_column", None),
    (None, "nope", ["network"], "unknown_column", None),
])
def test_resolve_statuses(episode_catalog, table, column, scope, status, owner):
    found = episode_catalog.resolve(table, column, scope)
    assert found.status == status
    assert (found.table.name if found.table else None) == owner
    if owner is not None:
        assert found.column.name.lower() == column.lower()
    else:
        assert found.column is None


@pytest.mark.parametrize("from_line, column, value, verdict, finding_kinds", [
    # a column from a table missing from add_from: the retriever skips it,
    # the detector still finds its owner and reports the missing join
    ("add_from(network)", "guest", "Moon Bloodgood", "not_applicable",
     ["JoinAbsence", "JoinRedundancy"]),
    # unknown scope names are skipped
    ("add_from(nosuch)", "guest", "Moon Bloodgood", "not_applicable",
     ["UnknownTable", "JoinAbsence"]),
    # a repeated scope table counts twice
    ("add_from(episode, Episode)", "title", "Double Down", "not_applicable",
     ["AmbiguousColumn", "AmbiguousColumn"]),
    # no add_from: the whole catalog is the scope
    ("", "guest", "Moon Bloodgood", "matched", ["JoinAbsence"]),
])
def test_condition_column_scope_policy(episode_catalog, episode_index, from_line,
                                       column, value, verdict, finding_kinds):
    seq = parse_actions(f"add_select({column})\n{from_line}\n"
                        f'add_where({column}, =, "{value}")').sequence
    [(_path, got)] = inspect_sequence(seq, episode_catalog, episode_index)
    assert verdict_to_json(got)["status"] == verdict
    assert [f.kind for f in detect(seq, episode_catalog)] == finding_kinds


@pytest.mark.parametrize("actions, finding_kinds", [
    # no add_from and several owners: unknown, not ambiguous
    ("add_select(id)", ["UnknownColumn"]),
    ("add_select(id)\nadd_from(network)", []),
    ("add_select(id)\nadd_from(network, pairing)", ["AmbiguousColumn"]),
    # no known scope table and several owners: unknown
    ("add_select(id)\nadd_from(nosuch)", ["UnknownTable", "UnknownColumn"]),
    ("add_select(pairing.id)\nadd_from(network)", ["JoinAbsence", "JoinRedundancy"]),
    ("add_select(pairing.nope)\nadd_from(pairing)", ["UnknownColumn"]),
])
def test_detector_column_resolution_policy(episode_catalog, actions, finding_kinds):
    seq = parse_actions(actions).sequence
    assert [f.kind for f in detect(seq, episode_catalog)] == finding_kinds


@pytest.mark.parametrize("sql, rewritten", [
    # a scope table that does not own the column: untouched
    ("SELECT guest FROM network WHERE guest = 'Moon Bloodgod'", False),
    # no known FROM table: the whole catalog is the scope
    ("SELECT guest FROM nosuch WHERE guest = 'Moon Bloodgod'", True),
    ("SELECT 1 WHERE guest = 'Moon Bloodgod'", True),
    # a repeated scope table counts twice
    ("SELECT title FROM episode, Episode WHERE title = 'double down'", False),
    # qualified references ignore the scope
    ("SELECT 1 FROM network WHERE pairing.guest = 'Moon Bloodgod'", True),
    ("SELECT 1 FROM pairing WHERE nosuch.guest = 'Moon Bloodgod'", False),
])
def test_rewrite_column_scope_policy(episode_catalog, episode_index, sql, rewritten):
    fixed = rewrite(sql, episode_catalog, episode_index)
    assert fixed == (sql.replace("Bloodgod", "Bloodgood").replace("double down", "Double Down")
                     if rewritten else sql)


@pytest.mark.parametrize("column, swapped", [
    ("guest", True),           # unique owner in the catalog, no scope
    ("pairing.guest", True),
    ("nosuch.guest", False),
    ("pairing.nope", False),
    ("id", False),             # several owners
])
def test_replace_common_value_column_policy(episode_catalog, episode_index, column, swapped):
    example = AnnotatedExample(
        question="Moon Bloodgood?", db_id="episodes",
        gold_sql="SELECT * FROM network WHERE guest = 'Moon Bloodgood'",
        value_spans=(ValueSpan(span=Span(0, 14), column=column, literal="Moon Bloodgood"),))
    if swapped:
        out = replace_common_value(example, episode_catalog, episode_index, rng_seed=0)
        assert out.question == "Garret Dillahunt?"
    else:
        with pytest.raises(NoApplicableSpan):
            replace_common_value(example, episode_catalog, episode_index, rng_seed=0)
