from __future__ import annotations

from sqlmend import postprocess
from sqlmend.postprocess import _from_scope, extract_conditions, rewrite
from sqlmend.schema_catalog import build_cell_index, load_catalog
from sqlmend.sqllex import tokenize


def test_extract_single_condition():
    sql = "SELECT air_date FROM episode WHERE written_by = 'todd casey'"
    [cond] = extract_conditions(sql)
    assert (cond.table, cond.column, cond.op, cond.literal) == \
        (None, "written_by", "=", "todd casey")
    assert sql[cond.start:cond.end] == "'todd casey'"


def test_extract_no_string_literals():
    assert extract_conditions("SELECT * FROM t WHERE id = 5") == []


def test_extract_two_literals_in_textual_order():
    sql = "SELECT * FROM t WHERE a = 'x' AND b != 'y'"
    conditions = extract_conditions(sql)
    assert [(c.column, c.op, c.literal) for c in conditions] == \
        [("a", "=", "x"), ("b", "!=", "y")]


def test_extract_qualified_and_like():
    sql = "SELECT * FROM episode e WHERE e.title LIKE 'Double%'"
    [cond] = extract_conditions(sql)
    assert (cond.table, cond.column, cond.op) == ("e", "title", "LIKE")


def test_extract_ignores_select_region_strings():
    sql = "SELECT 'where x = ''y''' FROM t WHERE a = 'real'"
    [cond] = extract_conditions(sql)
    assert cond.literal == "real"


def test_extract_handles_doubled_quotes():
    sql = "SELECT * FROM t WHERE name = 'O''Hara'"
    [cond] = extract_conditions(sql)
    assert cond.literal == "O'Hara"


def test_extract_stray_quote_starts_no_literal():
    # an unterminated quote is skipped and the text after it read on
    sql = "SELECT * FROM t WHERE a = 'x' AND b = 'y"
    assert [(c.column, c.literal) for c in extract_conditions(sql)] == [("a", "x")]
    sql = "SELECT * FROM t WHERE a = 'x AND b = \"y\""
    assert [(c.column, c.literal, c.start) for c in extract_conditions(sql)] == [("b", "y", 37)]


def test_extract_garbage_yields_empty():
    assert extract_conditions("complete nonsense (((") == []


def test_rewrite_fixes_case_mismatch(episode_catalog, episode_index):
    sql = "SELECT air_date FROM episode WHERE written_by = 'todd casey'"
    fixed = rewrite(sql, episode_catalog, episode_index)
    assert fixed == "SELECT air_date FROM episode WHERE written_by = 'Todd Casey'"


def test_rewrite_exact_literal_is_fixed_point(episode_catalog, episode_index):
    sql = "SELECT air_date FROM episode WHERE written_by = 'Todd Casey'"
    assert rewrite(sql, episode_catalog, episode_index) == sql


def test_rewrite_keeps_a_literal_that_is_a_cell(tmp_db):
    db = tmp_db("CREATE TABLE person (id INTEGER PRIMARY KEY, name TEXT);",
                {"person": [(1, "Todd Casey"), (2, "todd casey"), (3, "TODD CASEY")]})
    catalog = load_catalog(db)
    index = build_cell_index(catalog, db)
    for literal in ("Todd Casey", "todd casey", "TODD CASEY"):
        sql = f"SELECT id FROM person WHERE name = '{literal}'"
        assert rewrite(sql, catalog, index) == sql
    # a literal that is no cell still goes to the best one, ties by raw text
    assert rewrite("SELECT id FROM person WHERE name = 'todd cassey'", catalog, index) \
        == "SELECT id FROM person WHERE name = 'TODD CASEY'"


def test_rewrite_idempotent(episode_catalog, episode_index):
    sql = "SELECT air_date FROM episode WHERE title = 'the firefly' AND written_by = 'dan'"
    once = rewrite(sql, episode_catalog, episode_index)
    assert rewrite(once, episode_catalog, episode_index) == once


def test_rewrite_replacement_is_a_real_cell(episode_catalog, episode_index):
    sql = "SELECT id FROM episode WHERE title = 'revnge of broken jaw'"
    fixed = rewrite(sql, episode_catalog, episode_index)
    [cond] = extract_conditions(fixed)
    assert cond.literal in episode_index.column_cells("episode", "title").cells


def test_rewrite_numeric_column_untouched(episode_catalog, episode_index):
    sql = "SELECT * FROM episode WHERE id = '3'"
    assert rewrite(sql, episode_catalog, episode_index) == sql


def test_rewrite_ambiguous_column_untouched(tmp_db):
    from sqlmend.schema_catalog import build_cell_index, load_catalog

    db = tmp_db("""
        CREATE TABLE a (name TEXT);
        CREATE TABLE b (name TEXT);
    """, {"a": [("Alpha",)], "b": [("Beta",)]})
    catalog = load_catalog(db)
    index = build_cell_index(catalog, db)
    sql = "SELECT * FROM a, b WHERE name = 'alpha'"
    assert rewrite(sql, catalog, index) == sql


def test_rewrite_alias_resolution(episode_catalog, episode_index):
    sql = "SELECT e.title FROM episode AS e WHERE e.written_by = 'chris dingess'"
    fixed = rewrite(sql, episode_catalog, episode_index)
    assert "'Chris Dingess'" in fixed


def test_rewrite_respects_from_scope(episode_catalog, episode_index):
    # name lives in network only; scope comes from the FROM clause
    sql = "SELECT name FROM network WHERE name = 'fox'"
    assert rewrite(sql, episode_catalog, episode_index) == \
        "SELECT name FROM network WHERE name = 'Fox'"


def test_rewrite_preserves_bytes_outside_spans(episode_catalog, episode_index):
    sql = "SELECT  air_date ,title FROM episode WHERE written_by = 'todd casey'  "
    fixed = rewrite(sql, episode_catalog, episode_index)
    assert fixed.startswith("SELECT  air_date ,title FROM episode WHERE written_by = ")
    assert fixed.endswith("  ")


def test_rewrite_quote_style_preserved(episode_catalog, episode_index):
    sql = 'SELECT id FROM episode WHERE title = "double down"'
    fixed = rewrite(sql, episode_catalog, episode_index)
    assert '"Double Down"' in fixed


def test_rewrite_min_score_threshold(episode_catalog, episode_index):
    sql = "SELECT id FROM episode WHERE title = 'zzzzqqqq'"
    forced = rewrite(sql, episode_catalog, episode_index)
    assert "'zzzzqqqq'" not in forced  # argmax replaces even hopeless literals
    kept = rewrite(sql, episode_catalog, episode_index, min_score=0.5)
    assert kept == sql


def test_rewrite_malformed_sql_passes_through(episode_catalog, episode_index):
    junk = "not even sql"
    assert rewrite(junk, episode_catalog, episode_index) == junk


def test_rewrite_leaves_literals_in_comments_untouched(episode_catalog, episode_index):
    sql = ("SELECT title FROM episode -- title = 'x'\nWHERE written_by = 'todd casey' "
           "/* AND title = 'double down' */ -- OR directed_by = 'fred toye'")
    assert [c.literal for c in extract_conditions(sql)] == ["todd casey"]
    assert rewrite(sql, episode_catalog, episode_index) == sql.replace("'todd casey'",
                                                                       "'Todd Casey'")


def test_from_scope_reads_no_name_from_a_comment(episode_catalog, episode_index):
    assert _from_scope(tokenize("SELECT a FROM t -- don't\nORDER BY a")) == (["t"], {})
    sql = "SELECT * FROM -- episode\nnetwork WHERE name = 'fox'"
    assert rewrite(sql, episode_catalog, episode_index) == sql.replace("'fox'", "'Fox'")


def test_quoted_identifiers_name_columns_and_tables(episode_catalog, episode_index):
    sql = "SELECT * FROM [episode] AS `e` WHERE `e`.[written_by] = 'todd casey'"
    [cond] = extract_conditions(sql)
    assert (cond.table, cond.column) == ("e", "written_by")
    assert _from_scope(tokenize(sql)) == (["episode"], {"e": "episode"})
    assert rewrite(sql, episode_catalog, episode_index) == sql.replace("'todd casey'",
                                                                       "'Todd Casey'")
    # a keyword in brackets is a name, not a keyword
    assert extract_conditions("SELECT * FROM t WHERE [from] = 'x'")[0].column == "from"


def test_extract_reads_whole_tokens():
    # a number glued to letters names no column
    assert extract_conditions("SELECT * FROM t WHERE 1e5 = 'x'") == []
    # a character between operator and literal breaks the comparison
    assert extract_conditions("SELECT * FROM t WHERE a = +'x'") == []
    assert _from_scope(tokenize("SELECT * FROM t WHERE x = 1from u")) == (["t"], {})


def test_rewrite_scores_through_the_module_scorer(monkeypatch, episode_catalog, episode_index):
    # perfbench/tracing.py counts post-processing work by swapping this name
    calls = []

    class CountingBackend(postprocess.TrigramBackend):
        def score(self, query, texts):
            calls.append((query, texts))
            return super().score(query, texts)

    monkeypatch.setattr(postprocess, "TrigramBackend", CountingBackend)
    sql = ("SELECT id FROM episode WHERE written_by = 'Todd Casey' "
           "AND title = 'double down' AND directed_by = 'fred toy'")
    assert rewrite(sql, episode_catalog, episode_index) == sql.replace(
        "'double down'", "'Double Down'").replace("'fred toy'", "'Fred Toye'")
    assert calls == [("double down", episode_index.column_cells("episode", "title").cells),
                     ("fred toy", episode_index.column_cells("episode", "directed_by").cells)]
