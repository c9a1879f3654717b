from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import SHOWS_DDL, SHOWS_ROWS, write_dataset
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlmend import evaluation
from sqlmend.evaluation import (
    DatasetFormatError,
    GoldExecutionError,
    exact_match,
    execute_sql,
    execution_accuracy,
    file_predictor,
    has_top_level_order_by,
    load_dataset,
    rows_equal,
    run_benchmark,
    sql_components,
)
from sqlmend.schema_catalog import connect_readonly


def test_ex_identical_queries(episode_db):
    gold = "SELECT title FROM episode"
    assert execution_accuracy(gold, gold, episode_db) is True


def test_ex_wrong_literal_zero_rows(episode_db):
    gold = "SELECT air_date FROM episode WHERE title = 'A Love of a Lifetime'"
    pred = "SELECT air_date FROM episode WHERE title = 'a love of a lifetime'"
    assert execution_accuracy(pred, gold, episode_db) is False


def test_ex_row_order_ignored_without_order_by(episode_db):
    gold = "SELECT title FROM episode ORDER BY id"
    pred = "SELECT title FROM episode ORDER BY id DESC"
    # gold has ORDER BY -> ordered comparison -> different
    assert execution_accuracy(pred, gold, episode_db) is False
    gold_unordered = "SELECT title FROM episode"
    assert execution_accuracy(pred, gold_unordered, episode_db) is True


def test_ex_predicted_execution_error_is_false(episode_db):
    gold = "SELECT title FROM episode"
    assert execution_accuracy("SELECT nope FROM nothing", gold, episode_db) is False


def test_ex_gold_failure_raises(episode_db):
    with pytest.raises(GoldExecutionError):
        execution_accuracy("SELECT 1", "SELECT broken FROM missing", episode_db)


def test_ex_duplicate_rows_are_significant(episode_db):
    gold = "SELECT written_by FROM episode WHERE written_by = 'Todd Casey'"  # two rows
    pred = ("SELECT DISTINCT written_by FROM episode "
            "WHERE written_by = 'Todd Casey'")  # one row
    assert execution_accuracy(pred, gold, episode_db) is False


def test_ex_symmetry_when_both_execute(episode_db):
    a = "SELECT title FROM episode WHERE id < 3"
    b = "SELECT title FROM episode WHERE id > 2"
    assert execution_accuracy(a, b, episode_db) == execution_accuracy(b, a, episode_db)


def test_ex_float_tolerance(episode_db):
    gold = "SELECT AVG(rating) FROM pairing"
    pred = "SELECT SUM(rating) / COUNT(rating) FROM pairing"
    assert execution_accuracy(pred, gold, episode_db) is True


def test_ex_predicted_timeout_is_false(episode_db):
    runaway = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
               "SELECT COUNT(*) FROM c")
    gold = "SELECT title FROM episode"
    assert execution_accuracy(runaway, gold, episode_db, timeout_s=0.2) is False


def test_gold_timeout_marks_unscorable(episode_db):
    runaway = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
               "SELECT COUNT(*) FROM c")
    with pytest.raises(GoldExecutionError):
        execution_accuracy("SELECT 1", runaway, episode_db, timeout_s=0.2)


def test_missing_database_marks_unscorable(tmp_path):
    with pytest.raises(GoldExecutionError):
        execution_accuracy("SELECT 1", "SELECT 1", tmp_path / "absent.sqlite")


def test_each_query_has_its_own_deadline(episode_db, monkeypatch):
    """The gold and the prediction share a connection but not a deadline.

    The clock is fake and moves only when a query calls advance(seconds);
    each query then runs long enough for the progress handler to read it.
    """
    clock = SimpleNamespace(now=0.0)

    def advance(seconds):
        clock.now += seconds
        return 0

    def connect(db_path):
        conn = connect_readonly(db_path)
        conn.create_function("advance", 1, advance)
        return conn

    monkeypatch.setattr(evaluation, "time", SimpleNamespace(monotonic=lambda: clock.now))
    monkeypatch.setattr(evaluation, "connect_readonly", connect)

    def busy(seconds):
        return (f"WITH RECURSIVE c(x) AS (SELECT advance({seconds}) UNION ALL "
                "SELECT x + 1 FROM c WHERE x < 50000) SELECT COUNT(*) FROM c")

    # the gold leaves 0.1 s of its 1 s; the prediction needs 0.5 s of its own
    assert execution_accuracy(busy(0.5), busy(0.9), episode_db, timeout_s=1.0) is True
    assert execution_accuracy(busy(1.5), busy(0.9), episode_db, timeout_s=1.0) is False
    with pytest.raises(GoldExecutionError, match="exceeded"):
        execution_accuracy(busy(0.1), busy(1.5), episode_db, timeout_s=1.0)


# The comparison before the identical-rows fast paths, kept as the oracle,
# with -0.0 sorted as 0: the fast paths are exact only when equal cells
# share a sort key.

def _oracle_cell_key(value) -> tuple:
    if value is None:
        return (0, "")
    if isinstance(value, (int, float)):
        return (1, f"{float(value) + 0.0:.6e}")
    if isinstance(value, bytes):
        return (2, value.hex())
    return (3, str(value))


def _oracle_row_key(row: tuple) -> tuple:
    return tuple(_oracle_cell_key(cell) for cell in row)


def _oracle_cells_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(float(a), float(b), rel_tol=1e-6, abs_tol=1e-9)
    return a == b


def _oracle_rows_equal(pred_rows: list[tuple], gold_rows: list[tuple], ordered: bool) -> bool:
    if len(pred_rows) != len(gold_rows):
        return False
    if pred_rows and len(pred_rows[0]) != len(gold_rows[0]):
        return False
    if not ordered:
        pred_rows = sorted(pred_rows, key=_oracle_row_key)
        gold_rows = sorted(gold_rows, key=_oracle_row_key)
    for pred_row, gold_row in zip(pred_rows, gold_rows):
        if len(pred_row) != len(gold_row):
            return False
        if not all(_oracle_cells_equal(p, g) for p, g in zip(pred_row, gold_row)):
            return False
    return True


# 12345678 and 12345679 share a .6e sort key; 0.1 + 0.2 is within tolerance of 0.3
_CELLS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2),
    st.sampled_from([1, 1.0, 12345678, 12345679, 0.1 + 0.2, 0.3, "a", "1", b"a", b"1"]),
    st.floats(allow_nan=False), st.text(max_size=2), st.binary(max_size=2))
_ROWS = st.lists(st.lists(_CELLS, min_size=1, max_size=3).map(tuple), max_size=5)


@st.composite
def _row_list_pairs(draw):
    gold = draw(_ROWS)
    pred = draw(st.one_of(
        st.just(list(gold)),                                     # an exact copy
        st.permutations(gold),                                   # a reordering
        st.lists(st.sampled_from(gold), max_size=6) if gold else _ROWS,  # duplicates, drops
        _ROWS))                                                  # anything, ragged too
    return list(pred), gold


@settings(max_examples=500, deadline=None)
@given(_row_list_pairs(), st.booleans())
def test_rows_equal_agrees_with_the_oracle(rows, ordered):
    pred, gold = rows
    assert rows_equal(pred, gold, ordered) == _oracle_rows_equal(pred, gold, ordered)


def test_unordered_rows_sort_negative_zero_as_zero():
    # SQLite returns -0.0 for SELECT -0.0; it equals 0 and must sort with it
    assert rows_equal([(0,), (-1,)], [(-1,), (-0.0,)], ordered=False)


def test_order_by_detection_skips_subqueries():
    assert has_top_level_order_by("SELECT a FROM t ORDER BY a")
    assert not has_top_level_order_by(
        "SELECT a FROM (SELECT a FROM t ORDER BY a) x")
    assert not has_top_level_order_by("SELECT 'order by' FROM t")


def test_em_ignores_literal_values():
    a = "SELECT air_date FROM episode WHERE title = 'A Love of a Lifetime'"
    b = "SELECT air_date FROM episode WHERE title = 'Double Down'"
    assert exact_match(a, b) is True


def test_em_where_order_insensitive():
    a = "SELECT t FROM e WHERE a = 'x' AND b = 'y'"
    b = "SELECT t FROM e WHERE b = 'q' AND a = 'z'"
    assert exact_match(a, b) is True


def test_em_extra_join_is_false():
    a = "SELECT e.t FROM e JOIN p ON e.id = p.eid"
    b = "SELECT e.t FROM e"
    assert exact_match(a, b) is False


def test_em_different_connectives_differ():
    a = "SELECT t FROM e WHERE a = 'x' AND b = 'y'"
    b = "SELECT t FROM e WHERE a = 'x' OR b = 'y'"
    assert exact_match(a, b) is False


def test_em_out_of_coverage_is_none():
    nested = "SELECT t FROM e WHERE id IN (SELECT id FROM p)"
    plain = "SELECT t FROM e"
    assert exact_match(nested, plain) is None
    compound = "SELECT t FROM e UNION SELECT t FROM f"
    assert exact_match(compound, plain) is None
    assert exact_match("DELETE FROM e", plain) is None


def test_em_case_and_whitespace_insensitive():
    a = "select  T , COUNT(*) from E group by t"
    b = "SELECT t, count(*) FROM e GROUP BY T"
    assert exact_match(a, b) is True


def test_em_limit_value_masked():
    assert exact_match("SELECT t FROM e LIMIT 1", "SELECT t FROM e LIMIT 5") is True
    assert exact_match("SELECT t FROM e LIMIT 1", "SELECT t FROM e") is False


def test_components_structure():
    parts = sql_components(
        "SELECT a, COUNT(*) FROM t JOIN u ON t.id = u.tid "
        "WHERE a = 'x' GROUP BY a HAVING COUNT(*) > 2 ORDER BY a DESC LIMIT 3")
    assert parts["from_tables"] == frozenset({"t", "u"})
    assert parts["limit"] is True
    where_conditions, where_connectives = parts["where"]
    assert where_conditions == frozenset({"a=?"})


# Edge outputs of the clause parser that the lexer keeps as they were.
WHERE_PINS = [
    # BETWEEN's AND splits like a connective
    ("x BETWEEN 1 AND 5", {"x between ?", "?"}, ("and",)),
    # doubled-quote escapes stay inside one literal
    ("n = 'O''Hara' AND m = \"say \"\"hi\"\"\"", {"n=?", "m=?"}, ("and",)),
    ("b = 'order by'", {"b=?"}, ()),
    ("(a = 1 OR (b = 2 AND c = 3)) AND d = 4", {"(a=? or(b=? and c=?))", "d=?"}, ("and",)),
    # a number glued to letters is not masked
    ("x = 1e5 AND y = 2.5", {"x=1e5", "y=?"}, ("and",)),
    # a connective with no condition on one side stays on its neighbour
    ("OR x = 1", {"or x=?"}, ("or",)),
    ("x = 1 AND AND y = 2", {"x=?", "and y=?"}, ("and", "and")),
    ("x = 1 AND OR y = 2", {"x=?", "or y=?"}, ("and", "or")),
    ("x = 1 OR", {"x=? or"}, ("or",)),
    ("x = 1 AND(y = 2)", {"x=? and(y=?)"}, ("and",)),
    # a keyword glued to a digit is no keyword
    ("x = 1from u", {"x=1from u"}, ()),
    ("x = 1order by a", {"x=1order by a"}, ()),
    # a stray quote in the last condition masks nothing
    ("a = 'x' AND b = 'y", {"a=?", "b='y"}, ("and",)),
]


@pytest.mark.parametrize("where, conditions, connectives", WHERE_PINS)
def test_where_split_edges(where, conditions, connectives):
    parts = sql_components(f"SELECT a FROM t WHERE {where}")
    assert parts["where"] == (frozenset(conditions), connectives)
    assert parts["from_tables"] == frozenset({"t"})
    assert parts["order by"] == ""


def test_keywords_inside_identifiers_are_not_keywords():
    sql = "SELECT order_id, ordering, byline FROM t1 ORDER BY order_id"
    parts = sql_components(sql)
    assert parts["select"] == frozenset({"order_id", "ordering", "byline"})
    assert parts["from_tables"] == frozenset({"t1"})
    assert parts["order by"] == "order_id"
    assert has_top_level_order_by(sql)
    assert not has_top_level_order_by("SELECT order_id, byline FROM t1")
    assert not has_top_level_order_by("SELECT a FROM t WHERE b = 'order by'")
    assert not has_top_level_order_by("SELECT a FROM t WHERE x = 1order by a")


def test_order_by_detection_skips_nested_parens():
    assert not has_top_level_order_by(
        "SELECT a FROM t WHERE a IN (SELECT b FROM (SELECT b FROM u ORDER BY b) ORDER BY b)")
    assert has_top_level_order_by("SELECT (a) FROM t ORDER\n  BY (a)")


@pytest.mark.parametrize("sql, ordered", [
    ("SELECT a FROM t -- order by b", False),
    ("SELECT a FROM t -- don't\nORDER BY a", True),
    ("SELECT a FROM t /* order by b */", False),
    ("SELECT a FROM t /* don't */ ORDER BY a", True),
    ("SELECT [order by] FROM t", False),
    # the text after a stray quote is read on
    ("SELECT a FROM t WHERE b = 'x ORDER BY a", True),
])
def test_order_by_detection_knows_comments_and_identifiers(sql, ordered):
    assert has_top_level_order_by(sql) is ordered


def test_comments_reach_no_fragment():
    parts = sql_components("SELECT a, b -- first, second\nFROM t /* the, table */ "
                           "WHERE x = 1 -- don't\nORDER BY a")
    assert parts["select"] == frozenset({"a", "b"})
    assert parts["from_tables"] == frozenset({"t"})
    assert parts["where"] == (frozenset({"x=?"}), ())
    assert parts["order by"] == "a"
    assert sql_components("-- lead\nSELECT a FROM t;  -- done")["select"] == frozenset({"a"})


@pytest.mark.parametrize("where", ["name = 'Union Station'", "b = '('", "b = 'select'"])
def test_keywords_and_parens_inside_literals_keep_coverage(where):
    sql = f"SELECT a FROM t WHERE {where}"
    assert sql_components(sql) is not None
    assert exact_match(sql, sql.replace("'", '"')) is True


def test_quoted_identifiers_are_identifiers():
    parts = sql_components("SELECT [order by], `a'b` FROM [t] JOIN `u` ON [t].x = `u`.y "
                           "WHERE c IN (\"it's\", 'x')")
    assert parts["select"] == frozenset({"[order by]", "`a'b`"})
    assert parts["from_tables"] == frozenset({"t", "u"})
    assert parts["join_conditions"] == frozenset({("[t].x", "`u`.y")})
    assert parts["where"] == (frozenset({"c in(?,?)"}), ())


def test_clause_parser_reads_whole_tokens():
    # a stray quote starts no literal, so the AND after it splits
    assert sql_components("SELECT a FROM t WHERE a = 'x AND b = \"y\"")["where"] == \
        (frozenset({"a='x", "b=?"}), ("and",))
    # a number glued to letters is one token, kept as written
    assert sql_components("SELECT a FROM t WHERE x = 1.5x")["where"] == \
        (frozenset({"x=1.5x"}), ())
    # a join condition splits at = only
    assert sql_components("SELECT t.a FROM t JOIN u ON t.a >= u.b")["join_conditions"] == \
        frozenset({("t.a>=u.b",)})
    assert sql_components('SELECT a FROM "my table"')["from_tables"] == frozenset({"my table"})
    assert sql_components("SELECT a FROM t; ;")["from_tables"] == frozenset({"t"})
    # a first word that only begins with select is no SELECT
    assert sql_components("SELECTa SELECT b FROM t") is None


@pytest.mark.parametrize("sql", [
    "SELECT a FROM t WHERE (a = 1",
    "SELECT a FROM t WHERE a = 1 WHERE b = 2",
    "SELECT a FROM main.t",
], ids=["unbalanced-parens", "repeated-clause", "qualified-from-entry"])
def test_one_core_outside_coverage_has_no_components(sql):
    assert sql_components(sql) is None


# ---------------------------------------------------------------------------
# run_benchmark
# ---------------------------------------------------------------------------


def test_benchmark_gold_as_predictions(toy_dataset):
    examples, _root = load_dataset(toy_dataset)
    report = run_benchmark(toy_dataset, lambda ex: ex.gold_sql)
    agg = report.aggregates()
    assert agg["n"] == 3
    assert agg["ex_correct"] == 3
    assert agg["ex_rate"] == 1.0
    assert agg["em_correct"] == agg["em_covered"] == 3


def test_benchmark_post_process_recovers_corrupted_literal(toy_dataset):
    def corrupting(ex):
        return ex.gold_sql.replace("'A Love of a Lifetime'", "'a love of a lifetime'")

    plain = run_benchmark(toy_dataset, corrupting, post_process=False)
    fixed = run_benchmark(toy_dataset, corrupting, post_process=True)
    assert plain.aggregates()["ex_correct"] == 2
    assert fixed.aggregates()["ex_correct"] == 3


def test_benchmark_missing_db_raises(tmp_path):
    dataset = tmp_path / "examples.json"
    dataset.write_text(json.dumps([{
        "id": "x", "db_id": "ghost", "question": "?", "gold_sql": "SELECT 1"}]))
    with pytest.raises(DatasetFormatError) as exc:
        run_benchmark(dataset, lambda ex: ex.gold_sql)
    assert "x" in str(exc.value)


def test_load_dataset_rejects_a_directory_as_database(tmp_path):
    (tmp_path / "database" / "shows" / "shows.sqlite").mkdir(parents=True)
    dataset = tmp_path / "examples.json"
    dataset.write_text(json.dumps([{
        "id": "x", "db_id": "shows", "question": "?", "gold_sql": "SELECT 1"}]))
    with pytest.raises(DatasetFormatError, match="record x: missing database"):
        load_dataset(dataset)


def test_each_database_is_built_once_per_run(tmp_path, monkeypatch):
    import sqlmend.schema_catalog
    from sqlmend.evaluation import pipeline_predictor
    from sqlmend.orchestrator import ScriptedAgent

    examples = [{"id": f"{db_id}{i}", "db_id": db_id, "question": f"Titles {i} in {db_id}?",
                 "gold_sql": "SELECT title FROM show WHERE title = 'The Firefly'"}
                for db_id in ("a", "b") for i in range(3)]
    write_dataset(tmp_path, examples, "a", SHOWS_DDL, {"show": SHOWS_ROWS})
    dataset = write_dataset(tmp_path, examples, "b", SHOWS_DDL, {"show": SHOWS_ROWS})
    draft = 'add_select(title)\nadd_from(show)\nadd_where(title, =, "the firefly")'
    script = {e["question"]: draft for e in examples}
    calls = Counter()
    for name in ("load_catalog", "build_cell_index"):
        def counting(*args, _name=name, _original=getattr(sqlmend.schema_catalog, name)):
            calls[_name, Path(args[-1]).parent.name] += 1
            return _original(*args)

        monkeypatch.setattr(sqlmend.schema_catalog, name, counting)

    reports = []
    for workers in (1, 3):
        calls.clear()
        predictor = pipeline_predictor(lambda: ScriptedAgent(script), tmp_path / "database")
        report = run_benchmark(dataset, predictor, post_process=True, workers=workers)
        assert report.aggregates()["ex_rate"] == 1.0
        assert calls == {(name, db_id): 1 for name in ("load_catalog", "build_cell_index")
                         for db_id in ("a", "b")}
        reports.append(json.dumps(report.to_json_dict(), sort_keys=True))
    assert reports[0] == reports[1]


def test_benchmark_bad_record_raises(tmp_path):
    dataset = tmp_path / "examples.json"
    dataset.write_text(json.dumps([{"id": "y", "db_id": "shows"}]))
    with pytest.raises(DatasetFormatError) as exc:
        run_benchmark(dataset, lambda ex: "SELECT 1")
    assert "y" in str(exc.value)


def test_benchmark_unscorable_gold_counted_separately(tmp_path, toy_dataset):
    data = json.loads(toy_dataset.read_text())
    data.append({"id": "broken", "db_id": "shows", "question": "?",
                 "gold_sql": "SELECT missing FROM nowhere"})
    toy_dataset.write_text(json.dumps(data))
    report = run_benchmark(toy_dataset, lambda ex: ex.gold_sql)
    agg = report.aggregates()
    assert agg["unscorable"] == 1
    assert agg["scorable"] == 3
    assert agg["ex_rate"] == 1.0


def test_benchmark_predictor_error_scores_false(toy_dataset):
    def fragile(ex):
        if ex.id == "e1":
            raise RuntimeError("boom")
        return ex.gold_sql

    report = run_benchmark(toy_dataset, fragile)
    agg = report.aggregates()
    assert agg["ex_correct"] == 2
    by_id = {r.id: r for r in report.results}
    assert by_id["e1"].ex is False
    assert "boom" in by_id["e1"].error


def test_benchmark_parallel_matches_serial(toy_dataset):
    serial = run_benchmark(toy_dataset, lambda ex: ex.gold_sql, workers=1)
    parallel = run_benchmark(toy_dataset, lambda ex: ex.gold_sql, workers=3)
    assert json.dumps(serial.to_json_dict(), sort_keys=True) == \
        json.dumps(parallel.to_json_dict(), sort_keys=True)


def test_benchmark_aggregates_match_recomputation(toy_dataset):
    report = run_benchmark(toy_dataset, lambda ex: ex.gold_sql)
    agg = report.aggregates()
    assert agg["ex_correct"] == sum(1 for r in report.results if r.ex)
    assert agg["n"] == len(report.results)


def test_file_predictor_alignment(toy_dataset, tmp_path):
    examples, _ = load_dataset(toy_dataset)
    pred_file = tmp_path / "preds.sql"
    pred_file.write_text("\n".join(ex.gold_sql for ex in examples) + "\n")
    predict = file_predictor(pred_file, examples)
    assert predict(examples[1]) == examples[1].gold_sql

    pred_file.write_text("SELECT 1\n")
    with pytest.raises(DatasetFormatError):
        file_predictor(pred_file, examples)


def test_file_predictor_rejects_duplicate_ids(toy_dataset, tmp_path):
    examples, _ = load_dataset(toy_dataset)
    examples[2].id = examples[0].id
    pred_file = tmp_path / "preds.sql"
    pred_file.write_text("\n".join(ex.gold_sql for ex in examples) + "\n")
    with pytest.raises(DatasetFormatError, match="duplicate example id 'e0'"):
        file_predictor(pred_file, examples)


def test_report_text_table(toy_dataset):
    report = run_benchmark(toy_dataset, lambda ex: ex.gold_sql)
    table = report.format_table()
    assert "EX 3/3" in table


def test_execute_sql_fetches_at_most_max_rows(episode_db):
    sql = "SELECT id FROM episode ORDER BY id"
    assert execute_sql(episode_db, sql) == [(1,), (2,), (3,), (4,), (5,)]
    assert execute_sql(episode_db, sql, max_rows=2) == [(1,), (2,)]
