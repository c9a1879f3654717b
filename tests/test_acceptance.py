"""Acceptance suite: one test per release criterion, each printing a
PASS line with its number once its assertions hold. Everything runs on
deterministic local fixtures with replay agents and fixed seeds.
"""

from __future__ import annotations

import itertools
import json
import sqlite3
import time

import pytest
from hypothesis import given, settings

from sqlmend.actions import (
    ActionSequence,
    AddWhere,
    CONDITIONAL_KINDS,
    ColumnRef,
    Literal,
    parse_actions,
    serialize_actions,
)
from sqlmend.assembler import assemble
from sqlmend.detector import detect, load_rules
from sqlmend.evaluation import (
    exact_match,
    execute_sql,
    execution_accuracy,
    run_benchmark,
)
from sqlmend.orchestrator import RefinementConfig, ScriptedAgent, run
from sqlmend.perturb import dehighlight, example_from_json, perturb_example
from sqlmend.retriever import Matched, Mismatch, check_condition
from sqlmend.schema_catalog import build_cell_index, load_catalog

from conftest import make_db
from dsl_strategies import executable_sequences, sequences
from test_detector import CORPUS, CUSTOM_CORPUS, NULL_RULE

import random


def passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


# ---------------------------------------------------------------------------
# 1. Retriever verdicts equal a brute-force membership scan
# ---------------------------------------------------------------------------


def test_01_retriever_oracle_equivalence(episode_db, episode_catalog, episode_index):
    started = time.monotonic()
    conn = sqlite3.connect(episode_db)
    text_columns = [
        (t.name, c.name)
        for t in episode_catalog.tables
        for c in t.columns if c.affinity == "TEXT"
    ]
    pools: dict[tuple[str, str], list[str]] = {}
    for table, column in text_columns:
        rows = conn.execute(f"SELECT {column} FROM {table}").fetchall()
        pools[(table, column)] = [r[0] for r in rows if isinstance(r[0], str)]
    conn.close()

    rng = random.Random(20240917)
    all_cells = [v for pool in pools.values() for v in pool]

    def random_literal() -> str:
        mode = rng.randrange(5)
        base = rng.choice(all_cells)
        if mode == 0:
            return base
        if mode == 1:
            return base.lower()
        if mode == 2:
            return base[:-1] if len(base) > 1 else base + "x"
        if mode == 3:
            return base + rng.choice([" Jr", "!", "s"])
        return "".join(rng.choice("abcdefghij ") for _ in range(rng.randrange(1, 12)))

    disagreements = 0
    probes = 600
    for _ in range(probes):
        table, column = rng.choice(text_columns)
        literal = random_literal()
        op = rng.choice(["=", "!=", "IN", "LIKE"])
        if "%" in literal or "_" in literal:
            op = "="
        value = Literal(kind="text", value=literal)
        if op == "IN":
            from sqlmend.actions import LiteralList

            value = LiteralList(items=(Literal(kind="text", value=literal),))
        action = AddWhere(column=ColumnRef(column=column, table=table), op=op, value=value)
        verdict = check_condition(action, episode_catalog, episode_index)
        assert isinstance(verdict, (Matched, Mismatch)), verdict
        oracle_match = any(cell == literal for cell in pools[(table, column)])
        if isinstance(verdict, Matched) != oracle_match:
            disagreements += 1
    elapsed = time.monotonic() - started
    assert disagreements == 0
    assert elapsed < 10.0
    passed(1, f"retriever oracle equivalence ({probes} probes, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. Replay-agent value correction end to end
# ---------------------------------------------------------------------------


def test_02_value_correction_end_to_end(episode_catalog, episode_index):
    question = "Which episodes did todd casey write?"
    scripted = [
        'add_select(title)\nadd_from(episode)\nadd_where(written_by, =, "todd casey")',
        'add_select(title)\nadd_from(episode)\nadd_where(written_by, =, "Todd Casey")',
    ]
    agent = ScriptedAgent({question: scripted})
    trace = run(question, episode_catalog, episode_index, (), agent)
    sql = assemble(trace.final)
    assert "'Todd Casey'" in sql
    assert len(trace.iterations) == len(scripted)
    assert trace.exhausted is False
    passed(2, "replay value-correction scenario")


# ---------------------------------------------------------------------------
# 3. Detector seeded-corpus soundness
# ---------------------------------------------------------------------------


def test_03_detector_seeded_corpus(episode_catalog):
    rules = load_rules(NULL_RULE)
    cases = dict(CORPUS)
    total = 0
    for kind, (trigger, repair) in cases.items():
        trigger_seq = parse_actions(trigger).sequence
        repair_seq = parse_actions(repair).sequence
        assert {f.kind for f in detect(trigger_seq, episode_catalog)} == {kind}, kind
        assert detect(repair_seq, episode_catalog) == [], kind
        total += 2
    trigger, repair = CUSTOM_CORPUS
    findings = detect(parse_actions(trigger).sequence, episode_catalog, rules)
    assert {f.kind for f in findings} == {"CustomRuleViolation"}
    assert detect(parse_actions(repair).sequence, episode_catalog, rules) == []
    total += 2
    assert total >= 20
    passed(3, f"detector corpus soundness ({total} cases, {len(cases) + 1} kinds)")


# ---------------------------------------------------------------------------
# 4. DSL round trip over >= 1000 generated sequences
# ---------------------------------------------------------------------------

_round_trip_count = itertools.count()


@given(sequences())
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_04_dsl_round_trip(seq):
    result = parse_actions(serialize_actions(seq))
    assert result.errors == []
    assert result.sequence == seq
    next(_round_trip_count)


def test_04_dsl_round_trip_volume():
    examples = next(_round_trip_count)
    assert examples >= 1000
    passed(4, f"action DSL round trip ({examples} sequences)")


# ---------------------------------------------------------------------------
# 5. Every assembled query from the corpus executes
# ---------------------------------------------------------------------------

_executed_count = itertools.count()


@pytest.fixture(scope="session")
def episode_db_session(episode_db):
    return episode_db


@given(executable_sequences())
@settings(max_examples=500, deadline=None, derandomize=True)
def test_05_assembly_executability(episode_db_session, seq):
    sql = assemble(seq)
    conn = sqlite3.connect(f"file:{episode_db_session}?mode=ro", uri=True)
    try:
        conn.execute(sql).fetchall()
    finally:
        conn.close()
    next(_executed_count)


def test_05_assembly_executability_volume():
    examples = next(_executed_count)
    assert examples >= 500
    passed(5, f"assembly executability ({examples} queries)")


# ---------------------------------------------------------------------------
# 6. Exhaustion fallback restores the first conditional actions
# ---------------------------------------------------------------------------


def test_06_fallback_contract(episode_catalog, episode_index):
    question = "Who wrote the pilot?"
    stubborn = ('add_select(title)\nadd_from(episode)\n'
                'add_where(written_by, =, "nobody at all")')
    agent = ScriptedAgent({question: [stubborn]})
    trace = run(question, episode_catalog, episode_index, (), agent,
                RefinementConfig(max_iterations=3))
    assert len(trace.iterations) == 4
    assert trace.exhausted is True
    initial = trace.iterations[0][0]

    def conditional_bytes(seq: ActionSequence) -> bytes:
        block = ActionSequence(actions=[a for a in seq.actions
                                        if isinstance(a, CONDITIONAL_KINDS)])
        return serialize_actions(block).encode("utf-8")

    assert conditional_bytes(trace.final) == conditional_bytes(initial)
    passed(6, "exhaustion fallback contract")


# ---------------------------------------------------------------------------
# 7. Execution-accuracy metric properties
# ---------------------------------------------------------------------------


def test_07_ex_metric_properties(toy_dataset):
    report = run_benchmark(toy_dataset, lambda ex: ex.gold_sql)
    assert report.aggregates()["ex_rate"] == 1.0

    db = toy_dataset.parent / "database" / "shows" / "shows.sqlite"
    # hand-executed expectation: titles in insertion order
    expected_rows = [("A Love of a Lifetime",), ("Double Down",), ("The Firefly",)]
    assert execute_sql(db, "SELECT title FROM show ORDER BY id") == expected_rows
    assert execute_sql(db, "SELECT title FROM show ORDER BY id DESC") == \
        list(reversed(expected_rows))

    unordered_gold = "SELECT title FROM show"
    reversed_pred = "SELECT title FROM show ORDER BY id DESC"
    assert execution_accuracy(reversed_pred, unordered_gold, db) is True

    ordered_gold = "SELECT title FROM show ORDER BY id"
    assert execution_accuracy(reversed_pred, ordered_gold, db) is False
    assert execution_accuracy("SELECT title FROM show ORDER BY id", ordered_gold, db) is True
    passed(7, "execution-accuracy metric properties")


# ---------------------------------------------------------------------------
# 8. Post-processing helps a value-corrupting baseline, not the pipeline
# ---------------------------------------------------------------------------

ADJECTIVES = ["Amber", "Broken", "Crimson", "Distant", "Emerald",
              "Frozen", "Gilded", "Hollow", "Iron", "Jade"]
NOUNS = ["Valley", "Harbor", "Garden", "Summit", "Lantern", "Meadow"]


def _titles(n: int) -> list[str]:
    pairs = itertools.product(ADJECTIVES, NOUNS)
    return [f"{a} {b}" for a, b in itertools.islice(pairs, n)]


@pytest.fixture(scope="module")
def perturbed_benchmark(tmp_path_factory):
    """20 machine-perturbed questions over a 30-title database, plus the
    originals and a replay script that mismatches once then corrects."""
    root = tmp_path_factory.mktemp("bench20")
    titles = _titles(30)
    rows = [(i + 1, title, f"2009-{(i % 12) + 1:02d}-{(i % 27) + 1:02d}")
            for i, title in enumerate(titles)]
    db_dir = root / "database" / "shows20"
    db_dir.mkdir(parents=True)
    db_path = db_dir / "shows20.sqlite"
    make_db(db_path, "CREATE TABLE show (id INTEGER PRIMARY KEY, title TEXT, "
                     "air_date TEXT);", {"show": rows})

    originals = []
    for i in range(20):
        title = titles[i]
        question = f'When did the episode "{title}" air?'
        gold = f"SELECT air_date FROM show WHERE title = '{title}'"
        start = question.index('"')
        end = question.index("?") - len(" air")
        originals.append(example_from_json({
            "question": question, "gold_sql": gold, "db_id": "shows20",
            "value_spans": [{"start": start, "end": end, "column": "show.title",
                             "literal": title}],
            "column_mention_spans": [{"start": 9, "end": 20, "column": "show.title"}],
        }))

    catalog = load_catalog(db_path)
    index = build_cell_index(catalog, db_path)
    perturbed = []
    for i, example in enumerate(originals):
        out, applied = perturb_example(example, ["remove_column", "remove_highlight"],
                                       seed=100 + i, catalog=catalog, index=index)
        assert applied == ["remove_column", "remove_highlight"]
        perturbed.append(out)

    dataset = root / "examples.json"
    dataset.write_text(json.dumps([
        {"id": f"p{i}", "db_id": "shows20", "question": p.question,
         "gold_sql": p.gold_sql}
        for i, p in enumerate(perturbed)
    ], indent=1), encoding="utf-8")

    corrupted = {}
    replay_script = {}
    for i, (original, p) in enumerate(zip(originals, perturbed)):
        title = titles[i]
        lowered = dehighlight(f'"{title}"')
        corrupted[f"p{i}"] = p.gold_sql.replace(f"'{title}'", f"'{lowered}'")
        replay_script[p.question] = [
            "add_select(air_date)\nadd_from(show)\n"
            f'add_where(title, =, "{lowered}")',
            "add_select(air_date)\nadd_from(show)\n"
            f'add_where(title, =, "{title}")',
        ]
    return {
        "dataset": dataset,
        "db_path": db_path,
        "catalog": catalog,
        "index": index,
        "originals": originals,
        "perturbed": perturbed,
        "corrupted": corrupted,
        "replay_script": replay_script,
    }


def test_08_postprocess_directionality(perturbed_benchmark):
    bench = perturbed_benchmark
    corrupting = lambda ex: bench["corrupted"][ex.id]

    baseline_off = run_benchmark(bench["dataset"], corrupting, post_process=False)
    baseline_on = run_benchmark(bench["dataset"], corrupting, post_process=True)
    ex_off = baseline_off.aggregates()["ex_rate"]
    ex_on = baseline_on.aggregates()["ex_rate"]
    assert ex_on - ex_off >= 0.3, (ex_on, ex_off)

    from sqlmend.evaluation import pipeline_predictor

    def agent_factory():
        return ScriptedAgent(bench["replay_script"])

    db_root = bench["dataset"].parent / "database"
    pipeline_off = run_benchmark(
        bench["dataset"], pipeline_predictor(agent_factory, db_root),
        post_process=False)
    pipeline_on = run_benchmark(
        bench["dataset"], pipeline_predictor(agent_factory, db_root),
        post_process=True)
    n_off = pipeline_off.aggregates()["ex_correct"]
    n_on = pipeline_on.aggregates()["ex_correct"]
    assert abs(n_on - n_off) <= 1, (n_on, n_off)
    assert n_off >= 19  # the pipeline itself solves the perturbed set
    passed(8, f"post-processing directionality (baseline {ex_off:.2f}->{ex_on:.2f}, "
              f"pipeline {n_off}->{n_on} of 20)")


# ---------------------------------------------------------------------------
# 9. Perturbations preserve gold structure and executability
# ---------------------------------------------------------------------------


def test_09_perturber_structure_preservation(perturbed_benchmark):
    bench = perturbed_benchmark
    checked = 0
    for original, perturbed in zip(bench["originals"], bench["perturbed"]):
        assert exact_match(original.gold_sql, perturbed.gold_sql) is True
        assert execution_accuracy(perturbed.gold_sql, perturbed.gold_sql,
                                  bench["db_path"]) is True
        checked += 1
    # the value-replacing disturbance changes the gold too; same guarantees
    for i, original in enumerate(bench["originals"]):
        swapped, applied = perturb_example(
            original, ["replace_value"], seed=500 + i,
            catalog=bench["catalog"], index=bench["index"])
        assert applied == ["replace_value"]
        assert swapped.gold_sql != original.gold_sql
        assert exact_match(original.gold_sql, swapped.gold_sql) is True
        rows = execute_sql(bench["db_path"], swapped.gold_sql)
        assert rows, "replaced gold must still select the swapped cell"
        checked += 1
    passed(9, f"perturber structure preservation ({checked} examples)")


# ---------------------------------------------------------------------------
# 10. Byte-identical traces and reports across runs
# ---------------------------------------------------------------------------


def test_10_determinism(episode_catalog, episode_index, perturbed_benchmark):
    question = "Which episodes did todd casey write?"
    scripted = [
        'add_select(title)\nadd_from(episode)\nadd_where(written_by, =, "todd casey")',
        'add_select(title)\nadd_from(episode)\nadd_where(written_by, =, "Todd Casey")',
    ]

    def trace_bytes() -> bytes:
        agent = ScriptedAgent({question: scripted})
        trace = run(question, episode_catalog, episode_index, (), agent)
        return json.dumps(trace.to_json_dict(), sort_keys=True,
                          ensure_ascii=False).encode("utf-8")

    assert trace_bytes() == trace_bytes()

    bench = perturbed_benchmark

    def report_bytes() -> bytes:
        report = run_benchmark(bench["dataset"],
                               lambda ex: bench["corrupted"][ex.id],
                               post_process=True)
        return json.dumps(report.to_json_dict(), sort_keys=True,
                          ensure_ascii=False).encode("utf-8")

    assert report_bytes() == report_bytes()
    passed(10, "byte-identical traces and reports")
