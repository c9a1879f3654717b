from __future__ import annotations

import sqlite3

import pytest
from hypothesis import given, settings

from sqlmend.actions import (
    ActionSequence,
    AddFrom,
    AddSelect,
    AddWhere,
    ColumnRef,
    QA,
    SelectItem,
    SubqueryRef,
    parse_actions,
)
from sqlmend.assembler import (
    ConnectivePlan,
    PlanMismatch,
    UnresolvedSubQuestion,
    assemble,
    predict_connectives,
    quote_identifier,
)
from sqlmend.orchestrator import ScriptedAgent

from dsl_strategies import executable_sequences


def seq_of(text: str):
    result = parse_actions(text)
    assert not result.errors, result.errors
    return result.sequence


def test_assemble_basic_select_where():
    seq = seq_of('add_select(air_date)\nadd_from(episode)\n'
                 'add_where(title, =, "A Love of a Lifetime")')
    assert assemble(seq) == \
        "SELECT air_date FROM episode WHERE title = 'A Love of a Lifetime'"


def test_assemble_bare_operands_render_unquoted():
    seq = seq_of("add_select(A)\nadd_from(T)\nadd_where(A, =, B)")
    assert "WHERE A = B" in assemble(seq)


def test_assemble_or_plan_and_fallback():
    seq = seq_of('add_select(title)\nadd_from(episode)\n'
                 'add_where(written_by, =, "Todd Casey")\n'
                 'add_where(written_by, =, "Dan Dworkin")')
    with_or = assemble(seq, ConnectivePlan(where=("OR",)))
    assert "WHERE written_by = 'Todd Casey' OR written_by = 'Dan Dworkin'" in with_or
    fallback = assemble(seq)
    assert "WHERE written_by = 'Todd Casey' AND written_by = 'Dan Dworkin'" in fallback


def test_assemble_plan_mismatch():
    seq = seq_of('add_select(title)\nadd_from(episode)\n'
                 'add_where(title, =, "x")\nadd_where(title, =, "y")')
    with pytest.raises(PlanMismatch):
        assemble(seq, ConnectivePlan(where=("AND", "OR")))


def test_assemble_clause_order_and_joins():
    seq = seq_of(
        "add_limit(3)\n"
        "add_order_by(COUNT(*), DESC)\n"
        "add_having(COUNT(*), >, 1)\n"
        "add_group_by(episode.written_by)\n"
        'add_where(episode.air_date, LIKE, "2009%")\n'
        "add_from(episode, pairing, join(pairing.episode_id, episode.id))\n"
        "add_select(episode.written_by, COUNT(*))"
    )
    sql = assemble(seq)
    assert sql == (
        "SELECT episode.written_by, COUNT(*) "
        "FROM episode JOIN pairing ON pairing.episode_id = episode.id "
        "WHERE episode.air_date LIKE '2009%' "
        "GROUP BY episode.written_by "
        "HAVING COUNT(*) > 1 "
        "ORDER BY COUNT(*) DESC LIMIT 3"
    )


def test_assemble_text_literals_escape_quotes():
    seq = seq_of('add_select(title)\nadd_from(episode)\n'
                 "add_where(directed_by, =, \"Terrence O'Hara\")")
    assert "WHERE directed_by = 'Terrence O''Hara'" in assemble(seq)


def test_assemble_between_and_in():
    seq = seq_of("add_select(id)\nadd_from(episode)\n"
                 "add_where(id, BETWEEN, (1, 3))\n"
                 'add_where(title, IN, ("a", "b"))')
    sql = assemble(seq)
    assert "id BETWEEN 1 AND 3" in sql
    assert "title IN ('a', 'b')" in sql


def test_assemble_null_guards_use_is_forms():
    seq = seq_of("add_select(title)\nadd_from(episode)\n"
                 "add_where(air_date, !=, NULL)")
    assert "air_date IS NOT NULL" in assemble(seq)


def test_assemble_distinct_variants():
    seq = seq_of("add_select(DISTINCT written_by)\nadd_from(episode)")
    assert assemble(seq).startswith("SELECT DISTINCT written_by")
    seq = seq_of("add_select(COUNT(DISTINCT written_by))\nadd_from(episode)")
    assert assemble(seq).startswith("SELECT COUNT(DISTINCT written_by)")


def test_assemble_merge_compound():
    text = """add_merge(UNION):
    left:
        add_select(name)
        add_from(network)
    right:
        add_select(title)
        add_from(episode)
"""
    sql = assemble(seq_of(text))
    assert sql == "SELECT name FROM network UNION SELECT title FROM episode"


def test_assemble_merge_child_with_limit_wraps():
    text = """add_merge(UNION):
    left:
        add_select(name)
        add_from(network)
        add_limit(1)
    right:
        add_select(title)
        add_from(episode)
"""
    sql = assemble(seq_of(text))
    assert sql.startswith("SELECT * FROM (SELECT name FROM network LIMIT 1) UNION")


def test_assemble_identifier_quoting_only_when_needed():
    assert quote_identifier("title") == "title"
    assert quote_identifier("select") == '"select"'
    assert quote_identifier("odd name") == '"odd name"'


def test_assemble_unresolved_qa_is_an_error():
    seq = seq_of('add_select(title)\nadd_from(episode)\nqa("what year?")')
    with pytest.raises(UnresolvedSubQuestion):
        assemble(seq)


def test_assemble_subquery_reference():
    text = """qa("which episodes had guests"):
    add_select(episode_id)
    add_from(pairing)
add_select(title)
add_from(episode)
add_where(id, IN, @s.0.qa)
"""
    sql = assemble(seq_of(text))
    assert "WHERE id IN (SELECT episode_id FROM pairing)" in sql


def test_assemble_resolves_a_reference_in_a_tree_built_in_code():
    # ids come from positions alone, so no pass has to number the tree first
    sub = ActionSequence(actions=[AddSelect(items=(SelectItem("episode_id"),)),
                                  AddFrom(tables=("pairing",))])
    seq = ActionSequence(actions=[
        AddSelect(items=(SelectItem("title"),)), AddFrom(tables=("episode",)),
        QA(sub_question="which", resolved=sub),
        AddWhere(column=ColumnRef("id"), op="IN", value=SubqueryRef("s.2.qa"))])
    assert assemble(seq) == ("SELECT title FROM episode "
                             "WHERE id IN (SELECT episode_id FROM pairing)")


def test_assemble_dangling_reference_is_an_error():
    seq = seq_of("add_select(title)\nadd_from(episode)\nadd_where(id, IN, @missing)")
    with pytest.raises(UnresolvedSubQuestion):
        assemble(seq)


SELF_REFERENCE = """add_select(title)
add_from(episode)
add_where(id, IN, @s.3.qa)
qa("which episodes"):
    add_select(id)
    add_from(episode)
    add_where(id, IN, @s.3.qa)
"""


@pytest.mark.parametrize("text", [
    SELF_REFERENCE,
    # a child naming the root that encloses it
    'add_select(title)\nadd_from(episode)\nadd_where(id, IN, @s.3.qa)\nqa("q"):\n'
    '    add_select(id)\n    add_from(episode)\n    add_where(id, IN, @s)',
    # a merge child naming the merge level
    "add_merge(UNION):\n    left:\n        add_select(id)\n        add_from(episode)\n"
    "        add_where(id, IN, @s)\n    right:\n        add_select(id)\n"
    "        add_from(pairing)",
])
def test_assemble_self_reference_is_an_error(text):
    with pytest.raises(UnresolvedSubQuestion, match="referenced from inside itself"):
        assemble(seq_of(text))


def test_assemble_same_reference_twice_renders_twice():
    text = SELF_REFERENCE.replace("    add_where(id, IN, @s.3.qa)\n", "") + \
        "add_where(id, NOT IN, @s.3.qa)\n"
    sql = assemble(seq_of(text))
    assert sql.count("(SELECT id FROM episode)") == 2


def test_assemble_deterministic():
    seq = seq_of('add_select(title)\nadd_from(episode)\nadd_where(title, =, "x")')
    assert assemble(seq) == assemble(seq)


def test_assembled_fixture_sql_executes(episode_db):
    seq = seq_of(
        "add_select(episode.written_by, COUNT(*))\n"
        "add_from(episode, pairing, join(pairing.episode_id, episode.id))\n"
        'add_where(episode.air_date, LIKE, "2009%")\n'
        "add_group_by(episode.written_by)\n"
        "add_having(COUNT(*), >, 0)\n"
        "add_order_by(COUNT(*), DESC)\n"
        "add_limit(3)"
    )
    conn = sqlite3.connect(episode_db)
    try:
        rows = conn.execute(assemble(seq)).fetchall()
    finally:
        conn.close()
    assert rows


@given(executable_sequences())
@settings(max_examples=150, deadline=None)
def test_assembled_generated_sql_executes(episode_db_session, seq):
    sql = assemble(seq)
    conn = sqlite3.connect(episode_db_session)
    try:
        conn.execute(sql).fetchall()
    finally:
        conn.close()


# hypothesis needs a non-function-scoped db for the property test
@pytest.fixture(scope="session")
def episode_db_session(episode_db):
    return episode_db


def test_extractor_recovers_assembled_literals():
    from sqlmend.postprocess import extract_conditions

    seq = seq_of('add_select(title)\nadd_from(episode)\n'
                 'add_where(written_by, =, "Terrence O\'Hara")\n'
                 'add_where(title, !=, "Double Down")\n'
                 'add_where(air_date, LIKE, "2009")')
    sql = assemble(seq)
    extracted = [(c.column, c.op, c.literal) for c in extract_conditions(sql)]
    assert extracted == [
        ("written_by", "=", "Terrence O'Hara"),
        ("title", "!=", "Double Down"),
        ("air_date", "LIKE", "2009"),
    ]


def test_predict_connectives_single_condition_needs_no_agent():
    seq = seq_of('add_select(title)\nadd_from(episode)\nadd_where(title, =, "x")')

    class ExplodingAgent:
        def generate(self, ctx):
            raise RuntimeError("must not be called")

    assert predict_connectives(seq, "q", ExplodingAgent()) == ConnectivePlan()


def test_predict_connectives_scripted_or():
    seq = seq_of('add_select(title)\nadd_from(episode)\n'
                 'add_where(title, =, "x")\nadd_where(title, =, "y")')
    agent = ScriptedAgent({"[connectives] which?": ["OR"]})
    plan = predict_connectives(seq, "which?", agent)
    assert plan == ConnectivePlan(where=("OR",))


def test_predict_connectives_garbage_falls_back_to_and():
    seq = seq_of('add_select(title)\nadd_from(episode)\n'
                 'add_where(title, =, "x")\nadd_where(title, =, "y")')
    agent = ScriptedAgent({"[connectives] which?": ["no idea, sorry"]})
    plan = predict_connectives(seq, "which?", agent)
    assert plan == ConnectivePlan(where=("AND",))


def test_predict_connectives_unscripted_agent_falls_back():
    seq = seq_of('add_select(title)\nadd_from(episode)\n'
                 'add_where(title, =, "x")\nadd_where(title, =, "y")')
    plan = predict_connectives(seq, "which?", ScriptedAgent({}))
    assert plan == ConnectivePlan(where=("AND",))
