from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from sqlmend.actions import (
    ActionSequence,
    AddFrom,
    AddLimit,
    AddMerge,
    AddSelect,
    AddWhere,
    ColumnRef,
    Literal,
    LiteralList,
    QA,
    SelectItem,
    SubqueryRef,
    assign_sequence_ids,
    parse_actions,
    serialize_actions,
    validate_shape,
)

from dsl_strategies import sequences


def parse_one(text: str):
    result = parse_actions(text)
    assert not result.errors, result.errors
    assert len(result.sequence) == 1
    return result.sequence.actions[0]


def test_parse_add_where_text_literal():
    action = parse_one('add_where(written_by, =, "todd casey")')
    assert action == AddWhere(column=ColumnRef(column="written_by"), op="=",
                              value=Literal(kind="text", value="todd casey"))


def test_parse_empty_input():
    result = parse_actions("")
    assert result.sequence == ActionSequence()
    assert result.errors == []


def test_parse_negative_limit_is_an_error():
    result = parse_actions("add_limit(-1)")
    assert result.sequence.actions == []
    assert len(result.errors) == 1
    assert "non-negative" in result.errors[0].reason


def test_parse_unknown_function_collects_error_and_continues():
    result = parse_actions("add_sel(x)\nadd_limit(3)")
    assert [type(a) for a in result.sequence.actions] == [AddLimit]
    assert result.errors[0].line == 1
    assert "unknown function" in result.errors[0].reason


def test_parse_arity_violation():
    result = parse_actions("add_where(written_by, =)")
    assert result.errors and "add_where takes" in result.errors[0].reason


def test_parse_qualified_columns_and_joins():
    action = parse_one("add_from(episode, pairing, join(pairing.episode_id, episode.id))")
    assert action.tables == ("episode", "pairing")
    assert action.joins[0].left == ColumnRef(column="episode_id", table="pairing")


def test_parse_unqualified_join_is_an_error():
    result = parse_actions("add_from(a, b, join(x, b.y))")
    assert result.errors and "table-qualified" in result.errors[0].reason


def test_parse_aggregate_select_items():
    action = parse_one("add_select(written_by, COUNT(*), COUNT(DISTINCT title))")
    assert action.items == (
        SelectItem(expression="written_by"),
        SelectItem(expression="*", aggregate="COUNT"),
        SelectItem(expression="title", aggregate="COUNT", distinct=True),
    )


def test_parse_in_and_between_value_shapes():
    action = parse_one('add_where(title, IN, ("a", "b"))')
    assert action.value == LiteralList(items=(Literal(kind="text", value="a"),
                                              Literal(kind="text", value="b")))
    result = parse_actions("add_where(id, BETWEEN, (1, 2, 3))")
    assert result.errors and "two-element" in result.errors[0].reason


def test_parse_null_and_subquery_ref_values():
    assert parse_one("add_where(air_date, !=, NULL)").value == Literal(kind="null")
    assert parse_one("add_where(id, IN, @s.0.qa)").value == SubqueryRef("s.0.qa")


def test_parse_merge_blocks():
    text = """add_merge(UNION):
    left:
        add_select(name)
        add_from(network)
    right:
        add_select(title)
        add_from(episode)
"""
    action = parse_one(text)
    assert isinstance(action, AddMerge)
    assert action.operator == "UNION"
    assert [type(a) for a in action.left.actions] == [AddSelect, AddFrom]
    assert action.right.actions[0].items[0].expression == "title"


def test_parse_qa_with_block():
    text = """qa("which episodes aired in 2009"):
    add_select(id)
    add_from(episode)
"""
    action = parse_one(text)
    assert isinstance(action, QA)
    assert action.sub_question == "which episodes aired in 2009"
    assert len(action.resolved.actions) == 2


def test_parse_totality_on_junk():
    junk = "]]] not a call\nadd_where(, =, 3)\n  stray indent\nwhat())(("
    result = parse_actions(junk)  # must not raise
    assert result.errors


@given(st.text(max_size=200))
@settings(max_examples=300)
def test_parse_never_crashes(text):
    parse_actions(text)


def test_serialize_simple_condition():
    seq = parse_actions('add_where(written_by, =, "Todd Casey")').sequence
    assert serialize_actions(seq) == 'add_where(written_by, =, "Todd Casey")'


def test_serialize_empty_sequence():
    assert serialize_actions(ActionSequence()) == ""


def test_validate_shape_duplicate_select():
    seq = parse_actions("add_select(a)\nadd_select(b)").sequence
    violations = validate_shape(seq)
    assert [v.kind for v in violations] == ["duplicate_clause"]


def test_validate_shape_having_without_group_by_is_not_a_shape_issue():
    seq = parse_actions("add_select(a)\nadd_having(COUNT(*), >, 1)").sequence
    assert validate_shape(seq) == []


def test_validate_shape_empty_merge_child():
    seq = ActionSequence(actions=[AddMerge(
        operator="UNION",
        left=ActionSequence(actions=[AddSelect(items=(SelectItem(expression="a"),))]),
        right=ActionSequence())])
    assign_sequence_ids(seq)
    kinds = [v.kind for v in validate_shape(seq)]
    assert kinds == ["empty_merge_child"]


def test_validate_shape_dangling_reference():
    seq = parse_actions("add_where(id, IN, @nowhere)").sequence
    assert [v.kind for v in validate_shape(seq)] == ["dangling_reference"]


def test_sequence_ids_are_positional():
    text = """add_merge(EXCEPT):
    left:
        add_select(a)
    right:
        add_select(b)
"""
    seq = parse_actions(text).sequence
    merge = seq.actions[0]
    assert seq.id == "s"
    assert merge.left.id == "s.0.left"
    assert merge.right.id == "s.0.right"


@given(sequences())
@settings(max_examples=300, deadline=None)
def test_round_trip_parse_serialize(seq):
    text = serialize_actions(seq)
    result = parse_actions(text)
    assert result.errors == []
    assert result.sequence == seq


def test_action_space_is_exactly_nine_kinds():
    import typing

    from sqlmend.actions import Action

    assert len(typing.get_args(Action)) == 9


def test_sequence_ids_cover_nested_and_empty_children():
    text = """add_merge(UNION):
    left:
        add_select(a)
        qa("q"):
            add_merge(EXCEPT):
                left:
                    add_select(b)
                right:
    right:
        qa("empty"):
"""
    result = parse_actions(text)
    assert result.errors == []
    seq = result.sequence
    merge = seq.actions[0]
    inner = merge.left.actions[1].resolved.actions[0]
    empty_qa = merge.right.actions[0].resolved
    assert inner.right.actions == [] and empty_qa.actions == []
    assert [seq.id, merge.left.id, merge.left.actions[1].resolved.id, inner.left.id,
            inner.right.id, merge.right.id, empty_qa.id] == [
        "s", "s.0.left", "s.0.left.1.qa", "s.0.left.1.qa.0.left",
        "s.0.left.1.qa.0.right", "s.0.right", "s.0.right.0.qa"]
    assign_sequence_ids(seq, root="r")
    assert (merge.left.id, inner.right.id, empty_qa.id) == \
        ("r.0.left", "r.0.left.1.qa.0.right", "r.0.right.0.qa")


def test_validate_shape_reports_in_document_order():
    text = """add_merge(UNION):
    left:
        add_select(a)
        add_select(b)
        add_where(a, IN, @s.0.left.3.qa)
        qa("q"):
            add_limit(1)
            add_limit(2)
    right:
add_where(id, IN, @nowhere)
"""
    seq = parse_actions(text).sequence
    assert [(v.kind, v.path) for v in validate_shape(seq)] == [
        ("empty_merge_child", (0,)),
        ("duplicate_clause", (0, "left", 1)),
        ("duplicate_clause", (0, "left", 3, "qa", 1)),
        ("merge_mixed_with_clauses", ()),
        ("dangling_reference", (1,)),
    ]


def test_validate_shape_reports_mixed_levels_after_all_action_checks():
    # merge_mixed_with_clauses is a per-level check made after the walk
    # over the actions, for each mixed level in pre-order
    text = """add_select(a)
add_merge(UNION):
    left:
        add_select(b)
        add_merge(EXCEPT):
            left:
                add_select(c)
            right:
                add_select(d)
    right:
        add_select(e)
add_select(f)
"""
    seq = parse_actions(text).sequence
    assert [(v.kind, v.path) for v in validate_shape(seq)] == [
        ("duplicate_clause", (2,)),
        ("merge_mixed_with_clauses", ()),
        ("merge_mixed_with_clauses", (1, "left")),
    ]
