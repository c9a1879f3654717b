from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlmend.actions import (
    ActionSequence,
    AddFrom,
    AddGroupBy,
    AddLimit,
    AddMerge,
    AddOrderBy,
    AddSelect,
    AddWhere,
    ColumnRef,
    Literal,
    LiteralList,
    ParseError,
    QA,
    SelectItem,
    SubqueryRef,
    levels_by_id,
    parse_actions,
    serialize_actions,
)

from dsl_strategies import sequences


def parse_one(text: str):
    result = parse_actions(text)
    assert not result.errors, result.errors
    assert len(result.sequence.actions) == 1
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


def test_parse_rejects_distinct_before_an_aggregate_on_its_line():
    # SQL's DISTINCT COUNT(x) counts every row; COUNT(DISTINCT x) does not
    result = parse_actions("add_from(episode)\nadd_select(DISTINCT COUNT(title))")
    assert result.errors == [ParseError(
        line=2, reason="DISTINCT goes inside the aggregate, not before it: "
                       "'DISTINCT COUNT(title)'")]
    assert [type(a) for a in result.sequence.actions] == [AddFrom]
    assert parse_one("add_select(DISTINCT title)").items == (
        SelectItem(expression="title", distinct=True),)


def _text(value: str) -> Literal:
    return Literal(kind="text", value=value)


@pytest.mark.parametrize("argument, expected", [
    ('"a, b"', _text("a, b")),
    ('("a)", "b")', LiteralList(items=(_text("a)"), _text("b")))),
    (r'"say \"hi\""', _text('say "hi"')),
    (r'"dir\\"', _text("dir\\")),
    ('"open, 1', "malformed string literal '\"open, 1'"),
    (r'"a\tb\zc"', _text("a\tbzc")),
    ('"a" b', "malformed string literal '\"a\" b'"),
    (r'"x\"', r"""malformed string literal '"x\\"'"""),
    (r'"a\\"b"', r"""malformed string literal '"a\\\\"b"'"""),
], ids=["comma-in-string", "paren-in-list-string", "escaped-quote",
        "escaped-backslash-before-close", "unterminated", "tab-and-unknown-escape",
        "text-after-close", "backslash-before-close", "quote-after-escaped-backslash"])
def test_parse_reads_string_edge_cases(argument, expected):
    op = "IN" if isinstance(expected, LiteralList) else "="
    result = parse_actions(f"add_where(title, {op}, {argument})")
    if isinstance(expected, str):
        assert result.errors == [ParseError(line=1, reason=expected)]
    else:
        assert not result.errors, result.errors
        assert result.sequence.actions[0].value == expected


# case -> (agent text, the errors it parses to as (line, reason))
PARSE_ERRORS = {
    "malformed-reference": ("add_where(a, =, @x-y)",
                            [(1, "malformed sequence reference '@x-y'")]),
    "malformed-value": ("add_where(a, =, $)", [(1, "malformed value '$'")]),
    "reference-in-list": ("add_where(a, IN, (1, @s.1))",
                          [(1, "sequence references are not allowed inside value lists")]),
    "empty-list": ("add_where(a, IN, ())", [(1, "empty value list")]),
    "malformed-column": ("add_where(1a, =, 1)", [(1, "malformed column reference '1a'")]),
    "unknown-operator": ("add_where(a, ~, 1)", [(1, "unknown operator '~'")]),
    "malformed-aggregate": ("add_select(count(a b))",
                            [(1, "malformed aggregate argument 'a b'")]),
    "malformed-select-item": ("add_select(a b)", [(1, "malformed select item 'a b'")]),
    "in-scalar": ("add_where(a, IN, 1)",
                  [(1, "IN takes a value list or a sequence reference")]),
    "not-in-scalar": ('add_where(a, NOT IN, "x")',
                      [(1, "NOT IN takes a value list or a sequence reference")]),
    "equals-list": ("add_where(a, =, (1, 2))", [(1, "operator = takes a single value")]),
    "indented-second-line": ("add_select(a)\n    add_from(t)",
                             [(2, "unexpected indentation")]),
    "unrecognized-line": ("hello world", [(1, "unrecognized line 'hello world'")]),
    "block-on-plain-call": ("add_select(a):", [(1, "add_select does not take a block")]),
    "empty-select": ("add_select()", [(1, "add_select needs at least one item")]),
    "empty-from": ("add_from()", [(1, "add_from needs at least one table")]),
    "one-column-join": ("add_from(join(a.x))", [(1, "join takes exactly two columns")]),
    "malformed-table": ("add_from(a b)", [(1, "malformed table reference 'a b'")]),
    "join-without-table": ("add_from(join(a.x, b.y))",
                           [(1, "add_from needs at least one table")]),
    "empty-group-by": ("add_group_by()", [(1, "add_group_by needs at least one column")]),
    "having-arity": ("add_having(a)", [(1, "add_having takes (expression, op, value)")]),
    "order-by-arity": ("add_order_by()",
                       [(1, "add_order_by takes (expression[, direction])")]),
    "unknown-direction": ("add_order_by(a, UP)", [(1, "unknown direction 'UP'")]),
    "limit-arity": ("add_limit(1, 2)", [(1, "add_limit takes a single integer")]),
    "limit-not-an-integer": ("add_limit(x)", [(1, "limit must be an integer, got 'x'")]),
    "unknown-merge-operator": ("add_merge(JOIN):",
                               [(1, "add_merge takes one of UNION, INTERSECT, EXCEPT")]),
    "merge-without-colon": ("add_merge(UNION)",
                            [(1, "add_merge needs a ':' and labeled child blocks")]),
    "merge-unknown-label": ("add_merge(UNION):\n    middle:\n    left:\n    right:",
                            [(2, "expected 'left:' or 'right:' inside add_merge")]),
    "merge-duplicate-label": ("add_merge(UNION):\n    left:\n    left:\n    right:",
                              [(3, "duplicate left: block")]),
    "merge-without-right": ("add_merge(UNION):\n    left:\n        add_select(a)",
                            [(1, "add_merge is missing its right: block")]),
    "merge-without-left": ("add_merge(UNION):\n    right:\n        add_select(a)",
                           [(1, "add_merge is missing its left: block")]),
    "qa-arity": ('qa("a", "b")', [(1, "qa takes a single quoted question")]),
    "qa-number": ("qa(5)", [(1, "qa takes a quoted question string")]),
    "qa-reference": ("qa(@s.1)", [(1, "qa takes a quoted question string")]),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_messages(case):
    text, expected = PARSE_ERRORS[case]
    assert [(e.line, e.reason) for e in parse_actions(text).errors] == expected


def test_parse_reads_angle_brackets_as_not_equal():
    assert parse_one("add_where(a, <>, 1)").op == "!="


def test_parse_rejects_a_long_unterminated_string_in_linear_time():
    text = 'add_where(a, =, "' + "\\" * 5000 + 'x)'
    start = time.perf_counter()
    result = parse_actions(text)
    assert time.perf_counter() - start < 1.0
    assert len(result.errors) == 1
    assert result.errors[0].reason.startswith("malformed string literal")


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


def test_parse_reports_a_duplicate_select_on_its_line():
    result = parse_actions("add_select(a)\nadd_select(b)")
    assert result.errors == [ParseError(line=2, reason="more than one AddSelect at this level")]
    assert result.sequence.actions == [AddSelect(items=(SelectItem(expression="a"),))]


def test_parse_accepts_having_without_group_by():
    result = parse_actions("add_select(a)\nadd_having(COUNT(*), >, 1)")
    assert result.errors == []
    assert len(result.sequence.actions) == 2


def test_parse_drops_a_second_select_instead_of_keeping_the_first_silently():
    result = parse_actions("add_from(episode)\nadd_select(title)\nadd_select(air_date)")
    assert [e.line for e in result.errors] == [3]
    assert serialize_actions(result.sequence) == "add_from(episode)\nadd_select(title)"


def test_parse_reports_a_second_limit():
    result = parse_actions("add_select(a)\nadd_limit(1)\nadd_limit(5)")
    assert result.errors == [ParseError(line=3, reason="more than one AddLimit at this level")]
    assert result.sequence.actions[1:] == [AddLimit(count=1)]


def test_parse_reports_a_where_beside_a_merge():
    text = """add_merge(UNION):
    left:
        add_select(a)
    right:
        add_select(b)
add_where(a, =, 1)
add_order_by(a)
add_limit(3)
"""
    result = parse_actions(text)
    assert result.errors == [ParseError(line=6, reason="AddWhere cannot share a level with AddMerge")]
    assert [type(a) for a in result.sequence.actions] == [AddMerge, AddOrderBy, AddLimit]


def test_sequence_ids_are_positional():
    text = """add_merge(EXCEPT):
    left:
        add_select(a)
    right:
        add_select(b)
"""
    seq = parse_actions(text).sequence
    merge = seq.actions[0]
    levels = levels_by_id(seq)
    assert levels["s"] is seq
    assert levels["s.0.left"] is merge.left
    assert levels["s.0.right"] is merge.right


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
    expected = {"s": seq, "s.0.left": merge.left,
                "s.0.left.1.qa": merge.left.actions[1].resolved,
                "s.0.left.1.qa.0.left": inner.left, "s.0.left.1.qa.0.right": inner.right,
                "s.0.right": merge.right, "s.0.right.0.qa": empty_qa}
    levels = levels_by_id(seq)
    assert list(levels) == list(expected)
    assert all(levels[key] is level for key, level in expected.items())


def test_parse_reports_shape_errors_in_line_order():
    # a dropped merge's error comes before the errors of its own children
    text = """add_merge(UNION):
    left:
        add_select(a)
        add_select(b)
        add_where(a, IN, @s.0.left.2.qa)
        qa("q"):
            add_limit(1)
            add_limit(2)
    right:
add_where(id, IN, @nowhere)
add_select(c)
add_merge(EXCEPT):
    left:
        add_from(t)
        add_from(u)
    right:
        add_select(d)
"""
    result = parse_actions(text)
    assert [(e.line, e.reason) for e in result.errors] == [
        (4, "more than one AddSelect at this level"),
        (8, "more than one AddLimit at this level"),
        (10, "AddWhere cannot share a level with AddMerge"),
        (11, "AddSelect cannot share a level with AddMerge"),
        (12, "more than one AddMerge at this level"),
        (15, "more than one AddFrom at this level"),
    ]


def test_parse_reports_mixed_levels_at_the_root_and_in_a_child():
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
add_group_by(f)
"""
    result = parse_actions(text)
    assert [(e.line, e.reason) for e in result.errors] == [
        (2, "AddMerge cannot share a level with AddSelect"),
        (5, "AddMerge cannot share a level with AddSelect"),
    ]
    # the dropped merge leaves a plain level, so add_group_by may join it
    assert [type(a) for a in result.sequence.actions] == [AddSelect, AddGroupBy]
