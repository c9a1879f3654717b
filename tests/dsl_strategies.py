"""Hypothesis strategies for well-formed action sequences.

Two vocabularies: free-form identifiers for round-trip testing, and a
real fixture schema for executability testing (names that resolve, join
pairs that exist, value shapes that fit the operators).
"""

from __future__ import annotations

from hypothesis import strategies as st

from sqlmend.actions import (
    ActionSequence,
    AddFrom,
    AddGroupBy,
    AddHaving,
    AddLimit,
    AddMerge,
    AddOrderBy,
    AddSelect,
    AddWhere,
    ColumnRef,
    JoinSpec,
    Literal,
    LiteralList,
    QA,
    SelectItem,
)

idents = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
texts = st.text(max_size=12)
numbers = st.one_of(
    st.integers(min_value=-10_000, max_value=10_000),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)

# "null" is reserved in the value slot, so a bare identifier cannot spell it
raw_idents = idents.filter(lambda v: v != "null")

scalar_literals = st.one_of(
    texts.map(lambda v: Literal(kind="text", value=v)),
    numbers.map(lambda v: Literal(kind="number", value=v)),
    st.just(Literal(kind="null")),
    raw_idents.map(lambda v: Literal(kind="raw", value=v)),
)


def column_refs(columns=idents, tables=idents):
    return st.builds(ColumnRef,
                     column=columns,
                     table=st.one_of(st.none(), tables))


def select_items(columns=idents):
    return st.builds(
        SelectItem,
        expression=st.one_of(columns, st.just("*")),
        aggregate=st.one_of(st.none(), st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"])),
        distinct=st.booleans(),
    )


@st.composite
def conditions(draw, columns=idents, tables=idents):
    op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "LIKE", "IN",
                               "NOT IN", "BETWEEN"]))
    if op == "BETWEEN":
        value = LiteralList(items=tuple(draw(st.lists(scalar_literals, min_size=2, max_size=2))))
    elif op in ("IN", "NOT IN"):
        value = LiteralList(items=tuple(draw(st.lists(scalar_literals, min_size=1, max_size=3))))
    else:
        value = draw(scalar_literals)
    return AddWhere(column=draw(column_refs(columns, tables)), op=op, value=value)


@st.composite
def havings(draw, columns=idents):
    op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
    return AddHaving(lhs=draw(select_items(columns)), op=op,
                     value=draw(scalar_literals))


@st.composite
def flat_levels(draw, columns=idents, tables=idents):
    actions = []
    if draw(st.booleans()):
        actions.append(AddSelect(items=tuple(
            draw(st.lists(select_items(columns), min_size=1, max_size=3)))))
    if draw(st.booleans()):
        table_list = draw(st.lists(tables, min_size=1, max_size=3, unique=True))
        joins = tuple(draw(st.lists(
            st.builds(JoinSpec,
                      left=st.builds(ColumnRef, column=columns, table=tables),
                      right=st.builds(ColumnRef, column=columns, table=tables)),
            max_size=2)))
        actions.append(AddFrom(tables=tuple(table_list), joins=joins))
    actions.extend(draw(st.lists(conditions(columns, tables), max_size=3)))
    if draw(st.booleans()):
        actions.append(AddGroupBy(columns=tuple(
            draw(st.lists(column_refs(columns, tables), min_size=1, max_size=2)))))
    actions.extend(draw(st.lists(havings(columns), max_size=2)))
    if draw(st.booleans()):
        actions.append(AddOrderBy(expression=draw(select_items(columns)),
                                  direction=draw(st.sampled_from(["ASC", "DESC"]))))
    if draw(st.booleans()):
        actions.append(AddLimit(count=draw(st.integers(min_value=0, max_value=500))))
    permuted = draw(st.permutations(actions))
    return list(permuted)


@st.composite
def sequences(draw, depth: int = 0) -> ActionSequence:
    """Structurally well-formed sequences, occasionally nested via merge
    or resolved sub-questions."""
    shape = draw(st.sampled_from(["flat", "flat", "flat", "merge", "qa"]
                                 if depth < 2 else ["flat"]))
    if shape == "merge":
        merge = AddMerge(
            operator=draw(st.sampled_from(["UNION", "INTERSECT", "EXCEPT"])),
            left=draw(sequences(depth=depth + 1)),
            right=draw(sequences(depth=depth + 1)),
        )
        actions = [merge]
        if draw(st.booleans()):
            actions.append(AddOrderBy(expression=draw(select_items()),
                                      direction=draw(st.sampled_from(["ASC", "DESC"]))))
        if draw(st.booleans()):
            actions.append(AddLimit(count=draw(st.integers(min_value=0, max_value=99))))
        return ActionSequence(actions=actions)
    actions = draw(flat_levels())
    if shape == "qa":
        resolved = draw(st.one_of(st.none(), sequences(depth=depth + 1)))
        actions.append(QA(sub_question=draw(texts), resolved=resolved))
    return ActionSequence(actions=actions)


# ---------------------------------------------------------------------------
# Executable vocabulary bound to the episode fixture schema
# ---------------------------------------------------------------------------

EPISODE_SCHEMA = {
    "episode": ["id", "title", "air_date", "written_by", "directed_by"],
    "pairing": ["id", "episode_id", "guest", "rating"],
    "network": ["id", "name"],
}
EPISODE_JOIN = JoinSpec(left=ColumnRef(column="episode_id", table="pairing"),
                        right=ColumnRef(column="id", table="episode"))

simple_values = st.one_of(
    st.text(alphabet="abcdefg XY'", max_size=8).map(lambda v: Literal(kind="text", value=v)),
    st.integers(min_value=-50, max_value=50).map(lambda v: Literal(kind="number", value=v)),
)


@st.composite
def executable_levels(draw):
    two_tables = draw(st.booleans())
    if two_tables:
        tables = ("pairing", "episode")
        joins = (EPISODE_JOIN,)
    else:
        tables = (draw(st.sampled_from(sorted(EPISODE_SCHEMA))),)
        joins = ()

    def qualified(ref_table, column):
        return ColumnRef(column=column, table=ref_table if two_tables else None)

    def any_column(draw_inner):
        table = draw_inner(st.sampled_from(tables))
        column = draw_inner(st.sampled_from(EPISODE_SCHEMA[table]))
        return qualified(table, column)

    actions = []
    n_items = draw(st.integers(min_value=1, max_value=3))
    items = []
    for _ in range(n_items):
        ref = any_column(draw)
        aggregate = draw(st.one_of(st.none(), st.sampled_from(["COUNT", "MIN", "MAX"])))
        items.append(SelectItem(expression=ref.text(), aggregate=aggregate,
                                distinct=draw(st.booleans())))
    actions.append(AddSelect(items=tuple(items)))
    actions.append(AddFrom(tables=tables, joins=joins))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        op = draw(st.sampled_from(["=", "!=", "<", ">", "LIKE", "IN", "BETWEEN"]))
        if op == "BETWEEN":
            value = LiteralList(items=tuple(draw(st.lists(simple_values, min_size=2,
                                                          max_size=2))))
        elif op == "IN":
            value = LiteralList(items=tuple(draw(st.lists(simple_values, min_size=1,
                                                          max_size=3))))
        else:
            value = draw(simple_values)
        actions.append(AddWhere(column=any_column(draw), op=op, value=value))
    wants_having = draw(st.booleans())
    if draw(st.booleans()) or wants_having:
        actions.append(AddGroupBy(columns=(any_column(draw),)))
    if wants_having:
        actions.append(AddHaving(lhs=SelectItem(expression="*", aggregate="COUNT"),
                                 op=draw(st.sampled_from([">", ">=", "=", "<"])),
                                 value=Literal(kind="number",
                                               value=draw(st.integers(0, 5)))))
    if draw(st.booleans()):
        actions.append(AddOrderBy(expression=SelectItem(expression=any_column(draw).text()),
                                  direction=draw(st.sampled_from(["ASC", "DESC"]))))
    if draw(st.booleans()):
        actions.append(AddLimit(count=draw(st.integers(min_value=0, max_value=10))))
    return actions


@st.composite
def executable_sequences(draw) -> ActionSequence:
    """Sequences whose assembly must run without error on the episode DB."""
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        left = draw(executable_levels())
        right = draw(executable_levels())
        n = 1  # set operands need equal arity
        left[0] = AddSelect(items=left[0].items[:n])
        right[0] = AddSelect(items=right[0].items[:n])
        merge = AddMerge(operator=draw(st.sampled_from(["UNION", "INTERSECT", "EXCEPT"])),
                         left=ActionSequence(actions=left),
                         right=ActionSequence(actions=right))
        return ActionSequence(actions=[merge])
    return ActionSequence(actions=draw(executable_levels()))
