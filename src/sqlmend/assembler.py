"""Turn a finalized action sequence into SQL text.

Clause order is fixed (SELECT, FROM/JOIN, WHERE, GROUP BY, HAVING, ORDER
BY, LIMIT), merge levels render as ``left OP right`` compounds, and the
AND/OR connectives that the DSL deliberately omits are supplied here,
either from an agent-predicted plan or the all-AND fallback.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .actions import (
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
    Literal,
    LiteralList,
    NAME_RE,
    QA,
    SelectItem,
    SubqueryRef,
    levels_by_id,
)
from .sqllex import quote

SQLITE_KEYWORDS = frozenset("""
    select from where group order by having limit offset join on as and or
    not in between like is null distinct union intersect except all inner
    left right outer cross case when then else end table index exists
    asc desc count sum avg min max
""".split())


class AssemblyError(Exception):
    """The sequence cannot be rendered as SQL."""


class UnresolvedSubQuestion(AssemblyError):
    """A qa() action has no resolved child sequence, or a value references
    a sequence that does not exist or that encloses the reference."""


class PlanMismatch(AssemblyError):
    """Connective plan length disagrees with the condition count."""


@dataclass(frozen=True)
class ConnectivePlan:
    where: tuple[str, ...] = ()
    having: tuple[str, ...] = ()


def quote_identifier(name: str) -> str:
    """Quote only when necessary: reserved word or non-alphanumerics."""
    if NAME_RE.match(name) and name.lower() not in SQLITE_KEYWORDS:
        return name
    return quote(name, '"')


def _column_sql(text: str) -> str:
    if text == "*":
        return "*"
    ref = ColumnRef.parse(text)
    if ref.table is None:
        return quote_identifier(text)
    return f"{quote_identifier(ref.table)}.{quote_identifier(ref.column)}"


def _scalar_sql(literal: Literal) -> str:
    if literal.kind == "text":
        return quote(literal.value, "'")
    if literal.kind == "number":
        return repr(literal.value)
    if literal.kind == "null":
        return "NULL"
    return _column_sql(str(literal.value))


def _item_sql(item: SelectItem) -> str:
    if item.aggregate:
        inner = _column_sql(item.expression)
        if item.distinct:
            inner = f"DISTINCT {inner}"
        return f"{item.aggregate}({inner})"
    return _column_sql(item.expression)


class _Assembler:
    def __init__(self, root: ActionSequence):
        self.sequences = levels_by_id(root)
        # the levels being rendered, by identity: one referenced again from
        # inside itself would render without end
        self.rendering: set[int] = set()

    def value_sql(self, action, value) -> str:
        if isinstance(value, SubqueryRef):
            child = self.sequences.get(value.sequence_id)
            if child is None:
                raise UnresolvedSubQuestion(
                    f"no resolved sequence with id {value.sequence_id!r}")
            if id(child) in self.rendering:
                raise UnresolvedSubQuestion(
                    f"sequence {value.sequence_id!r} is referenced from inside itself")
            return "(" + self.level_sql(child, ConnectivePlan()) + ")"
        if isinstance(value, LiteralList):
            if action.op == "BETWEEN":
                low, high = value.items
                return f"{_scalar_sql(low)} AND {_scalar_sql(high)}"
            return "(" + ", ".join(_scalar_sql(item) for item in value.items) + ")"
        return _scalar_sql(value)

    def condition_sql(self, action) -> str:
        if isinstance(action, AddWhere):
            lhs = _column_sql(action.column.text())
        else:
            lhs = _item_sql(action.lhs)
        value = action.value
        if isinstance(value, Literal) and value.kind == "null" and action.op in ("=", "!="):
            return f"{lhs} IS NULL" if action.op == "=" else f"{lhs} IS NOT NULL"
        return f"{lhs} {action.op} {self.value_sql(action, value)}"

    def joined_conditions(self, conditions: list[str], connectives: tuple[str, ...],
                          group: str) -> str:
        if connectives and len(connectives) != len(conditions) - 1:
            raise PlanMismatch(
                f"{group} plan has {len(connectives)} connectives for "
                f"{len(conditions)} conditions")
        parts = [conditions[0]]
        for i, condition in enumerate(conditions[1:]):
            connective = connectives[i] if connectives else "AND"
            parts.append(f"{connective} {condition}")
        return " ".join(parts)

    def from_sql(self, action: AddFrom) -> str:
        rendered = [quote_identifier(action.tables[0])]
        emitted = {action.tables[0].lower()}
        unused = list(action.joins)
        for table in action.tables[1:]:
            emitted.add(table.lower())
            matching = [j for j in unused
                        if j.left.table.lower() in emitted and j.right.table.lower() in emitted]
            if matching:
                for j in matching:
                    unused.remove(j)
                on = " AND ".join(
                    f"{_column_sql(j.left.text())} = {_column_sql(j.right.text())}"
                    for j in matching)
                rendered.append(f"JOIN {quote_identifier(table)} ON {on}")
            else:
                rendered.append(f"CROSS JOIN {quote_identifier(table)}")
        return " ".join(rendered)

    def _merge_operand(self, child: ActionSequence) -> str:
        sql = self.level_sql(child, ConnectivePlan())
        # the target engine rejects parenthesized compound operands, so
        # children that are not a plain select core ride in a subquery
        plain = (child.first(AddOrderBy) is None and child.first(AddLimit) is None
                 and child.first(AddMerge) is None)
        return sql if plain else f"SELECT * FROM ({sql})"

    def level_sql(self, level: ActionSequence, plan: ConnectivePlan) -> str:
        self.rendering.add(id(level))
        for action in level.actions:
            if isinstance(action, QA) and action.resolved is None:
                raise UnresolvedSubQuestion(
                    f"unresolved sub-question {action.sub_question!r}")

        merge = level.first(AddMerge)
        parts: list[str] = []
        if merge is not None:
            left = self._merge_operand(merge.left)
            right = self._merge_operand(merge.right)
            parts.append(f"{left} {merge.operator} {right}")
        else:
            select = level.first(AddSelect)
            if select is not None:
                distinct = any(i.distinct and i.aggregate is None for i in select.items)
                items = ", ".join(_item_sql(i) for i in select.items)
                parts.append(f"SELECT {'DISTINCT ' if distinct else ''}{items}")
            else:
                parts.append("SELECT *")
            from_action = level.first(AddFrom)
            if from_action is not None:
                parts.append(f"FROM {self.from_sql(from_action)}")
            wheres = [self.condition_sql(a) for a in level.actions if isinstance(a, AddWhere)]
            if wheres:
                parts.append("WHERE " + self.joined_conditions(wheres, plan.where, "WHERE"))
            group_by = level.first(AddGroupBy)
            if group_by is not None:
                parts.append("GROUP BY " + ", ".join(_column_sql(c.text())
                                                     for c in group_by.columns))
            havings = [self.condition_sql(a) for a in level.actions if isinstance(a, AddHaving)]
            if havings:
                parts.append("HAVING " + self.joined_conditions(havings, plan.having, "HAVING"))
        order_by = level.first(AddOrderBy)
        if order_by is not None:
            parts.append(f"ORDER BY {_item_sql(order_by.expression)} {order_by.direction}")
        limit = level.first(AddLimit)
        if limit is not None:
            parts.append(f"LIMIT {limit.count}")
        self.rendering.discard(id(level))
        return " ".join(parts)


def assemble(seq: ActionSequence, plan: ConnectivePlan | None = None) -> str:
    """Deterministic SQL for a fully resolved sequence of the shape that
    parse_actions accepts: each singleton clause at most once per level,
    and no query-core clause beside an add_merge. A level built by hand
    that breaks this renders its first clause of each kind and drops the
    query-core clauses beside an add_merge. An empty or missing plan falls
    back to all-AND.
    """
    return _Assembler(seq).level_sql(seq, plan or ConnectivePlan())


CONNECTIVE_INSTRUCTION = (
    "Choose the logical connectives (AND or OR) that join the listed SQL "
    "conditions so the query answers the question. Reply with one word per "
    "gap, in order, separated by spaces."
)


def predict_connectives(seq: ActionSequence, question: str, agent) -> ConnectivePlan:
    """Ask the agent to fill in the AND/OR connectives for the top level.

    Nothing to predict means no agent call; any agent failure or
    unusable reply falls back to the all-AND plan.
    """
    from .orchestrator import AgentContext, AgentFailure

    conditions = [f"{a.column.text()} {a.op}" for a in seq.actions if isinstance(a, AddWhere)]
    gaps_where = max(0, len(conditions) - 1)
    gaps_having = max(0, sum(isinstance(a, AddHaving) for a in seq.actions) - 1)
    total = gaps_where + gaps_having
    if total == 0:
        return ConnectivePlan()

    context = AgentContext(
        instruction=CONNECTIVE_INSTRUCTION,
        demonstrations=(),
        question=f"[connectives] {question}",
        schema_view="conditions: " + "; ".join(conditions),
    )
    try:
        reply = agent.generate(context)
    except AgentFailure:
        reply = ""
    tokens = [t.upper() for t in re.findall(r"\b(?:and|or)\b", reply, re.IGNORECASE)]
    tokens = tokens[:total] + ["AND"] * max(0, total - len(tokens))
    return ConnectivePlan(where=tuple(tokens[:gaps_where]),
                          having=tuple(tokens[gaps_where:]))
