"""Static analysis of action sequences against a schema catalog.

Every check reads only the in-memory catalog; nothing here executes SQL,
so findings cover mistakes an engine would accept silently: joins that
ignore declared foreign keys, redundant or missing tables, type-confused
comparisons, aggregate misuse, and user-configured constraints. An
alternate DBMS-feedback path (detect_via_dbms) exists for comparison runs
and is the only function in this module that touches the database file.
"""

from __future__ import annotations

import json
import re
import sqlite3
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable

from .actions import (
    Action,
    ActionSequence,
    AddFrom,
    AddGroupBy,
    AddHaving,
    AddOrderBy,
    AddSelect,
    AddWhere,
    ColumnRef,
    IDENT_RE,
    Literal,
    NUMBER_RE,
    SelectItem,
    condition_column,
    value_literals,
    walk_levels,
)
from .schema_catalog import Resolution, SchemaCatalog

UNKNOWN_TABLE = "UnknownTable"
UNKNOWN_COLUMN = "UnknownColumn"
AMBIGUOUS_COLUMN = "AmbiguousColumn"
FOREIGN_KEY_MISMATCH = "ForeignKeyMismatch"
JOIN_ABSENCE = "JoinAbsence"
JOIN_REDUNDANCY = "JoinRedundancy"
TYPE_MISMATCH = "TypeMismatch"
GROUP_BY_ABSENCE = "GroupByAbsence"
GROUP_BY_IMPROPER = "GroupByImproper"
HAVING_WITHOUT_GROUP_BY = "HavingWithoutGroupBy"
CUSTOM_RULE_VIOLATION = "CustomRuleViolation"
EXECUTION_ERROR = "ExecutionError"
UNRESOLVED_SUB_QUESTION = "UnresolvedSubQuestion"

NUMERIC_AFFINITIES = ("INTEGER", "REAL", "NUMERIC")


class InvalidRuleConfig(Exception):
    """A constraint rule file or entry is malformed."""


@dataclass
class DetectorFinding:
    kind: str
    action_path: tuple
    detail: str
    machine_data: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "action_path": list(self.action_path),
            "detail": self.detail,
            "data": dict(sorted(self.machine_data.items())),
        }


@dataclass(frozen=True)
class ConstraintRule:
    rule_id: str
    kind: str  # "require_null_filter" | "value_format"
    column: ColumnRef
    pattern: str | None = None


def _parse_rule_column(text) -> ColumnRef:
    if not isinstance(text, str) or not IDENT_RE.match(text):
        raise InvalidRuleConfig(f"bad column reference {text!r}")
    return ColumnRef.parse(text)


def load_rules(source) -> list[ConstraintRule]:
    """Load constraint rules from a JSON file path or a parsed list.

    Entries look like {"rule_id": ..., "kind": ..., "params": {...}}.
    All validation happens here; evaluation never raises.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    else:
        data = source
    if not isinstance(data, list):
        raise InvalidRuleConfig("rule file must contain a JSON array")
    rules: list[ConstraintRule] = []
    seen: set[str] = set()
    for entry in data:
        if not isinstance(entry, dict):
            raise InvalidRuleConfig(f"rule entry is not an object: {entry!r}")
        rule_id = entry.get("rule_id")
        kind = entry.get("kind")
        params = entry.get("params", {})
        if not rule_id or not isinstance(rule_id, str):
            raise InvalidRuleConfig(f"rule entry missing rule_id: {entry!r}")
        if rule_id in seen:
            raise InvalidRuleConfig(f"duplicate rule_id {rule_id!r}")
        seen.add(rule_id)
        if not isinstance(params, dict):
            raise InvalidRuleConfig(f"rule {rule_id!r} params must be an object")
        column = _parse_rule_column(params.get("column", ""))
        if kind == "require_null_filter":
            rules.append(ConstraintRule(rule_id=rule_id, kind=kind, column=column))
        elif kind == "value_format":
            pattern = params.get("pattern")
            if not isinstance(pattern, str):
                raise InvalidRuleConfig(f"rule {rule_id!r} needs a string pattern")
            try:
                re.compile(pattern)
            except re.error as exc:
                raise InvalidRuleConfig(f"rule {rule_id!r} pattern: {exc}") from exc
            rules.append(ConstraintRule(rule_id=rule_id, kind=kind, column=column, pattern=pattern))
        else:
            raise InvalidRuleConfig(f"unknown rule kind {kind!r}")
    return rules


# ---------------------------------------------------------------------------
# Column reference collection and resolution
# ---------------------------------------------------------------------------


@dataclass
class _ColumnUse:
    ref: ColumnRef
    path: tuple
    action: Action
    aggregate: str | None = None


_Kinds = dict[type, list[tuple[tuple, Action]]]


def _collect_uses(level: ActionSequence, prefix: tuple) -> tuple[list[_ColumnUse], _Kinds]:
    """The one read of a level: every column use in document order, and
    each action kind's (path, action) pairs in document order."""
    uses: list[_ColumnUse] = []
    kinds: _Kinds = {}
    for i, action in enumerate(level.actions):
        path = prefix + (i,)
        kinds.setdefault(type(action), []).append((path, action))
        items: tuple[SelectItem, ...] = ()
        if isinstance(action, AddWhere):
            uses.append(_ColumnUse(ref=action.column, path=path, action=action))
        elif isinstance(action, AddGroupBy):
            uses.extend(_ColumnUse(ref=ref, path=path, action=action) for ref in action.columns)
        elif isinstance(action, AddSelect):
            items = action.items
        elif isinstance(action, AddHaving):
            items = (action.lhs,)
        elif isinstance(action, AddOrderBy):
            items = (action.expression,)
        for item in items:
            ref = item.column_ref()
            if ref is not None:
                uses.append(_ColumnUse(ref=ref, path=path, action=action,
                                       aggregate=item.aggregate))
    return uses, kinds


# the detector binds a column that only a table outside add_from owns, so
# the missing table surfaces as JoinAbsence rather than UnknownColumn
_BOUND = ("ok", "out_of_scope")

_Resolve = Callable[[ColumnRef], Resolution]


def _bfs_distances(graph: dict[str, set[str]], source: str) -> dict[str, int]:
    distances = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.get(node, ()):
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                queue.append(neighbor)
    return distances


def _bridges(distances: dict[str, dict[str, int]], table: str) -> bool:
    """Whether `table` lies on a shortest FK path between two payload
    tables; `distances` holds one BFS map per payload table, and the graph
    is undirected, so d(table, b) = d(b, table)."""
    return any(table in distances[a] and b in distances[a]
               and distances[a][table] + distances[b][table] == distances[a][b]
               for a, b in combinations(distances, 2))


# ---------------------------------------------------------------------------
# The detector proper
# ---------------------------------------------------------------------------


def detect(seq: ActionSequence, catalog: SchemaCatalog,
           rules: list[ConstraintRule] | tuple = (), *,
           allow_name_equijoin: bool = False) -> list[DetectorFinding]:
    """All findings for the sequence, no early exit: each level's in
    document order, levels in pre-order (the root before its children).

    Pure over immutable inputs; the database file behind the catalog is
    never opened.
    """
    findings: list[DetectorFinding] = []
    for prefix, level in walk_levels(seq):
        _detect_level(level, prefix, catalog, rules, allow_name_equijoin, findings)
    return findings


def _detect_level(level: ActionSequence, prefix: tuple, catalog: SchemaCatalog,
                  rules: list[ConstraintRule] | tuple, allow_name_equijoin: bool,
                  findings: list[DetectorFinding]) -> None:
    emitted: set[tuple] = set()

    def emit(kind: str, path: tuple, detail: str, **data) -> None:
        key = (kind, path, repr(sorted(data.items())))
        if key in emitted:
            return
        emitted.add(key)
        findings.append(DetectorFinding(kind=kind, action_path=path, detail=detail,
                                        machine_data=data))

    uses, kinds = _collect_uses(level, prefix)
    # the first action of each kind is the one the clause takes
    first = {kind: pairs[0] for kind, pairs in kinds.items()}
    from_path, from_action = first.get(AddFrom, (None, None))
    from_tables = list(from_action.tables) if from_action else []
    joins = list(from_action.joins) if from_action else []
    scope = [(t, catalog.table(t)) for t in from_tables]
    endpoints = [(ref, catalog.table(ref.table))
                 for join in joins for ref in (join.left, join.right)]

    # (a) table existence: FROM tables, then column-use tables, then join endpoints
    named = [(t, from_path, table) for t, table in scope]
    named += [(use.ref.table, use.path, catalog.table(use.ref.table))
              for use in uses if use.ref.table is not None]
    named += [(ref.table, from_path, table) for ref, table in endpoints]
    for name, path, table in named:
        if table is None:
            emit(UNKNOWN_TABLE, path, f"table {name!r} does not exist", table=name)

    def resolve(ref: ColumnRef) -> Resolution:
        return catalog.resolve(ref.table, ref.column, from_tables)

    # (b) column resolution
    resolved_uses: list[tuple[_ColumnUse, object, object]] = []
    resolution_failed = False
    for use in uses:
        found = resolve(use.ref)
        if found.status in _BOUND:
            resolved_uses.append((use, found.table, found.column))
            continue
        resolution_failed = True
        if found.status == "unknown_column":
            emit(UNKNOWN_COLUMN, use.path, f"column {use.ref.text()!r} does not resolve",
                 column=use.ref.text())
        elif found.status == "ambiguous":
            emit(AMBIGUOUS_COLUMN, use.path,
                 f"column {use.ref.text()!r} matches more than one table in scope",
                 column=use.ref.text())
        # unknown_table already reported in (a)
    join_endpoint_tables = {table.name for _ref, table in endpoints if table}
    for ref, table in endpoints:
        if table is not None and table.column(ref.column) is None:
            emit(UNKNOWN_COLUMN, from_path, f"column {ref.text()!r} does not resolve",
                 column=ref.text())

    # (c) foreign-key consistency of joins
    for join in joins:
        ends = [catalog.resolve(ref.table, ref.column) for ref in (join.left, join.right)]
        if any(end.status != "ok" for end in ends):
            continue
        if tuple((end.table.name, end.column.name) for end in ends) in catalog.fk_pairs:
            continue
        if allow_name_equijoin and join.left.column.lower() == join.right.column.lower():
            continue
        emit(FOREIGN_KEY_MISMATCH, from_path,
             f"join {join.left.text()} = {join.right.text()} is not a declared foreign key",
             left=join.left.text(), right=join.right.text())

    # (d) join absence / redundancy
    payload_tables: dict[str, tuple] = {}
    for use, table, _column in resolved_uses:
        payload_tables.setdefault(table.name, use.path)
    in_scope = {table.name for _t, table in scope if table}
    missing = (set(payload_tables) | join_endpoint_tables) - in_scope
    for name in sorted(missing, key=lambda name: (name.lower(), name)):
        path = from_path if from_path is not None else payload_tables.get(name, prefix + (0,))
        emit(JOIN_ABSENCE, path,
             f"table {name.lower()!r} is referenced but missing from add_from",
             table=name.lower())
    # a level that selects * implicitly uses every FROM table, and one with
    # unresolved columns gives no sound basis for a redundancy claim
    star_used = any(item.expression == "*"
                    for _path, action in kinds.get(AddSelect, ()) for item in action.items)
    if not star_used and not resolution_failed:
        distances = {a: _bfs_distances(catalog.fk_neighbors, a) for a in payload_tables}
        for t, table in scope:
            if table is None or table.name in payload_tables \
                    or _bridges(distances, table.name):
                continue
            emit(JOIN_REDUNDANCY, from_path,
                 f"table {t!r} contributes no columns and bridges no referenced tables",
                 table=t)

    # (e) type consistency of plain-column conditions, then of aggregates
    for use, _table, column in resolved_uses:
        if condition_column(use.action) is None:
            continue
        ref = use.ref
        for literal in value_literals(use.action.value):
            if column.affinity == "TEXT" and literal.kind == "number":
                emit(TYPE_MISMATCH, use.path,
                     f"text column {ref.text()!r} compared to numeric literal {literal.value!r}",
                     column=ref.text(), literal=str(literal.value))
            elif column.affinity in NUMERIC_AFFINITIES and literal.kind == "text" \
                    and not NUMBER_RE.match(literal.value.strip()):
                emit(TYPE_MISMATCH, use.path,
                     f"numeric column {ref.text()!r} compared to non-numeric text {literal.value!r}",
                     column=ref.text(), literal=literal.value)
    for use, _table, column in resolved_uses:
        if use.aggregate in ("SUM", "AVG") and column.affinity == "TEXT":
            emit(TYPE_MISMATCH, use.path,
                 f"{use.aggregate} over text column {use.ref.text()!r}",
                 column=use.ref.text(), aggregate=use.aggregate)

    # (f) group-by usage
    select_path, select = first.get(AddSelect, (None, None))
    group_path, group_by = first.get(AddGroupBy, (None, None))
    if select is not None:
        bare = [item for item in select.items if item.aggregate is None]
        aggregated = [item for item in select.items if item.aggregate is not None]
        if bare and aggregated and group_by is None:
            emit(GROUP_BY_ABSENCE, select_path,
                 "select mixes aggregated and bare columns without add_group_by",
                 bare=[i.expression for i in bare])
        if group_by is not None:
            grouped = {_group_key(resolve, c) for c in group_by.columns}
            for item in bare:
                ref = item.column_ref()
                key = _group_key(resolve, ref) if ref is not None else item.expression
                if key not in grouped:
                    emit(GROUP_BY_IMPROPER, group_path,
                         f"selected column {item.expression!r} is missing from add_group_by",
                         column=item.expression)
    if group_by is None:
        for path, action in kinds.get(AddHaving, ()):
            emit(HAVING_WITHOUT_GROUP_BY, path,
                 "add_having without add_group_by", lhs=_having_text(action))

    # (g) user-defined constraint rules
    for rule in rules:
        _evaluate_rule_level(rule, uses, resolve, emit)


def _having_text(action: AddHaving) -> str:
    if action.lhs.aggregate:
        return f"{action.lhs.aggregate}({action.lhs.expression})"
    return action.lhs.expression


def _group_key(resolve: _Resolve, ref: ColumnRef):
    found = resolve(ref)
    if found.status in _BOUND:
        return (found.table.name, found.column.name)
    return ref.text().lower()


# ---------------------------------------------------------------------------
# Rule evaluation
# ---------------------------------------------------------------------------


def _rule_matches(rule: ConstraintRule, resolve: _Resolve, ref: ColumnRef | None) -> bool:
    if ref is None:
        return False
    if ref.column.lower() != rule.column.column.lower():
        return False
    if rule.column.table is None:
        return True
    found = resolve(ref)
    if found.status not in _BOUND:
        return ref.table is not None and ref.table.lower() == rule.column.table.lower()
    return resolve(rule.column).table is found.table


def _evaluate_rule_level(rule: ConstraintRule, uses: list[_ColumnUse],
                         resolve: _Resolve, emit) -> None:
    if rule.kind == "require_null_filter":
        references: list[tuple] = []
        guarded = False
        for use in uses:
            action = use.action
            if not isinstance(action, (AddSelect, AddWhere)) \
                    or not _rule_matches(rule, resolve, use.ref):
                continue
            if isinstance(action, AddWhere) and action.op == "!=" \
                    and isinstance(action.value, Literal) and action.value.kind == "null":
                guarded = True
            else:
                references.append(use.path)
        if references and not guarded:
            emit(CUSTOM_RULE_VIOLATION, references[0],
                 f"rule {rule.rule_id!r}: column {rule.column.text()!r} used without a NULL guard",
                 rule_id=rule.rule_id, column=rule.column.text())
    elif rule.kind == "value_format":
        pattern = re.compile(rule.pattern)
        for use in uses:
            if not isinstance(use.action, (AddWhere, AddHaving)) \
                    or not _rule_matches(rule, resolve, use.ref):
                continue
            for literal in value_literals(use.action.value):
                if literal.kind == "text" and not pattern.fullmatch(literal.value):
                    emit(CUSTOM_RULE_VIOLATION, use.path,
                         f"rule {rule.rule_id!r}: literal {literal.value!r} does not match "
                         f"format {rule.pattern!r}",
                         rule_id=rule.rule_id, literal=literal.value, pattern=rule.pattern)


# ---------------------------------------------------------------------------
# DBMS-feedback mode
# ---------------------------------------------------------------------------


# the draft runs only to surface engine errors, so a few rows and seconds do
DBMS_ROW_CAP = 5
DBMS_TIMEOUT_S = 5.0


def detect_via_dbms(seq: ActionSequence, db_path: str | Path) -> list[DetectorFinding]:
    """Alternate inspection path: execute the assembled SQL and convert
    engine exceptions into findings. Weaker than the static detector by
    construction; kept for side-by-side comparison runs.
    """
    from .assembler import AssemblyError, assemble
    from .evaluation import QueryTimeout, execute_sql

    try:
        sql = assemble(seq)
    except AssemblyError as exc:
        return [DetectorFinding(kind=EXECUTION_ERROR, action_path=(),
                                detail=f"assembly failed: {exc}",
                                machine_data={"error": str(exc)})]
    try:
        execute_sql(db_path, sql, DBMS_TIMEOUT_S, max_rows=DBMS_ROW_CAP)
    except (sqlite3.Error, QueryTimeout) as exc:
        return [_engine_error_finding(str(exc), sql)]
    return []


# the finding kind of an engine message, by the first fragment it contains
_ENGINE_ERROR_KINDS = (
    ("no such table", UNKNOWN_TABLE),
    ("no such column", UNKNOWN_COLUMN),
    ("ambiguous column", AMBIGUOUS_COLUMN),
)


def _engine_error_finding(message: str, sql: str) -> DetectorFinding:
    lowered = message.lower()
    kind = next((kind for fragment, kind in _ENGINE_ERROR_KINDS if fragment in lowered),
                EXECUTION_ERROR)
    return DetectorFinding(kind=kind, action_path=(), detail=message,
                           machine_data={"error": message, "sql": sql})
