"""Clause-action DSL: a SQL query written as a sequence of function calls.

Nine call kinds form the action space. One call per line:

    add_select(air_date)
    add_from(episode)
    add_where(title, =, "A Love of a Lifetime")

Grammar summary:

* ``add_select(item, ...)`` -- items are ``*``, a column, ``DISTINCT col``,
  or an aggregate ``COUNT(col)`` / ``COUNT(DISTINCT col)`` / ``SUM`` /
  ``AVG`` / ``MIN`` / ``MAX``.
* ``add_from(table, ..., join(t1.col, t2.col), ...)`` -- tables plus
  explicit join pairs; join endpoints must be table-qualified.
* ``add_where(column, op, value)`` -- op is one of ``= != < <= > >= LIKE
  IN NOT IN BETWEEN``; value is a quoted string (a backslash escapes the
  next character), a number, ``NULL``, a bare identifier, a parenthesized
  list (for IN / BETWEEN), or ``@id`` referencing a resolved sub-question
  sequence.
* ``add_group_by(column, ...)``
* ``add_having(agg_or_column, op, value)``
* ``add_order_by(expression[, ASC|DESC])``
* ``add_limit(n)`` -- n is a non-negative integer.
* ``add_merge(UNION|INTERSECT|EXCEPT):`` followed by indented ``left:``
  and ``right:`` blocks, each holding a complete child sequence.
* ``qa("sub question")`` -- optionally followed by a ``:`` and an
  indented block holding the resolved child sequence.

Each level (the top one, a merge child, a qa block) holds at most one of
each clause except ``add_where``, ``add_having`` and ``qa``. A level with
an ``add_merge`` holds besides it only ``add_order_by``, ``add_limit`` and
``qa``. A line that breaks either rule is an error and is dropped.

Conjunctions (AND/OR) between conditions are deliberately absent from the
DSL; they are supplied later, at assembly time. Parsing is total: bad
input never raises, it produces ParseError values alongside whatever did
parse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Union

COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")
WORD_OPS = ("LIKE", "IN", "NOT IN", "BETWEEN")
MERGE_OPERATORS = ("UNION", "INTERSECT", "EXCEPT")
DIRECTIONS = ("ASC", "DESC")

# an identifier, bare or table-qualified; the rule loader validates its
# column references with it too
IDENT_RE = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?\Z")
# a bare identifier; the assembler leaves a name unquoted when it is one
NAME_RE = re.compile(r"[A-Za-z_]\w*\Z")
# a number literal; the detector reads text literals that spell one with it
NUMBER_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")
_CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*\((.*)\)\s*(:)?\s*$")
_LABEL_RE = re.compile(r"(left|right)\s*:\s*$")
_AGG_RE = re.compile(r"(count|sum|avg|min|max)\s*\((.*)\)$", re.IGNORECASE)
_JOIN_RE = re.compile(r"join\s*\((.*)\)$", re.IGNORECASE)
_DISTINCT_RE = re.compile(r"(distinct\s+)?(.*)", re.IGNORECASE | re.DOTALL)
# a string's opening quote and body, whose backslash escapes the next
# character; the two branches never both match, so a failed match is linear
_STRING = r"""(["'])(?:(?!\1)[^\\]|\\.)*"""
# one token of an argument's text: a string, which runs to the end when
# unterminated; a paren or comma; or a run of anything else
_LEXEME_RE = re.compile(_STRING + r"""\1?|[(),]|[^"'(),]+""", re.DOTALL)
_STRING_RE = re.compile(_STRING + r"\1", re.DOTALL)


# ---------------------------------------------------------------------------
# Value and action types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnRef:
    column: str
    table: str | None = None

    @classmethod
    def parse(cls, text: str) -> "ColumnRef":
        """Split ``table.column`` at its first dot; no dot means unqualified."""
        table, dot, column = text.partition(".")
        return cls(column=column, table=table) if dot else cls(column=text)

    def text(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Literal:
    kind: str  # "text" | "number" | "null" | "raw"
    value: object = None


@dataclass(frozen=True)
class LiteralList:
    items: tuple[Literal, ...]


@dataclass(frozen=True)
class SubqueryRef:
    sequence_id: str


Value = Union[Literal, LiteralList, SubqueryRef]


@dataclass(frozen=True)
class SelectItem:
    expression: str
    aggregate: str | None = None
    distinct: bool = False

    def column_ref(self) -> ColumnRef | None:
        """The column the item reads; None for ``*``."""
        return None if self.expression == "*" else ColumnRef.parse(self.expression)


@dataclass(frozen=True)
class JoinSpec:
    left: ColumnRef
    right: ColumnRef


@dataclass(frozen=True)
class AddSelect:
    items: tuple[SelectItem, ...]


@dataclass(frozen=True)
class AddFrom:
    tables: tuple[str, ...]
    joins: tuple[JoinSpec, ...] = ()


@dataclass(frozen=True)
class AddWhere:
    column: ColumnRef
    op: str
    value: Value


@dataclass(frozen=True)
class AddGroupBy:
    columns: tuple[ColumnRef, ...]


@dataclass(frozen=True)
class AddHaving:
    lhs: SelectItem
    op: str
    value: Value


@dataclass(frozen=True)
class AddOrderBy:
    expression: SelectItem
    direction: str = "ASC"


@dataclass(frozen=True)
class AddLimit:
    count: int


@dataclass
class AddMerge:
    operator: str
    left: "ActionSequence"
    right: "ActionSequence"


@dataclass
class QA:
    sub_question: str
    resolved: "ActionSequence | None" = None


Action = Union[AddSelect, AddFrom, AddWhere, AddGroupBy, AddHaving,
               AddOrderBy, AddLimit, AddMerge, QA]

CONDITIONAL_KINDS = (AddWhere, AddHaving)
SINGLETON_KINDS = (AddSelect, AddFrom, AddGroupBy, AddOrderBy, AddLimit, AddMerge)
CORE_KINDS = (AddSelect, AddFrom, AddWhere, AddGroupBy, AddHaving)


@dataclass
class ActionSequence:
    actions: list[Action] = field(default_factory=list)

    def first(self, kind) -> Action | None:
        for action in self.actions:
            if isinstance(action, kind):
                return action
        return None


def condition_column(action: Action) -> ColumnRef | None:
    """The plain column a condition compares: an add_where's, or a
    non-aggregate add_having's. None for any other action."""
    if isinstance(action, AddWhere):
        return action.column
    if isinstance(action, AddHaving) and action.lhs.aggregate is None:
        return action.lhs.column_ref()
    return None


def value_literals(value: Value) -> tuple[Literal, ...]:
    """The literals a condition value holds; none for an ``@id`` reference."""
    if isinstance(value, LiteralList):
        return value.items
    return (value,) if isinstance(value, Literal) else ()


def _child_sequences(action: Action) -> tuple[tuple[str, ActionSequence], ...]:
    """The child sequences an action owns, with their path labels."""
    if isinstance(action, AddMerge):
        return (("left", action.left), ("right", action.right))
    if isinstance(action, QA) and action.resolved is not None:
        return (("qa", action.resolved),)
    return ()


def _walk(level: ActionSequence, prefix: tuple):
    # one event per level entered, (prefix, level, None), and one per
    # action, (path, level, action); an action's children are read only
    # after its event is consumed, so a caller may fill them in first
    yield prefix, level, None
    for i, action in enumerate(level.actions):
        path = prefix + (i,)
        yield path, level, action
        for label, child in _child_sequences(action):
            yield from _walk(child, path + (label,))


def walk(seq: ActionSequence) -> Iterator[tuple[tuple, ActionSequence, Action]]:
    """Every action in the tree as (path, level, action), depth first in
    document order: an action's children come right after it.
    """
    return ((path, level, action) for path, level, action in _walk(seq, ())
            if action is not None)


def walk_levels(seq: ActionSequence) -> Iterator[tuple[tuple, ActionSequence]]:
    """Every sequence in the tree as (prefix, level), pre-order: the root,
    then each child sequence as the walk reaches it, empty ones included.
    """
    return ((prefix, level) for prefix, level, action in _walk(seq, ())
            if action is None)


def levels_by_id(seq: ActionSequence) -> dict[str, ActionSequence]:
    """Every level of the tree by the id an ``@id`` reference names: ``s``
    joined with the level's walk prefix (``s``, ``s.0.left``, ``s.2.qa``).
    """
    return {".".join(["s", *map(str, prefix)]): level for prefix, level in walk_levels(seq)}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParseError:
    line: int
    reason: str


@dataclass
class ParseResult:
    sequence: ActionSequence
    errors: list[ParseError]


class _ArgError(Exception):
    pass


def _split_args(text: str) -> list[str]:
    """Split a call's argument text on top-level commas.

    This is the action DSL's grammar, not SQL: its strings take backslash
    escapes, so it does not read sqllex tokens.
    """
    parts: list[str] = []
    start = depth = 0
    for lexeme in _LEXEME_RE.finditer(text):
        token = lexeme.group()
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
        elif token == "," and depth == 0:
            parts.append(text[start:lexeme.start()].strip())
            start = lexeme.end()
    tail = text[start:].strip()
    if parts or tail:
        parts.append(tail)
    return parts


_UNESCAPE = {"n": "\n", "t": "\t", "r": "\r"}


def _parse_string(token: str) -> str:
    # read as the lexer reads it: a token that is exactly one closed string
    if not _STRING_RE.fullmatch(token):
        raise _ArgError(f"malformed string literal {token!r}")
    return re.sub(r"\\(.)", lambda m: _UNESCAPE.get(m.group(1), m.group(1)), token[1:-1],
                  flags=re.DOTALL)


def _parse_number(token: str):
    if re.search(r"[.eE]", token):
        return float(token)
    return int(token)


def _parse_scalar(token: str) -> Literal | SubqueryRef:
    if token and token[0] in "'\"":
        return Literal(kind="text", value=_parse_string(token))
    if NUMBER_RE.match(token):
        return Literal(kind="number", value=_parse_number(token))
    if token.lower() == "null":
        return Literal(kind="null")
    if token.startswith("@"):
        ref = token[1:]
        if not re.match(r"[\w.]+$", ref):
            raise _ArgError(f"malformed sequence reference {token!r}")
        return SubqueryRef(sequence_id=ref)
    if IDENT_RE.match(token):
        return Literal(kind="raw", value=token)
    raise _ArgError(f"malformed value {token!r}")


def _parse_value(token: str) -> Value:
    if token.startswith("(") and token.endswith(")"):
        items = []
        for part in _split_args(token[1:-1]):
            element = _parse_scalar(part)
            if isinstance(element, SubqueryRef):
                raise _ArgError("sequence references are not allowed inside value lists")
            items.append(element)
        if not items:
            raise _ArgError("empty value list")
        return LiteralList(items=tuple(items))
    return _parse_scalar(token)


def _parse_column(token: str) -> ColumnRef:
    if not IDENT_RE.match(token):
        raise _ArgError(f"malformed column reference {token!r}")
    return ColumnRef.parse(token)


def _parse_op(token: str) -> str:
    cleaned = " ".join(token.split())
    if cleaned == "<>":
        return "!="
    upper = cleaned.upper()
    if cleaned in COMPARISON_OPS:
        return cleaned
    if upper in WORD_OPS:
        return upper
    raise _ArgError(f"unknown operator {token!r}")


def _parse_select_item(token: str) -> SelectItem:
    distinct, body = _DISTINCT_RE.match(token).groups()
    agg_match = _AGG_RE.match(body)
    if agg_match:
        inner_distinct, inner = _DISTINCT_RE.match(agg_match.group(2).strip()).groups()
        if inner != "*" and not IDENT_RE.match(inner):
            raise _ArgError(f"malformed aggregate argument {inner!r}")
        if distinct:
            raise _ArgError(f"DISTINCT goes inside the aggregate, not before it: {token!r}")
        return SelectItem(expression=inner, aggregate=agg_match.group(1).upper(),
                          distinct=bool(inner_distinct))
    if body == "*" or IDENT_RE.match(body):
        return SelectItem(expression=body, distinct=bool(distinct))
    raise _ArgError(f"malformed select item {token!r}")


def _check_condition_value(op: str, value: Value) -> None:
    if op == "BETWEEN":
        if not isinstance(value, LiteralList) or len(value.items) != 2:
            raise _ArgError("BETWEEN takes a two-element value list")
    elif op in ("IN", "NOT IN"):
        if not isinstance(value, (LiteralList, SubqueryRef)):
            raise _ArgError(f"{op} takes a value list or a sequence reference")
    else:
        if isinstance(value, LiteralList):
            raise _ArgError(f"operator {op} takes a single value")


@dataclass
class _Line:
    number: int
    indent: int
    content: str


def _logical_lines(text: str) -> list[_Line]:
    lines = []
    for number, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indent = len(raw) - len(raw.lstrip())
        lines.append(_Line(number=number, indent=indent, content=stripped))
    return lines


def _shape_clash(level: list[Action], action: Action) -> str | None:
    """Why `action` cannot follow the level's earlier actions, or None."""
    name = type(action).__name__
    if isinstance(action, SINGLETON_KINDS) and any(type(a) is type(action) for a in level):
        return f"more than one {name} at this level"
    rivals = (CORE_KINDS if isinstance(action, AddMerge)
              else AddMerge if isinstance(action, CORE_KINDS) else ())
    other = next((a for a in level if isinstance(a, rivals)), None)
    return None if other is None else \
        f"{name} cannot share a level with {type(other).__name__}"


class _Parser:
    def __init__(self, lines: list[_Line]):
        self.lines = lines
        self.pos = 0
        self.errors: list[ParseError] = []

    def error(self, line: _Line, reason: str) -> None:
        self.errors.append(ParseError(line=line.number, reason=reason))

    def parse_block(self, indent: int) -> list[Action]:
        """Parse consecutive lines indented at least `indent`."""
        actions: list[Action] = []
        block_indent: int | None = None
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            if line.indent < indent:
                break
            if block_indent is None:
                block_indent = line.indent
            if line.indent > block_indent:
                self.error(line, "unexpected indentation")
                self.pos += 1
                continue
            mark = len(self.errors)  # a shape error goes before its children's
            action = self.parse_call(line, block_indent)
            if action is None:
                continue
            clash = _shape_clash(actions, action)
            if clash is None:
                actions.append(action)
            else:
                self.errors.insert(mark, ParseError(line=line.number, reason=clash))
        return actions

    def parse_call(self, line: _Line, indent: int) -> Action | None:
        self.pos += 1
        match = _CALL_RE.match(line.content)
        if not match:
            self.error(line, f"unrecognized line {line.content!r}")
            self.skip_deeper(indent)
            return None
        name, argtext, colon = match.group(1).lower(), match.group(2), match.group(3)
        args = _split_args(argtext)
        try:
            if name == "add_merge":
                return self.parse_merge(line, args, colon, indent)
            if name == "qa":
                return self.parse_qa(line, args, colon, indent)
            if colon:
                raise _ArgError(f"{name} does not take a block")
            return self.parse_plain(name, args)
        except _ArgError as exc:
            self.error(line, str(exc))
            self.skip_deeper(indent)
            return None

    def skip_deeper(self, indent: int) -> None:
        while self.pos < len(self.lines) and self.lines[self.pos].indent > indent:
            self.pos += 1

    def parse_plain(self, name: str, args: list[str]) -> Action:
        if name == "add_select":
            if not args:
                raise _ArgError("add_select needs at least one item")
            return AddSelect(items=tuple(_parse_select_item(a) for a in args))
        if name == "add_from":
            tables: list[str] = []
            joins: list[JoinSpec] = []
            if not args:
                raise _ArgError("add_from needs at least one table")
            for arg in args:
                join_match = _JOIN_RE.match(arg)
                if join_match:
                    pair = _split_args(join_match.group(1))
                    if len(pair) != 2:
                        raise _ArgError("join takes exactly two columns")
                    left, right = _parse_column(pair[0]), _parse_column(pair[1])
                    if left.table is None or right.table is None:
                        raise _ArgError("join columns must be table-qualified")
                    joins.append(JoinSpec(left=left, right=right))
                elif NAME_RE.match(arg):
                    tables.append(arg)
                else:
                    raise _ArgError(f"malformed table reference {arg!r}")
            if not tables:
                raise _ArgError("add_from needs at least one table")
            return AddFrom(tables=tuple(tables), joins=tuple(joins))
        if name == "add_where":
            if len(args) != 3:
                raise _ArgError("add_where takes (column, op, value)")
            column, op = _parse_column(args[0]), _parse_op(args[1])
            value = _parse_value(args[2])
            _check_condition_value(op, value)
            return AddWhere(column=column, op=op, value=value)
        if name == "add_group_by":
            if not args:
                raise _ArgError("add_group_by needs at least one column")
            return AddGroupBy(columns=tuple(_parse_column(a) for a in args))
        if name == "add_having":
            if len(args) != 3:
                raise _ArgError("add_having takes (expression, op, value)")
            lhs, op = _parse_select_item(args[0]), _parse_op(args[1])
            value = _parse_value(args[2])
            _check_condition_value(op, value)
            return AddHaving(lhs=lhs, op=op, value=value)
        if name == "add_order_by":
            if len(args) not in (1, 2):
                raise _ArgError("add_order_by takes (expression[, direction])")
            direction = "ASC"
            if len(args) == 2:
                direction = args[1].upper()
                if direction not in DIRECTIONS:
                    raise _ArgError(f"unknown direction {args[1]!r}")
            return AddOrderBy(expression=_parse_select_item(args[0]), direction=direction)
        if name == "add_limit":
            if len(args) != 1:
                raise _ArgError("add_limit takes a single integer")
            if not re.match(r"[+-]?\d+$", args[0]):
                raise _ArgError(f"limit must be an integer, got {args[0]!r}")
            count = int(args[0])
            if count < 0:
                raise _ArgError("limit must be non-negative")
            return AddLimit(count=count)
        raise _ArgError(f"unknown function {name!r}")

    def parse_merge(self, line: _Line, args: list[str], colon: str | None,
                    indent: int) -> AddMerge:
        if len(args) != 1 or args[0].upper() not in MERGE_OPERATORS:
            raise _ArgError("add_merge takes one of UNION, INTERSECT, EXCEPT")
        operator = args[0].upper()
        if not colon:
            raise _ArgError("add_merge needs a ':' and labeled child blocks")
        children = {"left": ActionSequence(), "right": ActionSequence()}
        seen: set[str] = set()
        while self.pos < len(self.lines) and self.lines[self.pos].indent > indent:
            label_line = self.lines[self.pos]
            label_match = _LABEL_RE.match(label_line.content)
            if not label_match:
                self.error(label_line, "expected 'left:' or 'right:' inside add_merge")
                self.pos += 1
                self.skip_deeper(label_line.indent)
                continue
            label = label_match.group(1)
            if label in seen:
                self.error(label_line, f"duplicate {label}: block")
            seen.add(label)
            self.pos += 1
            child_actions = self.parse_block(label_line.indent + 1)
            children[label] = ActionSequence(actions=child_actions)
        for label in ("left", "right"):
            if label not in seen:
                self.error(line, f"add_merge is missing its {label}: block")
        return AddMerge(operator=operator, left=children["left"], right=children["right"])

    def parse_qa(self, line: _Line, args: list[str], colon: str | None,
                 indent: int) -> QA:
        if len(args) != 1:
            raise _ArgError("qa takes a single quoted question")
        question_value = _parse_scalar(args[0])
        if not isinstance(question_value, Literal) or question_value.kind != "text":
            raise _ArgError("qa takes a quoted question string")
        resolved = None
        if colon:
            child_actions = self.parse_block(indent + 1)
            resolved = ActionSequence(actions=child_actions)
        return QA(sub_question=question_value.value, resolved=resolved)


def parse_actions(text: str) -> ParseResult:
    """Parse agent output into an ActionSequence, collecting all errors.

    Never raises: unknown functions, arity violations and malformed
    literals become ParseError values and parsing continues on the next
    line.
    """
    parser = _Parser(_logical_lines(text))
    actions = parser.parse_block(0)
    return ParseResult(sequence=ActionSequence(actions=actions), errors=parser.errors)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_ESCAPE = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def quote_string(value: str) -> str:
    return '"' + "".join(_ESCAPE.get(ch, ch) for ch in value) + '"'


def _value_text(value: Value) -> str:
    if isinstance(value, SubqueryRef):
        return f"@{value.sequence_id}"
    if isinstance(value, LiteralList):
        return "(" + ", ".join(_value_text(item) for item in value.items) + ")"
    if value.kind == "text":
        return quote_string(value.value)
    if value.kind == "number":
        return repr(value.value)
    if value.kind == "null":
        return "NULL"
    return str(value.value)


def _item_text(item: SelectItem) -> str:
    if item.aggregate:
        inner = f"DISTINCT {item.expression}" if item.distinct else item.expression
        return f"{item.aggregate}({inner})"
    if item.distinct:
        return f"DISTINCT {item.expression}"
    return item.expression


def _action_lines(action: Action, depth: int) -> list[str]:
    pad = "    " * depth
    if isinstance(action, AddSelect):
        return [pad + "add_select(" + ", ".join(_item_text(i) for i in action.items) + ")"]
    if isinstance(action, AddFrom):
        parts = list(action.tables)
        parts += [f"join({j.left.text()}, {j.right.text()})" for j in action.joins]
        return [pad + "add_from(" + ", ".join(parts) + ")"]
    if isinstance(action, AddWhere):
        return [pad + f"add_where({action.column.text()}, {action.op}, {_value_text(action.value)})"]
    if isinstance(action, AddGroupBy):
        return [pad + "add_group_by(" + ", ".join(c.text() for c in action.columns) + ")"]
    if isinstance(action, AddHaving):
        return [pad + f"add_having({_item_text(action.lhs)}, {action.op}, {_value_text(action.value)})"]
    if isinstance(action, AddOrderBy):
        return [pad + f"add_order_by({_item_text(action.expression)}, {action.direction})"]
    if isinstance(action, AddLimit):
        return [pad + f"add_limit({action.count})"]
    if isinstance(action, AddMerge):
        lines = [pad + f"add_merge({action.operator}):"]
        for label, child in _child_sequences(action):
            lines.append("    " * (depth + 1) + f"{label}:")
            lines.extend(_sequence_lines(child, depth + 2))
        return lines
    if isinstance(action, QA):
        head = pad + f"qa({quote_string(action.sub_question)})"
        if action.resolved is None:
            return [head]
        lines = [head + ":"]
        lines.extend(_sequence_lines(action.resolved, depth + 1))
        return lines
    raise TypeError(f"not an action: {action!r}")


def _sequence_lines(seq: ActionSequence, depth: int) -> list[str]:
    lines: list[str] = []
    for action in seq.actions:
        lines.extend(_action_lines(action, depth))
    return lines


def serialize_actions(seq: ActionSequence) -> str:
    """Canonical text form; parse_actions(serialize_actions(s)) == s."""
    return "\n".join(_sequence_lines(seq, 0))
