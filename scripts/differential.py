#!/usr/bin/env python3
"""Differential digest of the SQL-text and retriever surfaces (McKeeman,
"Differential Testing for Software", DTJ 1998).

Generates N random SQL strings and N condition literals from a seeded
`random.Random`, over the episode fixture of tests/conftest.py, and prints
one SHA-256 per surface:

  order_by      has_top_level_order_by of every string
  components    sql_components, frozensets sorted
  exact_match   exact_match over same-shape pairs and over random pairs
  conditions    extract_conditions
  rewrite       rewrite against the episode catalog and cell index
  replace_value replace_common_value over a gold query carrying a cell
  candidates    check_condition verdicts on the TEXT columns at k = 1 and
                k = 5, candidate raws and repr(score) included
  findings      detect over seeded action-DSL drafts, with one constraint
                rule of each kind, with and without allow_name_equijoin;
                parse errors included
  verdicts      inspect_sequence over the same drafts at k = 0 and k = 3,
                through verdict_to_json
  assemble      assemble over the same drafts: the SQL, or the
                AssemblyError's type and message
  refine        the trace JSON of run with a ScriptedAgent that replays the
                draft and up to two more, sub-questions included
  eval_report   score_examples over seeded examples with a file predictor,
                post_process off and on, workers 1 and 2: each example's
                result JSON and the aggregates
  perturb       perturb_example over seeded annotated questions, each with a
                random set of disturbance kinds, with and without the index
  cell_index    build_cell_index over the episode fixture: every table,
                column and its cells

Two checkouts that print the same lines for a seed agree on all of them.
The script uses only long-standing public names, so it can score another
checkout's package:

    python scripts/differential.py --seed 1 --n 6000
    PYTHONPATH=/path/to/other/src python scripts/differential.py --seed 1 --n 6000

The output of `--seed 1 --n 300` on Python 3.11 is committed as
scripts/differential_seed1_n300.txt, and CI diffs against it; a change
that moves a line on purpose rewrites that file:

    python scripts/differential.py --seed 1 --n 300 > scripts/differential_seed1_n300.txt

The default SQL family has terminated quotes and no comments, no bracket
or backtick identifiers, no keyword, paren or quote of the other style
inside a literal, and no gold query that carries the replaced value
twice; the tests pin those cases one by one. Its only nested SELECT wraps
a whole query as a derived table, and its only set operation appends a
UNION arm at the end, so it never puts a condition after a subquery; the
property test_a_subquery_anywhere_in_where_keeps_every_condition in
tests/test_postprocess.py splices `col IN (SELECT ...)` into every WHERE
position of this family's conditions. The drafts draw values that fit
their operator, so most of them parse; a few carry a malformed line, a
duplicate clause (a parse error too), shuffled clauses, a merge, or a
sub-question.

The episode fixture has one FK edge (pairing.episode_id -> episode.id), so
no FROM table in a draft ever bridges two referenced tables and `findings`
never reaches the join-redundancy rule's bridge branch; the property test
over random FK graphs in tests/test_detector.py covers that branch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not any(Path(p, "sqlmend").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from conftest import EPISODE_DDL, EPISODE_ROWS, NETWORK_ROWS, PAIRING_ROWS, make_db  # noqa: E402

from sqlmend.actions import AddWhere, ColumnRef, Literal, parse_actions, quote_string  # noqa: E402
from sqlmend.assembler import AssemblyError, assemble  # noqa: E402
from sqlmend.detector import detect, load_rules  # noqa: E402
from sqlmend.evaluation import EvalExample, exact_match, file_predictor  # noqa: E402
from sqlmend.evaluation import has_top_level_order_by, score_examples, sql_components  # noqa: E402
from sqlmend.orchestrator import RefinementConfig, ScriptedAgent, run, verdict_to_json  # noqa: E402
from sqlmend.perturb import AnnotatedExample, ColumnMentionSpan, NoApplicableSpan  # noqa: E402
from sqlmend.perturb import DISTURBANCE_KINDS, Span, ValueSpan  # noqa: E402
from sqlmend.perturb import perturb_example, replace_common_value  # noqa: E402
from sqlmend.postprocess import extract_conditions, rewrite  # noqa: E402
from sqlmend.retriever import Matched, Mismatch, check_condition, inspect_sequence  # noqa: E402
from sqlmend.schema_catalog import Database, build_cell_index, load_catalog  # noqa: E402

TABLES = {
    "episode": ["id", "title", "air_date", "written_by", "directed_by"],
    "pairing": ["id", "episode_id", "guest", "rating"],
    "network": ["id", "name"],
    "t1": ["a", "b", "c"],
}
TEXT_COLUMNS = ["episode.title", "episode.air_date", "episode.written_by",
                "episode.directed_by", "pairing.guest", "network.name"]
CELLS = sorted({str(cell) for rows in (EPISODE_ROWS, PAIRING_ROWS, NETWORK_ROWS)
                for row in rows for cell in row if isinstance(cell, str)})
TEXT_TABLES = ["episode", "pairing", "network"]
ROWS = {"episode": EPISODE_ROWS, "pairing": PAIRING_ROWS, "network": NETWORK_ROWS}
NUMBERS = ["1", "5", "42", "2.5", "0.75", "1e5", "2009"]


class Writer:
    """Picks the literals, numbers, keyword case and whitespace of one
    query, so two writers over one shape give the same shape spelled
    differently."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def kw(self, word: str) -> str:
        return self.rng.choice((word.upper(), word.lower(), word.title()))

    def sp(self) -> str:
        return self.rng.choice((" ", " ", " ", "  ", "\n", "\t", " \n "))

    def tight(self) -> str:
        return self.rng.choice(("", " ", " "))

    def number(self) -> str:
        return self.rng.choice(NUMBERS)

    def literal(self, value: str | None = None) -> str:
        rng = self.rng
        if value is None:
            value = rng.choice(CELLS)
            mutation = rng.randrange(5)
            if mutation == 1:
                value = value.lower()
            elif mutation == 2 and len(value) > 2:
                cut = rng.randrange(len(value))
                value = value[:cut] + value[cut + 1:]
            elif mutation == 3:
                value = value.upper()
        if "'" in value or rng.random() < 0.6:
            return "'" + value.replace("'", "''") + "'"
        return '"' + value.replace('"', '""') + '"'


def column(rng: random.Random, table: str, alias: str | None) -> str:
    name = rng.choice(TABLES[table])
    qualifier = rng.choice((None, None, alias or table))
    return f"{qualifier}.{name}" if qualifier else name


def condition(rng: random.Random, w: Writer, table: str, alias: str | None,
              nested: bool = False) -> str:
    col = column(rng, table, alias)
    shape = rng.randrange(9)
    if shape <= 2:
        op = rng.choice(("=", "=", "!=", "<>", "<", ">=", "<="))
        return f"{col}{w.tight()}{op}{w.tight()}{w.literal()}"
    if shape == 3:
        return f"{col}{w.tight()}{rng.choice(('=', '>', '<='))}{w.tight()}{w.number()}"
    if shape == 4:
        return (f"{col}{w.sp()}{w.kw('between')}{w.sp()}{w.number()}{w.sp()}{w.kw('and')}"
                f"{w.sp()}{w.number()}")
    if shape == 5:
        items = [w.literal() for _ in range(rng.randint(1, 3))]
        return f"{col}{w.sp()}{w.kw('in')}{w.sp()}({w.tight()}{f',{w.tight()}'.join(items)})"
    if shape == 6:
        pattern = w.literal()
        return f"{col}{w.sp()}{w.kw('like')}{w.sp()}{pattern[:-1]}%{pattern[-1]}"
    if shape == 7 or nested:
        return f"{col}{w.sp()}{w.kw('is')}{w.sp()}{w.kw('null')}"
    glue = f"{w.sp()}{w.kw(rng.choice(('and', 'or')))}{w.sp()}"
    inner = glue.join(condition(rng, w, table, alias, nested=True) for _ in range(2))
    return f"({w.tight()}{inner}{w.tight()})"


def select_item(rng: random.Random, w: Writer, table: str, alias: str | None) -> str:
    col = column(rng, table, alias)
    shape = rng.randrange(7)
    if shape == 0:
        return "*"
    if shape == 1:
        return f"{w.kw('count')}({w.tight()}*{w.tight()})"
    if shape == 2:
        return f"{w.kw(rng.choice(('max', 'min', 'avg', 'sum')))}({col})"
    if shape == 3:
        return f"{w.kw('count')}({w.kw('distinct')} {col})"
    if shape == 4:
        return f"{col}{w.sp()}{w.kw('as')}{w.sp()}x{rng.randrange(3)}"
    return col


def generate_sql(shape_seed: float, writer_seed: int) -> str:
    """One query. The same `shape_seed` with another `writer_seed` gives
    the same shape with other literals, case and spacing."""
    rng = random.Random(shape_seed)
    w = Writer(random.Random(writer_seed))
    table = rng.choice(sorted(TABLES))
    alias = rng.choice((None, None, "e", "T1"))
    parts = [w.kw("select")]
    if rng.random() < 0.15:
        parts.append(w.kw("distinct"))
    parts.append(f"{w.tight()},{w.sp()}".join(
        select_item(rng, w, table, alias) for _ in range(rng.randint(1, 3))))
    parts.append(w.kw("from"))
    if alias is None:
        parts.append(table)
    elif rng.random() < 0.5:
        parts.append(f"{table}{w.sp()}{w.kw('as')}{w.sp()}{alias}")
    else:
        parts.append(f"{table} {alias}")
    join = rng.randrange(6)
    if join == 1:
        parts.append(f"{w.tight()},{w.sp()}network")
    elif join >= 2:
        kind = rng.choice(("join", "inner join", "left join", "left outer join", "cross join"))
        parts += [w.kw(kind), "pairing", w.kw("on"),
                  f"{alias or table}.id{w.tight()}={w.tight()}pairing.episode_id"]
    if rng.random() < 0.7:
        conditions = [condition(rng, w, table, alias) for _ in range(rng.randint(1, 3))]
        clause = conditions[0] + "".join(
            f"{w.sp()}{w.kw(rng.choice(('and', 'and', 'or')))}{w.sp()}{c}"
            for c in conditions[1:])
        parts += [w.kw("where"), clause]
    if rng.random() < 0.25:
        parts += [w.kw("group"), w.kw("by"), column(rng, table, alias)]
        if rng.random() < 0.5:
            parts += [w.kw("having"),
                      f"{w.kw('count')}(*){w.tight()}>{w.tight()}{w.number()}"]
    if rng.random() < 0.35:
        parts += [w.kw("order"), w.kw("by"), column(rng, table, alias)]
        if rng.random() < 0.5:
            parts.append(w.kw(rng.choice(("asc", "desc"))))
    if rng.random() < 0.2:
        parts += [w.kw("limit"), w.number()]
    sql = "".join(part + w.sp() for part in parts).strip()
    tail = rng.randrange(12)
    if tail == 0:
        sql += f" {w.kw('union')} {w.kw('select')} name {w.kw('from')} network"
    elif tail == 1:
        sql = f"SELECT * FROM ({sql}) {w.kw('order')} {w.kw('by')} 1"
    elif tail == 2:
        sql += rng.choice((";", " ;", ";;"))
    return sql


def gold_with_value(rng: random.Random, w: Writer, value: str) -> str:
    """A gold query that carries `value` as a quoted literal."""
    table = rng.choice(TEXT_TABLES)
    sql = f"SELECT id FROM {table} WHERE {column(rng, table, None)} = {w.literal(value)}"
    if rng.random() < 0.5:
        other = rng.choice([cell for cell in CELLS if cell != value])
        sql += f" {w.kw('or')} {column(rng, table, None)} = {w.literal(other)}"
    return sql


def column_cells(table: str, name: str) -> list[str]:
    position = TABLES[table].index(name)
    return sorted({row[position] for row in ROWS[table]})


def probe_literal(rng: random.Random, cell: str) -> str:
    """A literal near `cell`: the cell itself, a case change, the cell in
    quotes, a one-letter typo, empty, or one character."""
    shape = rng.randrange(6)
    if shape == 0:
        return cell
    if shape == 1:
        return rng.choice((cell.lower(), cell.upper(), cell.swapcase()))
    if shape == 2:
        return rng.choice("'\"`") + cell + rng.choice(("'", '"', "`"))
    if shape == 3:
        cut = rng.randrange(len(cell))
        return cell[:cut] + rng.choice("aeiouxyz") + cell[cut + 1:]
    if shape == 4:
        return ""
    return rng.choice(cell + "xyz!")


RULES = [
    {"rule_id": "air_date_guard", "kind": "require_null_filter",
     "params": {"column": "episode.air_date"}},
    {"rule_id": "title_case", "kind": "value_format",
     "params": {"column": "title", "pattern": "[A-Z].*"}},
]
JOINS = ["join(pairing.episode_id, episode.id)", "join(episode.id, pairing.episode_id)",
         "join(episode.id, pairing.id)", "join(network.id, pairing.episode_id)",
         "join(episode.id, t1.a)", "join(episode.nosuch, pairing.id)"]
AGGREGATES = ["COUNT", "SUM", "AVG", "MIN", "MAX"]
SUB_QUESTIONS = ["which episodes aired first", "who wrote the firefly"]
MALFORMED = ["add_where(title, ~, 1)", "add_select()", "add_limit(-1)",
             "add_frobnicate(x)", "add_where(title, IN, \"x\")"]


class DraftWriter:
    """Writes action-DSL drafts over the episode fixture, the way an agent
    would: mostly well-formed, with scope, type, grouping and rule
    mistakes mixed in."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def column(self, tables: list[str]) -> str:
        rng = self.rng
        table = rng.choice(tables) if rng.random() < 0.85 else rng.choice(sorted(TABLES))
        name = rng.choice(TABLES[table]) if rng.random() < 0.93 else "nosuch"
        return f"{table}.{name}" if rng.random() < 0.4 else name

    def item(self, tables: list[str]) -> str:
        rng = self.rng
        shape = rng.randrange(8)
        if shape == 0:
            return "*"
        if shape == 1:
            return "COUNT(*)"
        if shape == 2:
            return f"DISTINCT {self.column(tables)}"
        if shape == 3:
            distinct = "DISTINCT " if rng.random() < 0.3 else ""
            return f"{rng.choice(AGGREGATES)}({distinct}{self.column(tables)})"
        return self.column(tables)

    def text(self) -> str:
        rng = self.rng
        if rng.random() < 0.1:
            return quote_string(rng.choice(NUMBERS))
        value = rng.choice(CELLS)
        shape = rng.randrange(5)
        if shape == 1:
            value = value.lower()
        elif shape == 2 and len(value) > 2:
            cut = rng.randrange(len(value))
            value = value[:cut] + value[cut + 1:]
        return quote_string(value)

    def scalar(self) -> str:
        rng = self.rng
        shape = rng.randrange(10)
        if shape <= 5:
            return self.text()
        if shape <= 7:
            return rng.choice(NUMBERS)
        return rng.choice(("NULL", "title", "episode.id"))

    def value(self, op: str, ref: str | None) -> str:
        rng = self.rng
        if ref is not None and op in ("=", "!=", "IN", "NOT IN") and rng.random() < 0.3:
            return ref
        if op == "BETWEEN":
            pair = (rng.choice(NUMBERS), rng.choice(NUMBERS)) if rng.random() < 0.6 \
                else (self.text(), self.text())
            return f"({pair[0]}, {pair[1]})"
        if op in ("IN", "NOT IN"):
            return "(" + ", ".join(self.scalar() for _ in range(rng.randint(1, 3))) + ")"
        if op == "LIKE":
            literal = self.text()
            return literal[:-1] + rng.choice(("%", "_", "")) + literal[-1]
        if op in ("<", ">="):
            return rng.choice(NUMBERS) if rng.random() < 0.6 else self.text()
        return self.scalar()

    def condition(self, tables: list[str], ref: str | None) -> str:
        rng = self.rng
        op = rng.choice(("=", "=", "=", "!=", "<", ">=", "LIKE", "IN", "NOT IN", "BETWEEN"))
        if rng.random() < 0.75:
            return f"add_where({self.column(tables)}, {op}, {self.value(op, ref)})"
        op = rng.choice(("=", "!=", "<", ">="))
        return f"add_having({self.item(tables)}, {op}, {self.value(op, ref)})"

    def level(self, level_id: str, depth: int) -> list[str]:
        """The lines of one level, its children indented under it."""
        rng = self.rng
        if depth < 2 and rng.random() < 0.08:
            lines = [f"add_merge({rng.choice(('UNION', 'INTERSECT', 'EXCEPT'))}):"]
            for label in ("left", "right"):
                lines.append(f"    {label}:")
                lines += ["        " + line
                          for line in self.level(f"{level_id}.0.{label}", depth + 1)]
            if rng.random() < 0.3:
                lines.append(f"add_order_by({self.item(['episode'])}, DESC)")
            return lines
        tables = rng.sample(["episode", "pairing", "network"], rng.choice((1, 1, 1, 2, 2, 3)))
        if rng.random() < 0.05:
            tables.append("t1")
        joins = [rng.choice(JOINS) for _ in range(rng.choice((0, 0, 1, 1, 2)))]
        qa = depth < 2 and rng.random() < 0.15
        # the qa action goes last, so a reference can name its position
        ref = None
        if qa or rng.random() < 0.05:
            ref = rng.choice((f"@{level_id}", f"@{level_id}.9.qa", "@s.0.qa"))
        actions = []
        if rng.random() < 0.95:
            actions.append("add_select(" + ", ".join(
                self.item(tables) for _ in range(rng.randint(1, 3))) + ")")
        if rng.random() < 0.95:
            actions.append("add_from(" + ", ".join(tables + joins) + ")")
        actions += [self.condition(tables, ref) for _ in range(rng.choice((0, 1, 1, 2, 3)))]
        if rng.random() < 0.3:
            actions.append("add_group_by(" + ", ".join(
                self.column(tables) for _ in range(rng.randint(1, 2))) + ")")
        if rng.random() < 0.3:
            direction = rng.choice(("", ", ASC", ", DESC"))
            actions.append(f"add_order_by({self.item(tables)}{direction})")
        if rng.random() < 0.15:
            actions.append(f"add_limit({rng.randrange(20)})")
        if actions and rng.random() < 0.1:
            actions.append(rng.choice(actions))
        if rng.random() < 0.15:
            rng.shuffle(actions)
        if rng.random() < 0.05:
            actions.insert(rng.randrange(len(actions) + 1), rng.choice(MALFORMED))
        if qa:
            position = len(actions)
            actions = [line.replace(f"@{level_id}.9.qa", f"@{level_id}.{position}.qa")
                       for line in actions]
            question = quote_string(rng.choice(SUB_QUESTIONS))
            if rng.random() < 0.6:
                actions.append(f"qa({question}):")
                actions += ["    " + line
                            for line in self.level(f"{level_id}.{position}.qa", depth + 1)]
            else:
                actions.append(f"qa({question})")
        return actions

    def simple(self) -> str:
        """A one-table draft with one text condition, often approvable."""
        rng = self.rng
        table, name = rng.choice(TEXT_COLUMNS).split(".")
        literal = rng.choice(column_cells(table, name))
        if rng.random() < 0.5:
            literal = probe_literal(rng, literal)
        return "\n".join((f"add_select({rng.choice(TABLES[table])})", f"add_from({table})",
                          f"add_where({name}, =, {quote_string(literal)})"))

    def draft(self) -> str:
        if self.rng.random() < 0.3:
            return self.simple()
        return "\n".join(self.level("s", 0))


def eval_items(rng: random.Random, workdir: Path, n: int) -> list:
    """Each example's result JSON and the aggregates of score_examples over
    n examples, for post_process off and on and workers 1 and 2. Half the
    golds are SQL-family queries, predicted by the same shape spelled
    differently; half carry a cell, predicted with that cell probed."""
    db = Database(make_db(workdir / "episodes.sqlite", EPISODE_DDL, {
        "episode": EPISODE_ROWS, "pairing": PAIRING_ROWS, "network": NETWORK_ROWS}))
    examples, predictions = [], []
    for i in range(n):
        if rng.random() < 0.5:
            shape_seed = rng.random()
            gold = generate_sql(shape_seed, rng.randrange(1 << 30))
            predicted = generate_sql(shape_seed, rng.randrange(1 << 30))
        else:
            value = rng.choice(CELLS)
            gold = gold_with_value(rng, Writer(random.Random(rng.randrange(1 << 30))), value)
            predicted = gold.replace(value, probe_literal(rng, value), 1)
        examples.append(EvalExample(id=f"ex{i}", question=f"question {i}", gold_sql=gold,
                                    db_id="episodes", db=db))
        predictions.append(predicted.replace("\n", " "))  # one prediction per line
    path = workdir / "predictions.sql"
    path.write_text("".join(line + "\n" for line in predictions), encoding="utf-8")
    predictor = file_predictor(path, examples)
    items = []
    for post_process in (False, True):
        for workers in (1, 2):
            report = score_examples(examples, predictor, post_process=post_process,
                                    workers=workers).to_json_dict()
            items += report["examples"] + [report["aggregates"]]
    return items


def annotated_example(rng: random.Random, w: Writer) -> AnnotatedExample:
    """A question naming one or two cells of a TEXT column, quoted,
    capitalized or plain, most often with a mention of the column."""
    table, name = rng.choice(TEXT_COLUMNS).split(".")
    cells = column_cells(table, name)
    values = rng.sample(cells, min(rng.randint(1, 2), len(cells)))
    pieces = [("Which rows have ", None)]
    if rng.random() < 0.8:
        pieces += [("the ", None), (name.replace("_", " "), "column"), (" ", None)]
    for j, value in enumerate(values):
        if j:
            pieces.append((rng.choice((" or ", ", or ")), None))
        pieces.append((rng.choice((f'"{value}"', f"'{value}'", value, value.lower())), value))
    pieces.append(("?", None))
    question, value_spans, mentions = "", [], []
    for text, role in pieces:
        span = Span(len(question), len(question) + len(text))
        question += text
        if role == "column":
            mentions.append(ColumnMentionSpan(span, f"{table}.{name}"))
        elif role is not None:
            value_spans.append(ValueSpan(span, rng.choice((f"{table}.{name}", name)), role))
    gold = f"SELECT id FROM {table} WHERE " + " OR ".join(
        f"{name} = {w.literal(value)}" for value in values)
    return AnnotatedExample(question=question, gold_sql=gold, db_id="episodes",
                            value_spans=tuple(value_spans),
                            column_mention_spans=tuple(mentions))


def verdict_item(verdict) -> list:
    if isinstance(verdict, Matched):
        return ["matched", verdict.raw_value]
    if isinstance(verdict, Mismatch):
        return ["mismatch", [[c.raw_value, repr(c.score)] for c in verdict.candidates]]
    return ["not_applicable", verdict.reason]


def canonical(value):
    if isinstance(value, dict):
        return {key: canonical(item) for key, item in value.items()}
    if isinstance(value, frozenset):
        return sorted((canonical(item) for item in value), key=json.dumps)
    if isinstance(value, tuple):
        return [canonical(item) for item in value]
    return value


def digests(seed: int, n: int) -> list[str]:
    rng = random.Random(seed)
    queries, pairs = [], []
    for _ in range(n):
        shape_seed = rng.random()
        queries.append(generate_sql(shape_seed, rng.randrange(1 << 30)))
        pairs.append((generate_sql(shape_seed, rng.randrange(1 << 30)),
                      generate_sql(shape_seed, rng.randrange(1 << 30))))
    pairs += list(zip(queries, queries[1:]))

    # the catalog and the cell index live in memory; the file can go
    with tempfile.TemporaryDirectory(prefix="sqlmend-differential-") as workdir:
        db = make_db(Path(workdir) / "episodes.sqlite", EPISODE_DDL, {
            "episode": EPISODE_ROWS, "pairing": PAIRING_ROWS, "network": NETWORK_ROWS})
        catalog = load_catalog(db)
        index = build_cell_index(catalog, db)

    surfaces: dict[str, list] = {name: [] for name in (
        "order_by", "components", "exact_match", "conditions", "rewrite", "replace_value",
        "candidates", "findings", "verdicts", "assemble", "refine", "eval_report", "perturb",
        "cell_index")}
    for sql in queries:
        surfaces["order_by"].append(has_top_level_order_by(sql))
        components = sql_components(sql)
        surfaces["components"].append(None if components is None else canonical(components))
        surfaces["conditions"].append([[c.table, c.column, c.op, c.literal, c.start, c.end,
                                        c.quote] for c in extract_conditions(sql)])
        surfaces["rewrite"].append(rewrite(sql, catalog, index))
    for pred, gold in pairs:
        surfaces["exact_match"].append(exact_match(pred, gold))
    for i in range(n):
        w = Writer(random.Random(rng.randrange(1 << 30)))
        value = rng.choice(CELLS)
        question = f"Which rows have {value}?"
        start = question.index(value)
        example = AnnotatedExample(
            question=question, gold_sql=gold_with_value(rng, w, value), db_id="episodes",
            value_spans=(ValueSpan(Span(start, start + len(value)), rng.choice(TEXT_COLUMNS),
                                   value),))
        try:
            out = replace_common_value(example, catalog, index, rng_seed=i)
            surfaces["replace_value"].append([out.question, out.gold_sql])
        except NoApplicableSpan:
            surfaces["replace_value"].append(None)
    for _ in range(n):
        table, name = rng.choice(TEXT_COLUMNS).split(".")
        literal = probe_literal(rng, rng.choice(column_cells(table, name)))
        action = AddWhere(column=ColumnRef(column=name, table=rng.choice((table, None))),
                          op="=", value=Literal(kind="text", value=literal))
        for k in (1, 5):
            surfaces["candidates"].append(verdict_item(check_condition(action, catalog,
                                                                       index, k=k)))
    rules = load_rules(RULES)
    writer = DraftWriter(rng)
    for i in range(n):
        draft = writer.draft()
        parsed = parse_actions(draft)
        seq = parsed.sequence
        errors = [[e.line, e.reason] for e in parsed.errors]
        for allow in (False, True):
            found = detect(seq, catalog, rules, allow_name_equijoin=allow)
            surfaces["findings"].append([errors, [f.to_json_dict() for f in found]])
        for k in (0, 3):
            surfaces["verdicts"].append([[list(path), verdict_to_json(verdict)] for path, verdict
                                         in inspect_sequence(seq, catalog, index, k=k)])
        try:
            surfaces["assemble"].append(assemble(seq))
        except AssemblyError as exc:
            surfaces["assemble"].append([type(exc).__name__, str(exc)])
        question = f"question {i}"
        script = {question: [draft] + [writer.draft() for _ in range(rng.randrange(3))]}
        for sub_question in SUB_QUESTIONS:
            if rng.random() < 0.5:
                script[sub_question] = writer.draft()
        config = RefinementConfig(max_iterations=rng.randrange(4), candidate_k=rng.choice((0, 3)))
        trace = run(question, catalog, index, rules, ScriptedAgent(script), config)
        surfaces["refine"].append(trace.to_json_dict())

    with tempfile.TemporaryDirectory(prefix="sqlmend-differential-") as workdir:
        surfaces["eval_report"] = eval_items(rng, Path(workdir), n)
    for i in range(n):
        example = annotated_example(rng, Writer(random.Random(rng.randrange(1 << 30))))
        kinds = [kind for kind in DISTURBANCE_KINDS if rng.random() < 0.6]
        with_index = rng.random() < 0.8
        out, applied = perturb_example(example, kinds, i, catalog if with_index else None,
                                       index if with_index else None)
        surfaces["perturb"].append([out.to_json_dict(), applied])
    for table, name in index.columns():
        surfaces["cell_index"].append([table, name, index.column_cells(table, name).cells])

    lines = []
    for name, items in surfaces.items():
        digest = hashlib.sha256()
        for item in items:
            digest.update(json.dumps(item, sort_keys=True).encode("utf-8") + b"\n")
        lines.append(f"{name:<14}{len(items):>7}  {digest.hexdigest()}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--n", type=int, default=1000)
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("--n must be at least 1")
    for line in digests(args.seed, args.n):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
