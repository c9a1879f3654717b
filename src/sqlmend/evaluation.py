"""Scoring predicted SQL against gold SQL on SQLite databases.

Execution accuracy compares result tables: as row multisets when the
gold query has no top-level ORDER BY, as ordered sequences when it does,
with a small relative tolerance on float cells. The simplified exact
match canonicalizes both queries into clause components with literals
masked and reports None when either side exceeds the clause parser's
coverage.
"""

from __future__ import annotations

import json
import math
import sqlite3
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .schema_catalog import Database, connect_readonly
from .sqllex import STRING_KINDS, Token, from_items, select_cores, split, tokenize, word

DEFAULT_TIMEOUT_S = 30.0
FLOAT_REL_TOL = 1e-6


class GoldExecutionError(Exception):
    """The gold query itself fails to execute; the example is unscorable."""


class QueryTimeout(Exception):
    pass


class DatasetFormatError(Exception):
    """A dataset record or its database file is unusable."""


@dataclass
class EvalExample:
    id: str
    question: str
    gold_sql: str
    db_id: str
    db: Database


@dataclass
class ExampleResult:
    id: str
    ex: bool | None  # None means unscorable (gold failed)
    em: bool | None
    error: str | None = None
    predicted_sql: str | None = None

    def to_json_dict(self) -> dict:
        return {"id": self.id, "ex": self.ex, "em": self.em, "error": self.error,
                "predicted_sql": self.predicted_sql}


@dataclass
class EvalReport:
    results: list[ExampleResult] = field(default_factory=list)

    def aggregates(self) -> dict:
        scorable = [r for r in self.results if r.ex is not None]
        em_covered = [r for r in self.results if r.em is not None]
        ex_correct = sum(1 for r in scorable if r.ex)
        em_correct = sum(1 for r in em_covered if r.em)
        return {
            "n": len(self.results),
            "scorable": len(scorable),
            "unscorable": len(self.results) - len(scorable),
            "ex_correct": ex_correct,
            "ex_rate": ex_correct / len(scorable) if scorable else 0.0,
            "em_covered": len(em_covered),
            "em_correct": em_correct,
            "em_rate": em_correct / len(em_covered) if em_covered else 0.0,
        }

    def to_json_dict(self) -> dict:
        return {"examples": [r.to_json_dict() for r in self.results],
                "aggregates": self.aggregates()}

    def format_table(self) -> str:
        agg = self.aggregates()
        lines = [
            f"{'id':<12} {'EX':<6} {'EM':<6} error",
            "-" * 48,
        ]
        for r in self.results:
            ex = "-" if r.ex is None else ("yes" if r.ex else "no")
            em = "-" if r.em is None else ("yes" if r.em else "no")
            lines.append(f"{r.id:<12} {ex:<6} {em:<6} {r.error or ''}")
        lines.append("-" * 48)
        lines.append(f"EX {agg['ex_correct']}/{agg['scorable']} = {agg['ex_rate']:.3f}   "
                     f"EM {agg['em_correct']}/{agg['em_covered']} = {agg['em_rate']:.3f}   "
                     f"unscorable {agg['unscorable']}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Execution accuracy
# ---------------------------------------------------------------------------


def _run(conn: sqlite3.Connection, sql: str, timeout_s: float,
         max_rows: int | None = None) -> list[tuple]:
    """Run one query on `conn` under its own wall-clock bound, counted from
    this call; fetch at most `max_rows` rows, or all of them when it is None."""
    deadline = time.monotonic() + timeout_s
    conn.set_progress_handler(lambda: 1 if time.monotonic() > deadline else 0, 10_000)
    try:
        cursor = conn.execute(sql)
        return cursor.fetchall() if max_rows is None else cursor.fetchmany(max_rows)
    except sqlite3.OperationalError as exc:
        if "interrupted" in str(exc).lower():
            raise QueryTimeout(f"query exceeded {timeout_s}s") from exc
        raise


def execute_sql(db_path: str | Path, sql: str, timeout_s: float = DEFAULT_TIMEOUT_S,
                max_rows: int | None = None) -> list[tuple]:
    """Run one query read-only with a wall-clock bound; fetch at most
    `max_rows` rows, or all of them when it is None."""
    conn = connect_readonly(db_path)
    try:
        return _run(conn, sql, timeout_s, max_rows)
    finally:
        conn.close()


def has_top_level_order_by(sql: str) -> bool:
    return any(core.depth == 0 and clause == "order by"
               for core in select_cores(tokenize(sql)) for clause, _ in core.clauses)


def _cell_key(value) -> tuple:
    if value is None:
        return (0, "")
    if isinstance(value, (int, float)):
        return (1, f"{float(value) + 0.0:.6e}")  # + 0.0 gives -0.0 the key of 0
    if isinstance(value, bytes):
        return (2, value.hex())
    return (3, str(value))


def _row_key(row: tuple) -> tuple:
    return tuple(_cell_key(cell) for cell in row)


def _cells_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(float(a), float(b), rel_tol=FLOAT_REL_TOL, abs_tol=1e-9)
    return a == b


def rows_equal(pred_rows: list[tuple], gold_rows: list[tuple], ordered: bool) -> bool:
    # equal SQLite values (None, int, float, str, bytes) are equal cells,
    # so identical lists, and identical rows after the sort, need no isclose
    if pred_rows == gold_rows:
        return True
    if len(pred_rows) != len(gold_rows):
        return False
    if pred_rows and len(pred_rows[0]) != len(gold_rows[0]):
        return False
    if not ordered:
        pred_rows = sorted(pred_rows, key=_row_key)
        gold_rows = sorted(gold_rows, key=_row_key)
    for pred_row, gold_row in zip(pred_rows, gold_rows):
        if pred_row == gold_row:
            continue
        if len(pred_row) != len(gold_row):
            return False
        if not all(_cells_equal(p, g) for p, g in zip(pred_row, gold_row)):
            return False
    return True


def execution_accuracy(pred: str, gold: str, db_path: str | Path,
                       timeout_s: float = DEFAULT_TIMEOUT_S) -> bool:
    """True when both queries execute and produce matching result tables.

    Both run on one read-only connection, the gold first, each under its
    own `timeout_s`. A gold query that fails, or a database that cannot be
    opened, raises GoldExecutionError; a failing or timed-out prediction
    scores False.
    """
    conn = None
    try:
        try:
            conn = connect_readonly(db_path)
            gold_rows = _run(conn, gold, timeout_s)
        except (sqlite3.Error, QueryTimeout) as exc:
            raise GoldExecutionError(str(exc)) from exc
        try:
            pred_rows = _run(conn, pred, timeout_s)
        except (sqlite3.Error, QueryTimeout):
            return False
    finally:
        if conn is not None:
            conn.close()
    if pred_rows == gold_rows:  # equal in order: no need to read the ORDER BY flag
        return True
    return rows_equal(pred_rows, gold_rows, ordered=has_top_level_order_by(gold))


# ---------------------------------------------------------------------------
# Simplified exact match
# ---------------------------------------------------------------------------

_TIGHT = "=<>!.,()"  # a fragment keeps no space next to these


def _normalize_fragment(tokens: list[Token]) -> str:
    """A fragment's text with literals masked as `?` and `<>` as `!=`, one
    space where the query had whitespace or a comment except next to
    `=<>!.,()`, lowercased. A number glued to letters (`1e5`) stays."""
    out = []
    for i, token in enumerate(tokens):
        if token.kind in STRING_KINDS or (
                token.kind == "number" and token.text.replace(".", "", 1).isdecimal()):
            text = "?"
        elif token.text == "<>":
            text = "!="
        else:
            text = token.text
        if i and tokens[i - 1].end < token.start and tokens[i - 1].text[0] not in _TIGHT \
                and text[0] not in _TIGHT:
            out.append(" ")
        out.append(text)
    return "".join(out).lower()


def _split_conditions(clause: list[Token]) -> tuple[list[list[Token]], list[str]]:
    """A WHERE/HAVING clause's conditions and its depth-0 connectives. An
    AND/OR splits only with a space or comment on both sides and a
    condition before it, so a leading or doubled connective stays in the
    text of the condition after it."""
    parts, connectives, start = [], [], 0
    for i, token in enumerate(clause):
        keyword = word(token)
        if token.depth != 0 or keyword not in ("and", "or"):
            continue
        connectives.append(keyword)
        if start < i < len(clause) - 1 and clause[i - 1].end < token.start \
                and token.end < clause[i + 1].start:
            parts.append(clause[start:i])
            start = i + 1
    parts.append(clause[start:])
    return parts, connectives


def sql_components(sql: str) -> dict | None:
    """Clause components with literals masked, or None when the query is
    outside this parser's coverage: anything but one SELECT core that
    spans the whole text (a subquery or set operator, text around it, no
    SELECT), unbalanced parens, a repeated clause, or a FROM entry that
    is not a plain name.
    """
    tokens = tokenize(sql)
    while tokens and tokens[-1].text == ";":
        tokens.pop()
    cores = select_cores(tokens)
    if len(cores) != 1 or word(tokens[0]) != "select" or cores[0].end != len(tokens):
        return None
    texts = [token.text for token in tokens]
    clauses = dict(cores[0].clauses)
    items = from_items(cores[0])
    if texts.count("(") != texts.count(")") or len(clauses) != len(cores[0].clauses) \
            or any(item.table is None for item in items):
        return None

    def comma_list(clause: list[Token]) -> frozenset:
        return frozenset(_normalize_fragment(item) for item in
                         split(clause, lambda t: t.depth == 0 and t.text == ","))

    components: dict[str, object] = {"select": comma_list(clauses["select"])}
    components["from_tables"] = frozenset(item.table.lower() for item in items)
    components["join_conditions"] = frozenset(
        tuple(sorted({_normalize_fragment(side) for side in split(on, lambda t: t.text == "=")}))
        for item in items for on in item.on)
    for key in ("where", "having"):
        conditions, connectives = _split_conditions(clauses[key]) if key in clauses else ([], [])
        components[key] = (frozenset(map(_normalize_fragment, conditions)),
                           tuple(sorted(connectives)))
    components["group by"] = comma_list(clauses["group by"]) if "group by" in clauses \
        else frozenset()
    components["order by"] = _normalize_fragment(clauses.get("order by", []))
    components["limit"] = "limit" in clauses
    return components


def exact_match(pred: str, gold: str) -> bool | None:
    """Component-wise equality with literals masked; None when either side
    is out of coverage.
    """
    pred_components = sql_components(pred)
    gold_components = sql_components(gold)
    if pred_components is None or gold_components is None:
        return None
    return pred_components == gold_components


# ---------------------------------------------------------------------------
# Benchmark runner
# ---------------------------------------------------------------------------


def db_file_for(db_root: str | Path, db_id: str) -> Path:
    """The database file of `db_id`, in Spider's layout under `db_root`."""
    return Path(db_root) / db_id / f"{db_id}.sqlite"


def load_dataset(dataset_path: str | Path, db_root: str | Path | None = None
                 ) -> tuple[list[EvalExample], Path]:
    """Read a JSON array of examples and locate the database directory.

    `db_root` defaults to the `database` directory next to the dataset
    file. Examples with the same db_id share one Database handle.
    """
    dataset_path = Path(dataset_path)
    try:
        with open(dataset_path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetFormatError(f"{dataset_path}: {exc}") from exc
    if not isinstance(data, list):
        raise DatasetFormatError(f"{dataset_path}: expected a JSON array")
    root = Path(db_root) if db_root is not None else dataset_path.parent / "database"
    examples = []
    dbs: dict[str, Database] = {}
    for i, record in enumerate(data):
        if not isinstance(record, dict):
            raise DatasetFormatError(f"record {i}: not an object")
        example_id = str(record.get("id", i))
        question = record.get("question")
        gold = record.get("gold_sql", record.get("query"))
        db_id = record.get("db_id")
        if not all(isinstance(value, str) and value for value in (question, gold, db_id)):
            raise DatasetFormatError(
                f"record {example_id}: needs string question, gold_sql (or query), db_id")
        if db_id not in dbs:
            db_file = db_file_for(root, db_id)
            if not db_file.is_file():
                raise DatasetFormatError(f"record {example_id}: missing database {db_file}")
            dbs[db_id] = Database(db_file)
        examples.append(EvalExample(id=example_id, question=question, gold_sql=gold,
                                    db_id=db_id, db=dbs[db_id]))
    return examples, root


def file_predictor(path: str | Path, examples: list[EvalExample]) -> Callable[[EvalExample], str]:
    """Predictions from a text file, one SQL query per dataset example."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle]
    lines = [line for line in lines if line.strip()]
    if len(lines) != len(examples):
        raise DatasetFormatError(
            f"{path}: {len(lines)} predictions for {len(examples)} examples")
    by_id: dict[str, str] = {}
    for example, line in zip(examples, lines):
        if example.id in by_id:
            raise DatasetFormatError(f"{path}: duplicate example id {example.id!r}")
        by_id[example.id] = line

    def predict(example: EvalExample) -> str:
        return by_id[example.id]

    return predict


def pipeline_predictor(agent_factory, db_root: str | Path, *,
                       config=None) -> Callable[[EvalExample], str]:
    """Predict by running the full inspect-and-refine pipeline per example
    against the example's own database.

    `agent_factory` builds a fresh agent per example so scripted replay
    counters cannot leak across questions. `db_root` is unused; the
    benchmark harness still passes it positionally.
    """
    from .assembler import assemble, predict_connectives
    from .orchestrator import RefinementConfig, run

    config = config or RefinementConfig()

    def predict(example: EvalExample) -> str:
        agent = agent_factory()
        trace = run(example.question, example.db.catalog, example.db.index, (), agent, config)
        plan = predict_connectives(trace.final, example.question, agent)
        return assemble(trace.final, plan)

    return predict


def run_benchmark(dataset_path: str | Path, predictor: Callable[[EvalExample], str], *,
                  db_root: str | Path | None = None, post_process: bool = False,
                  workers: int = 1, timeout_s: float = DEFAULT_TIMEOUT_S) -> EvalReport:
    """Load the dataset and score every example with score_examples."""
    examples, _root = load_dataset(dataset_path, db_root)
    return score_examples(examples, predictor, post_process=post_process, workers=workers,
                          timeout_s=timeout_s)


def score_examples(examples: list[EvalExample], predictor: Callable[[EvalExample], str], *,
                   post_process: bool = False, workers: int = 1,
                   timeout_s: float = DEFAULT_TIMEOUT_S) -> EvalReport:
    """Score loaded examples; optionally run condition post-processing over
    the predictions first. The predictor gets these examples, so each
    database is built at most once per call.
    """
    if post_process:  # built before scoring, so worker threads only read them
        for example in examples:
            example.db.index

    def score(example: EvalExample) -> ExampleResult:
        try:
            predicted = predictor(example)
        except Exception as exc:  # predictor failures score as wrong, not fatal
            return ExampleResult(id=example.id, ex=False, em=None,
                                 error=f"prediction failed: {exc}")
        if post_process:
            from .postprocess import rewrite

            predicted = rewrite(predicted, example.db.catalog, example.db.index)
        error = None
        try:
            ex_flag = execution_accuracy(predicted, example.gold_sql, example.db.path,
                                         timeout_s=timeout_s)
        except GoldExecutionError as exc:
            ex_flag, error = None, f"gold execution failed: {exc}"
        return ExampleResult(id=example.id, ex=ex_flag,
                             em=exact_match(predicted, example.gold_sql),
                             error=error, predicted_sql=predicted)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(score, examples))
    else:
        results = [score(example) for example in examples]
    return EvalReport(results=results)
