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
import re
import sqlite3
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .schema_catalog import Database, connect_readonly

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
    predicted_sql: str | None = None


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


def execute_sql(db_path: str | Path, sql: str,
                timeout_s: float = DEFAULT_TIMEOUT_S) -> list[tuple]:
    """Run one query read-only with a wall-clock bound."""
    conn = connect_readonly(db_path)
    deadline = time.monotonic() + timeout_s
    conn.set_progress_handler(lambda: 1 if time.monotonic() > deadline else 0, 10_000)
    try:
        try:
            return conn.execute(sql).fetchall()
        except sqlite3.OperationalError as exc:
            if "interrupted" in str(exc).lower():
                raise QueryTimeout(f"query exceeded {timeout_s}s") from exc
            raise
    finally:
        conn.close()


_ORDER_BY_RE = re.compile(r"\border\s+by\b", re.IGNORECASE)


def has_top_level_order_by(sql: str) -> bool:
    depth = 0
    in_str: str | None = None
    i = 0
    while i < len(sql):
        ch = sql[i]
        if in_str:
            if ch == in_str:
                in_str = None
        elif ch in "'\"":
            in_str = ch
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and sql[i:i + 5].lower() == "order":
            if _ORDER_BY_RE.match(sql, i):
                return True
        i += 1
    return False


def _cell_key(value) -> tuple:
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, f"{float(value):.6e}")
    if isinstance(value, (int, float)):
        return (1, f"{float(value):.6e}")
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
    if len(pred_rows) != len(gold_rows):
        return False
    if pred_rows and len(pred_rows[0]) != len(gold_rows[0]):
        return False
    if not ordered:
        pred_rows = sorted(pred_rows, key=_row_key)
        gold_rows = sorted(gold_rows, key=_row_key)
    for pred_row, gold_row in zip(pred_rows, gold_rows):
        if len(pred_row) != len(gold_row):
            return False
        if not all(_cells_equal(p, g) for p, g in zip(pred_row, gold_row)):
            return False
    return True


def execution_accuracy(pred: str, gold: str, db_path: str | Path,
                       timeout_s: float = DEFAULT_TIMEOUT_S) -> bool:
    """True when both queries execute and produce matching result tables.

    A failing gold query raises GoldExecutionError; a failing or timed-out
    prediction scores False.
    """
    try:
        gold_rows = execute_sql(db_path, gold, timeout_s)
    except (sqlite3.Error, QueryTimeout) as exc:
        raise GoldExecutionError(str(exc)) from exc
    try:
        pred_rows = execute_sql(db_path, pred, timeout_s)
    except (sqlite3.Error, QueryTimeout):
        return False
    return rows_equal(pred_rows, gold_rows, ordered=has_top_level_order_by(gold))


# ---------------------------------------------------------------------------
# Simplified exact match
# ---------------------------------------------------------------------------

_CLAUSE_KEYWORDS = ("select", "from", "where", "group by", "having", "order by", "limit")


def _mask_literals(text: str) -> str:
    text = re.sub(r"'(?:[^']|'')*'", "?", text)
    text = re.sub(r'"(?:[^"]|"")*"', "?", text)
    text = re.sub(r"\b\d+(?:\.\d+)?\b", "?", text)
    return text


def _normalize_fragment(text: str) -> str:
    text = _mask_literals(text)
    text = text.replace("<>", "!=")
    text = re.sub(r"\s*([=<>!.,()])\s*", r"\1", text)
    return re.sub(r"\s+", " ", text).strip().lower()


def _split_top_level(text: str, separators: tuple[str, ...]) -> list[str]:
    parts: list[str] = []
    depth = 0
    in_str: str | None = None
    token_start = 0
    i = 0
    lowered = text.lower()
    while i < len(text):
        ch = text[i]
        if in_str:
            if ch == in_str:
                in_str = None
            i += 1
            continue
        if ch in "'\"":
            in_str = ch
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            for sep in separators:
                if lowered.startswith(sep, i):
                    parts.append(text[token_start:i])
                    token_start = i + len(sep)
                    i += len(sep)
                    break
            else:
                i += 1
                continue
            continue
        i += 1
    parts.append(text[token_start:])
    return [p.strip() for p in parts]


def _word_boundary(text: str, pos: int, word: str) -> bool:
    before_ok = pos == 0 or not (text[pos - 1].isalnum() or text[pos - 1] == "_")
    end = pos + len(word)
    after_ok = end >= len(text) or not (text[end].isalnum() or text[end] == "_")
    return before_ok and after_ok


def sql_components(sql: str) -> dict | None:
    """Clause components with literals masked, or None when the query is
    outside this parser's coverage (set operators, subqueries, no SELECT).
    """
    text = re.sub(r"\s+", " ", sql.strip().rstrip(";").strip())
    lowered = text.lower()
    if not lowered.startswith("select"):
        return None
    if text.count("(") != text.count(")"):
        return None
    for word in ("union", "intersect", "except"):
        if re.search(rf"\b{word}\b", lowered):
            return None
    # a nested select means a subquery
    if len(re.findall(r"\bselect\b", lowered)) > 1:
        return None

    clause_positions: list[tuple[int, str]] = []
    depth = 0
    in_str: str | None = None
    i = 0
    while i < len(text):
        ch = text[i]
        if in_str:
            if ch == in_str:
                in_str = None
            i += 1
            continue
        if ch in "'\"":
            in_str = ch
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            for keyword in _CLAUSE_KEYWORDS:
                if lowered.startswith(keyword, i) and _word_boundary(lowered, i, keyword):
                    clause_positions.append((i, keyword))
                    i += len(keyword)
                    break
            else:
                i += 1
                continue
            continue
        i += 1
    if not clause_positions or clause_positions[0][1] != "select":
        return None
    seen = [k for _, k in clause_positions]
    if len(set(seen)) != len(seen):
        return None

    clauses: dict[str, str] = {}
    for idx, (pos, keyword) in enumerate(clause_positions):
        end = clause_positions[idx + 1][0] if idx + 1 < len(clause_positions) else len(text)
        clauses[keyword] = text[pos + len(keyword):end].strip()

    components: dict[str, object] = {}
    components["select"] = frozenset(
        _normalize_fragment(item) for item in _split_top_level(clauses.get("select", ""), (",",)))
    from_clause = clauses.get("from", "")
    tables, join_conditions = _from_components(from_clause)
    if tables is None:
        return None
    components["from_tables"] = tables
    components["join_conditions"] = join_conditions
    for clause, key in (("where", "where"), ("having", "having")):
        if clause in clauses:
            conditions = _split_top_level(clauses[clause], (" and ", " or "))
            connectives = _connectives(clauses[clause])
            components[key] = (frozenset(_normalize_fragment(c) for c in conditions),
                               tuple(sorted(connectives)))
        else:
            components[key] = (frozenset(), ())
    components["group by"] = frozenset(
        _normalize_fragment(c) for c in _split_top_level(clauses.get("group by", ""), (",",))
    ) if "group by" in clauses else frozenset()
    components["order by"] = _normalize_fragment(clauses.get("order by", ""))
    components["limit"] = "limit" in clauses
    return components


def _connectives(clause: str) -> list[str]:
    out = []
    depth = 0
    in_str: str | None = None
    lowered = clause.lower()
    i = 0
    while i < len(clause):
        ch = clause[i]
        if in_str:
            if ch == in_str:
                in_str = None
        elif ch in "'\"":
            in_str = ch
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            for word in ("and", "or"):
                if lowered.startswith(word, i) and _word_boundary(lowered, i, word):
                    out.append(word)
                    i += len(word)
                    break
            else:
                i += 1
                continue
            continue
        i += 1
    return out


def _from_components(from_clause: str):
    if not from_clause:
        return frozenset(), frozenset()
    text = re.sub(r"\s+", " ", from_clause.strip())
    if not text:
        return frozenset(), frozenset()
    parts = re.split(r"\b(?:inner\s+join|left\s+(?:outer\s+)?join|cross\s+join|join)\b",
                     text, flags=re.IGNORECASE)
    tables = []
    joins = []
    for part in parts:
        part = part.strip().rstrip(",")
        if not part:
            continue
        on_split = re.split(r"\bon\b", part, flags=re.IGNORECASE)
        head = on_split[0].strip()
        for chunk in head.split(","):
            words = chunk.strip().split()
            if not words:
                continue
            if not re.match(r"[A-Za-z_\"][\w\"]*$", words[0]):
                return None, None
            tables.append(words[0].strip('"').lower())
        for condition in on_split[1:]:
            joins.append(frozenset(_normalize_fragment(side)
                                   for side in condition.split("=")))
    return frozenset(tables), frozenset(map(tuple, (sorted(j) for j in joins)))


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


def pipeline_predictor(agent_factory, db_root: str | Path, *, config=None,
                       rules=()) -> Callable[[EvalExample], str]:
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
        trace = run(example.question, example.db.catalog, example.db.index, rules, agent,
                    config)
        plan = predict_connectives(trace.final, example.question, agent)
        return assemble(trace.final, plan)

    return predict


def run_benchmark(dataset_path: str | Path, predictor: Callable[[EvalExample], str], *,
                  db_root: str | Path | None = None, post_process: bool = False,
                  workers: int = 1, timeout_s: float = DEFAULT_TIMEOUT_S,
                  backend=None) -> EvalReport:
    """Score every example; optionally run condition post-processing over
    the predictions first. The predictor gets these examples, so each
    database is built at most once per call.
    """
    examples, _root = load_dataset(dataset_path, db_root)
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

            predicted = rewrite(predicted, example.db.catalog, example.db.index,
                                backend=backend)
        example.predicted_sql = predicted
        try:
            ex_flag = execution_accuracy(predicted, example.gold_sql, example.db.path,
                                         timeout_s=timeout_s)
            error = None
        except GoldExecutionError as exc:
            return ExampleResult(id=example.id, ex=None, em=exact_match(predicted, example.gold_sql),
                                 error=f"gold execution failed: {exc}",
                                 predicted_sql=predicted)
        return ExampleResult(id=example.id, ex=ex_flag,
                             em=exact_match(predicted, example.gold_sql),
                             error=error, predicted_sql=predicted)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(score, examples))
    else:
        results = [score(example) for example in examples]
    return EvalReport(results=results)
