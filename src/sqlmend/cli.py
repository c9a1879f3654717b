"""Command-line entry point exposing every pipeline stage.

Machine output goes to stdout as a single JSON document (or plain SQL
text where noted); human-oriented summaries go to stderr. Usage errors
exit 2, operational errors exit 1 with a JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sqlite3
import sys
from pathlib import Path

from .actions import AddWhere, ColumnRef, Literal, parse_actions
from .assembler import AssemblyError, ConnectivePlan, assemble, predict_connectives
from .detector import InvalidRuleConfig, detect, load_rules
from .evaluation import (
    DEFAULT_TIMEOUT_S,
    DatasetFormatError,
    db_file_for,
    file_predictor,
    load_dataset,
    pipeline_predictor,
    score_examples,
)
from .orchestrator import (
    AgentFailure,
    HttpAgent,
    RefinementConfig,
    ScriptedAgent,
    run,
    verdict_to_json,
)
from .perturb import (
    AnnotationError,
    DISTURBANCE_KINDS,
    perturb_example,
    read_examples,
    write_examples,
)
from .postprocess import rewrite
from .retriever import DEFAULT_CANDIDATES, check_condition
from .schema_catalog import CorruptDatabase, Database


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, ensure_ascii=False))


def _fail(kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "detail": message}, sort_keys=True),
          file=sys.stderr)
    return 1


def _agent_factory(spec: str):
    """Read and check an agent spec once; each call of the result builds a
    fresh agent, so replay counters cannot leak across questions."""
    if spec == "http":
        HttpAgent.from_env()  # an unset endpoint fails here, not per question
        return HttpAgent.from_env
    if spec.startswith("replay:"):
        script = ScriptedAgent.from_file(spec[len("replay:"):]).script
        return lambda: ScriptedAgent(script)
    raise ValueError(f"unknown agent spec {spec!r}; use 'http' or 'replay:<file>'")


def _refinement_config(args) -> RefinementConfig:
    return RefinementConfig(max_iterations=args.max_iter, candidate_k=args.candidate_k,
                            use_retriever=not args.no_retriever, detector=args.detector)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_schema(args) -> int:
    _emit(Database(args.db).catalog.to_json_dict())
    return 0


def _cmd_retrieve(args) -> int:
    db = Database(args.db)
    action = AddWhere(column=ColumnRef.parse(args.column), op=args.op,
                      value=Literal(kind="text", value=args.value))
    verdict = check_condition(action, db.catalog, db.index, k=args.k)
    _emit(verdict_to_json(verdict))
    return 0


def _cmd_detect(args) -> int:
    catalog = Database(args.db).catalog
    rules = load_rules(args.rules) if args.rules else []
    with open(args.actions, "r", encoding="utf-8") as handle:
        result = parse_actions(handle.read())
    findings = detect(result.sequence, catalog, rules,
                      allow_name_equijoin=args.allow_name_equijoin)
    payload = {
        "parse_errors": [{"line": e.line, "reason": e.reason} for e in result.errors],
        "findings": [f.to_json_dict() for f in findings],
    }
    _emit(payload)
    return 1 if findings or result.errors else 0


def _cmd_assemble(args) -> int:
    with open(args.actions, "r", encoding="utf-8") as handle:
        result = parse_actions(handle.read())
    if result.errors:
        raise AssemblyError(
            "; ".join(f"line {e.line}: {e.reason}" for e in result.errors))
    plan = ConnectivePlan()
    if args.connectives:
        tokens = [t.strip().upper() for t in args.connectives.split(",") if t.strip()]
        bad = [t for t in tokens if t not in ("AND", "OR")]
        if bad:
            raise AssemblyError(f"bad connectives: {bad}")
        plan = ConnectivePlan(where=tuple(tokens))
    print(assemble(result.sequence, plan))
    return 0


def _cmd_refine(args) -> int:
    db = Database(args.db)
    rules = load_rules(args.rules) if args.rules else []
    agent = _agent_factory(args.agent)()
    config = _refinement_config(args)
    trace = run(args.question, db.catalog, db.index, rules, agent, config)
    plan = predict_connectives(trace.final, args.question, agent)
    try:
        sql = assemble(trace.final, plan)
    except AssemblyError as exc:
        sql = None
        assembly_error = str(exc)
    else:
        assembly_error = None
    payload = {"final_sql": sql, "assembly_error": assembly_error,
               "trace": trace.to_json_dict()}
    if args.trace_out:
        Path(args.trace_out).write_text(
            json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8")
    _emit(payload)
    return 0


def _cmd_postprocess(args) -> int:
    db = Database(args.db)
    with open(args.sql_file, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    for line in lines:
        print(rewrite(line, db.catalog, db.index, min_score=args.min_score))
    return 0


def _cmd_eval(args) -> int:
    examples, db_root = load_dataset(args.dataset, args.db_root)
    config = _refinement_config(args)  # checked for every predictor, used by the pipeline
    if args.pred.startswith("file:"):
        predictor = file_predictor(args.pred[len("file:"):], examples)
    elif args.pred == "pipeline":
        if not args.agent:
            raise DatasetFormatError("--pred pipeline needs --agent")
        predictor = pipeline_predictor(_agent_factory(args.agent), db_root, config=config)
    else:
        raise DatasetFormatError(f"unknown predictor {args.pred!r}; "
                                 "use 'pipeline' or 'file:<path>'")
    report = score_examples(examples, predictor, post_process=args.post_process,
                            workers=args.workers, timeout_s=args.timeout)
    print(report.format_table(), file=sys.stderr)
    _emit(report.to_json_dict())
    return 0


def _cmd_perturb(args) -> int:
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    unknown = [k for k in kinds if k not in DISTURBANCE_KINDS]
    if unknown:
        raise AnnotationError(f"unknown disturbance kinds {unknown}; "
                              f"choose from {list(DISTURBANCE_KINDS)}")
    examples = read_examples(args.dataset)
    dbs: dict[str, Database | None] = {}  # None: no catalog without the file
    records = []
    for i, example in enumerate(examples):
        if args.db_root is not None and example.db_id not in dbs:
            db_file = db_file_for(args.db_root, example.db_id)
            dbs[example.db_id] = Database(db_file) if db_file.exists() else None
        db = dbs.get(example.db_id)
        perturbed, applied = perturb_example(example, kinds, args.seed + i,
                                             catalog=db and db.catalog, index=db and db.index)
        record = perturbed.to_json_dict()
        record["perturbations"] = applied
        record["provenance"] = "machine-perturbed"
        records.append(record)
    write_examples(sys.stdout, records)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqlmend",
        description="Inspect, refine, assemble and score SQL construction actions.")
    sub = parser.add_subparsers(dest="command", required=True)

    # the refinement flags of refine and eval; each default is RefinementConfig's
    loop = argparse.ArgumentParser(add_help=False)
    loop.add_argument("--max-iter", type=int, default=RefinementConfig.max_iterations)
    loop.add_argument("--candidate-k", type=int, default=RefinementConfig.candidate_k)
    loop.add_argument("--no-retriever", action="store_true")
    feedback = loop.add_mutually_exclusive_group()
    feedback.add_argument("--no-detector", dest="detector", action="store_const",
                          const=None, default=RefinementConfig.detector)
    feedback.add_argument("--dbms-feedback", dest="detector", action="store_const",
                          const="dbms", default=RefinementConfig.detector)

    p = sub.add_parser("schema", help="print the catalog of a database as JSON")
    p.add_argument("db")
    p.set_defaults(func=_cmd_schema)

    p = sub.add_parser("retrieve", help="check one condition literal against the database")
    p.add_argument("db")
    p.add_argument("--column", required=True, help="column or table.column")
    p.add_argument("--value", required=True)
    p.add_argument("--op", default="=")
    p.add_argument("-k", type=int, default=DEFAULT_CANDIDATES)
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("detect", help="run the static detector over an action file")
    p.add_argument("db")
    p.add_argument("--actions", required=True)
    p.add_argument("--rules")
    p.add_argument("--allow-name-equijoin", action="store_true")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("assemble", help="assemble an action file into SQL text")
    p.add_argument("--actions", required=True)
    p.add_argument("--connectives", help="comma-separated AND/OR plan for WHERE")
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("refine", parents=[loop],
                       help="run the inspect-and-refine loop for a question")
    p.add_argument("db")
    p.add_argument("--question", required=True)
    p.add_argument("--agent", required=True, help="'http' or 'replay:<file>'")
    p.add_argument("--rules")
    p.add_argument("--trace-out")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("postprocess", help="rewrite condition literals onto database cells")
    p.add_argument("db")
    p.add_argument("--sql-file", required=True)
    p.add_argument("--min-score", type=float, default=0.0)
    p.set_defaults(func=_cmd_postprocess)

    p = sub.add_parser("eval", parents=[loop], help="score predictions against a dataset")
    p.add_argument("dataset")
    p.add_argument("--pred", required=True, help="'pipeline' or 'file:<path>'")
    p.add_argument("--agent")
    p.add_argument("--post-process", action="store_true")
    p.add_argument("--db-root")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("perturb", help="machine-perturb an annotated JSONL dataset")
    p.add_argument("dataset")
    p.add_argument("--kinds", default=",".join(DISTURBANCE_KINDS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--db-root")
    p.set_defaults(func=_cmd_perturb)

    return parser


_OPERATIONAL_ERRORS = (
    FileNotFoundError, CorruptDatabase, InvalidRuleConfig, AssemblyError,
    AgentFailure, DatasetFormatError, AnnotationError, ValueError, OSError,
    sqlite3.Error,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _OPERATIONAL_ERRORS as exc:
        return _fail(type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
