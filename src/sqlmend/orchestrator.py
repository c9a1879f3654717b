"""Iterative inspect-and-refine loop.

One run: an agent drafts an action sequence for the question, both
inspection tools examine it, and the accumulated feedback drives further
agent calls until every tool approves or the iteration budget runs out.
Columns whose conditions mismatched are removed from the schema view
shown to the agent on later iterations, and an exhausted run whose final
top level holds no add_merge falls back to the first iteration's
conditional actions.
"""

from __future__ import annotations

import http.client
import json
import os
import urllib.error
import urllib.request
from dataclasses import dataclass, field, replace
from time import sleep

from .actions import (
    ActionSequence,
    AddMerge,
    CONDITIONAL_KINDS,
    ParseError,
    QA,
    assign_sequence_ids,
    parse_actions,
    serialize_actions,
    walk,
)
from .detector import (
    ConstraintRule,
    DetectorFinding,
    UNRESOLVED_SUB_QUESTION,
    detect,
    detect_via_dbms,
)
from .retriever import (
    CellIndex,
    ConditionVerdict,
    Matched,
    Mismatch,
    inspect_sequence,
)
from .schema_catalog import SchemaCatalog

DEFAULT_INSTRUCTION = (
    "Write the query as a sequence of clause calls, one per line: "
    "add_select, add_from, add_where, add_group_by, add_having, "
    "add_order_by, add_limit, add_merge, qa. Use only tables and columns "
    "from the schema. String values must be quoted."
)


class AgentFailure(Exception):
    """The agent could not produce output (transport or protocol failure)."""


@dataclass(frozen=True)
class Demonstration:
    schema: str
    question: str
    actions: str


@dataclass(frozen=True)
class AgentContext:
    instruction: str
    demonstrations: tuple[Demonstration, ...]
    question: str
    schema_view: str


def render_schema(catalog: SchemaCatalog, excluded: frozenset = frozenset()) -> str:
    """Text rendering of the catalog for the agent's context.

    `excluded` holds lowercase (table, column) pairs to omit; tables stay
    listed even when all their columns are excluded.
    """
    lines = []
    for table in catalog.tables:
        cols = []
        for col in table.columns:
            if (table.name.lower(), col.name.lower()) in excluded:
                continue
            marker = ", primary key" if col.is_primary_key else ""
            cols.append(f"{col.name} ({col.affinity}{marker})")
        lines.append(f"table {table.name}: " + ", ".join(cols))
    fk_lines = []
    for fk in catalog.foreign_keys:
        if (fk.table.lower(), fk.column.lower()) in excluded:
            continue
        if (fk.ref_table.lower(), fk.ref_column.lower()) in excluded:
            continue
        fk_lines.append(f"{fk.table}.{fk.column} -> {fk.ref_table}.{fk.ref_column}")
    if fk_lines:
        lines.append("foreign keys: " + "; ".join(fk_lines))
    return "\n".join(lines)


def build_context(catalog: SchemaCatalog, question: str, *,
                  demonstrations: tuple[Demonstration, ...] = ()) -> AgentContext:
    return AgentContext(instruction=DEFAULT_INSTRUCTION, demonstrations=demonstrations,
                        question=question, schema_view=render_schema(catalog))


# ---------------------------------------------------------------------------
# Feedback
# ---------------------------------------------------------------------------


def _path_text(path: tuple) -> str:
    return ".".join(str(step) for step in path)


def verdict_to_json(verdict: ConditionVerdict) -> dict:
    if isinstance(verdict, Matched):
        return {"status": "matched", "raw_value": verdict.raw_value}
    if isinstance(verdict, Mismatch):
        return {"status": "mismatch", "candidates": [
            {"table": c.table, "column": c.column, "value": c.raw_value,
             "score": round(c.score, 6)}
            for c in verdict.candidates]}
    return {"status": "not_applicable", "reason": verdict.reason}


@dataclass
class Feedback:
    iteration: int
    verdicts: list[tuple[tuple, ConditionVerdict]] = field(default_factory=list)
    findings: list[DetectorFinding] = field(default_factory=list)
    parse_errors: list[ParseError] = field(default_factory=list)

    @property
    def mismatches(self) -> list[tuple[tuple, Mismatch]]:
        return [(path, v) for path, v in self.verdicts if isinstance(v, Mismatch)]

    @property
    def approved(self) -> bool:
        return not self.mismatches and not self.findings and not self.parse_errors

    def render(self) -> str:
        """Compact text block shown to the agent on refinement."""
        lines = []
        for error in self.parse_errors:
            lines.append(f"parse error line {error.line}: {error.reason}")
        for path, verdict in self.verdicts:
            if not isinstance(verdict, Mismatch):
                continue
            cells = ", ".join(f"{c.raw_value!r} ({c.score:.2f})" for c in verdict.candidates)
            lines.append(f"condition at {_path_text(path)} matches no database entry; "
                         f"similar cells: {cells or 'none'}")
        for finding in self.findings:
            lines.append(f"{finding.kind} at {_path_text(finding.action_path)}: {finding.detail}")
        if not lines:
            lines.append("approved")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "approved": self.approved,
            "parse_errors": [{"line": e.line, "reason": e.reason} for e in self.parse_errors],
            "verdicts": [{"path": list(path), **verdict_to_json(v)}
                         for path, v in self.verdicts],
            "findings": [f.to_json_dict() for f in self.findings],
        }


@dataclass
class RefinementTrace:
    iterations: list[tuple[ActionSequence, Feedback]]
    final: ActionSequence
    exhausted: bool
    fallback_applied: bool
    exclusion_history: list[str]

    def to_json_dict(self) -> dict:
        return {
            "iterations": [
                {"actions": serialize_actions(seq), "feedback": fb.to_json_dict()}
                for seq, fb in self.iterations
            ],
            "final_actions": serialize_actions(self.final),
            "exhausted": self.exhausted,
            "fallback_applied": self.fallback_applied,
            "exclusions": list(self.exclusion_history),
        }


# ---------------------------------------------------------------------------
# Agents
# ---------------------------------------------------------------------------


class AgentInterface:
    """Anything that can draft and refine action sequences."""

    def generate(self, ctx: AgentContext) -> str:
        raise NotImplementedError

    def refine(self, ctx: AgentContext, prior: ActionSequence, feedback: Feedback) -> str:
        raise NotImplementedError


class ScriptedAgent(AgentInterface):
    """Replays canned outputs from a question -> [text per call] mapping.

    The n-th call for a question returns the n-th entry; calls past the
    end repeat the last entry, which makes never-converging agents easy
    to script.
    """

    def __init__(self, script: dict):
        if not isinstance(script, dict):
            raise ValueError("a replay script maps each question to its outputs")
        for question, outputs in script.items():
            if not isinstance(outputs, str) and not (
                    isinstance(outputs, (list, tuple)) and outputs
                    and all(isinstance(text, str) for text in outputs)):
                raise ValueError(f"replay script entry {question!r} must be a string "
                                 "or a non-empty list of strings")
        self.script = dict(script)
        self._calls: dict[str, int] = {}

    @classmethod
    def from_file(cls, path) -> "ScriptedAgent":
        with open(path, "r", encoding="utf-8") as handle:
            return cls(json.load(handle))

    def _next(self, question: str) -> str:
        outputs = self.script.get(question)
        if outputs is None:
            raise AgentFailure(f"question not scripted: {question!r}")
        if isinstance(outputs, str):
            outputs = [outputs]
        n = self._calls.get(question, 0)
        self._calls[question] = n + 1
        return outputs[min(n, len(outputs) - 1)]

    def generate(self, ctx: AgentContext) -> str:
        return self._next(ctx.question)

    def refine(self, ctx: AgentContext, prior: ActionSequence, feedback: Feedback) -> str:
        return self._next(ctx.question)


ENDPOINT_ENV = "SQLMEND_LLM_ENDPOINT"
API_KEY_ENV = "SQLMEND_LLM_API_KEY"
MODEL_ENV = "SQLMEND_LLM_MODEL"

# a request is tried 1 + HTTP_RETRIES times, each with HTTP_TIMEOUT_S;
# a retried one waits RETRY_BACKOFF_S, then twice that, and so on
HTTP_TIMEOUT_S = 60.0
HTTP_RETRIES = 2
RETRY_BACKOFF_S = 0.5


class HttpAgent(AgentInterface):
    """Chat-completion-style HTTP agent.

    Requests are pinned to temperature 0 and a 300-token cap for stable,
    bounded replies. Transport failures, 5xx and 429 responses are retried
    with exponential backoff; any other 4xx, a malformed reply or
    persistent failure raises AgentFailure.
    """

    def __init__(self, endpoint: str, api_key: str | None = None, model: str = "default"):
        self.endpoint = endpoint
        self.api_key = api_key
        self.model = model

    @classmethod
    def from_env(cls) -> "HttpAgent":
        endpoint = os.environ.get(ENDPOINT_ENV)
        if not endpoint:
            raise AgentFailure(f"{ENDPOINT_ENV} is not set")
        return cls(endpoint=endpoint, api_key=os.environ.get(API_KEY_ENV),
                   model=os.environ.get(MODEL_ENV, "default"))

    def _chat(self, messages: list[dict]) -> str:
        payload = json.dumps({
            "model": self.model,
            "messages": messages,
            "temperature": 0,
            "max_tokens": 300,
        }).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        for attempt in range(HTTP_RETRIES + 1):
            if attempt:
                sleep(RETRY_BACKOFF_S * 2 ** (attempt - 1))
            request = urllib.request.Request(self.endpoint, data=payload, headers=headers)
            try:
                with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT_S) as response:
                    raw = response.read()
            except (OSError, http.client.HTTPException) as exc:  # HTTPError is an OSError
                if isinstance(exc, urllib.error.HTTPError) and exc.code < 500 \
                        and exc.code != 429:
                    raise AgentFailure(f"agent endpoint rejected the request: {exc}") from exc
                last_error = exc
                continue
            try:
                content = json.loads(raw)["choices"][0]["message"]["content"]
            except (ValueError, LookupError, TypeError) as exc:
                raise AgentFailure(f"malformed agent reply: {exc!r}") from exc
            if not isinstance(content, str):
                raise AgentFailure("malformed agent reply: content is not text")
            return content
        raise AgentFailure(f"agent endpoint failed after retries: {last_error}")

    def _context_message(self, ctx: AgentContext) -> str:
        parts = []
        for demo in ctx.demonstrations:
            parts.append(f"schema:\n{demo.schema}\nquestion: {demo.question}\n"
                         f"actions:\n{demo.actions}")
        parts.append(f"schema:\n{ctx.schema_view}\nquestion: {ctx.question}\nactions:")
        return "\n\n".join(parts)

    def generate(self, ctx: AgentContext) -> str:
        return self._chat([
            {"role": "system", "content": ctx.instruction},
            {"role": "user", "content": self._context_message(ctx)},
        ])

    def refine(self, ctx: AgentContext, prior: ActionSequence, feedback: Feedback) -> str:
        return self._chat([
            {"role": "system", "content": ctx.instruction},
            {"role": "user", "content": self._context_message(ctx)},
            {"role": "assistant", "content": serialize_actions(prior)},
            {"role": "user", "content": "The tools reported:\n" + feedback.render()
             + "\nEmit the corrected action sequence."},
        ])


# ---------------------------------------------------------------------------
# Sub-question resolution
# ---------------------------------------------------------------------------


# qa() actions nest at most this deep
MAX_QA_DEPTH = 2


def resolve_qa(seq: ActionSequence, agent: AgentInterface,
               ctx: AgentContext) -> tuple[ActionSequence, list[DetectorFinding]]:
    """Resolve qa() actions by recursive agent calls on the sub-question.

    Recursion past MAX_QA_DEPTH leaves the action unresolved and reports a
    finding instead; so does an agent failure. Each parse error of a
    sub-answer is a finding at the qa() action's path.
    """
    findings: list[DetectorFinding] = []
    # the walk reads a qa() child only after the action is yielded, so a
    # child resolved here is walked next, before the following sibling; an
    # action's depth is the number of qa() children on its path
    for path, _level, action in walk(seq):
        if not isinstance(action, QA) or action.resolved is not None:
            continue
        if path.count("qa") >= MAX_QA_DEPTH:
            problems = [f"sub-question depth limit ({MAX_QA_DEPTH}) reached"]
        else:
            try:
                result = parse_actions(agent.generate(
                    replace(ctx, question=action.sub_question)))
            except AgentFailure as exc:
                problems = [f"agent failed on sub-question: {exc}"]
            else:
                action.resolved = result.sequence
                problems = [f"sub-answer parse error line {e.line}: {e.reason}"
                            for e in result.errors]
        findings.extend(DetectorFinding(
            kind=UNRESOLVED_SUB_QUESTION, action_path=path, detail=detail,
            machine_data={"question": action.sub_question}) for detail in problems)
    assign_sequence_ids(seq)
    return seq, findings


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefinementConfig:
    max_iterations: int = 3
    candidate_k: int = 5
    use_retriever: bool = True
    use_detector: bool = True
    dbms_feedback: bool = False

    def __post_init__(self):
        # a JSON true is a Python int, but no count
        if type(self.max_iterations) is not int or not 0 <= self.max_iterations <= 10:
            raise ValueError("max_iterations must be an integer between 0 and 10")
        if type(self.candidate_k) is not int or self.candidate_k < 0:
            raise ValueError("candidate_k must be a non-negative integer")


def _mismatch_columns(feedback: Feedback) -> set[tuple[str, str]]:
    return {(verdict.table, verdict.column) for _path, verdict in feedback.mismatches}


def _fallback_conditionals(final: ActionSequence, initial: ActionSequence) -> ActionSequence:
    """Replace the final sequence's top-level conditional actions with the
    initial iteration's, keeping everything else.
    """
    initial_conditionals = [a for a in initial.actions if isinstance(a, CONDITIONAL_KINDS)]
    insert_at = next((i for i, a in enumerate(final.actions)
                      if isinstance(a, CONDITIONAL_KINDS)), len(final.actions))
    kept = [a for a in final.actions if not isinstance(a, CONDITIONAL_KINDS)]
    # everything before the first conditional is kept, so it ends at insert_at
    actions = kept[:insert_at] + initial_conditionals + kept[insert_at:]
    return assign_sequence_ids(ActionSequence(actions=actions))


def run(question: str, catalog: SchemaCatalog, index: CellIndex,
        rules: list[ConstraintRule] | tuple, agent: AgentInterface,
        config: RefinementConfig = RefinementConfig(), *,
        demonstrations: tuple[Demonstration, ...] = ()) -> RefinementTrace:
    """Run the full inspect-and-refine loop for one question.

    The trace records every (sequence, feedback) pair, whether the budget
    was exhausted, and whether the conditional-clause fallback fired.
    """
    ctx = build_context(catalog, question, demonstrations=demonstrations)
    iterations: list[tuple[ActionSequence, Feedback]] = []
    exclusions: set[tuple[str, str]] = set()
    exclusion_history: list[str] = []
    prev_seq: ActionSequence | None = None
    prev_feedback: Feedback | None = None
    agent_failed = False

    for iteration in range(config.max_iterations + 1):
        try:
            if iteration == 0:
                text = agent.generate(ctx)
            else:
                text = agent.refine(ctx, prev_seq, prev_feedback)
        except AgentFailure:
            agent_failed = True
            break
        result = parse_actions(text)
        seq = result.sequence
        seq, qa_findings = resolve_qa(seq, agent, ctx)

        verdicts = []
        if config.use_retriever:
            verdicts = inspect_sequence(seq, catalog, index, k=config.candidate_k)
        findings = list(qa_findings)
        if config.dbms_feedback:
            findings.extend(detect_via_dbms(seq, catalog.source_path))
        elif config.use_detector:
            findings.extend(detect(seq, catalog, rules))
        feedback = Feedback(iteration=iteration, verdicts=verdicts,
                            findings=findings, parse_errors=result.errors)
        iterations.append((seq, feedback))
        if feedback.approved:
            break
        new_columns = _mismatch_columns(feedback) - exclusions
        exclusions |= new_columns
        exclusion_history.extend(sorted(f"{t}.{c}" for t, c in new_columns))
        ctx = replace(ctx, schema_view=render_schema(
            catalog, frozenset((t.lower(), c.lower()) for t, c in exclusions)))
        prev_seq, prev_feedback = seq, feedback

    if not iterations:
        return RefinementTrace(iterations=[], final=ActionSequence(), exhausted=True,
                               fallback_applied=False, exclusion_history=[])

    final_seq, final_feedback = iterations[-1]
    exhausted = agent_failed or not final_feedback.approved
    fallback_applied = False
    # conditions cannot join a level that holds an add_merge
    if exhausted and final_feedback.mismatches and len(iterations) > 1 \
            and final_seq.first(AddMerge) is None:
        final_seq = _fallback_conditionals(final_seq, iterations[0][0])
        fallback_applied = True
    return RefinementTrace(iterations=iterations, final=final_seq, exhausted=exhausted,
                           fallback_applied=fallback_applied,
                           exclusion_history=exclusion_history)
