"""Deterministic, zero-latency agent for the pipeline workloads.

The agent answers from one generated example's script.  On ``refine`` it
substitutes the top retriever candidate of each mismatch into its prior
draft, so the retriever's ranking decides the final SQL and EX really
checks it.  A detector finding of a scripted kind is answered with the
scripted fix, and a refusing example repeats its draft until the budget
runs out, which exercises exhaustion and the fallback.
"""

from __future__ import annotations

from sqlmend.actions import Literal
from sqlmend.orchestrator import AgentFailure, AgentInterface

from generate import dsl_str
from tracing import AGENT_SPAN

CONNECTIVES_PREFIX = "[connectives] "


def node_at(seq, path: tuple):
    """The action a verdict path points at."""
    level, node = seq, None
    for step in path:
        if step == "left":
            level = node.left
        elif step == "right":
            level = node.right
        elif step == "qa":
            level = node.resolved
        else:
            node = level.actions[step]
    return node


class BenchAgent(AgentInterface):
    def __init__(self, entry: dict, recorder):
        self.entry = entry
        self.text = entry["draft"]
        if recorder.traced:
            # agent time is the benchmark's own, so it is kept out of the
            # orchestrator's self time
            self.generate = recorder.wrap(AGENT_SPAN, self.generate, _count_call)
            self.refine = recorder.wrap(AGENT_SPAN, self.refine, _count_call)

    def generate(self, ctx) -> str:
        question = ctx.question
        if question == self.entry["question"]:
            return self.text
        if question == CONNECTIVES_PREFIX + self.entry["question"]:
            return self.entry["connectives"]
        if question in self.entry["sub"]:
            return self.entry["sub"][question]
        raise AgentFailure(f"question not in the script: {question!r}")

    def refine(self, ctx, prior, feedback) -> str:
        if self.entry["refuse"]:
            return self.text
        for path, verdict in feedback.mismatches:
            action = node_at(prior, path)
            if verdict.candidates and isinstance(action.value, Literal):
                self.text = self.text.replace(dsl_str(action.value.value),
                                              dsl_str(verdict.candidates[0].raw_value))
        for finding in feedback.findings:
            fix = self.entry["fixes"].get(finding.kind)
            if fix is not None:
                self.text = self.text.replace(*fix)
        return self.text


def _count_call(rec, args, kwargs, result) -> None:
    rec.counts["orchestrator.agent_calls"] += 1
