"""Measurement passes, correctness gate and metrics.

A pass is one ``run_benchmark`` call over the whole generated dataset in
a closed loop: one process, one caller, ``workers=1``, each example
predicted only after the previous one was scored.  Every pass builds a
fresh predictor, so each pass pays the program's set-up again; the run
repeats passes until its time is up and reports medians over them.
"""

from __future__ import annotations

import json
import re
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from sqlmend.actions import AddWhere, ColumnRef, Literal
from sqlmend.evaluation import file_predictor, load_dataset, pipeline_predictor, run_benchmark
from sqlmend.postprocess import rewrite
from sqlmend.retriever import Matched, Mismatch, check_condition
from sqlmend.schema_catalog import build_cell_index, load_catalog

from agent import BenchAgent
from generate import sql_str
from tracing import PREDICT_SPAN, Recorder

_SQL_STRING_RE = re.compile(r"'(?:[^']|'')*'")

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))
# (name, unit) of the metrics, as BENCHMARK.json lists them
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])
# failed_frac is printed with the end-to-end metrics but travels in the
# result line's attempted/failed fields: it is 0 on a healthy run, and a
# metric compared as a share of its median must never be 0.

# (label, distinct cells, timed repeats) of the scale probe
PROBE_SIZES = (("1k", 1000, 5), ("10k", 10000, 3), ("50k", 50000, 1))


def sql_literals(sql: str) -> list[str]:
    """The values of the single-quoted string literals in a query."""
    return [m[1:-1].replace("''", "'") for m in _SQL_STRING_RE.findall(sql)]


class Workload:
    """A generated dataset directory (see generate.py)."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.bench = json.loads((directory / "bench.json").read_text(encoding="utf-8"))
        self.dataset = directory / "examples.json"
        self.db_root = directory / "database"
        self.expected = self.bench["expected"]

    def predictor(self, rec: Recorder):
        current = {}
        if self.bench["predictor"] == "pipeline":
            script = self.bench["agent_script"]
            inner = pipeline_predictor(lambda: BenchAgent(script[current["id"]], rec),
                                       self.db_root)
        else:
            examples, _root = load_dataset(self.dataset)
            inner = file_predictor(self.dir / "predictions.sql", examples)

        traced_inner = rec.wrap(PREDICT_SPAN, inner)

        def predict(example):
            current["id"] = rec.example = example.id
            return traced_inner(example)

        return predict


@dataclass
class Pass:
    wall_s: float
    setup_s: float
    example_ms: dict[str, float]
    report_json: str
    aggregates: dict
    problems: list[str]
    recorder: Recorder = field(repr=False)


def gate(report, expected: dict) -> list[str]:
    """One line per example that deviates from its answer known by
    construction: a swallowed predictor exception, an unscorable example,
    a wrong EX outcome or a wrong final literal or rewritten SQL."""
    problems = []
    seen = set()
    for r in report.results:
        seen.add(r.id)
        e = expected.get(r.id)
        sql = r.predicted_sql or ""
        if e is None:
            why = "not in the generated dataset"
        elif r.error is not None and r.error.startswith("prediction failed"):
            why = r.error
        elif r.ex is None:
            why = f"unscorable: {r.error}"
        elif r.ex != e["ex"]:
            why = f"EX {r.ex}, expected {e['ex']}"
        elif e["sql"] is not None and sql != e["sql"]:
            why = f"rewritten SQL {sql!r}, expected {e['sql']!r}"
        else:
            literals = sql_literals(sql)
            why = next((f"literal {lit!r} missing" for lit in e["present"]
                        if lit not in literals), None)
            why = why or next((f"literal {lit!r} still present" for lit in e["absent"]
                               if lit in literals), None)
        if why is not None:
            problems.append(f"{r.id} ({e['kind'] if e else '?'}): {why}")
    problems += [f"{i}: no result" for i in expected if i not in seen]
    return problems


def run_pass(workload: Workload, traced: bool) -> Pass:
    rec = Recorder(traced)
    with rec.installed():
        predictor = workload.predictor(rec)
        start = perf_counter()
        report = run_benchmark(workload.dataset, predictor, db_root=workload.db_root,
                               post_process=workload.bench["post_process"])
        end = perf_counter()
    times = rec.example_ms(end)
    return Pass(wall_s=end - start, setup_s=rec.setup_s(), example_ms=times,
                report_json=json.dumps(report.to_json_dict(), sort_keys=True),
                aggregates=report.aggregates(), problems=gate(report, workload.expected),
                recorder=rec)


@dataclass
class Run:
    untraced: list[Pass]
    traced: list[Pass]
    problems: list[str]  # one per deviating example, and one per whole-run deviation
    attempted: int

    @property
    def failed(self) -> int:
        return len(self.problems)

    @property
    def correct(self) -> bool:
        return not self.problems


def measure(workload: Workload, seconds: float, trace: bool) -> Run:
    """Repeat passes until `seconds` have elapsed; with `trace`, alternate
    untraced and traced passes so both see the same conditions."""
    deadline = perf_counter() + seconds
    untraced: list[Pass] = []
    traced: list[Pass] = []
    while True:
        untraced.append(run_pass(workload, traced=False))
        if trace:
            traced.append(run_pass(workload, traced=True))
        if perf_counter() >= deadline:
            break
    passes = untraced + traced
    problems = [p for ps in passes for p in ps.problems]
    reference = untraced[0].report_json
    if any(p.report_json != reference for p in passes):
        problems.append("report JSON differs between passes (traced or untraced)")
    expected_rate = workload.bench["expected_ex_rate"]
    if untraced[0].aggregates["ex_rate"] != expected_rate:
        problems.append(f"ex_rate {untraced[0].aggregates['ex_rate']} != {expected_rate} "
                        "expected by construction")
    attempted = sum(len(p.example_ms) for p in passes)
    return Run(untraced=untraced, traced=traced, problems=problems, attempted=max(attempted, 1))


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(run: Run) -> dict[str, float]:
    """End-to-end metrics from the untraced passes.

    An example's time is its mean over the passes, and the percentiles are
    taken over the examples.  The host's speed drifts between levels for
    seconds at a time, and a percentile of single timings jumps with the
    share of time spent at each level; the per-example mean follows it
    smoothly."""
    passes = run.untraced
    means = [statistics.fmean(p.example_ms[i] for p in passes) for i in passes[0].example_ms]
    agg = passes[0].aggregates
    return {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "examples_per_s": statistics.median(len(p.example_ms) / (p.wall_s - p.setup_s)
                                            for p in passes),
        "example_ms_p50": quantile(means, 50),
        "example_ms_p90": quantile(means, 90),
        "ex_rate": agg["ex_rate"],
        "em_rate": agg["em_rate"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    rec = p.recorder
    calls, self_ms, counts = rec.calls(), rec.self_ms(), rec.counts
    out: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        if name.endswith(".calls"):
            out[name] = float(calls[name[:-len(".calls")]])
        elif name.endswith(".ms"):
            out[name] = self_ms.get(name[:-len(".ms")], 0.0)
    out["orchestrator.run.self_ms"] = self_ms.get("orchestrator.run", 0.0)
    for key in ("schema_catalog.cells_indexed", "retriever.verdicts.matched",
                "retriever.verdicts.mismatch", "retriever.verdicts.not_applicable",
                "retriever.cells_scored", "detector.findings", "orchestrator.agent_calls",
                "postprocess.literals", "postprocess.literals_changed",
                "postprocess.cells_scored"):
        out[key] = float(counts[key])
    runs = calls["orchestrator.run"]
    wall_ms = p.wall_s * 1000.0
    out.update({
        "retriever.rank_candidates.wall_frac": _ratio(out["retriever.rank_candidates.ms"], wall_ms),
        "retriever.us_per_cell": _ratio(out["retriever.rank_candidates.ms"] * 1000.0,
                                        counts["retriever.cells_scored"]),
        "orchestrator.iterations_mean": _ratio(counts["orchestrator.iterations"], runs),
        "orchestrator.approved_frac": _ratio(counts["orchestrator.approved"], runs),
        "orchestrator.fallback_frac": _ratio(counts["orchestrator.fallback"], runs),
        "postprocess.rewrite.wall_frac": _ratio(out["postprocess.rewrite.ms"], wall_ms),
        "postprocess.changed_frac": _ratio(counts["postprocess.literals_changed"],
                                           counts["postprocess.literals"]),
        "postprocess.us_per_cell": _ratio(out["postprocess.rewrite.ms"] * 1000.0,
                                          counts["postprocess.cells_scored"]),
        "evaluation.em_covered_frac": _ratio(counts["evaluation.em_covered"],
                                             calls["evaluation.exact_match"]),
    })
    return out


def per_layer(run: Run, probe: dict[str, float]) -> dict[str, float]:
    per_pass = [layer_metrics(p) for p in run.traced]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    untraced_wall = statistics.median(p.wall_s for p in run.untraced)
    traced_wall = statistics.median(p.wall_s for p in run.traced)
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    out.update(probe)
    return out


def _timed_ms(fn, repeats: int):
    times, result = [], None
    for _ in range(repeats):
        start = perf_counter()
        result = fn()
        times.append((perf_counter() - start) * 1000.0)
    return statistics.median(times), result


def scale_probe(workload: Workload) -> tuple[dict[str, float], list[str]]:
    """Index build, match and mismatch checks and a one-literal rewrite on
    a single column of 1k, 10k and 50k distinct cells, called directly
    with no tracing patches in place."""
    out: dict[str, float] = {}
    problems: list[str] = []
    for label, cells, repeats in PROBE_SIZES:
        info = workload.bench["probe"][str(cells)]
        path = workload.dir / info["path"]
        catalog = load_catalog(path)
        ms, index = _timed_ms(lambda: build_cell_index(catalog, path), repeats)
        out[f"schema_catalog.build_cell_index_ms.{label}"] = ms
        hit = AddWhere(ColumnRef("label"), "=", Literal("text", info["hit"]))
        miss = AddWhere(ColumnRef("label"), "=", Literal("text", info["miss"]))
        ms, matched = _timed_ms(lambda: check_condition(hit, catalog, index), repeats)
        out[f"retriever.match_ms.{label}"] = ms
        ms, mismatched = _timed_ms(lambda: check_condition(miss, catalog, index), repeats)
        out[f"retriever.mismatch_ms.{label}"] = ms
        sql = f"SELECT id FROM item WHERE label = {sql_str(info['miss'])}"
        ms, rewritten = _timed_ms(lambda: rewrite(sql, catalog, index), repeats)
        out[f"postprocess.rewrite_ms.{label}"] = ms
        if not isinstance(matched, Matched):
            problems.append(f"probe {label}: hit literal did not match")
        if not (isinstance(mismatched, Mismatch) and mismatched.candidates
                and mismatched.candidates[0].raw_value == info["target"]):
            problems.append(f"probe {label}: mismatch did not rank the right cell first")
        if rewritten != f"SELECT id FROM item WHERE label = {sql_str(info['target'])}":
            problems.append(f"probe {label}: rewrite gave {rewritten!r}")
    return out, problems
