"""Self-test of the benchmark at tiny size.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import generate  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402

WORKLOADS = run.WORKLOADS


def run_command(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_the_workloads_and_bounds(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_the_gate_and_prints_every_metric(workload, trace):
    done = run_command(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                       "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    table = harness.PER_LAYER if trace else harness.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(table)
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if name != "trace.overhead_frac":
            assert metric["value"] >= 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_inside_wall_time(workload, tmp_path):
    generate.generate(workload, 3, "tiny", tmp_path)
    measured = harness.measure(harness.Workload(tmp_path), 0, trace=True)
    assert measured.correct, measured.problems
    assert measured.traced[0].report_json == measured.untraced[0].report_json
    for p in measured.traced:
        self_ms = p.recorder.self_ms()
        assert all(ms >= -1e-6 for ms in self_ms.values()), self_ms
        assert sum(self_ms.values()) <= p.wall_s * 1000.0 + 1e-6


def test_scale_probe_ranks_the_right_cell(tmp_path):
    bench = generate.generate("refine-mismatch", 3, "tiny", tmp_path, probe=True)
    assert set(bench["probe"]) == {str(n) for n in generate.PROBE_CELLS}
    values, problems = harness.scale_probe(harness.Workload(tmp_path))
    assert problems == []
    assert values["retriever.mismatch_ms.50k"] > values["retriever.mismatch_ms.1k"]


def test_wrong_expectation_fails_the_gate(tmp_path):
    generate.generate("refine-mismatch", 3, "tiny", tmp_path)
    bench_path = tmp_path / "bench.json"
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    example_id = next(i for i, e in bench["expected"].items() if e["ex"])
    bench["expected"][example_id]["present"] = ["a literal nobody generated"]
    bench_path.write_text(json.dumps(bench), encoding="utf-8")
    measured = harness.measure(harness.Workload(tmp_path), 0, trace=False)
    assert not measured.correct
    assert measured.failed == 1
    assert any(example_id in problem for problem in measured.problems)


def test_wrong_expected_ex_rate_counts_as_failed(tmp_path):
    generate.generate("postprocess-rescue", 3, "tiny", tmp_path)
    bench_path = tmp_path / "bench.json"
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    bench["expected_ex_rate"] += 0.5
    bench_path.write_text(json.dumps(bench), encoding="utf-8")
    measured = harness.measure(harness.Workload(tmp_path), 0, trace=False)
    assert not measured.correct
    assert measured.failed == 1 and "ex_rate" in measured.problems[0]


def test_generator_is_seeded_and_independent_of_the_program(tmp_path):
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    first = generate.generate("many-db-matched", 5, "tiny", tmp_path / "a")
    again = generate.generate("many-db-matched", 5, "tiny", tmp_path / "b")
    other = generate.generate("many-db-matched", 6, "tiny", tmp_path / "c")
    assert first == again and first != other
    assert "sqlmend" not in {line.split()[1].split(".")[0]
                             for line in (BENCH_DIR / "generate.py").read_text().splitlines()
                             if line.startswith(("import ", "from "))}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_command(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                       "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
