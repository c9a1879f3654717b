#!/usr/bin/env python3
"""Offline benchmark of the refine -> assemble -> score pipeline.

Generates a seeded synthetic workload, runs it through
``sqlmend.evaluation.run_benchmark`` for --seconds, checks every output
against the answer known by construction, prints the metrics by name with
their units, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 a traced run alternates
traced and untraced passes and reports the per-layer ones, and the spans
are written to .perfbench_out/.

Usage (from the repository root):
    python3 perfbench/run.py --workload refine-mismatch --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("refine-mismatch", "postprocess-rescue", "many-db-matched")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's self-test")
    return parser.parse_args(argv)


def import_program():
    """Import sqlmend from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sqlmend" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'sqlmend'}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import sqlmend

    if Path(sqlmend.__file__).resolve().parent != (src / "sqlmend").resolve():
        raise SystemExit(f"error: imported sqlmend from {sqlmend.__file__}, not {src}")


def generate(args, work: Path) -> None:
    """Generate in a child process, so its memory stays out of peak_rss_mb."""
    command = [sys.executable, str(HERE / "generate.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size, "--out", str(work)]
    if args.trace:
        command.append("--probe")
    subprocess.run(command, check=True, timeout=170)


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    # a terminated run still removes its work directory and its child
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    args = parse_args(argv)
    import_program()
    import harness
    import tracing

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.size}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        generate(args, work)
        workload = harness.Workload(work)
        run = harness.measure(workload, args.seconds, bool(args.trace))
        if args.trace:
            probe, probe_problems = harness.scale_probe(workload)
            run.problems += probe_problems
            values = harness.per_layer(run, probe)
            table = harness.PER_LAYER
            tracing.write_spans(ROOT / ".perfbench_out"
                                / f"spans-{args.workload}-seed{args.seed}.jsonl",
                                [p.recorder for p in run.traced])
        else:
            values = harness.end_to_end(run)
            table = harness.END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sizes = workload.bench["sizes"]
    samples = sum(len(p.example_ms) for p in run.untraced)
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"sizes {json.dumps(sizes)}")
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}")
    print(f"passes untraced {len(run.untraced)}  traced {len(run.traced)}  "
          f"example samples {samples}")
    for problem in run.problems[:20]:
        print(f"GATE: {problem}")
    for name, unit in table:
        print(f"  {name:<44} {fmt(values[name]):>14} {unit}")
    if not args.trace:
        print(f"  {'failed_frac':<44} {fmt(run.failed / run.attempted):>14} ratio")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
