#!/usr/bin/env python3
"""Desk-scale ablation matrix over a machine-perturbed benchmark.

Generates N perturbed questions (column mention removed, value highlight
stripped) over a synthetic database, then scores four configurations:

  * a value-corrupting baseline predictor, with and without condition
    post-processing -- post-processing should rescue it;
  * the full refinement pipeline (replay agent), with and without
    post-processing -- the pipeline should not need it;
  * the pipeline with the retriever disabled -- condition mismatches go
    unnoticed and accuracy should drop.

Usage: python scripts/run_ablation.py [--n 20] [--seed 0]
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sqlite3

from sqlmend.evaluation import pipeline_predictor, run_benchmark
from sqlmend.orchestrator import RefinementConfig, ScriptedAgent
from sqlmend.perturb import dehighlight, example_from_json, perturb_example
from sqlmend.schema_catalog import build_cell_index, load_catalog

ADJECTIVES = ["Amber", "Broken", "Crimson", "Distant", "Emerald",
              "Frozen", "Gilded", "Hollow", "Iron", "Jade"]
NOUNS = ["Valley", "Harbor", "Garden", "Summit", "Lantern", "Meadow"]


def build_benchmark(root: Path, n: int, seed: int):
    titles = [f"{a} {b}" for a, b in
              itertools.islice(itertools.product(ADJECTIVES, NOUNS), n + 10)]
    rows = [(i + 1, t, f"2009-{(i % 12) + 1:02d}-{(i % 27) + 1:02d}")
            for i, t in enumerate(titles)]
    db_dir = root / "database" / "shows"
    db_dir.mkdir(parents=True)
    db_path = db_dir / "shows.sqlite"
    conn = sqlite3.connect(db_path)
    conn.execute("CREATE TABLE show (id INTEGER PRIMARY KEY, title TEXT, air_date TEXT)")
    conn.executemany("INSERT INTO show VALUES (?, ?, ?)", rows)
    conn.commit()
    conn.close()

    catalog = load_catalog(db_path)
    index = build_cell_index(catalog, db_path)

    records, corrupted, replay = [], {}, {}
    for i in range(n):
        title = titles[i]
        question = f'When did the episode "{title}" air?'
        gold = f"SELECT air_date FROM show WHERE title = '{title}'"
        start = question.index('"')
        end = question.index("?") - len(" air")
        example = example_from_json({
            "question": question, "gold_sql": gold, "db_id": "shows",
            "value_spans": [{"start": start, "end": end, "column": "show.title",
                             "literal": title}],
            "column_mention_spans": [{"start": 9, "end": 20, "column": "show.title"}],
        })
        perturbed, applied = perturb_example(
            example, ["remove_column", "remove_highlight"], seed=seed + i,
            catalog=catalog, index=index)
        assert applied == ["remove_column", "remove_highlight"]
        records.append({"id": f"p{i}", "db_id": "shows",
                        "question": perturbed.question, "gold_sql": perturbed.gold_sql})
        lowered = dehighlight(f'"{title}"')
        corrupted[f"p{i}"] = gold.replace(f"'{title}'", f"'{lowered}'")
        replay[perturbed.question] = [
            f'add_select(air_date)\nadd_from(show)\nadd_where(title, =, "{lowered}")',
            f'add_select(air_date)\nadd_from(show)\nadd_where(title, =, "{title}")',
        ]
    dataset = root / "examples.json"
    dataset.write_text(json.dumps(records, indent=1), encoding="utf-8")
    return dataset, corrupted, replay


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="sqlmend-ablation-") as root:
        return ablate(Path(root), args.n, args.seed)


def ablate(root: Path, n: int, seed: int) -> int:
    dataset, corrupted, replay = build_benchmark(root, n, seed)
    db_root = dataset.parent / "database"

    def corrupting(ex):
        return corrupted[ex.id]

    def agent_factory():
        return ScriptedAgent(replay)

    configs = [
        ("corrupting baseline, post-process off",
         lambda: run_benchmark(dataset, corrupting, post_process=False)),
        ("corrupting baseline, post-process on",
         lambda: run_benchmark(dataset, corrupting, post_process=True)),
        ("pipeline, post-process off",
         lambda: run_benchmark(dataset, pipeline_predictor(agent_factory, db_root),
                               post_process=False)),
        ("pipeline, post-process on",
         lambda: run_benchmark(dataset, pipeline_predictor(agent_factory, db_root),
                               post_process=True)),
        ("pipeline, retriever off",
         lambda: run_benchmark(
             dataset,
             pipeline_predictor(agent_factory, db_root,
                                config=RefinementConfig(use_retriever=False)),
             post_process=False)),
    ]

    print(f"{n} perturbed examples (seed {seed})\n")
    print(f"{'configuration':<42} {'EX':>6}")
    print("-" * 50)
    for name, runner in configs:
        agg = runner().aggregates()
        print(f"{name:<42} {agg['ex_rate']:>6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
