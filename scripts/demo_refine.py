#!/usr/bin/env python3
"""Walk one question through the full inspect-and-refine loop.

Builds a small episode database, scripts an agent whose first draft uses
a lowercased value that matches no cell, and shows the retriever feedback
that leads to the corrected final SQL. Everything is local and
deterministic; no model endpoint is needed.
"""

from __future__ import annotations

import json
import sqlite3
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sqlmend.assembler import assemble, predict_connectives
from sqlmend.orchestrator import RefinementConfig, ScriptedAgent, run
from sqlmend.schema_catalog import build_cell_index, load_catalog

QUESTION = "Which episodes did todd casey write?"

REPLAY = {
    QUESTION: [
        'add_select(title)\nadd_from(episode)\nadd_where(written_by, =, "todd casey")',
        'add_select(title)\nadd_from(episode)\nadd_where(written_by, =, "Todd Casey")',
    ]
}

ROWS = [
    (1, "A Love of a Lifetime", "2009-09-24", "Todd Casey"),
    (2, "Double Down", "2009-10-01", "Chris Dingess"),
    (3, "The Firefly", "2009-10-08", "Todd Casey"),
]


def build_demo_db(path: Path) -> Path:
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE episode (id INTEGER PRIMARY KEY, title TEXT, "
                 "air_date TEXT, written_by TEXT)")
    conn.executemany("INSERT INTO episode VALUES (?, ?, ?, ?)", ROWS)
    conn.commit()
    conn.close()
    return path


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="sqlmend-demo-") as workdir:
        return demo(Path(workdir))


def demo(workdir: Path) -> int:
    db_path = build_demo_db(workdir / "episodes.sqlite")
    catalog = load_catalog(db_path)
    index = build_cell_index(catalog, db_path)

    agent = ScriptedAgent(REPLAY)
    trace = run(QUESTION, catalog, index, (), agent, RefinementConfig(max_iterations=3))

    print(f"question: {QUESTION}\n")
    for seq, feedback in trace.iterations:
        print(f"--- iteration {feedback.iteration} ---")
        for line in trace.to_json_dict()["iterations"][feedback.iteration]["actions"].split("\n"):
            print(f"  {line}")
        print(f"  tools say: {feedback.render()}")
        print()

    plan = predict_connectives(trace.final, QUESTION, agent)
    sql = assemble(trace.final, plan)
    print(f"final SQL: {sql}")
    conn = sqlite3.connect(db_path)
    print(f"rows:      {conn.execute(sql).fetchall()}")
    conn.close()
    print("\ntrace JSON:")
    print(json.dumps(trace.to_json_dict(), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
