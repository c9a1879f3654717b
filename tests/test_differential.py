from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "differential.py"


def digest_lines(seed: int) -> list[str]:
    out = subprocess.run([sys.executable, str(SCRIPT), "--seed", str(seed), "--n", "40"],
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.splitlines()


def test_differential_digest_is_a_function_of_the_seed():
    first = digest_lines(3)
    names = [line.split()[0] for line in first]
    assert names == ["order_by", "components", "exact_match", "conditions", "rewrite",
                     "replace_value", "candidates", "findings", "verdicts", "assemble",
                     "refine", "eval_report", "perturb", "cell_index"]
    assert digest_lines(3) == first
    other = digest_lines(4)
    # every surface but the fixture's cell index draws on the seed
    assert all(a.split()[-1] != b.split()[-1] for a, b in zip(first[:-1], other[:-1]))
    assert first[-1] == other[-1]
