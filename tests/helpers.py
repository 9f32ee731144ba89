"""Shared test utilities."""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from efxcheck.cli import main
from efxcheck.ordinal import bundled_instance_text


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def source_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports efxcheck from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def identical_agents_doc() -> str:
    """Template with every pair rank 1 and no exceptional triples: three
    indifferent agents that only distinguish empty from nonempty."""
    doc = json.loads(bundled_instance_text())
    for row in doc["pair_ranks"].values():
        for key in row:
            row[key] = 1
    doc["exceptional"] = []
    return json.dumps(doc)


def mutated_pair_doc(first: str, second: str, rank: int) -> str:
    """Built-in template with one pair-rank cell overridden."""
    doc = json.loads(bundled_instance_text())
    row = doc["pair_ranks"].setdefault(first, {})
    row[second] = rank
    return json.dumps(doc)


PERMUTATIONS = (
    list(range(8)),
    [1, 2, 0, 4, 5, 3, 6, 7],
    [2, 0, 1, 5, 3, 4, 6, 7],
)


def random_template_doc(seed: int) -> str:
    """The built-in type partition with a random pair table, random
    exceptional triples, a random top rank and a relabeling of order
    dividing 3."""
    rng = random.Random(seed)
    doc = json.loads(bundled_instance_text())
    top_rank = rng.randint(2, 12)
    doc["top_rank"] = top_rank
    for row in doc["pair_ranks"].values():
        for key in row:
            row[key] = rng.randint(1, top_rank)
    types = ["A", "B", "C", "x", "y"]
    triples = {
        tuple(sorted(rng.sample(types, 3))) for _ in range(rng.randint(0, 3))
    }
    doc["exceptional"] = [list(triple) for triple in sorted(triples)]
    doc["permutation"] = rng.choice(PERMUTATIONS)
    return json.dumps(doc)
