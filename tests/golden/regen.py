"""Rewrite the golden records of bundled queries' jobs.

outputs.json holds every bundled query's job on the 3k benchmark graph.
Each file of FILES_30K holds every bundled query's job on the 30k
benchmark graph, relabelled by each seed in SEEDS_30K, with the inputs
and budgets built by perfbench/inputs.py (imported read-only):
outputs_30k.json at default budgets (split-30k's q1, q4, q5 and q6 and
the five queries no workload runs at 30k), outputs_unsplit_30k.json
with the degree budget lifted to the graph's max degree, as unsplit-30k
runs them (one partition per query, long kernel lists). Run from
the repository root after a change that is meant to move trees,
answers, traces or cycles: PYTHONPATH=src python tests/golden/regen.py
tests/test_golden.py reads outputs.json, and CI's "Golden outputs at
30k" step compares each file of FILES_30K with entries_30k; neither
rewrites.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import helpers  # noqa: E402
from submatch.fixtures import QUERY_NAMES  # noqa: E402

SEEDS_30K = (1357, 2718)
GRAPH_SEED_30K = 1357
FILES_30K = {"outputs_30k.json": False, "outputs_unsplit_30k.json": True}  # file: unsplit


def entries_30k(unsplit: bool, seed: int) -> dict:
    """Every bundled query's entry on the 30k graph relabelled by `seed`, split or unsplit."""
    sys.path.insert(0, str(HERE.parent.parent / "perfbench"))
    try:
        import inputs
    finally:
        del sys.path[0]
    workload = inputs.Workload(30000, QUERY_NAMES, unsplit)
    made = inputs.make_inputs(workload, seed, GRAPH_SEED_30K)
    return {name: helpers.golden_entry(made.data, name, made.config) for name in workload.queries}


def write(path: Path, entries: dict) -> None:
    path.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")


def main() -> None:
    write(HERE / "outputs.json", {name: helpers.golden_entry(helpers.benchmark_graph(), name) for name in QUERY_NAMES})
    for file_name, unsplit in FILES_30K.items():
        write(HERE / file_name, {str(seed): entries_30k(unsplit, seed) for seed in SEEDS_30K})


if __name__ == "__main__":
    main()
