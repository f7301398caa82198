"""Rewrite the golden records of bundled queries' jobs.

outputs.json holds every bundled query's job on the 3k benchmark graph.
outputs_30k.json holds the split-30k benchmark workload's queries on the
30k benchmark graph, relabelled by each seed in SEEDS_30K, with the
inputs built by perfbench/inputs.py (imported read-only). Run from the
repository root after a change that is meant to move trees, answers or
cycles: PYTHONPATH=src python tests/golden/regen.py
tests/test_golden.py reads outputs.json, and CI's "Golden outputs at
30k" step compares outputs_30k.json with entries_30k; neither rewrites.
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


def entries_30k(seed: int) -> dict:
    """The split-30k workload's entries on the 30k graph relabelled by `seed`."""
    sys.path.insert(0, str(HERE.parent.parent / "perfbench"))
    try:
        import inputs
    finally:
        del sys.path[0]
    workload = inputs.WORKLOADS["split-30k"]
    data = inputs.make_inputs(workload, seed, GRAPH_SEED_30K).data
    return {name: helpers.golden_entry(data, name) for name in workload.queries}


def write(path: Path, entries: dict) -> None:
    path.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")


def main() -> None:
    write(HERE / "outputs.json", {name: helpers.golden_entry(helpers.benchmark_graph(), name) for name in QUERY_NAMES})
    write(HERE / "outputs_30k.json", {str(seed): entries_30k(seed) for seed in SEEDS_30K})


if __name__ == "__main__":
    main()
