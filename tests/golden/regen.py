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
With --check it rewrites nothing: it compares each file of FILES_30K
with fresh entries_30k, prints one match/DIFFER line per entry and
each file's time, and exits 1 on any difference or missing entry (CI's
"Golden outputs at 30k" step). tests/test_golden.py reads outputs.json.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
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


def check() -> list:
    """Compare each file of FILES_30K with fresh entries; return what differs or is missing."""
    failed: list = []
    for file_name, unsplit in FILES_30K.items():
        start = time.perf_counter()
        golden = json.loads((HERE / file_name).read_text())
        failed += [] if sorted(golden) == sorted(map(str, SEEDS_30K)) else [file_name]
        for seed in SEEDS_30K:
            recorded = golden.get(str(seed), {})
            entries = entries_30k(unsplit, seed)
            for name, entry in entries.items():
                same = entry == recorded.get(name)
                print(file_name, seed, name, entry["trees"], "trees", entry["embeddings"], "embeddings",
                      "match" if same else "DIFFER")
                failed += [] if same else [(file_name, seed, name)]
            failed += [(file_name, seed, name) for name in recorded if name not in entries]
        print(f"- golden {file_name}: {len(SEEDS_30K)} seeds in {time.perf_counter() - start:.1f} s")
    print("failed:", failed)
    return failed


def main() -> None:
    parser = argparse.ArgumentParser(description="Rewrite the golden records, or with --check compare the 30k ones.")
    parser.add_argument("--check", action="store_true", help="compare each 30k file with fresh entries; rewrite nothing")
    if parser.parse_args().check:
        sys.exit(bool(check()))
    write(HERE / "outputs.json", {name: helpers.golden_entry(helpers.benchmark_graph(), name) for name in QUERY_NAMES})
    for file_name, unsplit in FILES_30K.items():
        write(HERE / file_name, {str(seed): entries_30k(unsplit, seed) for seed in SEEDS_30K})


if __name__ == "__main__":
    main()
