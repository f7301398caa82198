"""Bundled worked examples and the deterministic benchmark inputs.

The worked pair is the small data/query combination whose candidate
sets, partitions, and both embeddings are pinned down exactly in the
test suite. The partition example is a hand-built four-level candidate
tree that exercises projection, workload counting, and batch generation
with known numbers. The benchmark graph is generated, never stored:
same seed, same bytes.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from pathlib import Path

from .candidate_tree import CandidateTree
from .graph import Graph, load_graph
from .plan import QueryPlan
from .randgraph import powerlaw_graph

BENCHMARK_SEED = 1357
BENCHMARK_VERTICES = 3000
BENCHMARK_EXPONENT = 2.5
BENCHMARK_AVG_DEGREE = 10.0  # hub-heavy, like social-network benchmarks
BENCHMARK_LABELS = 11

QUERY_NAMES = tuple(f"q{i}" for i in range(9))


def data_path(name: str) -> Path:
    """Filesystem path of a bundled graph file (without extension)."""
    return Path(str(resources.files("submatch").joinpath("data", f"{name}.graph")))


@lru_cache(maxsize=None)
def worked_data() -> Graph:
    return load_graph(data_path("worked_data"))


@lru_cache(maxsize=None)
def worked_query() -> Graph:
    return load_graph(data_path("worked_query"))


@lru_cache(maxsize=None)
def benchmark_graph() -> Graph:
    return powerlaw_graph(
        BENCHMARK_VERTICES,
        BENCHMARK_EXPONENT,
        BENCHMARK_LABELS,
        BENCHMARK_SEED,
        avg_degree=BENCHMARK_AVG_DEGREE,
    )


@lru_cache(maxsize=None)
def benchmark_queries() -> dict[str, Graph]:
    return {name: load_graph(data_path(name)) for name in QUERY_NAMES}


def partition_example() -> tuple[CandidateTree, QueryPlan]:
    """Hand-built candidate tree with two root candidates and 7 tree walks.

    Query vertices 0..3: 0 is the root with children 1 and 2, vertex 3
    hangs below 1, and (1, 2) is the only non-tree edge. Data vertex ids
    run 1..10. Projecting the root part [1] keeps {3, 5} under vertex 1,
    {6, 8} under vertex 2, and {9, 10} under vertex 3; the workload
    counts at the root are 4 and 3.
    """
    plan = QueryPlan(parent=[None, 0, 0, 1], non_tree=[[], [2], [1], []], order=[0, 1, 2, 3])
    tree = CandidateTree(
        candidates=[[1, 2], [3, 4, 5], [6, 7, 8], [9, 10]],
        groups={
            (0, 1): {1: [3, 5], 2: [4]},
            (0, 2): {1: [6, 8], 2: [6, 7, 8]},
            (1, 3): {3: [9], 4: [9], 5: [10]},
            (1, 2): {3: [6], 4: [7], 5: [8]},
            (2, 1): {6: [3], 7: [4], 8: [5]},
        },
    )
    return tree, plan
