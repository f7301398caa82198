"""Workloads, their seeded inputs, and the answer check.

Every workload matches bundled queries against one power-law data graph,
`powerlaw_graph(n, 2.5, 11, graph_seed, avg_degree=10.0)`. The run's
`--seed` draws a random relabelling of that graph's vertex ids, so each
seed is a different input to the program with the same answer up to the
relabelling. That keeps the work of one run nearly independent of the
seed (the partition chunks change, the embedding set does not), and it
lets the answer check run on every seed: embeddings are mapped back to
the reference graph's ids and compared with stored references.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import islice
from functools import partial
from operator import itemgetter, lt
from pathlib import Path

from submatch import Graph, PartitionConfig, load_graph, powerlaw_graph
from submatch.fixtures import QUERY_NAMES, data_path

EXPONENT = 2.5
LABELS = 11
AVG_DEGREE = 10.0
DELTA = 0.1
VARIANT = "share"

REFERENCES = Path(__file__).with_name("references.json")
DIGEST_MASK = (1 << 64) - 1
# The digest sums CPython's tuple hashes; they are fixed for int tuples
# (no hash randomisation) but the algorithm is an interpreter detail.
HASH_PROBE = ((1, 2), -3550055125485641917)


@dataclass(frozen=True)
class Workload:
    n: int
    queries: tuple[str, ...]
    unsplit: bool  # lift the degree budget to the data graph's max degree


WORKLOADS = {
    # Per-partition cost: degree budget 16 against hubs of degree ~550.
    "split-3k": Workload(3000, QUERY_NAMES, False),
    # Deep recursion against degree-2,738 hubs. q7 and q8 are left out: one
    # job of each takes 67-127 s on a 2-vCPU x86 VM, too long to repeat.
    "split-30k": Workload(30000, ("q1", "q4", "q5", "q6"), False),
    # One partition per query: kernel and merge bound, q3 has 5.15M answers.
    "unsplit-30k": Workload(30000, QUERY_NAMES, True),
}


@dataclass(frozen=True)
class Inputs:
    data: Graph
    queries: dict[str, Graph]
    base_id: list[int]  # data vertex id -> id in the unrelabelled graph
    config: PartitionConfig


def make_inputs(workload: Workload, seed: int, graph_seed: int) -> Inputs:
    """Generate the graph, relabel it by `seed`, and load the queries."""
    n = workload.n
    base = powerlaw_graph(n, EXPONENT, LABELS, graph_seed, avg_degree=AVG_DEGREE)
    new_id = list(range(n))
    random.Random(seed).shuffle(new_id)
    base_id = [0] * n
    labels = [0] * n
    for v, nv in enumerate(new_id):
        base_id[nv] = v
        labels[nv] = base.labels[v]
    data = Graph.from_edges(labels, [(new_id[a], new_id[b]) for a, b in base.edges()])
    if workload.unsplit:
        config = PartitionConfig(degree_budget=data.max_degree, port_limit=data.max_degree)
    else:
        config = PartitionConfig()
    queries = {name: load_graph(data_path(name)) for name in workload.queries}
    return Inputs(data, queries, base_id, config)


def answer_digest(embeddings: list[tuple[int, ...]], order: tuple[int, ...], base_id: list[int]) -> str:
    """Order-free digest of the embeddings in reference-graph ids.

    Each order-aligned tuple is re-indexed by query vertex and mapped back
    through the relabelling; the digest is the sum of the canonical
    tuples' hashes mod 2**64, so it needs no sorted copy of a large
    answer set and adds no memory beyond one tuple.
    """
    position = [0] * len(order)
    for i, u in enumerate(order):
        position[u] = i
    by_query_vertex = itemgetter(*position)
    to_base = partial(map, base_id.__getitem__)
    total = sum(map(hash, map(tuple, map(to_base, map(by_query_vertex, embeddings)))))
    return f"{total & DIGEST_MASK:016x}"


def strictly_sorted(embeddings: list[tuple[int, ...]]) -> bool:
    return all(map(lt, embeddings, islice(embeddings, 1, None)))


def load_references(graph_seed: int, n: int) -> dict[str, list] | None:
    """{query: [embedding count, digest]} for the graph, or None if unrecorded."""
    if hash(HASH_PROBE[0]) != HASH_PROBE[1]:
        raise RuntimeError("this interpreter's tuple hash differs from the one the references were made with")
    refs = json.loads(REFERENCES.read_text())
    return refs.get(str(graph_seed), {}).get(str(n))
