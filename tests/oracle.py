"""Brute-force ground truth for verification.

Everything here enumerates directly from the definitions and shares no
code with the candidate-tree index or the pipeline matcher. Hard size
guards keep oracle runtimes in test territory; these are limits, not
heuristics.
"""

from __future__ import annotations

from typing import Sequence

from submatch import Graph

MAX_QUERY_VERTICES = 8
MAX_DATA_VERTICES = 200
MAX_CANDIDATES_PER_VERTEX = 200


class OracleGuardError(RuntimeError):
    """Input exceeds the oracle's hard size limits."""


def brute_force_embeddings(query: Graph, data: Graph, order: Sequence[int]) -> list[tuple[int, ...]]:
    """All injective label- and edge-preserving mappings of query into data.

    Results are tuples aligned with `order` (position i maps order[i]),
    sorted ascending. Pure definition-level backtracking over data
    vertices; no index structure is consulted.
    """
    nq = query.num_vertices
    if nq > MAX_QUERY_VERTICES:
        raise OracleGuardError(f"query has {nq} vertices, oracle limit is {MAX_QUERY_VERTICES}")
    if data.num_vertices > MAX_DATA_VERTICES:
        raise OracleGuardError(f"data graph has {data.num_vertices} vertices, oracle limit is {MAX_DATA_VERTICES}")
    if sorted(order) != list(range(nq)):
        raise ValueError("order must be a permutation of the query vertices")

    results: list[tuple[int, ...]] = []
    mapping: list[int] = []
    used: set[int] = set()

    def extend(i: int) -> None:
        if i == nq:
            results.append(tuple(mapping))
            return
        u = order[i]
        for v in range(data.num_vertices):
            if data.labels[v] != query.labels[u] or v in used:
                continue
            ok = True
            for j in range(i):
                if order[j] in query.adj[u] and mapping[j] not in data.adj[v]:
                    ok = False
                    break
            if ok:
                mapping.append(v)
                used.add(v)
                extend(i + 1)
                mapping.pop()
                used.remove(v)

    extend(0)
    results.sort()
    return results


def brute_force_tree_walks(tree, plan) -> int:
    """Count root-to-leaves assignments that follow only tree adjacency.

    One candidate is chosen per query vertex, each linked to its parent's
    choice through the stored parent-to-child lists. Injectivity and
    non-tree edges are deliberately ignored; every complete assignment is
    visited and counted one by one.
    """
    if plan.num_vertices > MAX_QUERY_VERTICES:
        raise OracleGuardError(f"plan has {plan.num_vertices} vertices, oracle limit is {MAX_QUERY_VERTICES}")
    widest = max((len(c) for c in tree.candidates), default=0)
    if widest > MAX_CANDIDATES_PER_VERTEX:
        raise OracleGuardError(f"candidate set of size {widest} exceeds oracle limit {MAX_CANDIDATES_PER_VERTEX}")

    bfs = plan.bfs_order
    chosen: dict[int, int] = {}
    count = 0

    def extend(i: int) -> None:
        nonlocal count
        if i == len(bfs):
            count += 1
            return
        u = bfs[i]
        p = plan.parent[u]
        if p is None:
            pool = tree.candidates[u]
        else:
            pool = tree.groups.get((p, u), {}).get(chosen[p], ())
        for v in pool:
            chosen[u] = v
            extend(i + 1)
        chosen.pop(u, None)

    extend(0)
    return count
