import functools
import itertools
import random

import pytest

from submatch import (
    Graph,
    PartitionConfig,
    SchedulerState,
    build_candidate_tree,
    build_query_plan,
    estimate_workload,
    random_graph,
    run_job,
)

import helpers
from oracle import OracleGuardError, brute_force_embeddings, brute_force_tree_walks


def test_worked_embeddings():
    data, query = helpers.worked_data(), helpers.worked_query()
    plan = build_query_plan(query, data)
    assert brute_force_embeddings(query, data, plan.order) == [(0, 3, 2, 8), (1, 5, 4, 9)]


def test_query_larger_than_data_is_empty():
    data = Graph.from_edges([0, 0, 0], [(0, 1), (1, 2)])
    query = Graph.from_edges([0, 0, 0, 0], [(0, 1), (1, 2), (2, 3)])
    assert brute_force_embeddings(query, data, [0, 1, 2, 3]) == []


def exhaustive_tuple_oracle(query, data, order):
    """Recursion-free cross-check: filter all injective label tuples."""
    pools = [
        [v for v in range(data.num_vertices) if data.labels[v] == query.labels[u]]
        for u in order
    ]
    found = []
    for combo in itertools.product(*pools):
        if len(set(combo)) != len(combo):
            continue
        ok = True
        for i, j in itertools.combinations(range(len(order)), 2):
            if query.has_edge(order[i], order[j]) and not data.has_edge(combo[i], combo[j]):
                ok = False
                break
        if ok:
            found.append(tuple(combo))
    return sorted(found)


def test_double_oracle_cross_check():
    for data, query, plan, expected in helpers.solvable_instances(
        10, 60_000, max_data=25, max_query=4, max_embeddings=500
    ):
        assert exhaustive_tuple_oracle(query, data, plan.order) == expected


def test_permutation_invariance_under_relabeling():
    rng = random.Random(9)
    for data, query, plan, expected in helpers.solvable_instances(6, 61_000, max_data=30):
        perm = list(range(data.num_vertices))
        rng.shuffle(perm)
        inverse = [0] * len(perm)
        for old, new in enumerate(perm):
            inverse[new] = old
        relabeled = Graph.from_edges(
            [data.labels[inverse[v]] for v in range(data.num_vertices)],
            sorted(tuple(sorted((perm[a], perm[b]))) for a, b in data.edges()),
        )
        shuffled = brute_force_embeddings(query, relabeled, plan.order)
        unshuffled = sorted(tuple(inverse[v] for v in emb) for emb in shuffled)
        assert unshuffled == expected


def test_guards_refuse_oversized_inputs():
    big_data = random_graph(201, 0.01, 2, 1)
    query = Graph.from_edges([0, 0], [(0, 1)])
    with pytest.raises(OracleGuardError):
        brute_force_embeddings(query, big_data, [0, 1])
    big_query = Graph.from_edges([0] * 9, [(i, i + 1) for i in range(8)])
    small = random_graph(10, 0.2, 1, 2)
    with pytest.raises(OracleGuardError):
        brute_force_embeddings(big_query, small, list(range(9)))


def test_tree_walks_fixture_is_seven():
    tree, plan = helpers.partition_example()
    assert brute_force_tree_walks(tree, plan) == 7


def test_tree_walks_singleton_lists_counts_roots():
    tree, plan = helpers.partition_example()
    sub = helpers.reference_project_tree(tree, plan, 0, [2])  # all lists below the root are short
    assert brute_force_tree_walks(sub, plan) == estimate_workload(sub, plan) == 3


def test_tree_walks_match_dp_on_random_trees():
    for data, query, plan, _ in helpers.solvable_instances(20, 62_000, max_data=35):
        tree = build_candidate_tree(data, query, plan)
        assert brute_force_tree_walks(tree, plan) == estimate_workload(tree, plan)


def test_order_must_be_permutation():
    data, query = helpers.worked_data(), helpers.worked_query()
    with pytest.raises(ValueError):
        brute_force_embeddings(query, data, [0, 0, 1, 2])


@functools.cache
def _networkx_graph(graph):
    nx = pytest.importorskip("networkx")
    out = nx.Graph()
    out.add_nodes_from((v, {"label": label}) for v, label in enumerate(graph.labels))
    out.add_edges_from(graph.edges())
    return out


# q3 is left out: VF2 alone takes about as long on it as on the other eight together
@pytest.mark.parametrize("name", ["q0", "q1", "q2", "q4", "q5", "q6", "q7", "q8"])
def test_jobs_agree_with_networkx_vf2_on_the_benchmark_graph(name):
    # default budgets and delta 0.1: q2, q7 and q8 route trees to the host side
    isomorphism = pytest.importorskip("networkx.algorithms.isomorphism")
    data, query = helpers.benchmark_graph(), helpers.benchmark_queries()[name]
    embeddings, stats = run_job(data, query, PartitionConfig(), SchedulerState(0.1), "share")
    assert stats.host_trees > 0 or name not in ("q2", "q7", "q8")
    order = build_query_plan(query, data).order
    matcher = isomorphism.GraphMatcher(
        _networkx_graph(data),
        _networkx_graph(query),
        node_match=lambda a, b: a["label"] == b["label"],
    )
    expected = []
    for mapping in matcher.subgraph_monomorphisms_iter():
        image = {u: v for v, u in mapping.items()}
        expected.append(tuple(image[u] for u in order))
    assert embeddings == sorted(expected)
