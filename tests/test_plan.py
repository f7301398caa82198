import gc
import json
import random
import weakref

import pytest

from submatch import (
    CycleModel,
    Graph,
    PartitionConfig,
    SchedulerState,
    build_candidate_tree,
    build_query_plan,
    host_match,
    pipeline_enumerate,
    powerlaw_graph,
    run_job,
    save_graph,
)
from submatch.cli import main
from submatch.plan import DisconnectedQueryError, QueryPlan

import helpers
from oracle import brute_force_embeddings


def tree_edges(plan):
    return {(p, u) for u, p in enumerate(plan.parent) if p is not None}


def test_worked_plan_matches_worked_example():
    plan = build_query_plan(helpers.worked_query(), helpers.worked_data())
    assert plan.root == 0
    assert tree_edges(plan) == {(0, 1), (0, 2), (2, 3)}
    assert plan.non_tree == ((), (2,), (1,), ())
    assert plan.order == (0, 1, 2, 3)


def test_triangle_query_has_one_non_tree_edge():
    triangle = Graph.from_edges([1, 1, 1], [(0, 1), (0, 2), (1, 2)])
    data = helpers.worked_data()
    plan = build_query_plan(triangle, data)
    assert len(tree_edges(plan)) == 2
    listed = sum(len(x) for x in plan.non_tree)
    assert listed == 2  # the single non-tree edge appears once per endpoint


def test_random_queries_have_tree_and_non_tree_counts():
    rng = random.Random(31)
    data, _ = helpers.make_instance(77)
    labels = sorted(set(data.labels))
    for _ in range(20):
        query = helpers.random_connected_query(6, rng.randint(0, 5), labels, rng)
        plan = build_query_plan(query, data)
        assert len(tree_edges(plan)) == query.num_vertices - 1
        # every non-tree edge shows up in exactly two neighbor lists
        non_tree_pairs = set()
        for u, others in enumerate(plan.non_tree):
            for w in others:
                non_tree_pairs.add((min(u, w), max(u, w)))
        assert 2 * len(non_tree_pairs) == sum(len(x) for x in plan.non_tree)
        assert len(non_tree_pairs) == query.num_edges - (query.num_vertices - 1)


def test_every_query_edge_is_tree_or_non_tree_once():
    for data, query, plan, _ in helpers.solvable_instances(6, 1800, max_data=30):
        tset = tree_edges(plan)
        for a, b in query.edges():
            is_tree = (a, b) in tset or (b, a) in tset
            is_non_tree = b in plan.non_tree[a]
            assert is_tree != is_non_tree


def test_order_is_connected_and_rooted():
    for data, query, plan, _ in helpers.solvable_instances(6, 2500, max_data=30):
        assert plan.order[0] == plan.root
        seen = set()
        for u in plan.order:
            if u != plan.root:
                assert any(helpers.has_edge(query, u, w) for w in seen)
            p = plan.parent[u]
            if p is not None:
                assert plan.position[p] < plan.position[u]
            seen.add(u)


@pytest.mark.parametrize(
    "parent, non_tree, order",
    [
        ([None, 0, 1, 0], [[], [], [3], [2]], [0, 3, 2, 1]),  # tree child 2 before its parent 1
        ([None, 0, 1], [[], [], []], [1, 0, 2]),  # the path 0-1-2, not started at its root
        ([None, None], [[], []], [0, 1]),  # two roots
    ],
)
def test_plan_rejects_an_order_that_is_not_parent_first(parent, non_tree, order):
    with pytest.raises(ValueError, match="is not parent-first at vertex"):
        QueryPlan(parent, non_tree, order)


@pytest.mark.parametrize(
    "parent, non_tree, order",
    [
        ([None, 0, 0], [[], [], []], [0, 1, 1]),  # vertex 2 missing, vertex 1 twice
        ([None, 0, 0], [[], [], []], [0, 1]),  # vertex 2 missing
        ([None, 0], [[], []], [0, 1, 1]),  # longer than parent
        ([None, 0, 1], [[], []], [0, 1, 2]),  # no non_tree list for vertex 2
    ],
)
def test_plan_rejects_an_order_or_non_tree_that_does_not_cover_every_vertex_once(parent, non_tree, order):
    with pytest.raises(ValueError, match="do not cover the .* vertices once"):
        QueryPlan(parent, non_tree, order)


@pytest.mark.parametrize(
    "parent, non_tree, order",
    [
        ([None, 5], [[], []], [0, 1]),  # parent past the last vertex
        ([None, -3], [[], []], [0, 1]),  # negative parent
        ([None, 0], [[7], []], [0, 1]),  # non-tree entry past the last vertex
    ],
)
def test_plan_rejects_a_parent_or_non_tree_entry_that_names_no_vertex(parent, non_tree, order):
    with pytest.raises(ValueError, match="names a vertex outside 0..1"):
        QueryPlan(parent, non_tree, order)


@pytest.mark.parametrize(
    "parent, non_tree, order",
    [
        ([None, 0], [[1], []], [0, 1]),  # the tree edge 0-1, at one end only
        ([None, 0, 0], [[2], [], []], [0, 1, 2]),  # the tree edge 0-2, at one end only
        ([None, 0, 0], [[1], [0], []], [0, 1, 2]),  # the tree edge 0-1, at both ends
        ([None, 0, 0], [[], [2], [1, 1]], [0, 1, 2]),  # the link 1-2 twice at vertex 2
        ([None, 0, 0], [[], [2], []], [0, 1, 2]),  # the link 1-2 at one end only
        ([None, 0, 0], [[], [1], []], [0, 1, 2]),  # a self-loop at vertex 1
    ],
)
def test_plan_rejects_a_non_tree_table_that_does_not_list_each_link_once_at_both_ends(parent, non_tree, order):
    with pytest.raises(ValueError, match="does not list each non-tree link once, on both sides"):
        QueryPlan(parent, non_tree, order)


@pytest.mark.parametrize(
    "parent, non_tree, order",
    [
        ([None, 0.0], [[], []], [0, 1]),  # a float parent
        ([None, 0], [[], []], [0.0, 1]),  # a float in the order
        ([None, 0, 0], [[], [2.0], [1]], [0, 1, 2]),  # a float non-tree entry
        ([None, 0], [[], []], [0, "1"]),  # a string in the order, which sorted() cannot compare
    ],
)
def test_plan_rejects_an_entry_that_is_not_an_int(parent, non_tree, order):
    with pytest.raises(ValueError, match="holds a non-int"):
        QueryPlan(parent, non_tree, order)


def test_plan_accepts_a_non_tree_link_listed_once_at_both_ends():
    plan = QueryPlan([None, 0, 0], [[], [2], [1]], [0, 1, 2])
    assert plan.non_tree == ((), (2,), (1,)) and plan.earlier_non_tree == ((), (), (1,))


def test_a_plan_keeps_no_graph_alive():
    # with the cyclic collector off, a graph dies only when nothing refers to it
    data, query = helpers.make_instance(3131)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        plan = build_query_plan(query, data)
        build_candidate_tree(data, query, plan)
        refs = [weakref.ref(data), weakref.ref(query)]
        del data, query
        assert [ref() for ref in refs] == [None, None]
    finally:
        if was_enabled:
            gc.enable()
    assert plan.num_vertices > 1


def test_disconnected_query_rejected():
    query = Graph.from_edges([0, 0, 1, 1], [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedQueryError):
        build_query_plan(query, helpers.worked_data())


def test_isolated_query_vertex_rejected_as_disconnected():
    # vertex 2 has degree 0; the root ratio must not divide by it first
    query = Graph.from_edges([0, 0, 1], [(0, 1)])
    with pytest.raises(DisconnectedQueryError):
        build_query_plan(query, helpers.worked_data())


def test_empty_query_rejected():
    with pytest.raises(ValueError, match="query graph has no vertices"):
        build_query_plan(Graph.from_edges([], []), helpers.worked_data())


def test_single_vertex_query_matches_each_label_class(tmp_path, capsys):
    data, _ = helpers.make_instance(4242)
    data_file = tmp_path / "data.graph"
    save_graph(data, data_file)
    split = PartitionConfig(size_budget=40)  # 16 + 8 + 4 bytes per candidate: more than 4 must split
    split_partitions = []
    for label in sorted(set(data.labels)) + [max(data.labels) + 1]:
        query = Graph.from_edges([label], [])
        plan = build_query_plan(query, data)
        assert (plan.root, plan.order, plan.parent) == (0, (0,), (None,))
        expected = brute_force_embeddings(query, data, plan.order)
        assert expected == [(v,) for v, l in enumerate(data.labels) if l == label]

        tree = build_candidate_tree(data, query, plan)
        assert host_match(tree, plan) == expected
        trace, buffer_stats = [], []
        found, results, edge_tasks = pipeline_enumerate(
            tree, plan, CycleModel(capacity=2), trace=trace, buffer_stats=buffer_stats
        )
        assert found == expected
        assert trace == [] and buffer_stats == [(0, 2)]
        assert results == edge_tasks == 0

        for config, delta in ((PartitionConfig(), 0.1), (split, 0.0), (split, 0.5)):
            embeddings, stats = run_job(data, query, config, SchedulerState(delta), "share")
            assert embeddings == expected
        split_partitions.append(stats.partitions)

        query_file = tmp_path / f"q{label}.graph"
        save_graph(query, query_file)
        assert main(["run", "--data", str(data_file), "--query", str(query_file)]) == 0
        assert json.loads(capsys.readouterr().out)["embeddings"] == len(expected)
    assert max(split_partitions) > 1


def test_plan_is_deterministic():
    data, query = helpers.make_instance(3131)
    assert build_query_plan(query, data) == build_query_plan(query, data)


def reference_tail_start(plan):
    """The definition: the smallest t <= n - 2 whose suffix order[t:] has
    every parent before t and no earlier non-tree neighbour, else n."""
    n = plan.num_vertices
    for t in range(1, n - 1):
        suffix = plan.order[t:]
        if all(plan.position[plan.parent[u]] < t and not plan.earlier_non_tree[u] for u in suffix):
            return t
    return n


def test_tail_start_matches_its_definition():
    starts = []
    for seed in range(300):
        data, query = helpers.make_instance(40_000 + seed, max_data=30, max_query=8)
        plan = build_query_plan(query, data)
        assert plan.tail_start == reference_tail_start(plan), seed
        starts.append(plan.tail_start < plan.num_vertices)
    assert any(starts) and not all(starts)
    _, plan = helpers.partition_example()
    assert plan.tail_start == 4  # vertex 2 checks a non-tree edge; vertex 3 hangs below vertex 1


def test_only_the_star_bench_queries_have_a_free_tail():
    graphs = {"3k": helpers.benchmark_graph(), "30k": powerlaw_graph(30000, 2.5, 11, 1357, avg_degree=10.0)}
    for graph_name, data in graphs.items():
        for name, query in helpers.benchmark_queries().items():
            plan = build_query_plan(query, data)
            expected = 1 if name in ("q0", "q3") else plan.num_vertices
            assert plan.tail_start == expected, (graph_name, name)
