import random

import submatch.candidate_tree
import submatch.plan
from submatch import (
    Graph,
    PartitionConfig,
    QueryPlan,
    SchedulerState,
    build_candidate_tree,
    build_query_plan,
    candidates_by_local_features,
    estimate_workload,
    host_match,
    partition_tree,
    run_job,
)
from submatch.candidate_tree import BASE_HEADER_BYTES, ENTRY_BYTES, LIST_HEADER_BYTES, CandidateTree, start_candidates

import helpers
from helpers import dump_tree, tree_metrics
from oracle import brute_force_tree_walks

WORKED_GOLDEN_DUMP = """\
C(0): 0 1
C(1): 3 5
C(2): 2 4 6
C(3): 8 9
N[0->1][0]: 3
N[0->1][1]: 5
N[0->2][0]: 2 6
N[0->2][1]: 4
N[1->2][3]: 2
N[1->2][5]: 4 6
N[2->1][2]: 3
N[2->1][4]: 5
N[2->1][6]: 5
N[2->3][2]: 8
N[2->3][4]: 9
N[2->3][6]: 9
"""


def worked_tree():
    data, query = helpers.worked_data(), helpers.worked_query()
    plan = build_query_plan(query, data)
    return build_candidate_tree(data, query, plan), plan


def test_worked_tree_reproduces_worked_example_sets():
    tree, _ = worked_tree()
    assert tree.candidates == [[0, 1], [3, 5], [2, 4, 6], [8, 9]]
    assert tree.groups[(0, 1)] == {0: [3], 1: [5]}
    assert tree.groups[(1, 2)][5] == [4, 6]
    assert tree.groups[(2, 3)][2] == [8]


def test_worked_golden_dump():
    tree, _ = worked_tree()
    assert dump_tree(tree) == WORKED_GOLDEN_DUMP


def test_worked_metrics_max_degree():
    tree, _ = worked_tree()
    assert tree_metrics(tree)[1] == 2


def test_absent_label_empties_all_candidate_sets():
    data = helpers.worked_data()
    # same shape as the bundled query but one label the data never uses
    query = Graph.from_edges([0, 9, 2, 3], [(0, 1), (0, 2), (1, 2), (2, 3)])
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    assert all(not c for c in tree.candidates)
    assert host_match(tree, plan) == []


def test_refinement_that_empties_one_set_empties_every_set():
    # path query 0-1-2-3; data a-b-c and b'-c'-d (a=0, b=1, c=2, b'=3, c'=4, d=5):
    # every start set is a singleton, but b and c' are not adjacent, so the
    # refinement stops at the first empty set and the fixpoint is empty
    data = Graph.from_edges([0, 1, 2, 1, 2, 3], [(0, 1), (1, 2), (3, 4), (4, 5)])
    query = Graph.from_edges([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
    plan = build_query_plan(query, data)
    assert start_candidates(data, query, plan) == [{0}, {1}, {4}, {5}]
    tree = build_candidate_tree(data, query, plan)
    assert tree.candidates == [[], [], [], []]
    assert all(not lists for lists in tree.groups.values())
    assert tree == helpers.reference_candidate_tree(data, query, plan)


def test_soundness_every_oracle_embedding_stays_in_candidates():
    for data, query, plan, expected in helpers.solvable_instances(40, 10_000, max_data=50):
        tree = build_candidate_tree(data, query, plan)
        for emb in expected:
            for pos, v in enumerate(emb):
                assert v in tree.candidates[plan.order[pos]]


def assert_refined_fixpoint(tree, plan):
    """Re-running refinement must remove nothing: no empty child list,
    no candidate without a surviving parent link, no stale entries."""
    cand_sets = [set(c) for c in tree.candidates]
    for u in range(plan.num_vertices):
        for c in plan.children[u]:
            lists = tree.groups.get((u, c), {})
            for v in tree.candidates[u]:
                row = lists.get(v, ())
                assert row, f"candidate {v} of {u} has empty list toward child {c}"
                assert all(w in cand_sets[c] for w in row)
        p = plan.parent[u]
        if p is not None:
            linked = set()
            for vp in tree.candidates[p]:
                linked.update(tree.groups.get((p, u), {}).get(vp, ()))
            assert cand_sets[u] <= linked


def test_refinement_is_idempotent():
    tree, plan = worked_tree()
    assert_refined_fixpoint(tree, plan)
    for data, query, plan, _ in helpers.solvable_instances(25, 11_000, max_data=50):
        assert_refined_fixpoint(build_candidate_tree(data, query, plan), plan)


def test_refinement_drops_candidates_orphaned_by_sibling_subtrees():
    # data vertex 1 matches the hub but has no label-3 neighbor, so it
    # dies bottom-up; vertices 2 and 3 were linked only through it and
    # must be dropped by the downward sweep rather than linger.
    data = Graph.from_edges(
        [0, 1, 2, 2, 1, 2, 3],
        [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (4, 6)],
    )
    query = Graph.from_edges([0, 1, 2, 3], [(0, 1), (1, 2), (1, 3)])
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    assert_refined_fixpoint(tree, plan)
    assert tree.candidates[1] == [4]
    assert tree.candidates[2] == [5]


def test_adjacency_entries_are_candidates_and_data_edges():
    for data, query, plan, _ in helpers.solvable_instances(10, 12_000, max_data=40):
        tree = build_candidate_tree(data, query, plan)
        cand_sets = [set(c) for c in tree.candidates]
        for (a, b), lists in tree.groups.items():
            for v, row in lists.items():
                assert v in cand_sets[a]
                assert row == sorted(row)
                for w in row:
                    assert w in cand_sets[b]
                    assert helpers.has_edge(data, v, w)


def test_workload_fixture_totals_seven():
    # the plan from its three given tables derives the rest
    tree, _ = helpers.partition_example()
    plan = QueryPlan([None, 0, 0, 1], [[], [2], [1], []], [0, 1, 2, 3])
    assert (plan.root, plan.children, plan.bfs_order) == (0, ((1, 2), (3,), (), ()), (0, 1, 2, 3))
    assert estimate_workload(tree, plan) == brute_force_tree_walks(tree, plan) == 7
    assert [estimate_workload(helpers.reference_project_tree(tree, plan, 0, [v]), plan) for v in (1, 2)] == [4, 3]


def test_workload_all_singleton_lists_counts_roots():
    plan_q = Graph.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    data = Graph.from_edges([0, 1, 2, 0, 1, 2], [(0, 1), (1, 2), (3, 4), (4, 5)])
    plan = build_query_plan(plan_q, data)
    tree = build_candidate_tree(data, plan_q, plan)
    assert all(len(row) == 1 for lists in tree.groups.values() for row in lists.values())
    assert estimate_workload(tree, plan) == len(tree.candidates[plan.root])


def test_workload_matches_exhaustive_tree_walks():
    for data, query, plan, _ in helpers.solvable_instances(30, 13_000, max_data=40):
        tree = build_candidate_tree(data, query, plan)
        assert estimate_workload(tree, plan) == brute_force_tree_walks(tree, plan)


def test_workload_bounds_true_embedding_count_from_above():
    # ignoring injectivity and non-tree edges only ever adds walks
    for data, query, plan, expected in helpers.solvable_instances(15, 15_000, max_data=40):
        tree = build_candidate_tree(data, query, plan)
        assert estimate_workload(tree, plan) >= len(expected)


def test_metrics_recount_matches_cached_and_independent_formula():
    for data, query, plan, _ in helpers.solvable_instances(10, 14_000, max_data=40):
        tree = build_candidate_tree(data, query, plan)
        size, degree = tree_metrics(tree)
        assert (size, degree) == (tree.size_bytes, tree.max_degree)
        expected = BASE_HEADER_BYTES
        lengths = []
        for cand in tree.candidates:
            expected += LIST_HEADER_BYTES + ENTRY_BYTES * len(cand)
        for lists in tree.groups.values():
            for row in lists.values():
                expected += LIST_HEADER_BYTES + ENTRY_BYTES * len(row)
                lengths.append(len(row))
        assert size == expected
        assert degree == (max(lengths) if lengths else 0)


def test_metrics_of_empty_tree():
    empty = CandidateTree([[], []], {(0, 1): {}})
    size, degree = tree_metrics(empty)
    assert degree == 0
    assert size == BASE_HEADER_BYTES + 2 * LIST_HEADER_BYTES


def test_a_tree_built_from_its_sets_and_groups_is_the_builders_tree():
    # the constructor derives size and degree, so a tree made directly is
    # budgeted and split as the built one is
    tree, plan = helpers.partition_example()
    direct = CandidateTree(tree.candidates, tree.groups)
    assert (direct.size_bytes, direct.max_degree) == (tree.size_bytes, tree.max_degree) == (260, 3)
    assert direct == tree
    emitted = []
    partition_tree(direct, plan, 0, PartitionConfig(size_budget=200, degree_budget=2, port_limit=2), emitted.append)
    assert [(t.size_bytes, t.max_degree) for t in emitted] == [(180, 2), (124, 1)]


def test_rebuilding_a_tree_from_its_sets_and_groups_derives_the_same_facts():
    for _, _, _, tree, _ in helpers.built_instances(30, 28_500, max_data=40):
        rebuilt = CandidateTree(tree.candidates, tree.groups)
        assert rebuilt == tree
        assert rebuilt.group_metrics == tree.group_metrics
        assert rebuilt.disjoint == tree.disjoint
        assert tree_metrics(tree) == (rebuilt.size_bytes, rebuilt.max_degree) == (tree.size_bytes, tree.max_degree)


def test_stored_lists_are_sorted_nonempty_and_within_candidates():
    # the invariant projections rely on to share and restrict stored lists
    trees = [tree for _, _, _, tree, _ in helpers.built_instances(20, 24_000, max_data=40)]
    data = helpers.benchmark_graph()
    for name in ("q3", "q7", "q8"):
        query = helpers.benchmark_queries()[name]
        trees.append(build_candidate_tree(data, query, build_query_plan(query, data)))
    for tree in trees:
        for (a, b), lists in tree.groups.items():
            cand_a, cand_b = set(tree.candidates[a]), set(tree.candidates[b])
            for v, row in lists.items():
                assert v in cand_a
                assert row and row == sorted(set(row)) and set(row) <= cand_b


def test_index_equals_naive_fixpoint_reference():
    # maximality as well as soundness: refinement keeps every candidate
    # the naive fixpoint keeps, and every group is adj ∩ target, keys ascending
    data = helpers.worked_data()
    instances = [
        (data, helpers.worked_query()),
        (data, Graph.from_edges([2], [])),
        (data, Graph.from_edges([0, 9, 2, 3], [(0, 1), (0, 2), (1, 2), (2, 3)])),
    ]
    bench = helpers.benchmark_graph()
    instances += [(bench, query) for _, query in sorted(helpers.benchmark_queries().items())]
    instances += [(data, query) for data, query, _, _ in helpers.solvable_instances(40, 25_000, max_data=50)]
    for data, query in instances:
        plan = build_query_plan(query, data)
        tree = build_candidate_tree(data, query, plan)
        assert tree == helpers.reference_candidate_tree(data, query, plan)
        for lists in tree.groups.values():
            assert list(lists) == sorted(lists)


def test_neighbour_label_prefilter_shrinks_start_sets_and_keeps_the_index():
    # equality with the reference alone would also hold with a no-op
    # filter: the pre-filter must remove local candidates on some bundled
    # query, and never one that the refined index keeps
    data = helpers.benchmark_graph()
    shrunk = []
    for name, query in sorted(helpers.benchmark_queries().items()):
        plan = build_query_plan(query, data)
        tree = build_candidate_tree(data, query, plan)
        start = start_candidates(data, query)
        for u in range(query.num_vertices):
            local = set(candidates_by_local_features(data, query, u))
            assert set(tree.candidates[u]) <= start[u] <= local
            if start[u] < local:
                shrunk.append((name, u))
    assert shrunk


def test_index_on_a_shared_graph_equals_the_index_on_a_fresh_one():
    # no state leaks between jobs: each bundled query's tree, built after
    # the other eight have filled the graph's neighbour-label rows,
    # equals its tree on an unused copy of the graph
    bench = helpers.benchmark_graph()
    queries = sorted(helpers.benchmark_queries().items())
    for name, query in queries:
        shared, fresh = (Graph(bench.labels, bench.adj) for _ in range(2))
        for other_name, other in queries:
            if other_name != name:
                build_candidate_tree(shared, other, build_query_plan(other, shared))
        assert "neighbours_by_label" not in fresh.__dict__
        warm = build_candidate_tree(shared, query, build_query_plan(query, shared))
        cold = build_candidate_tree(fresh, query, build_query_plan(query, fresh))
        assert dump_tree(warm) == dump_tree(cold), name


def test_index_build_reuses_the_plans_local_filter(monkeypatch):
    calls = []

    def counted(data, query, u):
        calls.append(u)
        return candidates_by_local_features(data, query, u)

    monkeypatch.setattr(submatch.plan, "candidates_by_local_features", counted)
    monkeypatch.setattr(submatch.candidate_tree, "candidates_by_local_features", counted)
    data = helpers.benchmark_graph()
    for name, query in sorted(helpers.benchmark_queries().items()):
        calls.clear()
        run_job(data, query, PartitionConfig(), SchedulerState(), "share")
        assert sorted(calls) == list(range(query.num_vertices)), name


def test_plan_for_another_graph_or_query_does_not_lend_its_local_filter():
    # a plan is a valid order for any data graph and for any relabelling
    # of its query; its local-filter lists are not, so they are reused
    # only for the (query, data) pair the plan was built for
    rng = random.Random(71)
    for data, query, plan, _ in helpers.solvable_instances(20, 26_000, max_data=40):
        denser = helpers.add_random_edges(data, rng.randint(5, 20), rng)
        relabelled = Graph.from_edges([rng.choice(data.labels) for _ in query.labels], query.edges())
        for other_data, other_query in ((denser, query), (data, relabelled)):
            tree = build_candidate_tree(other_data, other_query, plan)
            assert tree == helpers.reference_candidate_tree(other_data, other_query, plan)
