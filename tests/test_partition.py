import random

import pytest

from submatch import (
    PartitionConfig,
    UnsplittableTreeError,
    build_candidate_tree,
    build_query_plan,
    partition_factor,
    partition_tree,
    project_tree,
    within_budgets,
)
from submatch import Graph
import submatch.partition

import helpers
from helpers import dump_tree, tree_metrics
from oracle import brute_force_embeddings


def test_factor_ratio_rule():
    tree, _ = helpers.partition_example()
    # size exactly twice the budget, degree within its budget
    config = PartitionConfig(size_budget=-(-tree.size_bytes // 2), degree_budget=16)
    assert partition_factor(tree, config, 0) == 2


def test_factor_is_one_within_budgets():
    tree, _ = helpers.partition_example()
    config = PartitionConfig()
    assert partition_factor(tree, config, 0) == 1


def test_factor_fixed_k_overrides_the_ratio_up_to_the_candidates():
    tree, _ = helpers.partition_example()
    assert len(tree.candidates[0]) == 2 and len(tree.candidates[2]) == 3
    assert [partition_factor(tree, PartitionConfig(fixed_k=k), u) for k in (2, 3, 5) for u in (0, 2)] == [2, 2, 2, 3, 2, 3]


def test_factor_matches_direct_formula_on_random_budgets():
    rng = random.Random(8)
    for data, query, plan, _ in helpers.solvable_instances(10, 20_000, max_data=40):
        tree = build_candidate_tree(data, query, plan)
        for _ in range(5):
            config = PartitionConfig(
                size_budget=rng.randint(17, max(18, tree.size_bytes * 2)),
                degree_budget=rng.randint(1, 16),
            )
            u = rng.choice(range(plan.num_vertices))
            expected = max(
                -(-tree.size_bytes // config.size_budget),
                -(-tree.max_degree // config.degree_budget),
                1,
            )
            expected = max(1, min(expected, len(tree.candidates[u])))
            assert partition_factor(tree, config, u) == expected


def test_project_fixture_reaches_example_sets():
    tree, plan = helpers.partition_example()
    part_a = helpers.reference_project_tree(tree, plan, 0, [1])
    assert part_a.candidates == [{1}, {3, 5}, {6, 8}, {9, 10}]
    part_b = helpers.reference_project_tree(tree, plan, 0, [2])
    assert part_b.candidates == [{2}, {4}, {6, 7, 8}, {9}]
    # at its fixpoint the second chunk loses 6 and 8: neither has a partner in C(1) = {4}
    assert [project_tree(tree, 0, {v}).candidates for v in (1, 2)] == [part_a.candidates, [{2}, {4}, {7}, {9}]]


def test_project_full_part_is_identity():
    tree, plan = helpers.partition_example()
    assert helpers.reference_project_tree(tree, plan, 0, tree.candidates[0]) == tree
    assert project_tree(tree, 0, set(tree.candidates[0])) == tree
    data, query = helpers.worked_data(), helpers.worked_query()
    qplan = build_query_plan(query, data)
    qtree = build_candidate_tree(data, query, qplan)
    assert helpers.reference_project_tree(qtree, qplan, qplan.root, qtree.candidates[qplan.root]) == qtree
    assert project_tree(qtree, qplan.root, set(qtree.candidates[qplan.root])) == qtree


def test_project_singletons_cover_and_restrict():
    for data, query, plan, _ in helpers.solvable_instances(8, 21_000, max_data=35):
        tree = build_candidate_tree(data, query, plan)
        u = plan.root
        if not tree.candidates[u]:
            continue
        union: dict[int, set] = {w: set() for w in range(plan.num_vertices)}
        for v in tree.candidates[u]:
            sub = helpers.reference_project_tree(tree, plan, u, [v])
            chunk = project_tree(tree, u, {v})  # the projection at its fixpoint lies inside it
            assert chunk is None or all(set(c) <= set(s) for c, s in zip(chunk.candidates, sub.candidates))
            for w in range(plan.num_vertices):
                sub_set = set(sub.candidates[w])
                union[w] |= sub_set
                assert sub_set <= set(tree.candidates[w])
                for key, lists in sub.groups.items():
                    for vv, row in lists.items():
                        assert set(row) <= set(tree.groups[key].get(vv, ()))
        for w in range(plan.num_vertices):
            if plan.position[w] > plan.position[u]:
                # every refined candidate survives in at least one part:
                # its parent-link chain reaches some root candidate
                assert union[w] == set(tree.candidates[w])


def test_project_keeps_a_candidate_linked_only_through_a_non_tree_neighbour():
    # candidate 16 of vertex 1 is reachable only through the non-tree link from 2
    tree, plan = cycle_example([11, 14])
    sub = helpers.reference_project_tree(tree, plan, 0, [10])
    assert sub.candidates[3] == {13}
    assert sub.candidates[2] == {12}  # 15 has no link to the retained 13
    assert sub.candidates[1] == {11, 14, 16}  # 16 retained via its non-tree link
    assert sub.groups[(1, 2)] == {11: [12], 16: [12]}


def cycle_example(row_of_10):
    """A hand-built tree and plan of the cycle query 0-1-2-3, with `row_of_10` as 10's row toward vertex 1.

    The plan is parent-first, with tree edges 0-1, 0-3 and 3-2 and the
    non-tree edge 1-2.
    """
    from submatch.plan import QueryPlan
    from submatch.candidate_tree import CandidateTree

    plan = QueryPlan(parent=[None, 0, 3, 0], non_tree=[[], [2], [1], []], order=[0, 3, 2, 1])
    tree = CandidateTree(
        candidates=[{10}, {11, 14, 16}, {12, 15}, {13}],
        groups={
            (0, 1): {10: row_of_10},
            (0, 3): {10: [13]},
            (3, 2): {13: [12]},
            (1, 2): {11: [12], 14: [15], 16: [12]},
            (2, 1): {12: [11, 16], 15: [14]},
        },
    )
    return tree, plan


def test_partition_noop_when_within_budgets():
    tree, plan = helpers.partition_example()
    emitted = []
    count = partition_tree(tree, plan, 0, PartitionConfig(), emitted.append)
    assert count == 1 and emitted == [tree]


def collect_partitions(tree, plan, config):
    parts = []
    count = partition_tree(tree, plan, 0, config, parts.append)
    assert count == len(parts)
    return parts


def test_partitions_are_disjoint_complete_and_within_budgets():
    checked = 0
    for data, query, plan, expected in helpers.solvable_instances(40, 22_000, max_data=45):
        tree = build_candidate_tree(data, query, plan)
        if tree.size_bytes <= 64:
            continue
        config = PartitionConfig(size_budget=max(65, tree.size_bytes // 3), degree_budget=8, port_limit=16)
        try:
            parts = collect_partitions(tree, plan, config)
        except UnsplittableTreeError:
            continue
        whole = helpers.reference_tree_matches(tree, plan)
        pieces = []
        for part in parts:
            size, degree = tree_metrics(part)
            assert size <= config.size_budget
            assert degree <= config.degree_budget
            pieces.extend(helpers.reference_tree_matches(part, plan))
        assert len(pieces) == len(set(pieces)), "partitions overlap"
        assert sorted(pieces) == whole
        checked += 1
    assert checked >= 20


def test_partitions_carry_group_metrics_sums_and_disjointness():
    """Every tree partition_tree emits or splits carries what a recount from its lists gives."""
    rng = random.Random(23)
    trees = disjoint = 0
    for data, query, plan, _ in helpers.solvable_instances(30, 27_000, max_data=45):
        root = build_candidate_tree(data, query, plan)
        for _ in range(3):
            config = PartitionConfig(
                size_budget=rng.randint(max(17, root.size_bytes // 4), max(18, root.size_bytes * 2)),
                degree_budget=rng.randint(1, 8),
                fixed_k=rng.choice([None, None, 2, 3]),
            )
            try:
                _, calls = helpers.partition_calls(root, plan, config)
            except UnsplittableTreeError:
                continue
            for tree in calls:
                assert helpers.carries_its_facts(tree, root)
            trees += len(calls)
            disjoint += root.disjoint * len(calls)
    assert trees >= 1000 and 0 < disjoint < trees


def test_unsplittable_chain_reports_size_budget():
    # two-vertex query over a two-vertex data graph: every candidate set is
    # a singleton, so only the byte budget can force a split and it never can
    data = Graph.from_edges([0, 1], [(0, 1)])
    query = Graph.from_edges([0, 1], [(0, 1)])
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    config = PartitionConfig(size_budget=17, degree_budget=16)
    with pytest.raises(UnsplittableTreeError, match=f"a tree of {tree.size_bytes} bytes is over the size budget of 17 bytes"):
        partition_tree(tree, plan, 0, config, lambda part: None)


def test_empty_tree_over_budget_emits_nothing():
    data = helpers.worked_data()
    query = Graph.from_edges([0, 9, 2, 3], [(0, 1), (0, 2), (1, 2), (2, 3)])
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    assert any(not c for c in tree.candidates)
    config = PartitionConfig(size_budget=17)
    assert partition_tree(tree, plan, 0, config, lambda part: None) == 0


def test_fixed_k_splits_into_k_parts():
    tree, plan = helpers.partition_example()
    config = PartitionConfig(size_budget=tree.size_bytes - 1, fixed_k=2)
    parts = collect_partitions(tree, plan, config)
    assert len(parts) == 2
    assert parts[0].candidates[0] == {1}
    assert parts[1].candidates[0] == {2}


def test_fixed_k_cuts_contiguous_chunks_of_the_ascending_set():
    tree, plan = helpers.hash_order_example()
    assert list(tree.candidates[0]) == [64, 1, 33]
    config = PartitionConfig(size_budget=tree.size_bytes - 1, fixed_k=2)
    assert [part.candidates[0] for part in collect_partitions(tree, plan, config)] == [{1, 33}, {64}]


def test_a_chunk_holds_the_fixpoint_sets_themselves():
    # the part and the sets the fixpoint shrank are the chunk's own; the unchanged set is the parent's object
    tree, plan = helpers.partition_example()
    part = {1}
    chunk = project_tree(tree, 0, part)
    assert chunk.candidates == [{1}, {3, 5}, {6, 8}, {9, 10}]
    assert chunk.candidates[0] is part
    assert chunk.candidates[3] is tree.candidates[3]
    assert all(type(c) is set for c in chunk.candidates)


def test_config_validation():
    with pytest.raises(ValueError):
        PartitionConfig(degree_budget=0)
    with pytest.raises(ValueError):
        PartitionConfig(degree_budget=32, port_limit=16)
    with pytest.raises(ValueError):
        PartitionConfig(size_budget=16)
    with pytest.raises(ValueError):
        PartitionConfig(fixed_k=1)


@pytest.mark.parametrize(
    "budgets",
    [
        {"degree_budget": 15.5},
        {"fixed_k": 2.5},
        {"degree_budget": "16"},
        {"size_budget": 262_144.0},
        {"port_limit": None},
        {"fixed_k": "auto"},
    ],
)
def test_config_rejects_a_value_that_is_not_an_int(budgets):
    """Checked before any comparison, so a float or a string is a ValueError, not a later TypeError."""
    with pytest.raises(ValueError, match="holds a non-int value"):
        PartitionConfig(**budgets)


def test_within_budgets_matches_metrics():
    tree, _ = helpers.partition_example()
    assert within_budgets(tree, PartitionConfig())
    assert not within_budgets(tree, PartitionConfig(size_budget=tree.size_bytes - 1))


def assert_partitions_match_reference(tree, plan, config, skipped=None):
    """partition_tree emits, in order, exactly the reference's trees."""
    emitted = []
    try:
        count = partition_tree(tree, plan, 0, config, emitted.append)
    except UnsplittableTreeError:
        with pytest.raises(UnsplittableTreeError):
            helpers.reference_partitions(tree, plan, 0, config)
        return 0
    expected = helpers.reference_partitions(tree, plan, 0, config, skipped)
    assert count == len(emitted) == len(expected)
    for got, want in zip(emitted, expected):
        assert got == want
        assert dump_tree(got) == dump_tree(want)
        assert (got.size_bytes, got.max_degree) == tree_metrics(got)
    return count


def test_partitions_match_reference_on_fixtures():
    tree, plan = helpers.partition_example()
    for config in (
        PartitionConfig(size_budget=tree.size_bytes - 1),
        PartitionConfig(size_budget=tree.size_bytes - 1, fixed_k=2),
        PartitionConfig(size_budget=150, degree_budget=2, fixed_k=3),
        PartitionConfig(degree_budget=1),
    ):
        assert assert_partitions_match_reference(tree, plan, config) >= 2
    data, query = helpers.worked_data(), helpers.worked_query()
    qplan = build_query_plan(query, data)
    qtree = build_candidate_tree(data, query, qplan)
    for budget in range(40, qtree.size_bytes, 8):
        for fixed_k in (None, 2, 3):
            config = PartitionConfig(size_budget=budget, degree_budget=1, fixed_k=fixed_k)
            assert_partitions_match_reference(qtree, qplan, config)


@pytest.mark.parametrize("name", ["q0", "q2", "q3", "q7", "q8"])
def test_partitions_match_reference_on_benchmark_queries(name):
    data = helpers.benchmark_graph()
    query = helpers.benchmark_queries()[name]
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    skipped = []
    # more than one tree means real splits; a skipped vertex means the skip rule ran.
    # Refined, every chunk of q8 fits the default budgets before any vertex needs
    # skipping, so q8 is also split under a tighter degree budget, which reaches the rule.
    configs = [PartitionConfig()] + ([PartitionConfig(degree_budget=8)] if name == "q8" else [])
    for config in configs:
        assert assert_partitions_match_reference(tree, plan, config, skipped) > 1
    assert skipped


def test_partitions_match_reference_on_random_budgets():
    rng = random.Random(31)
    split = 0
    skipped = []
    for data, query, plan, _ in helpers.solvable_instances(30, 23_000, max_data=45):
        tree = build_candidate_tree(data, query, plan)
        for _ in range(3):
            config = PartitionConfig(
                size_budget=rng.randint(max(17, tree.size_bytes // 8), max(18, tree.size_bytes)),
                degree_budget=rng.randint(1, 8),
                fixed_k=rng.choice([None, None, 2, 3, 5]),
            )
            split += assert_partitions_match_reference(tree, plan, config, skipped) > 1
    assert split >= 30
    assert len(skipped) >= 100


def assert_refined_partitions_sound(tree, plan, config, expected):
    """Emitted trees have no empty set, sit at their fixpoint, fit both budgets and hold `expected` once each."""
    parts = collect_partitions(tree, plan, config)
    pieces = []
    for part in parts:
        assert all(part.candidates)
        assert helpers.reference_refine_tree(part) == part
        size, degree = tree_metrics(part)
        assert size <= config.size_budget and degree <= config.degree_budget
        pieces.extend(helpers.reference_tree_matches(part, plan))
    assert len(pieces) == len(set(pieces)), "partitions overlap"
    assert sorted(pieces) == expected
    return len(parts)


@pytest.mark.parametrize("name", ["q0", "q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8"])
def test_refined_partitions_on_benchmark_queries(name):
    data = helpers.benchmark_graph()
    query = helpers.benchmark_queries()[name]
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    assert_refined_partitions_sound(tree, plan, PartitionConfig(), helpers.reference_tree_matches(tree, plan))


def test_refined_partitions_on_random_budgets():
    rng = random.Random(59)
    checked = 0
    for data, query, plan, expected in helpers.solvable_instances(80, 26_000, max_data=45):
        tree = build_candidate_tree(data, query, plan)
        config = PartitionConfig(
            size_budget=rng.randint(max(17, tree.size_bytes // 8), max(18, tree.size_bytes)),
            degree_budget=rng.randint(1, 8),
            fixed_k=rng.choice([None, None, 2, 3]),
        )
        try:
            assert_refined_partitions_sound(tree, plan, config, expected)
        except UnsplittableTreeError:
            continue
        checked += 1
    assert checked >= 70


def test_tree_query_chunks_are_refined():
    """A tree query's chunks are taken to their fixpoint, as a cyclic query's are.

    On this 5-vertex tree query (the 97th of solvable_instances(200,
    26_000, max_data=45)) the skip rule leaves order vertex 1 unsplit,
    and a later cut leaves some of its candidates with no partner: 47
    of the 144 trees were projected chunks that kept such candidates.
    """
    data, query = helpers.make_instance(26_097, max_data=45)
    plan = build_query_plan(query, data)
    assert plan.num_vertices == 5 and not any(plan.non_tree)
    tree = build_candidate_tree(data, query, plan)
    expected = brute_force_embeddings(query, data, plan.order)
    assert len(expected) == 768
    config = PartitionConfig(size_budget=1328, degree_budget=4, fixed_k=3)
    assert assert_refined_partitions_sound(tree, plan, config, expected) == 144


def test_skipped_vertex_has_no_chunk_within_degree_budget(monkeypatch):
    """The skip rule agrees with the projected floor, and a skipped vertex has no candidate that fits.

    At every call whose tree is over budget, partition.skips equals
    the reference rule, which builds the floor from scratch. Projection
    is monotone in the part, so every chunk containing a candidate v of
    a skipped vertex contains v's single-candidate projection: no chunk
    of the skipped split could have been emitted.
    """
    calls = []
    original = submatch.partition.partition_tree

    def recording(tree, plan, index, config, sink):
        calls.append((tree, index))
        return original(tree, plan, index, config, sink)

    monkeypatch.setattr(submatch.partition, "partition_tree", recording)
    rng = random.Random(47)
    skips = decided = 0
    for data, query, plan, _ in helpers.solvable_instances(30, 24_000, max_data=45):
        tree = build_candidate_tree(data, query, plan)
        for _ in range(4):
            config = PartitionConfig(
                size_budget=rng.randint(max(17, tree.size_bytes // 4), max(18, tree.size_bytes * 2)),
                degree_budget=rng.randint(1, 8),
                fixed_k=rng.choice([None, None, 2, 3]),
            )
            calls.clear()
            try:
                recording(tree, plan, 0, config, lambda part: None)
            except UnsplittableTreeError:
                continue
            for parent, index in calls:
                if all(parent.candidates) and not within_budgets(parent, config) and index < plan.num_vertices:
                    skipped = submatch.partition.skips(parent, plan, index, config)
                    assert skipped == helpers.reference_skips(parent, plan, index, config)
                    decided += 1
            # Only a skip or a singleton C(u) passes the same tree object on, at the next order position.
            for (parent, index), (child, child_index) in zip(calls, calls[1:]):
                if child is not parent:
                    continue
                assert child_index == index + 1
                u = plan.order[index]
                if len(parent.candidates[u]) == 1:
                    continue
                assert submatch.partition.skips(parent, plan, index, config)
                for v in parent.candidates[u]:
                    assert helpers.reference_project_tree(parent, plan, u, [v]).max_degree > config.degree_budget
                skips += 1
    assert skips >= 100 and decided > 2 * skips


def test_singleton_vertex_passes_its_tree_on_unprojected(monkeypatch):
    """An over-budget tree whose C(u) is one candidate goes on to index + 1 as the same object.

    The partition example cut to root part [1] has lists of length 2,
    over a degree budget of 1, and is not skipped at the root: Z(0)
    holds every vertex. No chunk is projected at the root, and the
    emitted trees are the reference splitter's.
    """
    example, plan = helpers.partition_example()
    tree = project_tree(example, 0, {1})
    config = PartitionConfig(degree_budget=1)
    assert tree.candidates[0] == {1} and not within_budgets(tree, config)
    assert not submatch.partition.skips(tree, plan, 0, config)
    original_partition, original_project = submatch.partition.partition_tree, submatch.partition.project_tree
    calls, projected = [], []

    def recording(tree, plan, index, config, sink):
        calls.append((tree, index))
        return original_partition(tree, plan, index, config, sink)

    def projecting(tree, u, part_set):
        projected.append(u)
        return original_project(tree, u, part_set)

    monkeypatch.setattr(submatch.partition, "partition_tree", recording)
    monkeypatch.setattr(submatch.partition, "project_tree", projecting)
    emitted = []
    assert recording(tree, plan, 0, config, emitted.append) == 2
    assert calls[1][0] is tree and calls[1][1] == 1
    assert projected and plan.order[0] not in projected
    assert emitted == helpers.reference_partitions(tree, plan, 0, config)


def test_skip_rule_reads_an_earlier_non_tree_neighbour():
    """The skip rule on a vertex whose earlier neighbours are its tree parent and a non-tree neighbour.

    The plan and tree of
    test_project_keeps_a_candidate_linked_only_through_a_non_tree_neighbour,
    taken to their fixpoint, and the same tree with 16 also linked from
    10, so 1 keeps two candidates. In the second, Z(3) = {3, 2} and
    Z(2) = {2} leave group (0, 1) whole, and its degree 2 decides a skip
    at degree budget 1.
    """
    skips = []
    for row_of_10 in ([11, 14], [11, 14, 16]):
        tree, plan = cycle_example(row_of_10)
        tree = helpers.reference_refine_tree(tree)
        for degree_budget in (1, 2):
            for size_budget in (tree.size_bytes - 1, tree.size_bytes):
                config = PartitionConfig(size_budget=size_budget, degree_budget=degree_budget)
                for index, u in enumerate(plan.order):
                    skipped = submatch.partition.skips(tree, plan, index, config)
                    assert skipped == helpers.reference_skips(tree, plan, index, config)
                    if skipped:
                        skips.append((tree.candidates[1], degree_budget, size_budget - tree.size_bytes, u))
    assert skips == [({11, 16}, 1, 0, 3), ({11, 16}, 1, 0, 2)]


def assert_projections_share_unchanged(monkeypatch, tree, plan, config):
    """Every chunk made while partitioning reuses, by reference, what it left unchanged.

    Every chunk comes from partition.project_tree. A vertex is
    unchanged when its candidate set keeps its size. Its list is the
    parent's object; a group between two unchanged vertices is the
    parent's object; a restricted group into an unchanged target keeps
    each surviving row as the parent's object. Returns how many groups
    and rows were checked by identity, and how many chunks.
    """
    original = submatch.partition.project_tree
    shared = {"groups": 0, "rows": 0, "chunks": 0}

    def projecting(parent, u, part_set):
        sub = original(parent, u, part_set)
        if sub is not None:
            shared["chunks"] += 1
            check(parent, sub)
        return sub

    def check(parent, sub):
        assert sub is not parent  # only a skip or a singleton C(u) passes its tree on unchanged
        same = [len(new) == len(old) for new, old in zip(sub.candidates, parent.candidates)]
        for w, unchanged in enumerate(same):
            if unchanged:
                assert sub.candidates[w] is parent.candidates[w]
        for (a, b), lists in sub.groups.items():
            parent_lists = parent.groups[(a, b)]
            if same[a] and same[b]:
                assert lists is parent_lists
                shared["groups"] += 1
            elif same[b]:
                for v, row in lists.items():
                    assert row is parent_lists[v]
                    shared["rows"] += 1
        return sub

    with monkeypatch.context() as patch:
        patch.setattr(submatch.partition, "project_tree", projecting)
        partition_tree(tree, plan, 0, config, lambda part: None)
    return shared


def test_projections_share_unchanged_groups_and_rows_on_fixture(monkeypatch):
    tree, plan = helpers.partition_example()
    total = {"groups": 0, "rows": 0, "chunks": 0}
    for config in (
        PartitionConfig(size_budget=tree.size_bytes - 1),
        PartitionConfig(size_budget=tree.size_bytes - 1, fixed_k=2),
        PartitionConfig(size_budget=150, degree_budget=2, fixed_k=3),
        PartitionConfig(degree_budget=1),
    ):
        for key, count in assert_projections_share_unchanged(monkeypatch, tree, plan, config).items():
            total[key] += count
    # The fixture is cyclic and every refined chunk of it shrinks all four sets, so no
    # group stays whole; q7 and q8 below cover whole groups on refined chunks.
    assert total["rows"] and total["chunks"]


@pytest.mark.parametrize("name", ["q3", "q7", "q8"])
def test_projections_share_unchanged_groups_and_rows_on_benchmark_queries(monkeypatch, name):
    data = helpers.benchmark_graph()
    query = helpers.benchmark_queries()[name]
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    # Refined chunks of q7 and q8 under the default budgets leave no target whole (q7)
    # or no set whole (q8); a tighter budget splits deeper, where chunks leave some whole.
    tighter = {"q7": PartitionConfig(size_budget=500), "q8": PartitionConfig(degree_budget=8)}
    shared = {"groups": 0, "rows": 0, "chunks": 0}
    for config in [PartitionConfig()] + ([tighter[name]] if name in tighter else []):
        for key, count in assert_projections_share_unchanged(monkeypatch, tree, plan, config).items():
            shared[key] += count
    # on the tree query q3 no chunk cuts a group whose target it leaves unchanged
    assert shared["groups"] and (shared["rows"] or name == "q3")
    assert shared["chunks"] > 0
