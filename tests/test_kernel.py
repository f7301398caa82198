import functools
import itertools
import math
import random

import pytest

from submatch import (
    CycleModel,
    Graph,
    build_candidate_tree,
    build_query_plan,
    cycle_estimate,
    pipeline_enumerate,
)
from submatch import kernel
from submatch.kernel import BufferOverflowError
from submatch import fixtures

import helpers
from helpers import ResultBuffer, VisitedTask, _Pending, generate_batch, synchronize, validate_edges, validate_visited


def partition_a():
    tree, plan = helpers.partition_example()
    return helpers.reference_project_tree(tree, plan, 0, [1]), plan


def seeded_buffer(plan, partials, capacity=1024):
    buf = ResultBuffer(plan.num_vertices - 1, capacity)
    for p in partials:
        buf.push(_Pending(tuple(p), 0), len(p))
    return buf


def test_generator_batch_matches_worked_example():
    tree, plan = partition_a()
    buf = seeded_buffer(plan, [(1, 3), (1, 5)])
    batch = generate_batch(buf, 2, tree, plan, 1024)
    assert batch.outputs == [(1, 3, 6), (1, 3, 8), (1, 5, 6), (1, 5, 8)]
    assert [(t.candidate, t.source) for t in batch.visited_tasks] == [(6, 0), (8, 0), (6, 1), (8, 1)]
    assert [t[:3] for t in batch.edge_tasks] == [(3, 6, 0), (3, 8, 1), (5, 6, 2), (5, 8, 3)]
    assert validate_visited(batch.visited_tasks, batch.sources) == [1, 1, 1, 1]
    assert validate_edges(tree, batch.edge_tasks, 4) == [1, 0, 0, 1]


def test_worked_example_synchronize_keeps_two_partials():
    tree, plan = partition_a()
    buf = seeded_buffer(plan, [(1, 3), (1, 5)])
    batch = generate_batch(buf, 2, tree, plan, 1024)
    batch.visited_bits = validate_visited(batch.visited_tasks, batch.sources)
    batch.edge_bits = validate_edges(tree, batch.edge_tasks, len(batch.outputs))
    matches = []
    accepted = synchronize(batch, buf, matches, 4)
    assert accepted == 2 and matches == []
    assert buf.occupancy(3) == 2


def test_no_edge_tasks_without_earlier_non_tree_neighbor():
    tree, plan = partition_a()
    buf = seeded_buffer(plan, [(1,)])
    batch = generate_batch(buf, 1, tree, plan, 1024)  # expands vertex 1: tree edge only
    assert batch.edge_tasks == []
    assert len(batch.visited_tasks) == len(batch.outputs) == 2


def test_task_counts_recount_on_random_batches():
    for data, query, plan, _ in helpers.solvable_instances(8, 30_000, max_data=35):
        tree = build_candidate_tree(data, query, plan)
        trace = []
        pipeline_enumerate(tree, plan, CycleModel(capacity=16), trace=trace)
        for row in trace:
            assert row.visited_tasks == row.outputs
            u = plan.order[row.depth]
            assert row.edge_tasks == row.outputs * len(plan.earlier_non_tree[u])


def test_capacity_break_returns_unconsumed_partial():
    tree, plan = partition_a()
    buf = seeded_buffer(plan, [(1, 3), (1, 5)], capacity=3)
    batch = generate_batch(buf, 2, tree, plan, 3)
    # second input would push the batch to 4 > 3; it stays queued
    assert batch.outputs == [(1, 3, 6), (1, 3, 8)]
    assert buf.occupancy(2) == 1
    assert buf.peek(2).partial == (1, 5)


def test_oversized_candidate_list_splits_with_continuation():
    # one root, one child vertex with five candidates, capacity two
    data = Graph.from_edges([0, 1, 1, 1, 1, 1], [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
    query = Graph.from_edges([0, 1], [(0, 1)])
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    buf = seeded_buffer(plan, [(0,)], capacity=2)
    batch = generate_batch(buf, 1, tree, plan, 2)
    assert batch.outputs == [(0, 1), (0, 2)]
    pending = buf.peek(1)
    assert pending.partial == (0,) and pending.offset == 2
    batch = generate_batch(buf, 1, tree, plan, 2)
    assert batch.outputs == [(0, 3), (0, 4)]
    batch = generate_batch(buf, 1, tree, plan, 2)
    assert batch.outputs == [(0, 5)]
    assert buf.deepest_nonempty() is None
    matches, results, _ = pipeline_enumerate(tree, plan, CycleModel(capacity=2))
    assert matches == [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]
    assert results == 5


def test_visited_validator_flags_revisits():
    assert validate_visited([VisitedTask(1, 0)], [(1, 3)]) == [0]
    assert validate_visited([VisitedTask(9, 0)], [(1, 3)]) == [1]


def test_edge_validator_empty_tasks_all_ones():
    tree, _ = partition_a()
    assert validate_edges(tree, [], 4) == [1, 1, 1, 1]


def test_edge_validator_matches_data_graph_oracle():
    for data, query, plan, _ in helpers.solvable_instances(6, 32_000, max_data=30):
        tree = build_candidate_tree(data, query, plan)
        buf = ResultBuffer(plan.num_vertices - 1, 1024)
        for v in tree.candidates[plan.root]:
            buf.push(_Pending((v,), 0), 1)
        while True:
            d = buf.deepest_nonempty()
            if d is None:
                break
            batch = generate_batch(buf, d, tree, plan, 1024)
            bits = validate_edges(tree, batch.edge_tasks, len(batch.outputs))
            expected = [1] * len(batch.outputs)
            for t in batch.edge_tasks:
                if not helpers.has_edge(data, t.neighbor_vertex, t.candidate):
                    expected[t.output] = 0
            assert bits == expected
            batch.visited_bits = validate_visited(batch.visited_tasks, batch.sources)
            batch.edge_bits = bits
            synchronize(batch, buf, [], plan.num_vertices)


def test_synchronize_rejects_everything_when_bits_zero():
    tree, plan = partition_a()
    buf = seeded_buffer(plan, [(1, 3)])
    batch = generate_batch(buf, 2, tree, plan, 1024)
    batch.visited_bits = [0] * len(batch.outputs)
    batch.edge_bits = [0] * len(batch.outputs)
    matches = []
    assert synchronize(batch, buf, matches, 4) == 0
    assert matches == [] and buf.occupancy(3) == 0


def test_synchronize_accepts_popcount_of_anded_bits():
    rng = random.Random(3)
    tree, plan = partition_a()
    for _ in range(20):
        buf = seeded_buffer(plan, [(1, 3), (1, 5)])
        batch = generate_batch(buf, 2, tree, plan, 1024)
        batch.visited_bits = [rng.randint(0, 1) for _ in batch.outputs]
        batch.edge_bits = [rng.randint(0, 1) for _ in batch.outputs]
        matches = []
        accepted = synchronize(batch, buf, matches, 4)
        assert accepted == sum(a & b for a, b in zip(batch.visited_bits, batch.edge_bits))


def test_chain_query_single_root_no_edge_tasks():
    data = Graph.from_edges([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
    query = Graph.from_edges([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    matches, results, edge_tasks = pipeline_enumerate(tree, plan, CycleModel(capacity=1024))
    assert len(matches) == 1
    assert edge_tasks == 0
    assert results == 3


def test_capacities_agree_with_oracle():
    for data, query, plan, expected in helpers.solvable_instances(12, 33_000, max_data=40):
        tree = build_candidate_tree(data, query, plan)
        for capacity in (1, 8, 1024):
            found, _, _ = pipeline_enumerate(tree, plan, CycleModel(capacity=capacity))
            assert found == expected


def test_buffer_bound_holds_even_at_capacity_one():
    for data, query, plan, expected in helpers.solvable_instances(6, 34_000, max_data=30):
        tree = build_candidate_tree(data, query, plan)
        for capacity in (1, 2, 7):
            buffer_stats = []
            matches, _, _ = pipeline_enumerate(tree, plan, CycleModel(capacity=capacity), buffer_stats=buffer_stats)
            assert matches == expected
            [(peak, bound)] = buffer_stats
            assert bound == capacity and peak <= capacity


def test_buffer_push_overflow_raises():
    buf = ResultBuffer(2, 2)
    buf.push(_Pending((1,), 0), 1)
    buf.push(_Pending((2,), 0), 1)
    with pytest.raises(BufferOverflowError):
        buf.push(_Pending((3,), 0), 1)


def test_buffer_bulk_extend_checks_bound_once():
    buf = ResultBuffer(2, 3)
    buf.extend([(1,), (2,)], 1)
    with pytest.raises(BufferOverflowError):
        buf.extend([(3,), (4,)], 1)
    assert buf.occupancy(1) == 2 and buf.max_occupancy == 2
    buf.extend([(3,)], 1)
    assert buf.max_occupancy == 3
    with pytest.raises(BufferOverflowError):
        buf.extend([(4,)], 1)
    with pytest.raises(ValueError):
        buf.push(_Pending((5,), 1), 2)  # only a level's front entry resumes mid-list


def _kernel_cases():
    yield "worked", helpers.worked_data(), helpers.worked_query()
    for i, (data, query, _, _) in enumerate(helpers.solvable_instances(20, 36_000, max_data=40)):
        yield f"random{i}", data, query
    data = helpers.benchmark_graph()
    for name, query in helpers.benchmark_queries().items():
        yield name, data, query


def _run_kernel(enumerate_fn, tree, plan, capacity):
    trace, buffer_stats = [], []
    return *enumerate_fn(tree, plan, CycleModel(capacity=capacity), trace=trace, buffer_stats=buffer_stats), trace, buffer_stats


@functools.lru_cache(maxsize=None)
def _kernel_trees():
    trees = [("partition", *helpers.partition_example()), ("partition_a", *partition_a())]
    for name, data, query in _kernel_cases():
        plan = build_query_plan(query, data)
        trees.append((name, build_candidate_tree(data, query, plan), plan))
    return trees


def _assert_fused_rounds_equal_staged_reference():
    for name, tree, plan in _kernel_trees():
        for capacity in (1, 8, 1024):
            fused = _run_kernel(pipeline_enumerate, tree, plan, capacity)
            staged = _run_kernel(helpers.reference_pipeline_enumerate, tree, plan, capacity)
            assert fused == staged, (name, capacity)


def test_fused_rounds_equal_staged_reference():
    _assert_fused_rounds_equal_staged_reference()


@pytest.mark.parametrize("cutover", [0, 1025], ids=["always_zip", "never_zip"])
def test_both_extension_builds_equal_staged_reference(monkeypatch, cutover):
    # chunks hold at most `capacity` (<= 1024) candidates, so 1025 never zips
    monkeypatch.setattr(kernel, "_ZIP_CUTOVER", cutover)
    _assert_fused_rounds_equal_staged_reference()


def test_default_cutover_sends_benchmark_chunks_down_both_paths(monkeypatch):
    zipped = []

    def recording_zip(*columns):
        zipped.append(len(columns[-1]))
        return zip(*columns)

    monkeypatch.setattr(kernel, "zip", recording_zip, raising=False)
    filed = 0
    for name, tree, plan in _kernel_trees():
        if name in fixtures.QUERY_NAMES:
            trace = []
            pipeline_enumerate(tree, plan, trace=trace)
            filed += sum(r.accepted for r in trace)
    assert zipped and min(zipped) > kernel._ZIP_CUTOVER
    assert 0 < sum(zipped) < filed  # the rest were built by the comprehension


def test_only_free_tails_are_built_by_product(monkeypatch):
    pools = []

    def recording_product(*rows):
        pools.append(len(rows))
        return itertools.product(*rows)

    monkeypatch.setattr(kernel, "product", recording_product)
    for name, tree, plan in _kernel_trees():
        if name in fixtures.QUERY_NAMES:
            pools.clear()
            pipeline_enumerate(tree, plan)
            if name in ("q0", "q3"):  # stars: every vertex after the root is a free leaf
                assert pools == [plan.num_vertices] * len(tree.candidates[plan.root]), name
            else:
                assert not pools, name


def _assert_equal_to_staged_reference(tree, plan, capacities):
    for capacity in capacities:
        fused = _run_kernel(pipeline_enumerate, tree, plan, capacity)
        assert fused == _run_kernel(helpers.reference_pipeline_enumerate, tree, plan, capacity), capacity
        assert fused[0] == helpers.reference_tree_matches(tree, plan), capacity


def test_free_tail_with_empty_rows_equals_staged_reference():
    # a tree-query projection short of its fixpoint: root candidates keep no row toward the cut tail vertex
    data, query = helpers.benchmark_graph(), helpers.benchmark_queries()["q3"]
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    u = plan.order[-1]
    chunk = helpers.reference_project_tree(tree, plan, u, tree.candidates[u][:1])
    assert plan.tail_start == 1
    assert set(chunk.groups[(plan.root, u)]) < set(chunk.candidates[plan.root])
    _assert_equal_to_staged_reference(chunk, plan, (1, 2, 5, 1024))


def test_free_tail_lists_longer_than_capacity_equal_staged_reference():
    # a 3-leaf star whose one root has 7, 1 and 5 neighbours of the leaf labels
    leaves = [1] * 7 + [2] + [3] * 5
    data = Graph.from_edges([0] + leaves, [(0, v) for v in range(1, 14)])
    query = Graph.from_edges([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    assert plan.tail_start == 1 and tree.max_degree == 7
    _assert_equal_to_staged_reference(tree, plan, (1, 2, 3, 6, 8))
    assert len(pipeline_enumerate(tree, plan, CycleModel(capacity=3))[0]) == 35


def test_matches_come_out_strictly_increasing_without_a_sort():
    for name, tree, plan in _kernel_trees():
        expected = helpers.reference_tree_matches(tree, plan)
        for capacity in (1, 2, 8, 1024):
            matches, _, _ = pipeline_enumerate(tree, plan, CycleModel(capacity=capacity))
            assert all(a < b for a, b in zip(matches, matches[1:])), (name, capacity)
            assert matches == expected, (name, capacity)


def _walks(tree, plan):
    """Order-aligned walks through the stored lists passing every non-tree row; vertices may repeat."""
    walks = [(v,) for v in tree.candidates[plan.root]]
    for u in plan.order[1:]:
        parent = plan.parent[u]
        lists = tree.groups.get((parent, u), {})
        checks = [(plan.position[un], tree.groups.get((un, u), {})) for un in plan.earlier_non_tree[u]]
        walks = [
            w + (v,)
            for w in walks
            for v in lists.get(w[plan.position[parent]], ())
            if all(v in rows.get(w[pos], ()) for pos, rows in checks)
        ]
    return walks


def test_only_queries_with_shared_candidates_check_repeats():
    data = helpers.benchmark_graph()
    for name, query in helpers.benchmark_queries().items():
        plan = build_query_plan(query, data)
        tree = build_candidate_tree(data, query, plan)
        cands = [set(tree.candidates[u]) for u in plan.order]
        shared = [(i, j) for j in range(len(cands)) for i in range(j) if cands[i] & cands[j]]
        if name != "q8":
            assert not shared, name  # distinct labels: disjoint candidate sets, no visited check runs
            continue
        # q8 repeats labels 0 and 10, so the visited check runs and must drop repeated vertices
        assert shared
        walks = _walks(tree, plan)
        assert any(len(set(w)) < len(w) for w in walks)
        for capacity in (1, 2, 8, 1024):
            matches, _, _ = pipeline_enumerate(tree, plan, CycleModel(capacity=capacity))
            assert matches == [w for w in walks if len(set(w)) == len(w)], capacity


def test_shared_candidate_runs_the_visited_check_however_the_tree_is_built():
    """A hand-built star whose two leaves share candidates 2 and 3 gets no answer that repeats one.

    The constructor is the only way to build a tree, and it finds the
    sets not disjoint, so the visited check runs, even in the free tail
    the two leaves form.
    """
    from submatch.candidate_tree import CandidateTree
    from submatch.plan import QueryPlan

    plan = QueryPlan([None, 0, 0], [[], [], []], [0, 1, 2])
    assert plan.tail_start == 1
    tree = CandidateTree([[1], [2, 3], [2, 3]], {(0, 1): {1: [2, 3]}, (0, 2): {1: [2, 3]}})
    assert not tree.disjoint
    for capacity in (1, 2, 1024):
        matches, _, _ = pipeline_enumerate(tree, plan, CycleModel(capacity=capacity))
        assert matches == [(1, 2, 3), (1, 3, 2)], capacity


def test_counters_match_trace_totals():
    for data, query, plan, _ in helpers.solvable_instances(6, 35_000, max_data=35):
        tree = build_candidate_tree(data, query, plan)
        trace = []
        _, results, edge_tasks = pipeline_enumerate(tree, plan, CycleModel(capacity=16), trace=trace)
        assert results == sum(r.outputs for r in trace)
        assert edge_tasks == sum(r.edge_tasks for r in trace)


def test_cycle_estimate_zero_counters():
    model = CycleModel(capacity=1024)
    for variant in ("basic", "task", "sep"):
        assert cycle_estimate(model, variant, 0, 0) == 0


def test_cycle_estimate_frozen_example():
    # second, independent evaluation of the closed forms
    n, m, l_f, l_t, cap = 100, 100, 20.0, 10.0, 1000
    model = CycleModel((5.0, 5.0, 5.0, 5.0, 5.0, 5.0), cap)
    assert model.per_result_latency == l_f and model.per_edge_task_latency == l_t
    assert cycle_estimate(model, "basic", n, m) == (n * l_f + m * l_t) / cap + 4 * n + 2 * m == 603
    assert cycle_estimate(model, "task", n, m) == 2 * n + max(n, m) == 300
    assert cycle_estimate(model, "sep", n, m) == n + max(n, m) == 200
    with pytest.raises(ValueError, match="unknown variant 'serial'"):
        cycle_estimate(model, "serial", n, m)  # not a pipeline variant


def test_variant_ordering_for_any_counters():
    rng = random.Random(71)
    for _ in range(300):
        latencies = tuple(float(rng.randint(1, 32)) for _ in range(6))
        n, m = rng.randint(0, 10**6), rng.randint(0, 10**6)
        model = CycleModel(latencies, rng.choice([1, 8, 1024, 10**6]))
        basic = cycle_estimate(model, "basic", n, m)
        task = cycle_estimate(model, "task", n, m)
        sep = cycle_estimate(model, "sep", n, m)
        assert sep <= task <= basic


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite_latencies(bad):
    with pytest.raises(ValueError):
        CycleModel((bad, 2.0, 1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        CycleModel().scaled(bad)


@pytest.mark.parametrize("ratio", [0.5, math.nan, math.inf])
def test_scaling_rejects_faster_or_non_finite_memory(ratio):
    """Latencies of 4 halved stay >= 1, but would model memory faster than the default."""
    with pytest.raises(ValueError, match="dram-ratio must be finite and >= 1"):
        CycleModel((4.0,) * 6).scaled(ratio)


def test_model_validation_and_scaling():
    with pytest.raises(ValueError):
        CycleModel((1.0,))
    with pytest.raises(ValueError):
        CycleModel((0.5, 1, 1, 1, 1, 1))
    for capacity in (0, -3):
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            CycleModel(capacity=capacity)
    scaled = CycleModel().scaled(7.0)
    assert scaled.latencies == tuple(7.0 * l for l in CycleModel().latencies)
    assert CycleModel((4.0,) * 6, 8).scaled(7.0).capacity == 8
