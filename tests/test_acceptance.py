"""Acceptance suite: one test per shipped criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion with its elapsed time.
"""

import random
import time

import pytest

from submatch import (
    CycleModel,
    PartitionConfig,
    SchedulerState,
    UnsplittableTreeError,
    build_candidate_tree,
    build_query_plan,
    cycle_estimate,
    estimate_workload,
    host_match,
    partition_tree,
    pipeline_enumerate,
)

import helpers
from helpers import (
    ResultBuffer,
    _Pending,
    generate_batch,
    pipeline_fill_slack,
    simulate_dataflow_schedule,
    tree_metrics,
    validate_edges,
    validate_visited,
)
from oracle import brute_force_tree_walks

VARIANTS = ("basic", "task", "sep")
CAPACITIES = (1, 8, 1024)


def report(num: int, label: str, started: float, limit: float | None = None):
    elapsed = time.perf_counter() - started
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget ({elapsed:.1f}s)"
    print(f"\nACCEPTANCE {num} PASS: {label} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def family():
    """Criterion-2 instance family, enumerated once for criteria 2 and 5."""
    started = time.perf_counter()
    instances = helpers.solvable_instances(200, 70_000, min_data=10, max_data=60, min_query=3, max_query=7)
    runs = []
    for data, query, plan, expected in instances:
        tree = build_candidate_tree(data, query, plan)
        stats: list[tuple[int, int]] = []
        outcomes = []
        for capacity in CAPACITIES:
            found, _, _ = pipeline_enumerate(tree, plan, CycleModel(capacity=capacity), buffer_stats=stats)
            outcomes.append(found)
        hosted = host_match(tree, plan)
        runs.append((expected, outcomes, hosted, stats))
    return runs, time.perf_counter() - started


def test_criterion_1_worked_example_fidelity():
    started = time.perf_counter()
    data, query = helpers.worked_data(), helpers.worked_query()
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    assert tree.candidates == [[0, 1], [3, 5], [2, 4, 6], [8, 9]]
    assert tree.groups[(1, 2)][5] == [4, 6]
    assert tree.groups[(2, 3)][2] == [8]

    found, _, _ = pipeline_enumerate(tree, plan, CycleModel(capacity=1024))
    assert found == [(0, 3, 2, 8), (1, 5, 4, 9)]

    # the projected-batch example: two partials expanding the third vertex
    example_tree, example_plan = helpers.partition_example()
    part = helpers.reference_project_tree(example_tree, example_plan, 0, [1])
    buf = ResultBuffer(3, 1024)
    buf.push(_Pending((1, 3), 0), 2)
    buf.push(_Pending((1, 5), 0), 2)
    batch = generate_batch(buf, 2, part, example_plan, 1024)
    assert batch.outputs == [(1, 3, 6), (1, 3, 8), (1, 5, 6), (1, 5, 8)]
    assert validate_visited(batch.visited_tasks, batch.sources) == [1, 1, 1, 1]
    assert validate_edges(part, batch.edge_tasks, 4) == [1, 0, 0, 1]
    report(1, "worked-example fidelity", started, limit=1.0)


def test_criterion_2_oracle_equivalence(family):
    runs, build_elapsed = family
    started = time.perf_counter() - build_elapsed
    assert len(runs) >= 200
    for expected, outcomes, hosted, _ in runs:
        for found in outcomes:
            assert found == expected
        assert hosted == expected
    report(2, f"oracle equivalence on {len(runs)} instances x {len(CAPACITIES) + 1} matchers", started, limit=60.0)


def test_criterion_3_partition_soundness():
    started = time.perf_counter()
    checked = 0
    seed = 80_000
    while checked < 50:
        seed += 1
        data, query = helpers.make_instance(seed, min_data=25, max_data=60, min_query=4, max_query=6)
        try:
            plan = build_query_plan(query, data)
        except ValueError:
            continue
        tree = build_candidate_tree(data, query, plan)
        if tree.size_bytes < 400 or any(not c for c in tree.candidates):
            continue
        config = PartitionConfig(size_budget=max(200, tree.size_bytes // 6), degree_budget=16)
        parts = []
        try:
            count = partition_tree(tree, plan, 0, config, parts.append)
        except UnsplittableTreeError:
            continue
        if count < 4:
            continue
        whole = helpers.reference_tree_matches(tree, plan)
        pieces = []
        for part in parts:
            size, degree = tree_metrics(part)
            assert size <= config.size_budget
            assert degree <= config.degree_budget
            pieces.extend(helpers.reference_tree_matches(part, plan))
        assert len(pieces) == len(set(pieces)), "partition embeddings overlap"
        assert sorted(pieces) == whole
        checked += 1
    report(3, f"partition soundness on {checked} instances (>=4 parts each)", started, limit=30.0)


def test_criterion_4_workload_dp_correctness():
    started = time.perf_counter()
    example_tree, example_plan = helpers.partition_example()
    assert estimate_workload(example_tree, example_plan) == 7
    assert brute_force_tree_walks(example_tree, example_plan) == 7
    count = 0
    for data, query, plan, _ in helpers.solvable_instances(100, 90_000, max_data=40):
        tree = build_candidate_tree(data, query, plan)
        assert estimate_workload(tree, plan) == brute_force_tree_walks(tree, plan)
        count += 1
    report(4, f"workload DP equals exhaustive walks on {count} trees + fixture", started, limit=10.0)


def test_criterion_5_buffer_bound(family):
    runs, _ = family
    started = time.perf_counter()
    observed = 0
    for _, _, _, stats in runs:
        for peak, capacity in stats:
            assert peak <= capacity
            observed += 1
    assert observed == len(runs) * len(CAPACITIES)
    report(5, f"buffer bound held across {observed} runs (zero violations)", started)


def test_criterion_6_cycle_model_ordering_and_bounds():
    started = time.perf_counter()
    rng = random.Random(424242)
    eps = 1e-9
    for _ in range(10_000):
        n = rng.randint(0, 10**6)
        m = rng.randint(0, 10**6)
        lat = tuple(float(rng.randint(1, 32)) for _ in range(6))
        # any capacity preserves the variant ordering
        model = CycleModel(lat, rng.choice([1, 8, 1024, 10**6]))
        basic = cycle_estimate(model, "basic", n, m)
        task = cycle_estimate(model, "task", n, m)
        sep = cycle_estimate(model, "sep", n, m)
        assert sep <= task <= basic
        # the improvement bounds hold in the intended regime, where the
        # per-round fill term is negligible next to the issue terms
        denom = 4 * n + 2 * m
        if denom:
            fill_ratio = (n * model.per_result_latency + m * model.per_edge_task_latency) / denom
            model = CycleModel(lat, max(1, int(fill_ratio * rng.uniform(1e10, 1e12))))
            basic = cycle_estimate(model, "basic", n, m)
            task = cycle_estimate(model, "task", n, m)
            sep = cycle_estimate(model, "sep", n, m)
            assert sep <= task <= basic
            if basic:
                assert 1.0 - task / basic <= 0.5 + eps
            if task:
                assert 1.0 - sep / task <= 0.334
    report(6, "cycle-model ordering and improvement bounds on 10^4 tuples", started, limit=5.0)


def test_criterion_7_event_simulation_consistency():
    started = time.perf_counter()
    graph = helpers.benchmark_graph()
    for name, query in helpers.benchmark_queries().items():
        plan = build_query_plan(query, graph)
        tree = build_candidate_tree(graph, query, plan)
        trace: list = []
        model = CycleModel(capacity=1024)
        _, results, edge_tasks = pipeline_enumerate(tree, plan, model, trace=trace)
        slack = pipeline_fill_slack(trace, model)
        makespans = {}
        for variant in VARIANTS:
            event = simulate_dataflow_schedule(trace, variant, model)
            makespans[variant] = event
            closed = cycle_estimate(model, variant, results, edge_tasks)
            assert closed > 0, f"{name} produced no work"
            assert abs((event - slack) - closed) <= 0.15 * closed, (
                f"{name}/{variant}: event {event} - slack {slack} vs closed {closed}"
            )
        assert makespans["sep"] <= makespans["task"] <= makespans["basic"]
    report(7, "event schedule within 15% of closed forms on q0..q8", started, limit=30.0)


def test_criterion_8_delta_invariance_and_share_sanity():
    started = time.perf_counter()
    deltas = (0.0, 0.05, 0.1, 0.15, 0.2, 1.0)
    checked = 0
    for data, query, plan, expected in helpers.solvable_instances(15, 95_000, max_data=50):
        tree = build_candidate_tree(data, query, plan)
        config = PartitionConfig(size_budget=max(200, tree.size_bytes // 4), degree_budget=16)
        results = []
        try:
            for delta in deltas:
                state = SchedulerState(delta=delta)
                embeddings, stats, log = helpers.routed_job(data, query, config, state, "share")
                results.append(embeddings)
                total = stats.w_c + stats.w_f
                if total:
                    # replay the routing decisions independently
                    w_c = w_f = 0
                    for w, side in log:
                        should_host = w_c + w < delta * (w_c + w_f + w)
                        assert side == ("host" if should_host else "kernel")
                        if side == "host":
                            w_c += w
                        else:
                            w_f += w
                    assert (w_c, w_f) == (stats.w_c, stats.w_f)
                    max_share = max(w for w, _ in log) / total
                    assert stats.w_c / total <= delta + max_share + 1e-12
        except UnsplittableTreeError:
            continue
        for found in results:
            assert found == expected
        checked += 1
    assert checked >= 10
    report(8, f"delta invariance and share bound on {checked} instances x {len(deltas)} deltas", started)


def test_memory_latency_scaling_note():
    # wall-clock speedups are not reproducible here; the slow-memory mode
    # is represented only as a latency multiplier and checked qualitatively
    started = time.perf_counter()
    data, query = helpers.worked_data(), helpers.worked_query()
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    trace: list = []
    model = CycleModel(capacity=8)
    _, results, edge_tasks = pipeline_enumerate(tree, plan, model, trace=trace)
    previous = -1.0
    for ratio in (1.0, 2.0, 4.0, 7.0, 8.0):
        scaled = model.scaled(ratio)
        cycles = cycle_estimate(scaled, "basic", results, edge_tasks) + simulate_dataflow_schedule(trace, "basic", scaled)
        assert cycles > previous
        previous = cycles
    report("note", "slow-memory ratio scales modeled cycles monotonically", started)
