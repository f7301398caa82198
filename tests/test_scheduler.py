import dataclasses
import gc
import random

import pytest

from submatch import (
    CandidateTree,
    CycleModel,
    Graph,
    UnsplittableTreeError,
    PartitionConfig,
    SchedulerState,
    build_candidate_tree,
    build_query_plan,
    cycle_estimate,
    estimate_workload,
    host_match,
    pipeline_enumerate,
    route_tree,
    run_job,
)
from submatch import scheduler

import helpers


def route_all(delta, workloads):
    """Route each workload in turn, totals carried as run_job carries them: the (workload, side) log and (w_c, w_f)."""
    log, w_c, w_f = [], 0, 0
    for w in workloads:
        if route_tree(delta, w_c, w_f, w):
            log.append((w, "host"))
            w_c += w
        else:
            log.append((w, "kernel"))
            w_f += w
    return log, (w_c, w_f)


def test_delta_zero_routes_everything_to_kernel():
    log, (w_c, w_f) = route_all(0.0, (0, 1, 7, 100))
    assert all(side == "kernel" for _, side in log)
    assert w_c == 0 and w_f == 108


def test_first_tree_at_half_share_goes_to_kernel():
    # 7 < 0.5 * 7 is false, so the kernel takes the first tree
    log, (_, w_f) = route_all(0.5, [7])
    assert log == [(7, "kernel")]
    assert w_f == 7


def test_share_stays_bounded_and_replays():
    rng = random.Random(101)
    for delta in (0.1, 0.3, 0.7):
        log, totals = route_all(delta, [rng.randint(1, 50) for _ in range(100)])
        # replay the decision sequence independently
        w_c = w_f = 0
        for w, side in log:
            expected = "host" if w_c + w < delta * (w_c + w_f + w) else "kernel"
            assert side == expected
            if side == "host":
                w_c += w
            else:
                w_f += w
        assert totals == (w_c, w_f)
        total = w_c + w_f
        max_w = max(w for w, _ in log)
        assert w_c / total <= delta + max_w / total + 1e-12


def test_state_validates_delta():
    with pytest.raises(ValueError):
        SchedulerState(delta=1.5)


def test_state_is_the_threshold_alone():
    state = SchedulerState(0.25)
    assert [f.name for f in dataclasses.fields(state)] == ["delta"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.delta = 0.5


def test_host_match_worked():
    data, query = helpers.worked_data(), helpers.worked_query()
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    assert host_match(tree, plan) == [(0, 3, 2, 8), (1, 5, 4, 9)]


def test_host_match_empty_candidates():
    tree, plan = helpers.partition_example()
    from submatch import project_tree

    sub = project_tree(tree, 0, {1})
    sub = CandidateTree(sub.candidates[:3] + [set()], {**sub.groups, (1, 3): {}})
    assert host_match(sub, plan) == []


def test_host_match_agrees_with_oracle():
    for data, query, plan, expected in helpers.solvable_instances(15, 50_000, max_data=40):
        tree = build_candidate_tree(data, query, plan)
        assert host_match(tree, plan) == expected
        assert helpers.reference_tree_matches(tree, plan) == expected


def test_run_job_worked_all_kernel():
    data, query = helpers.worked_data(), helpers.worked_query()
    state = SchedulerState(delta=0.0)
    embeddings, stats = run_job(data, query, PartitionConfig(), state, "sep")
    assert len(embeddings) == 2 and stats.embeddings == 2
    assert stats.w_c == 0 and stats.kernel_trees == stats.partitions == 1


def test_run_job_delta_one_first_tree_still_kernel():
    # with a single partition the strict share test sends it to the kernel
    # (host needs w_c + w < delta * total, which fails while w_f is zero)
    data, query = helpers.worked_data(), helpers.worked_query()
    state = SchedulerState(delta=1.0)
    embeddings, stats = run_job(data, query, PartitionConfig(), state, "share")
    assert len(embeddings) == 2
    assert stats.w_f > 0 and stats.w_c == 0


def test_run_job_merges_host_and_kernel_sides():
    # small budgets force many partitions; a high share pulls some host-side
    merged = 0
    for data, query, plan, expected in helpers.solvable_instances(10, 51_000, max_data=45):
        tree = build_candidate_tree(data, query, plan)
        config = PartitionConfig(size_budget=max(150, tree.size_bytes // 3), degree_budget=8)
        state = SchedulerState(delta=0.5)
        try:
            embeddings, stats, log = helpers.routed_job(data, query, config, state, "share")
        except UnsplittableTreeError:
            continue
        assert embeddings == expected
        assert stats.w_c + stats.w_f == sum(w for w, _ in log)
        if stats.partitions > 2:
            assert stats.host_trees > 0
            merged += 1
    assert merged >= 3


def test_embeddings_invariant_across_delta_and_variant():
    checked = 0
    for data, query, plan, expected in helpers.solvable_instances(10, 52_000, max_data=40):
        tree = build_candidate_tree(data, query, plan)
        config = PartitionConfig(size_budget=max(150, tree.size_bytes // 2), degree_budget=8)
        results = set()
        try:
            for delta in (0.0, 0.1, 0.5, 1.0):
                for variant in ("basic", "task", "sep", "share"):
                    state = SchedulerState(delta=delta)
                    embeddings, _ = run_job(data, query, config, state, variant)
                    results.add(tuple(embeddings))
        except UnsplittableTreeError:
            continue
        assert len(results) == 1
        assert list(results.pop()) == expected
        checked += 1
    assert checked >= 6


def test_job_stats_report_schema():
    data, query = helpers.worked_data(), helpers.worked_query()
    _, stats = run_job(data, query, PartitionConfig(), SchedulerState(delta=0.1), "share")
    report = stats.to_report()
    assert list(report) == [
        "embeddings",
        "partitions",
        "w_c",
        "w_f",
        "cycles_basic",
        "cycles_task",
        "cycles_sep",
        "wall_ms",
    ]
    assert all(isinstance(v, (int, float)) for v in report.values())


def test_run_job_rejects_unknown_variant():
    data, query = helpers.worked_data(), helpers.worked_query()
    with pytest.raises(ValueError):
        run_job(data, query, PartitionConfig(), SchedulerState(), "warp")


def test_reused_state_reports_like_a_fresh_one():
    # a state carried over from an earlier job must not shift routing or totals
    data = helpers.benchmark_graph()
    query = helpers.benchmark_queries()["q8"]
    reused = SchedulerState(delta=0.1)
    runs = [
        helpers.routed_job(data, query, PartitionConfig(), state, "share")[1:]
        for state in (reused, reused, SchedulerState(delta=0.1))
    ]
    views = [
        ({k: v for k, v in stats.to_report().items() if k != "wall_ms"}, stats.host_trees, log)
        for stats, log in runs
    ]
    assert views[0] == views[1] == views[2]
    assert runs[0][0].host_trees > 0 and runs[0][0].kernel_trees > 0
    assert reused == SchedulerState(delta=0.1)


@pytest.mark.parametrize("enabled", [True, False])
def test_run_job_pauses_gc_and_leaves_it_as_found(monkeypatch, enabled):
    data, query = helpers.worked_data(), helpers.worked_query()
    paused = []
    real_plan = scheduler.build_query_plan

    def plan_and_record(*args):
        paused.append(not gc.isenabled())
        return real_plan(*args)

    monkeypatch.setattr(scheduler, "build_query_plan", plan_and_record)
    failing = [
        (query, PartitionConfig(size_budget=17), UnsplittableTreeError),
        (Graph.from_edges([0, 1, 2], [(0, 1)]), PartitionConfig(), ValueError),  # disconnected query
    ]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        embeddings, _ = run_job(data, query, PartitionConfig(), SchedulerState(), "share")
        assert len(embeddings) == 2 and gc.isenabled() == enabled
        for bad_query, config, error in failing:
            with pytest.raises(error):
                run_job(data, bad_query, config, SchedulerState(), "share")
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert paused == [True, True, True]


def test_one_model_serves_every_job_alike():
    """A CycleModel is a frozen value, so jobs and kernel runs that share one report their own counts."""
    data, query = helpers.worked_data(), helpers.worked_query()
    model = CycleModel()
    first, second = (run_job(data, query, PartitionConfig(), SchedulerState(), "share", model=model)[1] for _ in "ab")
    assert (second.results_generated, second.cycles_sep) == (first.results_generated, first.cycles_sep) == (7, 14)
    assert dataclasses.replace(second, wall_ms=0.0) == dataclasses.replace(first, wall_ms=0.0)

    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    assert pipeline_enumerate(tree, plan, model)[1:] == pipeline_enumerate(tree, plan, model)[1:] == (7, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.capacity = 2


def test_run_job_returns_a_single_run_without_copying(monkeypatch):
    data, query = helpers.worked_data(), helpers.worked_query()
    runs = []
    real_enumerate = scheduler.pipeline_enumerate

    def enumerate_and_keep(*args, **kwargs):
        found, *counts = real_enumerate(*args, **kwargs)
        runs.append(found)
        return found, *counts

    monkeypatch.setattr(scheduler, "pipeline_enumerate", enumerate_and_keep)
    embeddings, stats = run_job(data, query, PartitionConfig(), SchedulerState(0.0), "share")
    assert stats.kernel_trees == 1 and embeddings is runs[0]


def test_each_side_matches_exactly_the_trees_routed_to_it(monkeypatch):
    # q2 on the bundled graph at delta 0.1 sends 19 of its 55 trees to the host
    data = helpers.benchmark_graph()
    query = helpers.benchmark_queries()["q2"]
    plan = build_query_plan(query, data)
    expected, _ = run_job(data, query, PartitionConfig(), SchedulerState(0.0), "share")
    kernel_parts, host_parts = [], []
    real_enumerate, real_host = scheduler.pipeline_enumerate, scheduler.host_match

    def enumerate_and_keep(part, *args, **kwargs):
        kernel_parts.append(part)
        return real_enumerate(part, *args, **kwargs)

    def host_and_keep(part, *args):
        host_parts.append(part)
        return real_host(part, *args)

    monkeypatch.setattr(scheduler, "pipeline_enumerate", enumerate_and_keep)
    monkeypatch.setattr(scheduler, "host_match", host_and_keep)
    embeddings, stats, log = helpers.routed_job(data, query, PartitionConfig(), SchedulerState(0.1), "share")
    assert (stats.host_trees, stats.kernel_trees) == (19, 36)
    assert (len(kernel_parts), len(host_parts)) == (stats.kernel_trees, stats.host_trees)
    assert [estimate_workload(part, plan) for part in host_parts] == [w for w, side in log if side == "host"]
    assert embeddings == expected

    # host trees add nothing to any counter or cycle
    results = edge_tasks = 0
    for part in kernel_parts:
        _, part_results, part_edge_tasks = real_enumerate(part, plan)
        results += part_results
        edge_tasks += part_edge_tasks
    assert (stats.results_generated, stats.edge_tasks_generated) == (results, edge_tasks)
    assert (stats.cycles_basic, stats.cycles_task, stats.cycles_sep) == cycle_estimate(CycleModel(), results, edge_tasks)
