"""Event-driven schedule model versus the closed-form cycle estimates."""

from submatch import (
    CycleModel,
    build_candidate_tree,
    build_query_plan,
    cycle_estimate,
    pipeline_enumerate,
    pipeline_fill_slack,
    simulate_dataflow_schedule,
)
from submatch.kernel import RoundTrace
from submatch import fixtures

import helpers


def worked_trace():
    data, query = fixtures.worked_data(), fixtures.worked_query()
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    trace = []
    _, model = pipeline_enumerate(tree, plan, 1024, CycleModel(), trace=trace)
    return trace, model


def test_single_round_dominant_stage_sets_makespan():
    model = CycleModel()
    trace = [RoundTrace(0, 1, 10, 10, 500, 0)]
    makespan = simulate_dataflow_schedule(trace, "sep", model)
    slack = pipeline_fill_slack(trace, model)
    assert 500 <= makespan <= 500 + 10 + slack


def test_edge_heavy_trace_approaches_edge_task_count():
    # m dominates n in every round: task-variant issue cost ~ 1/item
    trace = [RoundTrace(i, 2, 5, 5, 500, 5) for i in range(20)]
    model = CycleModel()
    m_total = sum(r.edge_tasks for r in trace)
    makespan = simulate_dataflow_schedule(trace, "task", model)
    assert abs(makespan - m_total) / m_total < 0.10


def test_worked_trace_orders_variants():
    trace, model = worked_trace()
    basic = simulate_dataflow_schedule(trace, "basic", model)
    task = simulate_dataflow_schedule(trace, "task", model)
    sep = simulate_dataflow_schedule(trace, "sep", model)
    assert sep <= task <= basic


def test_worked_event_model_matches_closed_forms_after_slack():
    trace, model = worked_trace()
    slack = pipeline_fill_slack(trace, model)
    for variant in ("basic", "task", "sep"):
        event = simulate_dataflow_schedule(trace, variant, model) - slack
        closed = cycle_estimate(model, variant, 1024)
        assert abs(event - closed) <= 0.15 * closed


def test_makespan_never_below_estimate_minus_slack():
    for data, query, plan, _ in helpers.solvable_instances(10, 40_000, max_data=40):
        tree = build_candidate_tree(data, query, plan)
        for capacity in (8, 1024):
            trace = []
            model = CycleModel()
            pipeline_enumerate(tree, plan, capacity, model, trace=trace)
            slack = pipeline_fill_slack(trace, model)
            for variant in ("basic", "task", "sep"):
                makespan = simulate_dataflow_schedule(trace, variant, model)
                assert makespan >= cycle_estimate(model, variant, capacity) - slack - 1e-9


def test_memory_ratio_scales_cycles_monotonically():
    trace, model = worked_trace()
    prev_serial, prev_basic, prev_event = 0.0, 0.0, 0.0
    for ratio in (1.0, 2.0, 7.0, 8.0):
        scaled = CycleModel(
            tuple(l * ratio for l in model.latencies),
            results_generated=model.results_generated,
            edge_tasks_generated=model.edge_tasks_generated,
        )
        serial = cycle_estimate(scaled, "serial", 1024)
        basic = cycle_estimate(scaled, "basic", 1024)
        event = simulate_dataflow_schedule(trace, "basic", scaled)
        assert serial > prev_serial and basic > prev_basic and event > prev_event
        prev_serial, prev_basic, prev_event = serial, basic, event
