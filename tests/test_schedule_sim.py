"""Event-driven schedule model versus the closed-form cycle estimates."""

from submatch import CycleModel, build_candidate_tree, build_query_plan, cycle_estimate, pipeline_enumerate
from submatch.kernel import RoundTrace

import helpers
from helpers import pipeline_fill_slack, simulate_dataflow_schedule


def worked_trace():
    data, query = helpers.worked_data(), helpers.worked_query()
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    trace = []
    model = CycleModel(capacity=1024)
    _, *counts = pipeline_enumerate(tree, plan, model, trace=trace)
    return trace, model, counts


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
    trace, model, _ = worked_trace()
    basic = simulate_dataflow_schedule(trace, "basic", model)
    task = simulate_dataflow_schedule(trace, "task", model)
    sep = simulate_dataflow_schedule(trace, "sep", model)
    assert sep <= task <= basic


def test_worked_event_model_matches_closed_forms_after_slack():
    trace, model, counts = worked_trace()
    slack = pipeline_fill_slack(trace, model)
    for variant in ("basic", "task", "sep"):
        event = simulate_dataflow_schedule(trace, variant, model) - slack
        closed = cycle_estimate(model, variant, *counts)
        assert abs(event - closed) <= 0.15 * closed


def test_makespan_never_below_estimate_minus_slack():
    for data, query, plan, _ in helpers.solvable_instances(10, 40_000, max_data=40):
        tree = build_candidate_tree(data, query, plan)
        for capacity in (8, 1024):
            trace = []
            model = CycleModel(capacity=capacity)
            _, *counts = pipeline_enumerate(tree, plan, model, trace=trace)
            slack = pipeline_fill_slack(trace, model)
            for variant in ("basic", "task", "sep"):
                makespan = simulate_dataflow_schedule(trace, variant, model)
                assert makespan >= cycle_estimate(model, variant, *counts) - slack - 1e-9


def test_memory_ratio_scales_cycles_monotonically():
    trace, model, counts = worked_trace()
    prev_basic, prev_event = 0.0, 0.0
    for ratio in (1.0, 2.0, 7.0, 8.0):
        scaled = model.scaled(ratio)
        basic = cycle_estimate(scaled, "basic", *counts)
        event = simulate_dataflow_schedule(trace, "basic", scaled)
        assert basic > prev_basic and event > prev_event
        prev_basic, prev_event = basic, event
