"""End-to-end property of run_job on random small instances.

Skipped where hypothesis is not installed.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from submatch import PartitionConfig, SchedulerState, UnsplittableTreeError, build_candidate_tree, build_query_plan, run_job

import helpers
from oracle import brute_force_embeddings


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 10**6),
    size_share=st.floats(0.1, 1.0),
    degree_budget=st.integers(1, 8),
    delta=st.floats(0.0, 1.0),
    fixed_k=st.sampled_from([None, 2, 3]),
    capacity=st.sampled_from([1, 3, 1024]),
)
def test_run_job_answers_the_oracle_whatever_the_share(seed, size_share, degree_budget, delta, fixed_k, capacity):
    """run_job gives the brute-force answers, and delta moves only the routing sides.

    The size budget is a random share of the index's size, so about a
    third of the draws split (many instances have no embedding and a
    tiny index). Embeddings, partitions and the workload of each routed
    tree are the same at delta, 0 and 1; at delta 0 no tree goes to the
    host. A draw whose budgets cannot be met is rejected.
    """
    data, query = helpers.make_instance(seed, max_data=30, max_query=5)
    plan = build_query_plan(query, data)
    size = build_candidate_tree(data, query, plan).size_bytes
    config = PartitionConfig(size_budget=max(17, int(size * size_share)), degree_budget=degree_budget, fixed_k=fixed_k)
    runs = []
    for share in (delta, 0.0, 1.0):
        try:
            runs.append(run_job(data, query, config, SchedulerState(share), "share", capacity=capacity))
        except UnsplittableTreeError:
            assume(False)
    expected = brute_force_embeddings(query, data, plan.order)
    for embeddings, stats in runs:
        assert embeddings == expected
        assert stats.embeddings == len(expected)
        assert stats.partitions == runs[0][1].partitions == len(stats.routing_log)
        assert [workload for workload, _ in stats.routing_log] == [workload for workload, _ in runs[0][1].routing_log]
    assert runs[1][1].host_trees == 0
