"""Property tests of the index build on random small instances.

Skipped where hypothesis is not installed.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from submatch import Graph, build_candidate_tree, build_query_plan

import helpers
from helpers import random_connected_query


def relabelled(graph, stride, shift):
    return Graph.from_edges([lab * stride + shift for lab in graph.labels], graph.edges())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 10**6),
    stride=st.sampled_from([1, 37]),
    shift=st.sampled_from([0, 62]),
    repeat=st.booleans(),
    other_size=st.integers(2, 6),
)
def test_index_equals_naive_fixpoint(seed, stride, shift, repeat, other_size):
    """build_candidate_tree equals the naive arc-consistency fixpoint.

    Labels are spread by `stride` and `shift` so that data and query use
    labels of 64 and above (the neighbour-label masks span several
    machine words); with `repeat`, query vertex 1 takes vertex 0's label,
    so the query repeats a label. The data graph first serves another
    query drawn from the checked query's labels, so the checked build
    reads a neighbour-label index that an earlier job has partly filled.
    """
    data, query = helpers.make_instance(seed, max_data=30, max_query=6)
    if repeat:
        labels = list(query.labels)
        labels[1] = labels[0]
        query = Graph.from_edges(labels, query.edges())
    other = random_connected_query(other_size, seed % 3, sorted(set(query.labels)), seed)
    data, query, other = (relabelled(g, stride, shift) for g in (data, query, other))
    build_candidate_tree(data, other, build_query_plan(other, data))
    plan = build_query_plan(query, data)
    assert build_candidate_tree(data, query, plan) == helpers.reference_candidate_tree(data, query, plan)
