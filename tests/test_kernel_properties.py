"""Property tests of the kernel's free-tail expansion on hand-built trees.

Each instance is a candidate tree whose matching order ends in at least
two free leaves: tail vertices hang off the prefix and have no non-tree
edge, so pipeline_enumerate builds their answers as products and replays
their rounds. Stored rows may be empty or missing, as in a projected
chunk, and may be longer than the capacity. Skipped where hypothesis is
not installed.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from submatch import CandidateTree, CycleModel, QueryPlan, pipeline_enumerate

import helpers


@st.composite
def tail_instances(draw):
    """(tree, plan) with order 0..n-1, a prefix of 1-3 vertices and a tail of 2-3 leaves."""
    prefix = draw(st.integers(1, 3))
    n = prefix + draw(st.integers(2, 3))
    parent = [None] + [draw(st.integers(0, min(u, prefix) - 1)) for u in range(1, n)]
    non_tree = [[] for _ in range(n)]
    for a in range(prefix):
        for b in range(a + 1, prefix):
            if parent[b] != a and draw(st.booleans()):
                non_tree[a].append(b)
                non_tree[b].append(a)
    plan = QueryPlan(parent, non_tree, list(range(n)))

    # Vertex u's candidates are drawn from u's own id block, so the sets
    # are disjoint unless `shared` folds the last vertex onto the first.
    shared = draw(st.booleans())
    block = lambda u: 10 * (0 if shared and u == n - 1 else u)
    candidates = [sorted(draw(st.sets(st.integers(0, 5), min_size=1))) for _ in range(n)]
    candidates = [[block(u) + c for c in cands] for u, cands in enumerate(candidates)]

    def rows(source, target):
        group = {}
        for c in candidates[source]:
            if draw(st.integers(0, 4)):  # otherwise no row: an empty row, as projection leaves
                group[c] = sorted(draw(st.sets(st.sampled_from(candidates[target]))))
        return group

    groups = {(parent[u], u): rows(parent[u], u) for u in range(1, n)}
    groups.update({(a, b): rows(a, b) for a in range(n) for b in non_tree[a]})
    return CandidateTree(candidates, groups), plan, prefix, shared


def run(enumerate_fn, tree, plan, capacity):
    trace, buffer_stats = [], []
    return *enumerate_fn(tree, plan, CycleModel(capacity=capacity), trace=trace, buffer_stats=buffer_stats), trace, buffer_stats


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(instance=tail_instances(), capacity=st.integers(1, 40))
def test_free_tail_equals_staged_reference(instance, capacity):
    tree, plan, prefix, shared = instance
    assert plan.tail_start <= prefix
    fused = run(pipeline_enumerate, tree, plan, capacity)
    assert fused == run(helpers.reference_pipeline_enumerate, tree, plan, capacity)
    matches = fused[0]
    assert all(a < b for a, b in zip(matches, matches[1:]))
    if shared:
        assert all(len(set(m)) == len(m) for m in matches)
