"""Property tests of the chunk, the skip rule and the unsplittable error on random small instances.

Skipped where hypothesis is not installed.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from submatch import PartitionConfig, UnsplittableTreeError, build_candidate_tree, build_query_plan
from submatch.candidate_tree import measure_group
from submatch.partition import project_tree, skips
import submatch.partition

import helpers
from oracle import brute_force_embeddings


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), depth=st.integers(1, 2), draw=st.data())
def test_refined_chunk_is_the_refined_projection(seed, depth, draw):
    """partition.project_tree equals the from-scratch projection taken to its fixpoint.

    Each level cuts a random vertex u to a random non-empty part of C(u),
    starting from the index and, at depth 2, from the first chunk. A
    chunk is None exactly when the reference has an empty set, is never
    its parent object, and keeps every brute-force embedding whose
    image of each cut vertex lies in its part, with every edge of it
    stored.
    """
    data, query = helpers.make_instance(seed, max_data=30, max_query=6)
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    assume(all(tree.candidates))
    embeddings = [dict(zip(plan.order, e)) for e in brute_force_embeddings(query, data, plan.order)]
    for _ in range(depth):
        u = draw.draw(st.sampled_from(plan.order))
        part = draw.draw(st.lists(st.sampled_from(sorted(tree.candidates[u])), min_size=1, unique=True))
        chunk = project_tree(tree, u, set(part))
        reference = helpers.reference_refine_tree(helpers.reference_project_tree(tree, plan, u, part))
        embeddings = [e for e in embeddings if e[u] in part]
        if not all(reference.candidates):
            assert chunk is None
            assert not embeddings
            return
        assert chunk == reference
        assert chunk is not tree
        for e in embeddings:
            assert all(e[w] in chunk.candidates[w] for w in range(plan.num_vertices))
            assert all(e[b] in chunk.groups[(a, b)].get(e[a], ()) for a, b in chunk.groups)
        tree = chunk


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), depth=st.integers(1, 2), draw=st.data())
def test_chunk_carries_the_measure_of_each_group(seed, depth, draw):
    """A chunk's group_metrics equal measure_group of each of its groups, one and two levels down.

    project_tree cuts a group and returns it with its measure, from rows
    it reads without rechecking, so the carried measure is checked
    against a fresh one of the group it stored.
    """
    data, query = helpers.make_instance(seed, max_data=30, max_query=6)
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    assume(all(tree.candidates))
    for _ in range(depth):
        u = draw.draw(st.sampled_from(plan.order))
        chunk = project_tree(tree, u, set(draw.draw(st.lists(st.sampled_from(sorted(tree.candidates[u])), min_size=1, unique=True))))
        assume(chunk is not None)
        assert chunk.group_metrics == {key: measure_group(lists) for key, lists in chunk.groups.items()}
        tree = chunk


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), draw=st.data())
def test_skip_rule_is_the_projected_floor_rule(seed, draw):
    """partition.skips equals the rule read from the from-scratch floor.

    At a random order position, the tree is the index or, as the
    recursion makes them, a refined chunk of it whose earlier order
    vertices are each cut to one random candidate (so the lists into the
    prefix are short and the rule can fire); both are at their
    fixpoint. Both budgets are random.
    """
    data, query = helpers.make_instance(seed, max_data=45, max_query=6)
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    assume(all(tree.candidates))
    index = draw.draw(st.integers(0, plan.num_vertices - 1))
    for u in plan.order[: draw.draw(st.integers(0, index))]:
        tree = project_tree(tree, u, {draw.draw(st.sampled_from(sorted(tree.candidates[u])))})
        assume(tree is not None)
    config = PartitionConfig(
        size_budget=max(17, tree.size_bytes + draw.draw(st.integers(-8, 64))),
        degree_budget=draw.draw(st.integers(1, max(1, tree.max_degree))),
    )
    skipped = skips(tree, plan, index, config)
    assert skipped == helpers.reference_skips(tree, plan, index, config)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 10**6),
    size_share=st.floats(0.0, 1.0),
    degree_budget=st.integers(1, 4),
    fixed_k=st.sampled_from([None, 2, 3]),
)
def test_exhausted_order_leaves_only_the_size_budget(seed, size_share, degree_budget, fixed_k):
    """Every tree the recursion carries past the last order vertex fits the degree budget.

    Each vertex was cut to a singleton (every list into it holds at most
    one entry) or skipped (every list into it was within the budget),
    and chunks only shorten lists. So UnsplittableTreeError is raised
    only over the size budget, and its message gives the tree's bytes
    and that budget.
    """
    data, query = helpers.make_instance(seed, max_data=30, max_query=6)
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    config = PartitionConfig(
        size_budget=max(17, int(tree.size_bytes * size_share)),
        degree_budget=degree_budget,
        port_limit=degree_budget,
        fixed_k=fixed_k,
    )
    original = submatch.partition.partition_tree
    exhausted, emitted = [], []

    def recording(tree, plan, index, config, sink):
        if index == plan.num_vertices:
            exhausted.append(tree)
        return original(tree, plan, index, config, sink)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(submatch.partition, "partition_tree", recording)
        try:
            recording(tree, plan, 0, config, emitted.append)
        except UnsplittableTreeError as exc:
            last = exhausted[-1]
            assert last.size_bytes > config.size_budget
            assert str(exc).startswith(f"a tree of {last.size_bytes} bytes is over the size budget of {config.size_budget} bytes")
    assert all(t.max_degree <= config.degree_budget for t in exhausted)
    # the kernel's port bound holds for every tree the splitter emits, at the tightest port limit allowed
    assert all(t.max_degree <= config.port_limit for t in emitted)
