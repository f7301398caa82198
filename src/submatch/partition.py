"""Recursive splitting of a candidate tree under size and degree budgets.

A tree over budget at the current matching-order vertex u has C(u),
in ascending order, cut into k even contiguous chunks, and every chunk
is made by one routine, project_tree: the projection of the parent onto
its part of C(u), taken to its arc-consistency fixpoint by the index
build's own routine, candidate_tree.arc_fixpoint, over the parent's
stored groups, started from the arcs into u. A candidate is kept only if its row toward every
query neighbour still holds a partner. Cutting C(u) leaves candidates
of other vertices, before u in the order as well as after it, with no
partner; most chunks of a cyclic query lose a whole set that way and
hold no embedding. A chunk is dropped as soon as a set empties, before
any group is cut, and any other tree with an empty candidate set (an
absent-label root) is dropped before its budget check. The chunks'
embedding sets partition the parent's. Recursion advances to the next
order position once C(u) is a singleton, and a tree whose C(u) already
is one goes on unchanged, as a skipped tree does.

A split at u is made only where a chunk could fit. At the fixpoint,
cutting C(u) to nothing empties a set Z(u) that the plan alone fixes:
u, and each later vertex whose earlier neighbours all lie in Z(u).
Every other set keeps all its candidates, since one unchanged earlier
neighbour reaches each of them. So the floor, the cut to the empty
part before any fixpoint (each later vertex keeping what the retained
sets of its earlier neighbours reach), stores exactly the groups with
neither end in Z(u), unchanged, and the same cut to any part contains
it. When one of them is over the degree budget, the tree fits the size
budget, and no stored list into u or an earlier order vertex is over
the degree budget (only splits at or before u could shorten those), u
is left unsplit (skips) and recursion advances with the same tree: a
cut would only multiply the pieces. A chunk need not contain the floor
once at its fixpoint, so a skip can cost pieces, never an embedding.
Every vertex of a tree that exhausts the order was cut to a singleton
(every list into it holds at most one entry) or skipped (every list
into it was within the degree budget, and chunks only shorten lists),
so only the size budget can still be violated there.

Everything a chunk reads is carried by the tree (CandidateTree): the
candidate sets the fixpoint revises, its arc table (built once per
tree, shared by the k sibling chunks and by a skip) and its per-group
(bytes, longest list) metrics, so a chunk costs in proportion to what
it restricts. The fixpoint's final sets are the chunk's own; unchanged
sets, and groups with both ends unchanged (with their metrics entries),
are shared by reference (trees are immutable once built). Every other
group is cut once, from the final sets, and returned with its measure.
The cut reads the rows the fixpoint guarantees (each retained candidate
has a stored row that keeps a partner), so it looks up and drops
nothing in vain: a row that loses no target is kept whole, any other is
filtered. The chunk's constructor only sums size_bytes and max_degree;
tree_metrics in tests/helpers.py is the from-scratch check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .candidate_tree import BASE_HEADER_BYTES, CandidateTree, arc_fixpoint, measure_group
from .plan import QueryPlan


@dataclass(frozen=True)
class PartitionConfig:
    """Budgets for one loadable tree: bytes, list length, and the port cap."""

    size_budget: int = 262_144
    degree_budget: int = 16
    port_limit: int = 16
    fixed_k: int | None = None

    def __post_init__(self):
        if self.degree_budget < 1:
            raise ValueError("degree_budget must be >= 1")
        if self.degree_budget > self.port_limit:
            raise ValueError("degree_budget must not exceed port_limit")
        if self.size_budget <= BASE_HEADER_BYTES:
            raise ValueError(f"size_budget must exceed the {BASE_HEADER_BYTES}-byte base header")
        if self.fixed_k is not None and self.fixed_k < 2:
            raise ValueError("fixed_k must be >= 2 when set")


class UnsplittableTreeError(RuntimeError):
    """The size budget still violated after the matching order was exhausted."""


def within_budgets(tree: CandidateTree, config: PartitionConfig) -> bool:
    return tree.size_bytes <= config.size_budget and tree.max_degree <= config.degree_budget


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def partition_factor(tree: CandidateTree, config: PartitionConfig, u: int) -> int:
    """k = min(fixed_k or ceil(max(size/size_budget, degree/degree_budget)), |C(u)|), at least 1."""
    k = config.fixed_k or max(
        _ceil_div(tree.size_bytes, config.size_budget),
        _ceil_div(tree.max_degree, config.degree_budget),
    )
    return max(1, min(k, len(tree.candidates[u])))


def _restrict(lists: dict[int, list[int]], keep_a: set[int] | None, keep_b: set[int] | None):
    """One adjacency group cut to the retained source set keep_a and target set keep_b (None: unchanged), with its measure.

    The chunk is at its fixpoint, so each retained source has a row that
    keeps a target. With keep_b None the group is the parent's rows of
    keep_a; otherwise a row that loses no target is shared whole and any
    other is filtered (stored rows are sorted, so filtered ones are too).
    """
    if keep_b is None:
        new = {v: lists[v] for v in keep_a}
    else:
        has = keep_b.__contains__
        rows = lists.items() if keep_a is None else zip(keep_a, map(lists.__getitem__, keep_a))
        new = {v: row if keep_b.issuperset(row) else list(filter(has, row)) for v, row in rows}
    return new, measure_group(new)


def project_tree(tree: CandidateTree, u: int, part_set: set[int]) -> CandidateTree | None:
    """The projection onto part, taken to its fixpoint: the tree with C(u) cut to part_set.

    arc_fixpoint revises a copy of tree.candidates over tree.arcs from
    the arcs into u (the tree is at its fixpoint), and None is returned
    as soon as a set empties, before any group is cut. The final sets
    are the chunk's candidates. Each group with an end whose set shrank
    is then cut once by _restrict, which returns its measure; the rest
    are shared with their metrics entries, and the chunk inherits the
    parent's disjointness, since it only shrinks sets.
    """
    sets = list(tree.candidates)
    sets[u] = part_set
    if not arc_fixpoint(sets, tree.arcs, [(x, u) for x in tree.arcs[u]]):
        return None
    retained = {w: keep for w, (keep, old) in enumerate(zip(sets, tree.candidates)) if keep is not old}
    groups, metrics = {}, {}
    for key, lists in tree.groups.items():
        a, b = key
        keep_a, keep_b = retained.get(a), retained.get(b)
        if keep_a is None and keep_b is None:
            groups[key], metrics[key] = lists, tree.group_metrics[key]
        else:
            groups[key], metrics[key] = _restrict(lists, keep_a, keep_b)
    return CandidateTree(sets, groups, metrics, tree.disjoint)


def skips(tree: CandidateTree, plan: QueryPlan, index: int, config: PartitionConfig) -> bool:
    """Whether u = plan.order[index] is left unsplit, by the Z(u) rule of the module docstring.

    Earlier neighbours are read from tree.arcs, and group degrees from
    tree.group_metrics. The tree must be at its fixpoint.
    """
    position, budget, arcs = plan.position, config.degree_budget, tree.arcs
    if tree.size_bytes > config.size_budget:
        return False
    degrees = [(key, degree) for key, (_, degree) in tree.group_metrics.items() if degree > budget]
    if any(position[b] <= index for (_, b), _ in degrees):
        return False
    emptied = {plan.order[index]}
    for w in plan.order[index + 1 :]:
        if all(w_from in emptied for w_from in arcs[w] if position[w_from] < position[w]):
            emptied.add(w)
    return any(emptied.isdisjoint(key) for key, _ in degrees)


def partition_tree(
    tree: CandidateTree,
    plan: QueryPlan,
    index: int,
    config: PartitionConfig,
    sink: Callable[[CandidateTree], None],
) -> int:
    """Emit budget-compliant sub-trees covering the input's search space.

    Returns the number of emitted trees. Trees with an empty candidate
    set hold no embeddings and are dropped before the budget check, so
    none is emitted. `tree` must be at its arc-consistency fixpoint (as
    build_candidate_tree leaves it); every chunk is taken to its
    fixpoint (project_tree) and dropped when that empties a set, so
    every emitted tree is at its fixpoint. The order vertex
    u = plan.order[index] is skipped, not split, when C(u) is a
    singleton or no chunk of C(u) could come within the degree budget
    (skips). Raises
    UnsplittableTreeError if the order is exhausted while the tree is
    over the size budget, the one budget that can still fail there.
    """
    if not all(tree.candidates):
        return 0
    if within_budgets(tree, config):
        sink(tree)
        return 1
    if index >= plan.num_vertices:
        raise UnsplittableTreeError(
            f"a tree of {tree.size_bytes} bytes is over the size budget of {config.size_budget} bytes"
            " after exhausting the matching order"
        )

    u = plan.order[index]
    if len(tree.candidates[u]) == 1 or skips(tree, plan, index, config):
        return partition_tree(tree, plan, index + 1, config, sink)

    cand = sorted(tree.candidates[u])
    k = partition_factor(tree, config, u)
    base, extra = divmod(len(cand), k)
    bounds = [i * base + min(i, extra) for i in range(k + 1)]
    chunks = (project_tree(tree, u, set(cand[start:stop])) for start, stop in zip(bounds, bounds[1:]))
    # each chunk is recursed into before the next one is made, as the sink's order requires
    return sum(partition_tree(sub, plan, index + (len(sub.candidates[u]) == 1), config, sink) for sub in chunks if sub)
