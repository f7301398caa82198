"""Recursive splitting of a candidate tree under size and degree budgets.

A tree over budget at the current matching-order vertex u has C(u) cut
into k even contiguous chunks, and every chunk is made by one routine,
project_tree: the projection of the parent onto its part of C(u),
taken to its arc-consistency fixpoint by the index build's own routine,
candidate_tree.arc_fixpoint, over the parent's stored groups, started
from the arcs into u. A candidate is kept only if its row toward every
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

Everything a chunk reads is carried by the tree (CandidateTree): its
arc table, built once per tree and shared by the k sibling chunks and
by a skip, and its per-group (bytes, longest list) metrics. So a chunk
costs in proportion to what it restricts, not to the parent tree. A
vertex whose set is unchanged keeps the parent's list object, and an
adjacency group whose endpoints are both unchanged is shared by
reference with its metrics entry (trees are immutable once built).
Every other group is cut once, from the final sets, by one rule (a row
that loses no target is kept whole, any other row is filtered) and
measured as it is cut. The chunk is built from its sets, its groups,
this metrics table and the parent's disjointness, so its constructor
measures nothing again and only sums size_bytes and max_degree;
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


def _restrict(lists: dict[int, list[int]], cand_a: list[int] | None, keep_b: set[int] | None) -> dict[int, list[int]]:
    """One adjacency group cut to the retained sources cand_a and targets keep_b (None: unchanged).

    A row is shared whole when it loses no target and filtered otherwise
    (stored rows are sorted, so filtered ones are too); empty rows are
    dropped.
    """
    new: dict[int, list[int]] = {}
    for v in lists if cand_a is None else cand_a:
        row = lists.get(v)
        if row and keep_b is not None and not keep_b.issuperset(row):
            row = [x for x in row if x in keep_b]
        if row:
            new[v] = row
    return new


def project_tree(tree: CandidateTree, u: int, part_set: set[int]) -> CandidateTree | None:
    """The projection onto part, taken to its fixpoint: the tree with C(u) cut to part_set.

    A candidate v of x is kept while its stored row toward each query
    neighbour y meets C(y); a tree child's candidates are the reach of
    its parent's retained rows. The tree is at its fixpoint, so
    arc_fixpoint reads tree.arcs from the arcs into u. Returns None as
    soon as a set empties, before any group is cut. Otherwise each group
    with an end whose set shrank is cut once, from the final sets, and
    measured; every other group is shared with its metrics entry, and
    the chunk inherits the parent's disjointness: it only shrinks sets.
    """
    sets = list(tree.candidates)
    if len(part_set) < len(sets[u]):
        sets[u] = part_set
        if not arc_fixpoint(sets, tree.arcs, [(x, u) for x in tree.arcs[u]]):
            return None
    retained = {w: keep for w, keep in enumerate(sets) if keep is not tree.candidates[w]}
    candidates = [sorted(keep) if w in retained else keep for w, keep in enumerate(sets)]
    groups, metrics = {}, {}
    for key, lists in tree.groups.items():
        a, b = key
        keep_a, keep_b = retained.get(a), retained.get(b)
        if keep_a is None and keep_b is None:
            groups[key] = lists
            metrics[key] = tree.group_metrics[key]
        else:
            groups[key] = new = _restrict(lists, None if keep_a is None else candidates[a], keep_b)
            metrics[key] = measure_group(new)
    return CandidateTree(candidates, groups, metrics, tree.disjoint)


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
    if any(not c for c in tree.candidates):
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
    cand = tree.candidates[u]
    if len(cand) == 1 or skips(tree, plan, index, config):
        return partition_tree(tree, plan, index + 1, config, sink)

    k = partition_factor(tree, config, u)
    base, extra = divmod(len(cand), k)
    emitted = 0
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        sub = project_tree(tree, u, set(cand[start : start + size]))
        start += size
        if sub is None:
            continue
        emitted += partition_tree(sub, plan, index + (len(sub.candidates[u]) == 1), config, sink)
    return emitted
