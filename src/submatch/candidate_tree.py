"""The candidate search tree: a complete, partitionable search space.

For each query vertex u the tree stores the candidate set C(u); for each
tree edge (parent, child) a group holding, per parent candidate, the
child candidates adjacent in the data graph; for each non-tree query
edge the analogous groups in both directions. Any embedding can be
enumerated by walking these lists alone, never touching the data graph.

Construction first refines the candidate sets alone. It starts from the
local-feature filter (same label, at least the query degree; its lists
are cached on the data graph), pre-filtered by neighbour labels: v stays
a candidate of u only if v has a data neighbour of every label among u's
query neighbours, tested on the data graph's label masks
(Graph.neighbour_labels, one bit per distinct data label, built once per
data graph by its first job). Arc consistency implies that test, so the
fixpoint and every stored list are those of the unfiltered start; only
the work of reaching them shrinks (the start sets of q0..q8 on the
30,000-vertex bench graph are 2.4-5.5 times smaller).

From there, arc_fixpoint applies one rule "keep the v in C(u) with a
data neighbour in C(x)" along query arcs (u, x), first in, first out:
the tree arcs bottom-up (x = each child, along the plan's parent-first
matching order backwards), then top-down (x = parent, along it
forwards), which on a tree is the fixpoint, then the non-tree arcs. An
arc that shrinks C(u) queues again every arc into u but the one back
from x, until no set shrinks (arc consistency). The partition chunks are
refined by the same routine over a tree's stored lists
(partition.project_tree, revising CandidateTree.candidates over
CandidateTree.arcs). The query is
connected, so when a set empties every set would, and the routine
stops there. Every stored list is built once from the final sets,
walking each source set in ascending order, as the members of the
target set among the source candidate's data neighbours, so each is
non-empty, sorted and holds only candidates of its target vertex by
construction, and every candidate has a stored partner toward each of
its query neighbours. The tree's constructor measures each group and
proves the sets disjoint or not, once per index.

Both the rule and the lists read the data graph only through its
neighbour-label index (Graph.neighbours_by_label): C(x) holds only
vertices of x's label, so v's partners in C(x) are among v's ascending
row of that label, and the rest of v's adjacency is never scanned. The
first job on a data graph pays to fill the rows it reads, at most one
per (vertex, neighbour label) pair and so never more entries than the
adjacency; later jobs reuse them. The sets and lists are those the full
adjacency gives.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain
from operator import or_

from .graph import Graph, candidates_by_local_features
from .plan import QueryPlan

# Accounting: 4 bytes per stored candidate id and adjacency entry, 8 bytes
# per list header (candidate sets included), 16 bytes base.
BASE_HEADER_BYTES = 16
LIST_HEADER_BYTES = 8
ENTRY_BYTES = 4

Groups = dict[tuple[int, int], dict[int, list[int]]]
ArcTable = list[dict[int, tuple[dict[int, list[int]], bool]]]


@dataclass
class CandidateTree:
    """Candidate sets plus one adjacency group per stored query arc.

    candidates[u] is the set C(u) that arc_fixpoint revises, sorted
    only where order is part of the algorithm. groups is keyed by
    directed query arc (a, b) and maps each candidate of a to its sorted
    candidates of b: every tree edge is stored parent to child, every
    non-tree edge in both directions. Every stored list is non-empty,
    sorted ascending, keyed by a candidate of its source vertex, and
    holds only candidates of its target vertex. Only candidates and
    groups are compared.

    Trees are immutable once built: nothing changes a candidate set, an
    adjacency group or a stored list afterwards, so a partition chunk
    shares the unchanged ones with its parent instead of copying them.
    The constructor derives the rest unless passed in: group_metrics,
    every group's (bytes, longest list), and disjoint, whether the
    candidate sets are pairwise disjoint (the kernel then runs no
    visited check); a partition chunk measures only the groups it cuts
    and inherits disjoint. Then it sums size_bytes and max_degree from
    group_metrics. arcs, arc_fixpoint's table, is built on first use.
    tree_metrics in tests/helpers.py is the from-scratch check.
    """

    candidates: list[set[int]]
    groups: Groups
    group_metrics: dict[tuple[int, int], tuple[int, int]] | None = field(default=None, compare=False, repr=False)
    disjoint: bool | None = field(default=None, compare=False, repr=False)
    size_bytes: int = field(init=False, compare=False)
    max_degree: int = field(init=False, compare=False)

    def __post_init__(self):
        candidates = self.candidates
        if self.group_metrics is None:
            self.group_metrics = {key: measure_group(lists) for key, lists in self.groups.items()}
        if self.disjoint is None:
            self.disjoint = len(set().union(*candidates)) == sum(map(len, candidates))
        metrics = self.group_metrics.values()
        size = BASE_HEADER_BYTES + LIST_HEADER_BYTES * len(candidates) + ENTRY_BYTES * sum(map(len, candidates))
        self.size_bytes = size + sum(b for b, _ in metrics)
        self.max_degree = max((d for _, d in metrics), default=0)

    @cached_property
    def arcs(self) -> ArcTable:
        """arc_fixpoint's support table: each group keyed at its source, a tree edge (reverse not stored) also at its child."""
        support: ArcTable = [{} for _ in self.candidates]
        for (a, b), lists in self.groups.items():
            support[a][b] = (lists, True)
        for (a, b), lists in self.groups.items():
            if (b, a) not in self.groups:
                support[b][a] = (lists, False)
        return support


def measure_group(lists: dict[int, list[int]]) -> tuple[int, int]:
    """(bytes, longest list) of one adjacency group's stored lists."""
    lengths = list(map(len, lists.values()))
    return LIST_HEADER_BYTES * len(lengths) + ENTRY_BYTES * sum(lengths), max(lengths, default=0)


def start_candidates(data: Graph, query: Graph) -> list[set[int]]:
    """The local filter's candidates of each u whose neighbour labels cover u's.

    A candidate v of u stays only if ``data.neighbour_labels[v]`` has
    the bit of every label among u's query neighbours. Arc consistency
    implies this test, so it only shrinks the sets the refinement starts
    from. A query label is mapped to its bit through ``data.label_rank``;
    a label the data graph lacks gets a bit above every data rank, which
    no mask has, so its query neighbours keep no candidates.
    """
    masks = data.neighbour_labels
    rank = data.label_rank
    absent = len(rank)
    cand = []
    for u in range(query.num_vertices):
        need = reduce(or_, (1 << rank.get(query.labels[x], absent) for x in query.adj[u]), 0)
        cand.append({v for v in candidates_by_local_features(data, query, u) if masks[v] & need == need})
    return cand


def arc_fixpoint(sets: list, support: list[dict], arcs) -> bool:
    """Take `sets` to their arc-consistency fixpoint, starting from `arcs`.

    Every entry of `sets` is a set. An arc (x, y) keeps each v in
    sets[x] whose row toward y meets sets[y]. ``support[x][y]`` is
    ``(rows, keyed)`` for every query neighbour y of x: when keyed,
    ``rows[v]`` is v's row toward y; when not, x is a tree child of y,
    and sets[x] is intersected with the stream of the rows of sets[y].
    Every candidate looked up must have a row (label rows fill on
    lookup; a tree at its fixpoint stores one for every candidate).
    Arcs are checked first in, first out. When sets[x] shrinks it is
    replaced by the kept set, and every arc into x is queued again
    except the one back to y: rows read one symmetric relation both
    ways, so what left x had no partner in sets[y] (Mackworth's AC-3).
    Returns False as soon as a set empties, True at the fixpoint.
    """
    queue = deque(arcs)
    queued = set(queue)
    pop, push, mark, unmark = queue.popleft, queue.append, queued.add, queued.discard
    while queue:
        arc = pop()
        unmark(arc)
        x, y = arc
        rows, keyed = support[x][y]
        cand_x, cand_y = sets[x], sets[y]
        if keyed:
            keep = {v for v in cand_x if not cand_y.isdisjoint(rows[v])}
        else:
            keep = cand_x.intersection(chain.from_iterable(map(rows.__getitem__, cand_y)))
        if len(keep) < len(cand_x):
            if not keep:
                return False
            sets[x] = keep
            for z in support[x]:
                if z != y and (arc := (z, x)) not in queued:
                    mark(arc)
                    push(arc)
    return True


def build_candidate_tree(data: Graph, query: Graph, plan: QueryPlan) -> CandidateTree:
    """Construct and refine the candidate tree for (query, data)."""
    cand = start_candidates(data, query)
    by_label = data.neighbours_by_label
    labels = query.labels
    support = [{y: (by_label[labels[y]], True) for y in query.adj[x]} for x in range(query.num_vertices)]
    # Bottom-up (the parent-first order backwards) then top-down checks each
    # tree arc once and leaves the tree arcs consistent; the non-tree arcs
    # follow, and only arcs into a set that shrinks are checked again.
    parent, below_root = plan.parent, plan.order[1:]
    arcs = [(parent[c], c) for c in reversed(below_root)]
    arcs += [(c, parent[c]) for c in below_root]
    arcs += [(u, un) for u in range(query.num_vertices) for un in plan.non_tree[u]]
    if not arc_fixpoint(cand, support, arcs):
        # the query is connected, so one empty set empties them all
        cand = [set() for _ in cand]

    def group(a: int, b: int) -> dict[int, list[int]]:
        # C(b) holds only vertices of b's label, so its partners of v are
        # the ones among v's ascending label-b row, already in order.
        has, rows = cand[b].__contains__, by_label[labels[b]]
        return {v: row for v in sorted(cand[a]) if (row := list(filter(has, rows[v])))}

    # tree groups by ascending child, so each source keys its arcs children first, ascending
    stored = [(p, c) for c, p in enumerate(parent) if p is not None]
    stored += [(u, un) for u in range(query.num_vertices) for un in plan.non_tree[u]]
    return CandidateTree(cand, {(a, b): group(a, b) for a, b in stored})


def estimate_workload(tree: CandidateTree, plan: QueryPlan) -> int:
    """Count the tree-only candidate walks from the root, bottom up.

    Every count starts at 1. Each tree edge (p, c), along the matching
    order backwards so that c's counts are final, multiplies the count of
    each candidate v of p by the sum of c's counts over v's stored list
    toward c. The workload sums the root candidates' counts.
    """
    counts = [dict.fromkeys(cands, 1) for cands in tree.candidates]
    for c in reversed(plan.order[1:]):
        p = plan.parent[c]
        # every stored list holds only candidates of its child, all counted already
        count, lists, into = counts[c].__getitem__, tree.groups.get((p, c), {}), counts[p]
        for v in into:
            into[v] *= sum(map(count, lists.get(v, ())))
    return sum(counts[plan.root].values())
