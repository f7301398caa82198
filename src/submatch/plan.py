"""Query planning: spanning tree, non-tree edges, and the matching order.

The query graph is rooted at the vertex with the best candidate-to-degree
ratio and turned into a BFS spanning tree. The matching order is built
from root-to-leaf paths, cheapest candidate product first, so every
vertex is preceded in the order by at least one query neighbor (and in
particular by its tree parent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import prod

from .graph import Graph, candidates_by_local_features


class DisconnectedQueryError(ValueError):
    pass


@dataclass(frozen=True)
class QueryPlan:
    """Spanning tree plus matching order for one query graph, as vertex-id tables.

    Three tables are given: parent (parent[root] is None), non_tree (every
    query edge is either a tree edge or appears in both endpoints'
    non_tree lists) and the matching order; a plan holds no graph. The
    constructor raises ValueError unless the order is a permutation of the
    vertices, non_tree has one list per vertex, every entry names a
    vertex, each non-tree link joins two vertices that no tree edge joins
    and is listed once at each end, and the order is parent-first:
    order[0] has no tree parent and every later vertex's tree parent comes
    earlier in the order. Both tree sweeps of the index build and the
    workload DP walk this one order. The constructor derives the rest:
    root, parent.index(None); position, the inverse permutation of order;
    earlier_non_tree[u], u's non-tree neighbours before it in the order;
    and tail_start, where the order's free tail begins: the longest
    suffix, of two or more vertices, whose every vertex has its tree
    parent before the suffix and no earlier non-tree neighbour;
    num_vertices when there is none.
    """

    parent: tuple[int | None, ...]
    non_tree: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]
    root: int = field(init=False)
    position: tuple[int, ...] = field(init=False)
    earlier_non_tree: tuple[tuple[int, ...], ...] = field(init=False)
    tail_start: int = field(init=False)

    def __post_init__(self) -> None:
        store = partial(object.__setattr__, self)  # the dataclass is frozen
        parent, order, non_tree = tuple(self.parent), tuple(self.order), tuple(map(tuple, self.non_tree))
        n = len(parent)
        if sorted(order) != list(range(n)) or len(non_tree) != n:
            raise ValueError(f"order {list(order)} and {len(non_tree)} non_tree lists do not cover the {n} vertices once")
        links = {(u, w) for u in range(n) for w in non_tree[u]}
        tree = {(u, p) for u, p in enumerate(parent) if p is not None}
        if not {p for _, p in tree}.union(w for _, w in links) <= set(range(n)):
            raise ValueError(f"parent {list(parent)} or non_tree {list(non_tree)} names a vertex outside 0..{n - 1}")
        once = len(links) == sum(map(len, non_tree))
        if not once or not links.isdisjoint(tree) or any(w == u or (w, u) not in links for u, w in links):
            raise ValueError(f"non_tree {list(non_tree)} does not list each non-tree link once, on both sides")
        position = [n] * n  # n until placed
        for i, u in enumerate(order):
            p = parent[u]
            if not ((p is not None and position[p] < i) if i else p is None):
                raise ValueError(f"order {list(order)} is not parent-first at vertex {u}")
            position[u] = i
        earlier = tuple(tuple(un for un in non_tree[u] if position[un] < position[u]) for u in range(n))
        tail_start = n
        latest_parent = 0  # latest parent position over order[t:]
        for t in range(n - 1, 0, -1):
            u = order[t]
            if earlier[u]:
                break
            latest_parent = max(latest_parent, position[parent[u]])
            if latest_parent < t and t <= n - 2:
                tail_start = t
        store("parent", parent)
        store("non_tree", non_tree)
        store("order", order)
        store("root", parent.index(None))
        store("position", tuple(position))
        store("earlier_non_tree", earlier)
        store("tail_start", tail_start)

    @property
    def num_vertices(self) -> int:
        return len(self.order)


def build_query_plan(query: Graph, data: Graph) -> QueryPlan:
    """Root the query, build its BFS tree and the path-based matching order.

    Deterministic for fixed inputs: ties in root selection fall to the
    smallest vertex id, BFS visits neighbors ascending, and paths are
    ordered by (candidate-count product, path ids).
    """
    n = query.num_vertices
    if n == 0:
        raise ValueError("query graph has no vertices")
    if n > 1 and 0 in query.degrees:
        # checked before the root ratio below divides by each degree
        raise DisconnectedQueryError(f"query graph is disconnected (vertex {query.degrees.index(0)} has no edges)")

    local = [candidates_by_local_features(data, query, u) for u in range(n)]
    root = 0 if n == 1 else min(range(n), key=lambda u: (Fraction(len(local[u]), query.degrees[u]), u))

    parent: list[int | None] = [None] * n
    seen = [False] * n
    seen[root] = True
    queue = [root]
    for u in queue:
        for w in query.adj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                queue.append(w)
    if not all(seen):
        raise DisconnectedQueryError("query graph is disconnected")

    non_tree = [[b for b in query.adj[a] if parent[a] != b and parent[b] != a] for a in range(n)]

    # Root-to-leaf paths, cheapest candidate product first.
    paths = []
    parents = set(parent)
    for leaf in range(n):
        if leaf not in parents:
            path = [leaf]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])  # type: ignore[arg-type]
            path.reverse()
            paths.append((prod(len(local[u]) for u in path), tuple(path)))
    paths.sort()

    order = list(dict.fromkeys(u for _, path in paths for u in path))  # each vertex where it first appears

    return QueryPlan(parent, non_tree, order)
