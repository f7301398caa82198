"""Query planning: spanning tree, non-tree edges, and the matching order.

The query graph is rooted at the vertex with the best candidate-to-degree
ratio and turned into a BFS spanning tree. The matching order is built
from root-to-leaf paths, cheapest candidate product first, so every
vertex is preceded in the order by at least one query neighbor (and in
particular by its tree parent).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import Graph, candidates_by_local_features


class DisconnectedQueryError(ValueError):
    pass


@dataclass(frozen=True)
class QueryPlan:
    """Spanning tree plus matching order for one query graph.

    parent[root] is None. Every query edge is either a tree edge
    (parent/children) or appears in both endpoints' non_tree lists.
    bfs_order lists vertices parents-first; position is the inverse
    permutation of order. tail_start is where the order's free tail
    begins: the longest suffix, of two or more vertices, whose every
    vertex has its tree parent before the suffix and no earlier
    non-tree neighbour; num_vertices when there is none.

    local_filter is ``(query, data, lists)`` when the plan was built by
    build_query_plan: lists[u] is candidates_by_local_features(data,
    query, u), which chose the root and the order, kept so that the index
    build reuses it for that same (query, data) pair instead of filtering
    again. It takes no part in equality.
    """

    root: int
    parent: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]
    non_tree: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]
    bfs_order: tuple[int, ...]
    position: tuple[int, ...]
    earlier_non_tree: tuple[tuple[int, ...], ...]
    tail_start: int
    local_filter: tuple[Graph, Graph, list[list[int]]] | None = field(default=None, compare=False, repr=False)

    @property
    def num_vertices(self) -> int:
        return len(self.order)

    @staticmethod
    def assemble(root, parent, children, non_tree, order, bfs_order, local_filter=None) -> "QueryPlan":
        """Fill in the derived position and earlier-neighbor tables and the tail start."""
        n = len(order)
        position = [0] * n
        for i, u in enumerate(order):
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
        return QueryPlan(
            root=root,
            parent=tuple(parent),
            children=tuple(tuple(c) for c in children),
            non_tree=tuple(tuple(x) for x in non_tree),
            order=tuple(order),
            bfs_order=tuple(bfs_order),
            position=tuple(position),
            earlier_non_tree=earlier,
            tail_start=tail_start,
            local_filter=local_filter,
        )


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
    children: list[list[int]] = [[] for _ in range(n)]
    bfs_order = [root]
    seen = [False] * n
    seen[root] = True
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in query.adj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                children[u].append(w)
                bfs_order.append(w)
                queue.append(w)
    if not all(seen):
        raise DisconnectedQueryError("query graph is disconnected")

    non_tree: list[list[int]] = [[] for _ in range(n)]
    for a in range(n):
        for b in query.adj[a]:
            if a < b and parent[a] != b and parent[b] != a:
                non_tree[a].append(b)
                non_tree[b].append(a)
    non_tree = [sorted(x) for x in non_tree]

    # Root-to-leaf paths, cheapest candidate product first.
    paths = []
    for leaf in range(n):
        if not children[leaf]:
            path = [leaf]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])  # type: ignore[arg-type]
            path.reverse()
            cost = 1
            for u in path:
                cost *= len(local[u])
            paths.append((cost, tuple(path)))
    paths.sort()

    order: list[int] = []
    placed = [False] * n
    for _, path in paths:
        for u in path:
            if not placed[u]:
                placed[u] = True
                order.append(u)

    return QueryPlan.assemble(root, parent, children, non_tree, order, bfs_order, (query, data, local))
