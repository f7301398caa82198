"""Shared fixtures, instance generators and reference models for the test suite.

Everything is driven by explicit seeds so failures replay exactly. Each
reference_* function (and the staged kernel model it drives) is the
expected value of the package function it names. The fixtures are the
bundled worked pair, a hand-built candidate tree with known numbers and
the deterministic 3000-vertex benchmark graph with its nine queries.
routed_job and golden_entry read a job's routing and emitted trees from
outside it, by wrapping the scheduler's module attributes for one job.
"""

from __future__ import annotations

import hashlib
import random
import tempfile
from bisect import bisect_left
from collections import deque
from itertools import chain
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import pytest

from submatch import (
    CandidateTree,
    Graph,
    GraphFormatError,
    PartitionConfig,
    QueryPlan,
    SchedulerState,
    UnsplittableTreeError,
    build_candidate_tree,
    build_query_plan,
    load_graph,
    partition_factor,
    powerlaw_graph,
    random_graph,
    within_budgets,
)
import submatch.cli
import submatch.partition
import submatch.scheduler
from submatch.candidate_tree import BASE_HEADER_BYTES, ENTRY_BYTES, LIST_HEADER_BYTES
from submatch.fixtures import QUERY_NAMES, data_path
from submatch.kernel import BufferOverflowError, CycleModel, RoundTrace

from oracle import brute_force_embeddings

BENCHMARK_SEED = 1357
BENCHMARK_VERTICES = 3000
BENCHMARK_EXPONENT = 2.5
BENCHMARK_AVG_DEGREE = 10.0  # hub-heavy, like social-network benchmarks
BENCHMARK_LABELS = 11


@lru_cache(maxsize=None)
def worked_data() -> Graph:
    return load_graph(data_path("worked_data"))


@lru_cache(maxsize=None)
def worked_query() -> Graph:
    return load_graph(data_path("worked_query"))


@lru_cache(maxsize=None)
def benchmark_graph() -> Graph:
    """The 3000-vertex benchmark graph, generated on first use: same seed, same bytes."""
    return powerlaw_graph(
        BENCHMARK_VERTICES,
        BENCHMARK_EXPONENT,
        BENCHMARK_LABELS,
        BENCHMARK_SEED,
        avg_degree=BENCHMARK_AVG_DEGREE,
    )


@lru_cache(maxsize=None)
def benchmark_queries() -> dict[str, Graph]:
    return {name: load_graph(data_path(name)) for name in QUERY_NAMES}


def has_edge(graph: Graph, a: int, b: int) -> bool:
    row = graph.adj[a]
    i = bisect_left(row, b)
    return i < len(row) and row[i] == b


def dump_tree(tree: CandidateTree) -> str:
    """Deterministic text dump used by golden-file tests.

    One ``C(u): ...`` line per query vertex, its candidates ascending,
    then one ``N[a->b][v]: ...`` line per stored adjacency list, keys
    ascending.
    """
    lines = []
    for u, cand in enumerate(tree.candidates):
        lines.append(f"C({u}): {' '.join(map(str, sorted(cand)))}".rstrip())
    for a, b in sorted(tree.groups):
        per_cand = tree.groups[(a, b)]
        for v in sorted(per_cand):
            if per_cand[v]:
                lines.append(f"N[{a}->{b}][{v}]: {' '.join(map(str, per_cand[v]))}")
    return "\n".join(lines) + "\n"


def routed_job(*args, **kwargs):
    """run_job's (embeddings, stats) and the (workload, "host" or "kernel") of each tree it routed, in order.

    route_tree is replaced on the scheduler module for the job's
    duration, so the log is read from outside the job.
    """
    log = []
    real = submatch.scheduler.route_tree

    def route(delta, w_c, w_f, workload):
        to_host = real(delta, w_c, w_f, workload)
        log.append((workload, "host" if to_host else "kernel"))
        return to_host

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(submatch.scheduler, "route_tree", route)
        embeddings, stats = submatch.scheduler.run_job(*args, **kwargs)
    return embeddings, stats, log


# The job's counters that tests/golden/outputs.json pins, besides its trees.
GOLDEN_STATS = (
    "embeddings",
    "partitions",
    "results_generated",
    "edge_tasks_generated",
    "w_c",
    "w_f",
    "host_trees",
    "kernel_trees",
    "cycles_basic",
    "cycles_task",
    "cycles_sep",
)


def golden_entry(data: Graph, name: str, config: PartitionConfig = PartitionConfig()) -> dict:
    """What the golden files under tests/golden/ record of one bundled query's job on `data`.

    The job runs at `config`'s budgets and delta 0.1. Its emitted trees
    are read where the job costs each one (scheduler.estimate_workload):
    their count, and sha256 over each tree's dump_tree and (size_bytes,
    max_degree) in emission order. Its kernel trace is pinned as the
    sha256 of the CSV `run --trace` writes for it (cli._write_trace).
    """
    digest, trees, trace = hashlib.sha256(), 0, []
    real = submatch.scheduler.estimate_workload

    def costed(tree, plan):
        nonlocal trees
        trees += 1
        digest.update(f"{dump_tree(tree)}{tree.size_bytes} {tree.max_degree}\n".encode())
        return real(tree, plan)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(submatch.scheduler, "estimate_workload", costed)
        _, stats = submatch.scheduler.run_job(
            data, benchmark_queries()[name], config, SchedulerState(0.1), "share", trace=trace
        )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        submatch.cli._write_trace(str(path), trace)
        trace_sha256 = hashlib.sha256(path.read_bytes()).hexdigest()
    return {
        "trees": trees,
        "tree_sha256": digest.hexdigest(),
        "trace_sha256": trace_sha256,
        **{field: getattr(stats, field) for field in GOLDEN_STATS},
    }


def partition_example() -> tuple[CandidateTree, QueryPlan]:
    """Hand-built candidate tree with two root candidates and 7 tree walks.

    Query vertices 0..3: 0 is the root with children 1 and 2, vertex 3
    hangs below 1, and (1, 2) is the only non-tree edge. Data vertex ids
    run 1..10. Projecting the root part [1] keeps {3, 5} under vertex 1,
    {6, 8} under vertex 2, and {9, 10} under vertex 3; the workload
    counts at the root are 4 and 3.
    """
    plan = QueryPlan(parent=[None, 0, 0, 1], non_tree=[[], [2], [1], []], order=[0, 1, 2, 3])
    tree = CandidateTree(
        candidates=[{1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10}],
        groups={
            (0, 1): {1: [3, 5], 2: [4]},
            (0, 2): {1: [6, 8], 2: [6, 7, 8]},
            (1, 3): {3: [9], 4: [9], 5: [10]},
            (1, 2): {3: [6], 4: [7], 5: [8]},
            (2, 1): {6: [3], 7: [4], 8: [5]},
        },
    )
    return tree, plan


def hash_order_example() -> tuple[CandidateTree, QueryPlan]:
    """Hand-built path tree 0-1-2 whose root set {1, 33, 64} iterates as 64, 1, 33.

    CPython places small ints by value modulo the table size, so the set
    iterates out of ascending order. Its matches, ascending, are
    (1, 2, 4), (1, 2, 5), (33, 2, 4), (33, 2, 5), (33, 3, 5), (64, 3, 5).
    """
    plan = QueryPlan(parent=[None, 0, 1], non_tree=[[], [], []], order=[0, 1, 2])
    tree = CandidateTree(
        candidates=[{1, 33, 64}, {2, 3}, {4, 5}],
        groups={(0, 1): {1: [2], 33: [2, 3], 64: [3]}, (1, 2): {2: [4, 5], 3: [5]}},
    )
    return tree, plan


def random_connected_query(
    n: int, extra_edges: int, labels: list[int], seed: int | random.Random
) -> Graph:
    """Connected query: random spanning tree plus extra non-tree edges.

    labels supplies the alphabet to draw vertex labels from (typically
    the labels present in a data graph, so candidates can exist).
    """
    if n < 2:
        raise ValueError("query needs at least 2 vertices")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    missing = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    rng.shuffle(missing)
    edges.update(missing[: min(extra_edges, len(missing))])
    vlabels = [rng.choice(labels) for _ in range(n)]
    return Graph.from_edges(vlabels, edges)


def make_instance(seed: int, *, max_data=60, min_data=10, max_query=7, min_query=3):
    """One random (data, query) pair with label-compatible query vertices."""
    rng = random.Random(seed)
    n = rng.randint(min_data, max_data)
    p = rng.uniform(0.08, 0.3)
    labels = rng.randint(2, 5)
    data = random_graph(n, p, labels, rng)
    present = sorted(set(data.labels))
    nq = rng.randint(min_query, max_query)
    extra = rng.randint(0, 3)
    query = random_connected_query(nq, extra, present, rng)
    return data, query


def solvable_instances(count: int, master_seed: int, *, max_embeddings=5000, **kwargs):
    """Deterministic stream of instances whose oracle answer stays small.

    Instances whose query outgrows the data graph's degrees entirely are
    still kept (empty answers are legal); only blowups are skipped so
    test runtimes stay bounded.
    """
    out = []
    seed = master_seed
    while len(out) < count:
        seed += 1
        data, query = make_instance(seed, **kwargs)
        try:
            plan = build_query_plan(query, data)
        except ValueError:
            continue
        expected = brute_force_embeddings(query, data, plan.order)
        if len(expected) > max_embeddings:
            continue
        out.append((data, query, plan, expected))
    return out


def built_instances(count: int, master_seed: int, **kwargs):
    """solvable_instances plus the constructed candidate tree."""
    out = []
    for data, query, plan, expected in solvable_instances(count, master_seed, **kwargs):
        out.append((data, query, plan, build_candidate_tree(data, query, plan), expected))
    return out


def reference_from_edges(labels, edges):
    """Set-based Graph.from_edges: the test reference for the list-based build.

    Checks each edge in input order against one set per vertex, so the
    first defective edge raises, then sorts every set into its row.
    """
    n = len(labels)
    for i, lab in enumerate(labels):
        if lab < 0:
            raise GraphFormatError(f"vertex {i} has negative label {lab}")
    adj = [set() for _ in range(n)]
    for a, b in edges:
        if a == b:
            raise GraphFormatError(f"self-loop at vertex {a}")
        if not (0 <= a < n and 0 <= b < n):
            raise GraphFormatError(f"edge ({a}, {b}) references unknown vertex")
        if b in adj[a]:
            raise GraphFormatError(f"duplicate edge ({a}, {b})")
        adj[a].add(b)
        adj[b].add(a)
    rows = tuple(tuple(sorted(s)) for s in adj)
    return Graph(tuple(labels), rows)


def add_random_edges(graph: Graph, count: int, rng: random.Random) -> Graph:
    """Copy of `graph` with up to `count` fresh random edges added."""
    existing = set(graph.edges())
    missing = [
        (a, b)
        for a in range(graph.num_vertices)
        for b in range(a + 1, graph.num_vertices)
        if (a, b) not in existing
    ]
    rng.shuffle(missing)
    return Graph.from_edges(list(graph.labels), sorted(existing | set(missing[:count])))


def reference_candidate_tree(data, query, plan):
    """Naive fixpoint of the index: the test reference for build_candidate_tree.

    From the local filter (same label, at least the query degree), drop
    every candidate with no data neighbour in the candidate set across
    some query edge, tree or non-tree, in either direction, until
    nothing changes. Each stored group then holds, per candidate of its
    source with at least one, the data neighbours among its target's
    candidates.
    """
    cand = [
        {v for v in range(data.num_vertices) if data.labels[v] == query.labels[u] and data.degrees[v] >= query.degrees[u]}
        for u in range(query.num_vertices)
    ]
    tree_edges = [(plan.parent[u], u) for u in range(plan.num_vertices) if plan.parent[u] is not None]
    non_tree_edges = [(u, un) for u in range(plan.num_vertices) for un in plan.non_tree[u]]
    changed = True
    while changed:
        changed = False
        for a, b in tree_edges + [(b, a) for a, b in tree_edges] + non_tree_edges:
            keep = {v for v in cand[a] if any(w in cand[b] for w in data.adj[v])}
            if keep != cand[a]:
                cand[a] = keep
                changed = True

    groups = {}
    for a, b in tree_edges + non_tree_edges:
        rows = {v: sorted(set(data.adj[v]) & cand[b]) for v in cand[a]}
        groups[(a, b)] = {v: row for v, row in rows.items() if row}
    return CandidateTree(cand, groups)


def _earlier_links(plan, w):
    """Query neighbours of w earlier in the order, each with the key of its lists toward w.

    The order is parent-first, so w's tree parent is one of them and
    none of its tree children is.
    """
    p = plan.parent[w]
    if p is not None:
        yield p, (p, w)
    for un in plan.non_tree[w]:
        if plan.position[un] < plan.position[w]:
            yield un, (un, w)


def reference_project_tree(tree, plan, u, part, *, allow_empty=False):
    """From-scratch projection onto `part` of C(u), not taken to its fixpoint.

    Vertices before u in the matching order keep their full sets, u
    keeps exactly `part`, and each later vertex keeps the candidates
    linked to the retained set of an earlier query neighbour; every
    group is rebuilt from the retained sets. Taken to its fixpoint by
    reference_refine_tree, the reference for submatch.project_tree,
    which shares unchanged lists with its parent instead. With
    allow_empty, an empty part gives the floor: the reference for the
    skip rule, whose max_degree submatch.partition.skips reads from the
    plan and the tree's group metrics without building it.
    """
    if not part and not allow_empty:
        raise ValueError("part must be non-empty")
    pos_u = plan.position[u]
    part_set = set(part)
    if not part_set <= tree.candidates[u]:
        raise ValueError("part must be a subset of the candidates of u")

    retained = [set(tree.candidates[w]) if plan.position[w] < pos_u else set() for w in range(plan.num_vertices)]
    retained[u] = part_set

    for pos in range(pos_u + 1, plan.num_vertices):
        w = plan.order[pos]
        linked = set()
        for w_from, key in _earlier_links(plan, w):
            lists = tree.groups.get(key, {})
            for v_from in retained[w_from]:
                linked.update(lists.get(v_from, ()))
        retained[w] = linked & tree.candidates[w]

    groups = {}
    for (a, b), lists in tree.groups.items():
        keep_a, keep_b = retained[a], retained[b]
        new_lists = {}
        for v, row in lists.items():
            if v not in keep_a:
                continue
            new_row = [x for x in row if x in keep_b]
            if new_row:
                new_lists[v] = new_row
        groups[(a, b)] = new_lists
    return CandidateTree(retained, groups)


def reference_refine_tree(tree):
    """From-scratch arc-consistency fixpoint of a tree over its stored groups.

    Applied to a projection, the test reference for
    submatch.project_tree, which starts from the parent's sets with
    C(u) cut and cuts each group once at the end. Drop every candidate v
    of a with no partner in C(b) across some query edge (a, b): through
    v's stored row when the group is keyed by a, else (a a tree child of
    b) through the rows of the retained candidates of b. Repeat until
    nothing changes, then cut every group to the final sets.
    """
    cand = [set(c) for c in tree.candidates]
    groups = tree.groups
    changed = True
    while changed:
        changed = False
        for a, b in list(groups) + [(b, a) for a, b in groups if (b, a) not in groups]:
            if (a, b) in groups:
                keep = {v for v in cand[a] if any(w in cand[b] for w in groups[(a, b)].get(v, ()))}
            else:
                keep = {v for v in cand[a] if any(v in groups[(b, a)].get(x, ()) for x in cand[b])}
            if keep != cand[a]:
                cand[a] = keep
                changed = True

    out = {}
    for (a, b), lists in groups.items():
        rows = {v: [x for x in row if x in cand[b]] for v, row in lists.items() if v in cand[a]}
        out[(a, b)] = {v: row for v, row in rows.items() if row}
    return CandidateTree(cand, out)


def reference_skips(tree, plan, index, config):
    """The skip rule from its definition: plan.order[index] is left unsplit.

    The tree fits the size budget, no stored list into order[:index + 1]
    is over the degree budget, and the from-scratch floor (the
    projection onto the empty part) is.
    """
    into_prefix = [row for (_, b), lists in tree.groups.items() if plan.position[b] <= index for row in lists.values()]
    floor = reference_project_tree(tree, plan, plan.order[index], [], allow_empty=True)
    return (
        tree.size_bytes <= config.size_budget
        and all(len(row) <= config.degree_budget for row in into_prefix)
        and floor.max_degree > config.degree_budget
    )


def reference_partitions(tree, plan, index, config, skipped=None):
    """The trees partition_tree emits, in order, split by reference_project_tree.

    A tree with an empty candidate set is dropped before its budget
    check. Each chunk is refined by reference_refine_tree. Each query
    vertex left unsplit by the skip rule is appended to `skipped` when a
    list is given.
    """
    if any(not c for c in tree.candidates):
        return []
    if within_budgets(tree, config):
        return [tree]
    if index >= plan.num_vertices:
        raise UnsplittableTreeError("the size budget still violated after exhausting the matching order")
    u = plan.order[index]
    if reference_skips(tree, plan, index, config):
        if skipped is not None:
            skipped.append(u)
        return reference_partitions(tree, plan, index + 1, config, skipped)
    cand = sorted(tree.candidates[u])
    k = partition_factor(tree, config, u)
    base, extra = divmod(len(cand), k)
    out = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        sub = reference_refine_tree(reference_project_tree(tree, plan, u, cand[start : start + size]))
        start += size
        out += reference_partitions(sub, plan, index + (len(sub.candidates[u]) == 1), config, skipped)
    return out


def partition_calls(tree, plan, config):
    """partition_tree's emitted trees, in order, and every tree it was called on, recursion included.

    The recursion calls the module attribute, which is replaced while
    this runs, so the calls hold the root, every chunk and every tree a
    skip or a singleton C(u) passes on.
    """
    original = submatch.partition.partition_tree
    emitted, calls = [], []

    def recording(tree, plan, index, config, sink):
        calls.append(tree)
        return original(tree, plan, index, config, sink)

    submatch.partition.partition_tree = recording
    try:
        recording(tree, plan, 0, config, emitted.append)
    finally:
        submatch.partition.partition_tree = original
    return emitted, calls


def tree_metrics(tree: CandidateTree) -> tuple[int, int]:
    """Recompute (size_bytes, max_degree) from the stored lists, as the check of the carried ones."""
    size = BASE_HEADER_BYTES
    for cand in tree.candidates:
        size += LIST_HEADER_BYTES + ENTRY_BYTES * len(cand)
    max_degree = 0
    for lists in tree.groups.values():
        for lst in lists.values():
            size += LIST_HEADER_BYTES + ENTRY_BYTES * len(lst)
            max_degree = max(max_degree, len(lst))
    return size, max_degree


def carries_its_facts(tree, root) -> bool:
    """Whether the facts `tree` carries agree with a freshly built tree over its sets and groups.

    The fresh tree measures every group and tests disjointness by the
    union of the candidate sets; tree_metrics recounts (size_bytes,
    max_degree) from every list. A partition of `root` inherits
    root.disjoint, which must hold whenever it is set. Every group holds
    a non-empty row for each candidate of its source vertex and only
    candidates of its target vertex: the fixpoint the chunk cut relies on.
    """
    fresh = CandidateTree(tree.candidates, tree.groups)
    cand = tree.candidates
    return (
        tree == fresh
        and all(
            lists.keys() == cand[a] and all(lists.values()) and cand[b].issuperset(chain.from_iterable(lists.values()))
            for (a, b), lists in tree.groups.items()
        )
        and tree.group_metrics == fresh.group_metrics
        and (tree.size_bytes, tree.max_degree) == (fresh.size_bytes, fresh.max_degree) == tree_metrics(tree)
        and tree.disjoint == root.disjoint
        and (fresh.disjoint or not tree.disjoint)
        and (tree is not root or tree.disjoint == fresh.disjoint)
    )


def reference_tree_matches(tree, plan):
    """Backtracking matcher over the candidate tree alone.

    The test reference for the kernel's loop, which both sides of a job
    run. Depth-first along the matching order, extending through the
    stored parent lists and checking injectivity plus every earlier
    non-tree neighbor through the stored non-tree lists. Never reads
    the data graph. Results are order-aligned tuples, sorted.
    """
    order = plan.order
    results = []
    mapping = []
    used = set()

    def extend(depth):
        if depth == len(order):
            results.append(tuple(mapping))
            return
        u = order[depth]
        p = plan.parent[u]
        if depth == 0:
            pool = tree.candidates[u]
        else:
            pool = tree.groups.get((p, u), {}).get(mapping[plan.position[p]], ())
        for v in pool:
            if v in used:
                continue
            ok = True
            for un in plan.earlier_non_tree[u]:
                row = tree.groups.get((un, u), {}).get(mapping[plan.position[un]], ())
                if v not in row:
                    ok = False
                    break
            if ok:
                mapping.append(v)
                used.add(v)
                extend(depth + 1)
                mapping.pop()
                used.remove(v)

    extend(0)
    results.sort()
    return results


# The staged kernel model: one function per pipeline stage, with per-task
# records and bit vectors, driven round by round by
# reference_pipeline_enumerate.


class VisitedTask(NamedTuple):
    candidate: int
    source: int  # index into the batch's consumed inputs


class EdgeTask(NamedTuple):
    neighbor_vertex: int  # mapping of the earlier non-tree neighbor
    candidate: int  # the newly mapped vertex
    output: int  # index of the expanded partial in the batch
    pair: tuple[int, int]  # (earlier query vertex, expanded query vertex)


@dataclass
class TaskBatch:
    """One round's expansions plus their validation tasks and bits."""

    query_vertex: int
    sources: list[tuple[int, ...]]
    outputs: list[tuple[int, ...]]
    visited_tasks: list[VisitedTask]
    edge_tasks: list[EdgeTask]
    visited_bits: list[int] | None = None
    edge_bits: list[int] | None = None


class _Pending(NamedTuple):
    partial: tuple[int, ...]
    offset: int  # resume position into the candidate list (continuations)


class ResultBuffer:
    """Bounded per-depth queues for in-flight partial results.

    Levels 1..depth_levels each hold at most `capacity` entries,
    continuation records included; the bound is checked on every push.
    Only a level's front entry can be a continuation (a split input is
    requeued at the front), so a level stores bare partials plus the
    resume offset of its front entry.
    """

    def __init__(self, depth_levels: int, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._levels: dict[int, deque[tuple[int, ...]]] = {d: deque() for d in range(1, depth_levels + 1)}
        self._front_offset = dict.fromkeys(self._levels, 0)
        self.max_occupancy = 0

    def push(self, item: _Pending, depth: int) -> None:
        if item.offset:
            raise ValueError("only the front entry of a level can resume mid-list")
        self.extend([item.partial], depth)

    def extend(self, partials: Sequence[tuple[int, ...]], depth: int) -> None:
        """Append fresh partials to one level, checking the bound once."""
        level = self._levels[depth]
        if len(level) + len(partials) > self.capacity:
            raise BufferOverflowError(
                f"level {depth} holds {len(level)} of {self.capacity}; {len(partials)} more do not fit"
            )
        level.extend(partials)
        self.max_occupancy = max(self.max_occupancy, len(level))

    def requeue_front(self, item: _Pending, depth: int) -> None:
        level = self._levels[depth]
        if len(level) >= self.capacity:
            raise BufferOverflowError(f"level {depth} already holds {len(level)} of {self.capacity}")
        level.appendleft(item.partial)
        self._front_offset[depth] = item.offset
        self.max_occupancy = max(self.max_occupancy, len(level))

    def peek(self, depth: int) -> _Pending | None:
        level = self._levels[depth]
        return _Pending(level[0], self._front_offset[depth]) if level else None

    def pop(self, depth: int) -> _Pending:
        item = _Pending(self._levels[depth].popleft(), self._front_offset[depth])
        self._front_offset[depth] = 0
        return item

    def occupancy(self, depth: int) -> int:
        return len(self._levels[depth])

    def deepest_nonempty(self) -> int | None:
        for d in sorted(self._levels, reverse=True):
            if self._levels[d]:
                return d
        return None


def generate_batch(
    buffer: ResultBuffer, depth: int, tree: CandidateTree, plan: QueryPlan, capacity: int
) -> TaskBatch:
    """Expand partials from one buffer level into a bounded batch.

    Pops inputs FIFO until admitting the next one could push the batch
    past `capacity`; that input stays queued for the next round. An
    input whose candidate list alone exceeds `capacity` is split: the
    first `capacity` candidates expand now and a continuation record
    is requeued at the same level. One visited task is emitted per
    output; edge tasks are emitted per earlier non-tree neighbor of the
    expanded query vertex, in neighbor-major order.
    """
    u = plan.order[depth]
    parent = plan.parent[u]
    assert parent is not None
    parent_pos = plan.position[parent]
    lists = tree.groups.get((parent, u), {})

    sources: list[tuple[int, ...]] = []
    outputs: list[tuple[int, ...]] = []
    visited: list[VisitedTask] = []

    while len(outputs) < capacity:
        head = buffer.peek(depth)
        if head is None:
            break
        partial, offset = head
        cands = lists.get(partial[parent_pos], ())
        remaining = len(cands) - offset
        if len(outputs) + remaining > capacity:
            if outputs:
                break  # unconsumed input stays at the front of its level
            buffer.pop(depth)
            chunk = cands[offset : offset + capacity]
            buffer.requeue_front(_Pending(partial, offset + capacity), depth)
        else:
            buffer.pop(depth)
            chunk = cands[offset:]
        src = len(sources)
        sources.append(partial)
        for v in chunk:
            visited.append(VisitedTask(v, src))
            outputs.append(partial + (v,))

    edge: list[EdgeTask] = []
    for un in plan.earlier_non_tree[u]:
        npos = plan.position[un]
        for i, po in enumerate(outputs):
            edge.append(EdgeTask(po[npos], po[-1], i, (un, u)))

    return TaskBatch(u, sources, outputs, visited, edge)


def validate_visited(tasks: Sequence[VisitedTask], sources: Sequence[tuple[int, ...]]) -> list[int]:
    """Bit per task: 1 iff the candidate is absent from its source prefix."""
    return [0 if t.candidate in sources[t.source] else 1 for t in tasks]


def validate_edges(tree: CandidateTree, tasks: Sequence[EdgeTask], batch_size: int) -> list[int]:
    """AND-accumulated edge bit per output; outputs with no tasks stay 1."""
    bits = [1] * batch_size
    for t in tasks:
        row = tree.groups.get(t.pair, {}).get(t.neighbor_vertex, ())
        if t.candidate not in row:
            bits[t.output] = 0
    return bits


def synchronize(batch: TaskBatch, buffer: ResultBuffer, matches: list, order_length: int) -> int:
    """File each doubly-valid output into the buffer or the match set."""
    assert batch.visited_bits is not None and batch.edge_bits is not None
    accepted = 0
    for i, po in enumerate(batch.outputs):
        if batch.visited_bits[i] and batch.edge_bits[i]:
            if len(po) == order_length:
                matches.append(po)
            else:
                buffer.push(_Pending(po, 0), len(po))
            accepted += 1
    return accepted


def reference_pipeline_enumerate(
    tree,
    plan,
    model=CycleModel(),
    *,
    trace=None,
    buffer_stats=None,
):
    """Stage-by-stage driver: generate_batch, both validators, synchronize.

    The test reference for submatch.pipeline_enumerate, which runs each
    round as one pass instead; both take the same arguments and must
    give == matches, task counts, traces and buffer peaks. Needs a query
    of at least two vertices.
    """
    capacity = model.capacity
    order_length = plan.num_vertices
    buffer = ResultBuffer(order_length - 1, capacity)
    roots = sorted(tree.candidates[plan.root])
    cursor = 0
    matches = []
    results_generated = edge_tasks_generated = 0

    while True:
        depth = buffer.deepest_nonempty()
        if depth is None:
            if cursor >= len(roots):
                break
            take = min(capacity, len(roots) - cursor)
            for v in roots[cursor : cursor + take]:
                buffer.push(_Pending((v,), 0), 1)
            cursor += take
            depth = 1
        batch = generate_batch(buffer, depth, tree, plan, capacity)
        batch.visited_bits = validate_visited(batch.visited_tasks, batch.sources)
        batch.edge_bits = validate_edges(tree, batch.edge_tasks, len(batch.outputs))
        accepted = synchronize(batch, buffer, matches, order_length)
        assert len(batch.visited_tasks) == len(batch.outputs)  # the model's one visited task per output
        results_generated += len(batch.outputs)
        edge_tasks_generated += len(batch.edge_tasks)
        if trace is not None:
            trace.append(RoundTrace(depth, len(batch.outputs), len(batch.edge_tasks), accepted))

    if buffer_stats is not None:
        buffer_stats.append((buffer.max_occupancy, capacity))
    matches.sort()
    return matches, results_generated, edge_tasks_generated


def _round_fill(outputs: int, edge_tasks: int, max_latency: float) -> float:
    stages = (4 if outputs else 0) + (2 if edge_tasks else 0)
    return stages * (max_latency + 1.0)


def pipeline_fill_slack(trace: Iterable[RoundTrace], model: CycleModel) -> float:
    """Total pipeline fill overhead: active stages times max latency per round."""
    max_latency = max(model.latencies)
    return sum(_round_fill(r.outputs, r.edge_tasks, max_latency) for r in trace)


# Items a round of n outputs and m edge tasks issues under each variant, one item per stage per cycle.
_ISSUED = {
    "basic": lambda n, m: 4 * n + 2 * m,  # four per-output and two edge stages, back to back
    "task": lambda n, m: 2 * n + max(n, m),  # expansion overlaps the visited check, edges run beside collection
    "sep": lambda n, m: n + max(n, m),  # collection also overlaps expansion
}


def simulate_dataflow_schedule(trace: Iterable[RoundTrace], variant: str, model: CycleModel) -> float:
    """Event-style makespan of a recorded run under a stage schedule.

    The check of submatch.cycle_estimate's closed forms, sharing no
    code with them. Each round issues its items as _ISSUED counts them
    and pays a fill of its active stages times the largest latency.
    Makespan is never less than the closed-form estimate minus the fill
    slack for the same trace.
    """
    if variant not in _ISSUED:
        raise ValueError(f"unknown variant {variant!r}")
    issue = _ISSUED[variant]
    max_latency = max(model.latencies)
    total = 0.0
    for r in trace:
        total += issue(r.outputs, r.edge_tasks) + _round_fill(r.outputs, r.edge_tasks, max_latency)
    return total


def reference_powerlaw_graph(n, exponent, num_labels, seed, avg_degree=8.0):
    """powerlaw_graph drawing one endpoint pair per `choices` call.

    The test reference for the batched draws of
    submatch.randgraph.powerlaw_graph: both must give == graphs and
    leave a passed-in Random in the same state.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    labels = [rng.randrange(num_labels) for _ in range(n)]
    weights = [(i + 1) ** (-1.0 / (exponent - 1.0)) for i in range(n)]
    cum = list(weights)
    for i in range(1, n):
        cum[i] += cum[i - 1]
    target = min(int(n * avg_degree) // 2, n * (n - 1) // 2)
    edges = set()
    attempts = 0
    population = range(n)
    while len(edges) < target and attempts < 50 * (target + 1):
        attempts += 1
        a, b = rng.choices(population, cum_weights=cum, k=2)
        if a == b:
            continue
        edges.add((a, b) if a < b else (b, a))
    return Graph.from_edges(labels, sorted(edges))
