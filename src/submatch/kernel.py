"""Dataflow matching pipeline: batched expansion over a bounded buffer.

Each round pops same-depth partial results from the deepest non-empty
level of the buffer, expands them through the candidate tree, validates
the new mappings (visited check against the source prefix, edge check
against stored non-tree lists), and files survivors back into the buffer
or into the match set. Per round at most `capacity` new partials are
produced, and expanding deepest-first keeps every buffer level within
that same bound.

pipeline_enumerate runs each round as one pass over the inputs it
admits and takes the round's task counts from closed forms. The staged
functions (generate_batch, validate_visited, validate_edges,
synchronize) model the individual stages with per-task records and bit
vectors; driven round by round they give the same matches, counters,
trace and buffer peaks.

Matches come out strictly increasing with no sort. Candidate lists are
sorted and every level is FIFO, so each level holds its partials in
increasing order; a level is refilled only once every deeper level has
drained, and roots stream in ascending order, so all extensions of one
partial are filed before any extension of a later one. The visited
check runs only when two query vertices share a candidate: every
stored list holds candidates of its target vertex alone, so with
pairwise disjoint candidate sets (every query label distinct) no
candidate can repeat a vertex of its partial.

An input's surviving extensions are built as partial + (v,) per
candidate when there are few of them, and by zipping one repeat() per
prefix slot with the candidate list when there are more than
_ZIP_CUTOVER. zip makes each tuple in C with one allocation instead of
two, but costs about 1 us to set up per input, so it pays only on long
lists: measured, the two cost the same at 16-32 candidates. A job at
the default port limit (16) reads no longer list, so it always keeps
the comprehension; zipping every chunk instead made the split-3k
benchmark about 4% slower end to end (higher in 9 of 10 alternating
runs on a 2-vCPU x86 VM). Both build equal tuples in candidate order,
so which one runs changes neither the matches nor their order.

The three pipeline variants (basic, task, sep) are functionally
identical; they differ only in how the closed-form cycle estimates and
the event-driven schedule account for stage overlap.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

from .candidate_tree import CandidateTree
from .plan import QueryPlan

VARIANTS = ("basic", "task", "sep")

# Stage latency indices: read buffer, expand, visited check, collect,
# edge-task generation, edge check.
DEFAULT_LATENCIES = (2.0, 2.0, 1.0, 1.0, 1.0, 1.0)
DEFAULT_CAPACITY = 1024
# Post-filter chunk length above which an input's extensions are built by
# zip instead of a comprehension (see pipeline_enumerate).
_ZIP_CUTOVER = 16


def _flavor(variant: str) -> str:
    if variant == "share":
        return "sep"
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return variant


@dataclass
class CycleModel:
    """Per-stage latency constants and the run's task counters.

    results_generated counts every expanded partial (valid or not);
    edge_tasks_generated counts every emitted edge-validation task.
    """

    latencies: tuple[float, ...] = DEFAULT_LATENCIES
    results_generated: int = 0
    edge_tasks_generated: int = 0

    def __post_init__(self):
        if len(self.latencies) != 6:
            raise ValueError("expected six stage latencies")
        if not all(1 <= l < math.inf for l in self.latencies):
            raise ValueError("stage latencies must be finite and >= 1")

    @property
    def per_result_latency(self) -> float:
        """Cycles a single partial spends in the four per-result stages."""
        return sum(self.latencies[:4])

    @property
    def per_edge_task_latency(self) -> float:
        return sum(self.latencies[4:])

    def scaled(self, ratio: float) -> "CycleModel":
        """Copy with all latencies multiplied (models slower memory)."""
        return CycleModel(tuple(l * ratio for l in self.latencies))


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


class RoundTrace(NamedTuple):
    round: int
    depth: int
    outputs: int
    visited_tasks: int
    edge_tasks: int
    accepted: int


class BufferOverflowError(RuntimeError):
    """A buffer level would exceed its capacity; internal invariant broken."""


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
    lists = tree.tree_adj.get((parent, u), {})

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
        row = tree.non_tree_adj.get(t.pair, {}).get(t.neighbor_vertex, ())
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


def pipeline_enumerate(
    tree: CandidateTree,
    plan: QueryPlan,
    variant: str = "sep",
    capacity: int = DEFAULT_CAPACITY,
    model: CycleModel | None = None,
    *,
    port_limit: int | None = None,
    trace: list[RoundTrace] | None = None,
    buffer_stats: list[tuple[int, int]] | None = None,
) -> tuple[list[tuple[int, ...]], CycleModel]:
    """Enumerate every embedding of the tree's search space.

    Root candidates are streamed into level 1 at most `capacity` at a
    time, and only once everything deeper has drained, so no level ever
    exceeds `capacity`. Each round admits inputs exactly as
    generate_batch does and runs as one pass over them: an input's
    outputs are checked against every earlier non-tree row (each looked
    up once per input) and, only if two candidate sets of the tree meet
    (tested once per call), against the input itself. Survivors are
    filed in bulk, in candidate order; an input with more than
    _ZIP_CUTOVER of them has its tuples built by zip rather than one
    concatenation each (see the module docstring). The round's task
    counts are closed forms: one visited task per output and one edge
    task per output and earlier non-tree neighbor. Counters on `model`
    accumulate across calls, which lets one model aggregate a whole
    partitioned job. When given, `buffer_stats` receives one (peak
    level occupancy, capacity) pair.
    A 1-vertex query runs no round: its root candidates are the matches.
    Matches are returned strictly increasing without a sort (see the
    module docstring).
    """
    _flavor(variant)
    if model is None:
        model = CycleModel()
    if port_limit is not None and tree.max_degree > port_limit:
        raise ValueError(f"tree degree {tree.max_degree} exceeds port limit {port_limit}")

    order_length = plan.num_vertices
    buffer = ResultBuffer(order_length - 1, capacity)
    levels, front_offset = buffer._levels, buffer._front_offset
    roots = tree.candidates[plan.root]
    matches: list[tuple[int, ...]] = [(v,) for v in roots] if order_length == 1 else []
    cursor = len(matches)

    # Per depth: parent position, tree-edge lists, earlier non-tree groups.
    stages: list = [None]
    for u in plan.order[1:]:
        parent = plan.parent[u]
        checks = [(plan.position[un], tree.non_tree_adj.get((un, u), {})) for un in plan.earlier_non_tree[u]]
        stages.append((plan.position[parent], tree.tree_adj.get((parent, u), {}), checks))
    may_repeat = len(set().union(*tree.candidates)) < sum(map(len, tree.candidates))

    round_no = 0
    depth = 0  # every level deeper than this one is empty
    while True:
        while depth and not levels[depth]:
            depth -= 1
        if not depth:
            if cursor >= len(roots):
                break
            buffer.extend([(v,) for v in roots[cursor : cursor + capacity]], 1)
            cursor += capacity
            depth = 1
        parent_pos, lists, checks = stages[depth]
        level = levels[depth]
        offset = front_offset[depth]
        outputs = 0
        survivors: list[tuple[int, ...]] = []
        while level and outputs < capacity:
            partial = level[0]
            cands = lists.get(partial[parent_pos], ())
            if outputs + len(cands) - offset > capacity:
                if outputs:
                    break  # unconsumed input stays at the front of its level
                chunk = cands[offset : offset + capacity]  # the rest stays queued as a continuation
                offset += capacity
            else:
                level.popleft()
                chunk = cands[offset:] if offset else cands
                offset = 0
            outputs += len(chunk)
            for pos, rows in checks:
                row = rows.get(partial[pos], ())
                chunk = [v for v in chunk if v in row]
            if may_repeat:
                chunk = [v for v in chunk if v not in partial]
            if len(chunk) > _ZIP_CUTOVER:
                survivors += zip(*map(repeat, partial), chunk)
            else:
                survivors += [partial + (v,) for v in chunk]
        front_offset[depth] = offset

        edge_tasks = outputs * len(checks)
        model.results_generated += outputs
        model.edge_tasks_generated += edge_tasks
        if trace is not None:
            trace.append(RoundTrace(round_no, depth, outputs, outputs, edge_tasks, len(survivors)))
        round_no += 1
        if depth + 1 == order_length:
            matches += survivors
        elif survivors:
            buffer.extend(survivors, depth + 1)
            depth += 1

    if buffer_stats is not None:
        buffer_stats.append((buffer.max_occupancy, capacity))
    return matches, model


def _issue_cycles(flavor: str, n: int, m: int) -> int:
    """Cycles to issue n results and m edge tasks, one item per stage per cycle.

    basic runs the four per-result and two edge-task stages back to
    back; task overlaps {expand | visited check}, then runs the edge
    stream beside collection; sep also overlaps collection with
    expansion, leaving the expansion stream plus the bottleneck stream.
    """
    if flavor == "basic":
        return 4 * n + 2 * m
    if flavor == "task":
        return 2 * n + max(n, m)
    return n + max(n, m)


def cycle_estimate(model: CycleModel, variant: str, capacity: int = DEFAULT_CAPACITY) -> float:
    """Closed-form cycle cost of one run under the given pipeline variant.

    serial: every stage waits for the previous partial. basic: stages are
    pipelined within a round but run one after another. task: the expand
    and visited-check stages overlap, then edge work and collection.
    sep: duplicated task generators let all stages overlap.
    """
    n = model.results_generated
    m = model.edge_tasks_generated
    if variant == "serial":
        return n * model.per_result_latency + m * model.per_edge_task_latency
    flavor = _flavor(variant)
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    if flavor == "basic":
        return (n * model.per_result_latency + m * model.per_edge_task_latency) / capacity + _issue_cycles(flavor, n, m)
    return _issue_cycles(flavor, n, m)


def _round_fill(outputs: int, edge_tasks: int, max_latency: float) -> float:
    stages = (4 if outputs else 0) + (2 if edge_tasks else 0)
    return stages * (max_latency + 1.0)


def pipeline_fill_slack(trace: Iterable[RoundTrace], model: CycleModel) -> float:
    """Total pipeline fill overhead: active stages times max latency per round."""
    max_latency = max(model.latencies)
    return sum(_round_fill(r.outputs, r.edge_tasks, max_latency) for r in trace)


def simulate_dataflow_schedule(trace: Iterable[RoundTrace], variant: str, model: CycleModel) -> float:
    """Event-style makespan of a recorded run under a stage schedule.

    Each round issues its items as _issue_cycles counts them and pays a
    fill of its active stages times the largest latency. Makespan is
    never less than the closed-form estimate minus the fill slack for
    the same trace.
    """
    flavor = _flavor(variant)
    max_latency = max(model.latencies)
    total = 0.0
    for r in trace:
        total += _issue_cycles(flavor, r.outputs, r.edge_tasks) + _round_fill(r.outputs, r.edge_tasks, max_latency)
    return total
