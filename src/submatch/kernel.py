"""Dataflow matching pipeline: batched expansion over a bounded buffer.

Each round pops same-depth partial results from the deepest non-empty
level of the buffer, expands them through the candidate tree, validates
the new mappings (visited check against the source prefix, edge check
against stored non-tree lists), and files survivors back into the buffer
or into the match set. Per round at most `capacity` new partials are
produced, and expanding deepest-first keeps every buffer level within
that same bound. Both the bound and the stage latencies belong to the
frozen CycleModel a run reads; the run's task counts are returned.

pipeline_enumerate runs each round as one pass over the inputs it
admits and takes the round's task counts from closed forms. The test
suite keeps a staged model of the same rounds, with per-task records
and bit vectors, as its reference (tests/helpers.py): it gives the
same matches, task counts, trace and buffer peaks.

Matches come out strictly increasing with no sort. Candidate lists are
sorted and every level is FIFO, so each level holds its partials in
increasing order; a level is refilled only once every deeper level has
drained, and roots stream in ascending order, so all extensions of one
partial are filed before any extension of a later one. The visited
check runs only when the tree is not known to have pairwise disjoint
candidate sets (CandidateTree.disjoint, proved once per index and
inherited by every partition chunk): every stored list holds
candidates of its target vertex alone, so with disjoint sets (every
query label distinct) no candidate can repeat a vertex of its partial.

A free tail (QueryPlan.tail_start) is expanded in one step. In it,
every vertex's parent is matched before the tail and no vertex has a
non-tree check; with disjoint candidate sets no visited check runs
either. So every extension survives, and a partial p filed at the
tail's first level has exactly the answers p x row_1 x ... x row_m,
row_j being p's stored list toward the tail's j-th vertex. They are
appended as one itertools.product, built in C, when p would be filed.
The product walks the sorted rows lexicographically and p's answers
all precede a later partial's, so the list stays increasing. The rounds
that would have built them are replayed from the rows' lengths alone
(_tail_rounds), so the trace, task counts and buffer peak are those of the
round-by-round run, and the modelled cycles cannot move.

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

The three pipeline variants (basic, task, sep) find the same matches
in the same rounds, so the matcher takes no variant. They exist only in
the accounting: cycle_estimate prices one run's task counts under each,
and the variants differ only in how they count stage overlap. The
CLI's CPU-sharing variant, share, is priced as sep by compare alone.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from itertools import product, repeat
from typing import NamedTuple, Sequence

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


@dataclass(frozen=True)
class CycleModel:
    """The modelled pipeline: per-stage latency constants and the per-round output bound.

    capacity (N_o) bounds each round's outputs and is also every buffer
    level's size. The model is a frozen value, so one model can price
    any number of runs; a run's task counts are returned, not kept here.
    """

    latencies: tuple[float, ...] = DEFAULT_LATENCIES
    capacity: int = DEFAULT_CAPACITY

    def __post_init__(self):
        object.__setattr__(self, "latencies", tuple(self.latencies))
        if len(self.latencies) != 6:
            raise ValueError("expected six stage latencies")
        if not all(1 <= l < math.inf for l in self.latencies):
            raise ValueError("stage latencies must be finite and >= 1")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")

    @property
    def per_result_latency(self) -> float:
        """Cycles a single partial spends in the four per-result stages."""
        return sum(self.latencies[:4])

    @property
    def per_edge_task_latency(self) -> float:
        return sum(self.latencies[4:])

    def scaled(self, ratio: float) -> "CycleModel":
        """Copy with all latencies multiplied (models slower memory, so ratio >= 1)."""
        if not 1.0 <= ratio < math.inf:
            raise ValueError("dram-ratio must be finite and >= 1")
        return replace(self, latencies=tuple(l * ratio for l in self.latencies))


class RoundTrace(NamedTuple):
    round: int
    depth: int
    outputs: int
    visited_tasks: int
    edge_tasks: int
    accepted: int


class BufferOverflowError(RuntimeError):
    """A buffer level would exceed its capacity; internal invariant broken."""


def pipeline_enumerate(
    tree: CandidateTree,
    plan: QueryPlan,
    model: CycleModel = CycleModel(),
    *,
    trace: list[RoundTrace] | None = None,
    buffer_stats: list[tuple[int, int]] | None = None,
) -> tuple[list[tuple[int, ...]], int, int]:
    """Enumerate every embedding of the tree's search space.

    `capacity` is model.capacity. Root candidates are streamed into
    level 1 at most `capacity` at a time, and only once everything
    deeper has drained, so no level ever exceeds `capacity`; filing
    past it raises BufferOverflowError. Each
    round pops inputs FIFO from the deepest non-empty level until the
    next one could take the round past `capacity` outputs; an input
    whose list alone is longer expands its first `capacity` candidates
    and stays at the front of its level with a resume offset. The
    round runs as one pass over the admitted inputs: an input's
    outputs are checked against every earlier non-tree row (each looked
    up once per input) and, unless the tree is known to have disjoint
    candidate sets (tree.disjoint), against the input itself. Survivors
    are filed in bulk, in candidate order; an input with more than
    _ZIP_CUTOVER of them has its tuples built by zip rather than one
    concatenation each (see the module docstring). The round's task
    counts are closed forms: one visited task per output and one edge
    task per output and earlier non-tree neighbor. With disjoint
    candidate sets, partials that reach the plan's free tail get their
    answers as one product each, and the tail's rounds are replayed from
    row lengths (see the module docstring). The frozen model is only
    read: the run returns its matches, the results it generated (every
    expanded partial, valid or not) and the edge tasks it generated.
    When given, `buffer_stats` receives one (peak level occupancy,
    capacity) pair.
    A 1-vertex query runs no round: its root candidates are the matches.
    Matches are returned strictly increasing without a sort (see the
    module docstring).
    """
    capacity = model.capacity
    order_length = plan.num_vertices
    # Buffer levels 1..order_length-1 (0 is unused). Only a level's front
    # entry can be a partly expanded input; front_offset is its resume
    # position into its candidate list.
    levels: list[deque[tuple[int, ...]]] = [deque() for _ in range(order_length)]
    front_offset = [0] * order_length
    peak = 0
    roots = tree.candidates[plan.root]
    matches: list[tuple[int, ...]] = []
    cursor = 0
    results_generated = edge_tasks_generated = 0

    # Per depth: parent position, tree-edge lists, earlier non-tree groups.
    stages: list = [None]
    for u in plan.order[1:]:
        parent = plan.parent[u]
        checks = [(plan.position[un], tree.groups.get((un, u), {})) for un in plan.earlier_non_tree[u]]
        stages.append((plan.position[parent], tree.groups.get((parent, u), {}), checks))
    may_repeat = not tree.disjoint
    tail = order_length if may_repeat else plan.tail_start
    tail_stages = [stage[:2] for stage in stages[tail:]]

    round_no = 0
    depth = 0  # every level deeper than this one is empty
    while True:
        while depth and not levels[depth]:
            depth -= 1
        if depth:
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
            results_generated += outputs
            edge_tasks_generated += edge_tasks
            if trace is not None:
                trace.append(RoundTrace(round_no, depth, outputs, outputs, edge_tasks, len(survivors)))
            round_no += 1
        elif cursor < len(roots):
            survivors = [(v,) for v in roots[cursor : cursor + capacity]]
            cursor += capacity
        else:
            break

        if depth + 1 == order_length:
            matches += survivors
        elif depth + 1 == tail:
            # Each input's answers are the product of its tail rows; the
            # rounds that would build them are replayed from row lengths.
            lengths = []
            for partial in survivors:
                rows = [lists.get(partial[pos], ()) for pos, lists in tail_stages]
                matches += product(*[(v,) for v in partial], *rows)
                lengths.append(list(map(len, rows)))
            rounds, tail_peak = _tail_rounds(lengths, capacity)
            results_generated += sum(out for _, out in rounds)
            if trace is not None:
                trace += [RoundTrace(round_no + i, tail + r, out, out, 0, out) for i, (r, out) in enumerate(rounds)]
            round_no += len(rounds)
            peak = max(peak, tail_peak)
        elif survivors:
            depth += 1
            level = levels[depth]
            if len(level) + len(survivors) > capacity:
                raise BufferOverflowError(
                    f"level {depth} holds {len(level)} of {capacity}; {len(survivors)} more do not fit"
                )
            level.extend(survivors)
            peak = max(peak, len(level))

    if buffer_stats is not None:
        buffer_stats.append((peak, capacity))
    return matches, results_generated, edge_tasks_generated


def _tail_rounds(lengths: Sequence[Sequence[int]], capacity: int) -> tuple[list[tuple[int, int]], int]:
    """Replay the rounds that drain inputs filed at a free tail's first level.

    lengths[i][r] is the length of input i's row toward the tail's r-th
    vertex. Every extension in a free tail survives, and all partials
    descending from input i have the same rows, so tail level r holds
    run-length entries [count, i]: count partials from input i, each with
    lengths[i][r] candidates. Rounds admit them as pipeline_enumerate
    does (deepest level first, FIFO, at most `capacity` outputs, a list
    longer than `capacity` split into continuations, empty rows popped),
    a whole run of equal lists per step. Returns each round's (tail
    level, outputs) in round order and the largest fill of any level.
    """
    if not lengths:
        return [], 0
    width = len(lengths[0])
    queues: list[deque[list[int]]] = [deque() for _ in range(width)]
    queues[0].extend([1, i] for i in range(len(lengths)))
    offsets = [0] * width
    rounds: list[tuple[int, int]] = []
    peak = len(lengths)
    r = 0
    while True:
        while not queues[r]:
            if not r:
                return rounds, peak
            r -= 1
        queue = queues[r]
        offset = offsets[r]
        outputs = 0
        filed = []
        while queue and outputs < capacity:
            run = queue[0]
            count, i = run
            size = lengths[i][r]
            if size - offset > capacity - outputs:
                if outputs:
                    break  # unconsumed input stays at the front of its level
                taken = capacity  # the rest stays queued as a continuation
                offset += capacity
            else:
                # the rest of a continuation, every empty row, or the equal lists that fit
                admitted = 1 if offset else count if not size else min(count, (capacity - outputs) // size)
                taken = admitted * size - offset
                offset = 0
                if admitted < count:
                    run[0] -= admitted
                else:
                    queue.popleft()
            outputs += taken
            if taken:
                filed.append([taken, i])
        offsets[r] = offset
        rounds.append((r, outputs))
        if filed and r + 1 < width:
            queues[r + 1].extend(filed)
            peak = max(peak, outputs)
            r += 1


def _issue_cycles(variant: str, n: int, m: int) -> int:
    """Cycles to issue n results and m edge tasks, one item per stage per cycle.

    basic runs the four per-result and two edge-task stages back to
    back; task overlaps {expand | visited check}, then runs the edge
    stream beside collection; sep also overlaps collection with
    expansion, leaving the expansion stream plus the bottleneck stream.
    """
    if variant == "basic":
        return 4 * n + 2 * m
    if variant == "task":
        return 2 * n + max(n, m)
    return n + max(n, m)


def cycle_estimate(model: CycleModel, variant: str, results: int, edge_tasks: int) -> float:
    """Closed-form cycle cost of one run's task counts under the given pipeline variant.

    basic: stages are pipelined within a round (at most model.capacity
    results) but run one after another. task: the expand and
    visited-check stages overlap, then edge work and collection. sep:
    duplicated task generators let all stages overlap.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    n, m = results, edge_tasks
    if variant == "basic":
        return (n * model.per_result_latency + m * model.per_edge_task_latency) / model.capacity + _issue_cycles(variant, n, m)
    return _issue_cycles(variant, n, m)
