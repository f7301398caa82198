"""Split matching work between the host side and the pipeline kernel.

Each partitioned tree is routed by its estimated workload: the host side
takes it only while the host's cumulative share would stay below the
configured fraction of all routed work. Every tree is matched by the
kernel's loop as soon as it is routed; only kernel-routed trees count
towards the job's cycle model, so routing is accounting alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain

from . import kernel
from .candidate_tree import CandidateTree, build_candidate_tree, estimate_workload
from .graph import Graph, paused_collector
from .kernel import (
    DEFAULT_CAPACITY,
    CycleModel,
    RoundTrace,
    cycle_estimate,
    pipeline_enumerate,
)
from .partition import PartitionConfig, partition_tree
from .plan import QueryPlan, build_query_plan

JOB_VARIANTS = ("basic", "task", "sep", "share")


@dataclass
class SchedulerState:
    """Routing accumulators: host share threshold and per-side workloads."""

    delta: float = 0.1
    w_c: int = 0
    w_f: int = 0

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")


def route_tree(state: SchedulerState, workload: int) -> str:
    """Route one tree; returns "host" or "kernel" and updates the state.

    Host wins only under the strict share test
    w_c + w < delta * (w_c + w_f + w), so delta=0 sends everything to
    the kernel.
    """
    if state.w_c + workload < state.delta * (state.w_c + state.w_f + workload):
        state.w_c += workload
        return "host"
    state.w_f += workload
    return "kernel"


def host_match(tree: CandidateTree, plan: QueryPlan) -> list[tuple[int, ...]]:
    """Match one host-routed tree: the kernel's loop under a throwaway CycleModel.

    Calls kernel.pipeline_enumerate rather than this module's attribute,
    so whatever wraps the latter sees kernel-routed trees only. Results
    are order-aligned tuples, sorted.
    """
    return kernel.pipeline_enumerate(tree, plan)[0]


@dataclass
class JobStats:
    """Aggregated statistics of one end-to-end matching job."""

    embeddings: int
    partitions: int
    w_c: int
    w_f: int
    cycles_basic: float
    cycles_task: float
    cycles_sep: float
    wall_ms: float
    host_trees: int = 0
    kernel_trees: int = 0
    results_generated: int = 0
    edge_tasks_generated: int = 0
    routing_log: list[tuple[int, str]] = field(default_factory=list)
    traces: list[RoundTrace] = field(default_factory=list)

    def to_report(self) -> dict:
        """The stable external JSON schema, cycles at 1-cycle precision."""
        return {
            "embeddings": self.embeddings,
            "partitions": self.partitions,
            "w_c": self.w_c,
            "w_f": self.w_f,
            "cycles_basic": round(self.cycles_basic),
            "cycles_task": round(self.cycles_task),
            "cycles_sep": round(self.cycles_sep),
            "wall_ms": round(self.wall_ms, 3),
        }


@paused_collector
def run_job(
    data: Graph,
    query: Graph,
    config: PartitionConfig,
    state: SchedulerState,
    variant: str = "share",
    *,
    capacity: int = DEFAULT_CAPACITY,
    model: CycleModel | None = None,
    collect_trace: bool = False,
) -> tuple[list[tuple[int, ...]], JobStats]:
    """Plan, build, partition, route, match on both sides, and merge.

    The merged embedding list is sorted lexicographically and is
    independent of the share threshold and the partition budgets. Each
    side returns a sorted list; the non-empty ones are kept as runs, a
    single run is returned as it is (no copy), and only several runs
    are merged and sorted. `state` supplies the share threshold; the
    job is routed and reported from zero totals and leaves `state` as
    it was. The stats price the job's one run under every pipeline
    variant. `variant` is checked against JOB_VARIANTS and otherwise
    unused; it stays positional only because the benchmark's job list
    (perfbench/bench.py) passes it, until that list stops doing so.

    The cyclic garbage collector is paused for the whole job by the
    shared graph.paused_collector, which turns it back on afterwards
    only if the caller had it on. A job allocates millions of int-only
    tuples, which the collector would otherwise scan as they are made,
    and leaves no cyclic garbage on the bundled q0..q8. The returned
    tuples are still tracked: a caller that keeps them while it
    allocates has them scanned once by its next collection. Results
    never depend on the pause.
    """
    if variant not in JOB_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    start = time.perf_counter()
    plan = build_query_plan(query, data)
    tree = build_candidate_tree(data, query, plan)
    if model is None:
        model = CycleModel()
    state = SchedulerState(state.delta)

    runs: list[list[tuple[int, ...]]] = []  # non-empty sorted embedding lists
    routing_log: list[tuple[int, str]] = []
    traces: list[RoundTrace] = [] if collect_trace else None  # type: ignore[assignment]

    def dispatch(part: CandidateTree) -> None:
        workload = estimate_workload(part, plan)
        side = route_tree(state, workload)
        routing_log.append((workload, side))
        if side == "kernel":
            found, _ = pipeline_enumerate(part, plan, capacity, model, port_limit=config.port_limit, trace=traces)
        else:
            found = host_match(part, plan)
        if found:
            runs.append(found)

    partitions = partition_tree(tree, plan, 0, config, dispatch)
    kernel_trees = sum(side == "kernel" for _, side in routing_log)

    embeddings = runs[0] if len(runs) == 1 else sorted(chain.from_iterable(runs))
    wall_ms = (time.perf_counter() - start) * 1000.0
    stats = JobStats(
        embeddings=len(embeddings),
        partitions=partitions,
        w_c=state.w_c,
        w_f=state.w_f,
        cycles_basic=cycle_estimate(model, "basic", capacity),
        cycles_task=cycle_estimate(model, "task", capacity),
        cycles_sep=cycle_estimate(model, "sep", capacity),
        wall_ms=wall_ms,
        host_trees=len(routing_log) - kernel_trees,
        kernel_trees=kernel_trees,
        results_generated=model.results_generated,
        edge_tasks_generated=model.edge_tasks_generated,
        routing_log=routing_log,
        traces=traces if collect_trace else [],
    )
    return embeddings, stats
