"""Split matching work between the host side and the pipeline kernel.

Each partitioned tree is routed by its estimated workload: the host side
takes it only while the host's share of the work the job has routed so
far would stay below the threshold a SchedulerState holds, its one
field. Every tree is matched by the kernel's loop as soon as it is
routed; only kernel-routed trees count towards the job's task counts
and cycles, so routing is accounting alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain

from . import kernel
from .candidate_tree import CandidateTree, build_candidate_tree, estimate_workload
from .graph import Graph, paused_collector
from .kernel import CycleModel, RoundTrace, cycle_estimate, pipeline_enumerate
from .partition import PartitionConfig, partition_tree
from .plan import QueryPlan, build_query_plan

JOB_VARIANTS = ("basic", "task", "sep", "share")


@dataclass(frozen=True)
class SchedulerState:
    """The host share threshold a job routes by."""

    delta: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")


def route_tree(delta: float, w_c: int, w_f: int, workload: int) -> bool:
    """Whether the host takes a tree of `workload`, after host and kernel totals w_c and w_f.

    Host wins only under the strict share test
    w_c + w < delta * (w_c + w_f + w), so delta=0 sends everything to
    the kernel. The test changes nothing; the caller keeps the totals.
    """
    return w_c + workload < delta * (w_c + w_f + workload)


def host_match(tree: CandidateTree, plan: QueryPlan) -> list[tuple[int, ...]]:
    """Match one host-routed tree with the kernel's loop; its task counts are dropped.

    Calls kernel.pipeline_enumerate rather than this module's attribute,
    so whatever wraps the latter sees kernel-routed trees only. Results
    are order-aligned tuples, sorted.
    """
    return kernel.pipeline_enumerate(tree, plan)[0]


@dataclass
class JobStats:
    """Aggregated statistics of one end-to-end matching job; w_c and w_f are its own routed totals."""

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
    model: CycleModel = CycleModel(),
    trace: list[RoundTrace] | None = None,
) -> tuple[list[tuple[int, ...]], JobStats]:
    """Plan, build, partition, route, match on both sides, and merge.

    The merged embedding list is sorted lexicographically and is
    independent of the share threshold and the partition budgets. Each
    side returns a sorted list; the non-empty ones are kept as runs, a
    single run is returned as it is (no copy), and only several runs
    are merged and sorted. `state` supplies the share threshold alone;
    the host and kernel totals are the job's, kept from zero and
    reported in its stats. The stats sum the task counts the
    kernel-routed calls return and price them under every pipeline
    variant; `model` is only read, so one model serves any number of
    jobs, and a `trace` list receives every kernel-routed call's rounds.
    `variant` is checked against JOB_VARIANTS and otherwise unused; it
    stays positional only because the benchmark's job list
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

    runs: list[list[tuple[int, ...]]] = []  # non-empty sorted embedding lists
    w_c = w_f = kernel_trees = results_generated = edge_tasks_generated = 0  # task counts: kernel side only

    def dispatch(part: CandidateTree) -> None:
        nonlocal w_c, w_f, kernel_trees, results_generated, edge_tasks_generated
        workload = estimate_workload(part, plan)
        if route_tree(state.delta, w_c, w_f, workload):
            w_c += workload
            found = host_match(part, plan)
        else:
            w_f += workload
            kernel_trees += 1
            found, results, edge_tasks = pipeline_enumerate(part, plan, model, trace=trace)
            results_generated += results
            edge_tasks_generated += edge_tasks
        if found:
            runs.append(found)

    partitions = partition_tree(tree, plan, 0, config, dispatch)

    embeddings = runs[0] if len(runs) == 1 else sorted(chain.from_iterable(runs))
    wall_ms = (time.perf_counter() - start) * 1000.0
    stats = JobStats(
        embeddings=len(embeddings),
        partitions=partitions,
        w_c=w_c,
        w_f=w_f,
        cycles_basic=cycle_estimate(model, "basic", results_generated, edge_tasks_generated),
        cycles_task=cycle_estimate(model, "task", results_generated, edge_tasks_generated),
        cycles_sep=cycle_estimate(model, "sep", results_generated, edge_tasks_generated),
        wall_ms=wall_ms,
        host_trees=partitions - kernel_trees,
        kernel_trees=kernel_trees,
        results_generated=results_generated,
        edge_tasks_generated=edge_tasks_generated,
    )
    return embeddings, stats
