"""Outside-in tracing of one job list, by wrapping layer entry points.

`run_job` reaches every layer through module attributes, so replacing
those attributes for the duration of a traced pass puts a span around
each call without touching the package. Spans nest on a stack; each
span's self time is its duration minus the time of the spans it
encloses, so the self times of one job sum to the job's duration.
Counters are taken at the same boundaries from the calls' arguments
and results.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import submatch.candidate_tree
import submatch.partition
import submatch.plan
import submatch.scheduler

# (module, attribute, span name). partition_tree is reached both from the
# scheduler (top call) and from its own recursion.
WRAPPED = (
    (submatch.scheduler, "run_job", "scheduler.job"),
    (submatch.scheduler, "build_query_plan", "plan.build"),
    (submatch.scheduler, "build_candidate_tree", "candidate_tree.build"),
    (submatch.plan, "candidates_by_local_features", "graph.filter"),
    (submatch.candidate_tree, "candidates_by_local_features", "graph.filter"),
    (submatch.scheduler, "partition_tree", "partition.split"),
    (submatch.partition, "partition_tree", "partition.split"),
    (submatch.partition, "project_tree", "partition.project"),
    (submatch.scheduler, "estimate_workload", "candidate_tree.workload"),
    (submatch.scheduler, "route_tree", "scheduler.route"),
    (submatch.scheduler, "pipeline_enumerate", "kernel.enumerate"),
    (submatch.scheduler, "host_match", "scheduler.host"),
)

# Self-time stages in pipeline order; their sum is the traced job time.
STAGES = (
    "plan.build",
    "graph.filter",
    "candidate_tree.build",
    "partition.split",
    "partition.project",
    "candidate_tree.workload",
    "scheduler.route",
    "kernel.enumerate",
    "scheduler.host",
    "scheduler.job",
)


class Tracer:
    """Span totals and layer counters for the jobs run while installed."""

    def __init__(self, config):
        self.config = config  # budgets of the jobs traced, for the fill ratios
        self.calls: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.peak_buffer_fill = 0.0
        self._stack: list[list[float]] = []

    def _span(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            child = [0.0]
            self._stack.append(child)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - child[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # Counter hooks, keyed by span name.

    def _before_split(self, args, kwargs):
        tree, plan, index, config = args[:4]
        over_size = tree.size_bytes > config.size_budget
        over_degree = tree.max_degree > config.degree_budget
        if (over_size or over_degree) and index < plan.num_vertices and all(tree.candidates):
            self.counts["splits_by_size"] += over_size
            self.counts["splits_by_degree"] += over_degree

    def _after_build(self, args, kwargs, tree):
        self.counts["candidates"] += sum(map(len, tree.candidates))
        self.counts["index_bytes"] += tree.size_bytes

    def _before_workload(self, args, kwargs):
        # Every emitted partition is costed exactly once, right after emission.
        tree = args[0]
        self.counts["emitted"] += 1
        self.counts["degree_fill"] += tree.max_degree / self.config.degree_budget
        self.counts["size_fill"] += tree.size_bytes / self.config.size_budget

    def _before_enumerate(self, args, kwargs):
        # run_job passes trace=None unless asked to collect the trace.
        kwargs["trace"] = []
        kwargs["buffer_stats"] = []

    def _after_enumerate(self, args, kwargs, result):
        self.counts["rounds"] += len(kwargs["trace"])
        self.counts["kernel_embeddings"] += len(result[0])
        for peak, capacity in kwargs["buffer_stats"]:
            self.peak_buffer_fill = max(self.peak_buffer_fill, peak / capacity)

    def _after_job(self, args, kwargs, result):
        stats = result[1]
        self.counts["embeddings"] += stats.embeddings
        self.counts["partitions"] += stats.partitions
        self.counts["results_generated"] += stats.results_generated
        self.counts["edge_tasks"] += stats.edge_tasks_generated
        self.counts["host_trees"] += stats.host_trees
        self.counts["kernel_trees"] += stats.kernel_trees
        self.counts["w_c"] += stats.w_c
        self.counts["w_f"] += stats.w_f

    @contextmanager
    def installed(self):
        """Wrap every entry point in WRAPPED; always restore the originals."""
        hooks = {
            "scheduler.job": (None, self._after_job),
            "candidate_tree.build": (None, self._after_build),
            "partition.split": (self._before_split, None),
            "candidate_tree.workload": (self._before_workload, None),
            "kernel.enumerate": (self._before_enumerate, self._after_enumerate),
        }
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in WRAPPED]
        try:
            for (module, attr, name), (_, _, fn) in zip(WRAPPED, originals):
                setattr(module, attr, self._span(name, fn, *hooks.get(name, (None, None))))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def layer_metrics(self, traced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the jobs traced, as {name: value}."""
        c, s, t = self.counts, self.self_s, self.total_s
        emitted = max(c["emitted"], 1)
        attributed = sum(s[stage] for stage in STAGES)
        return {
            "partition.project_s": s["partition.project"],
            "partition.self_s": s["partition.split"],
            "partition.project_calls": self.calls["partition.project"],
            "partition.partitions": c["partitions"],
            "partition.partitions_per_embedding": c["partitions"] / max(c["embeddings"], 1),
            "partition.splits_by_degree": c["splits_by_degree"],
            "partition.splits_by_size": c["splits_by_size"],
            "partition.degree_fill": c["degree_fill"] / emitted,
            "partition.size_fill": c["size_fill"] / emitted,
            "candidate_tree.workload_s": s["candidate_tree.workload"],
            "candidate_tree.workload_calls": self.calls["candidate_tree.workload"],
            "kernel.enumerate_s": s["kernel.enumerate"],
            "kernel.calls": self.calls["kernel.enumerate"],
            "kernel.rounds": c["rounds"],
            "kernel.us_per_result": 1e6 * t["kernel.enumerate"] / max(c["results_generated"], 1),
            "kernel.peak_buffer_fill": self.peak_buffer_fill,
            "kernel.results_generated": c["results_generated"],
            "kernel.edge_tasks": c["edge_tasks"],
            "kernel.yield": c["kernel_embeddings"] / max(c["results_generated"], 1),
            "scheduler.host_s": s["scheduler.host"],
            "scheduler.host_trees": c["host_trees"],
            "scheduler.kernel_trees": c["kernel_trees"],
            "scheduler.host_share": c["w_c"] / max(c["w_c"] + c["w_f"], 1),
            "scheduler.route_s": s["scheduler.route"],
            "scheduler.job_self_s": s["scheduler.job"],
            "graph.filter_s": s["graph.filter"],
            "graph.filter_calls": self.calls["graph.filter"],
            "plan.build_s": s["plan.build"],
            "candidate_tree.build_s": s["candidate_tree.build"],
            "candidate_tree.candidates": c["candidates"],
            "candidate_tree.index_kb": c["index_bytes"] / 1024,
            "trace.wall_s": traced_wall_s,
            "trace.unattributed_s": traced_wall_s - attributed,
        }
