"""Subgraph matching over a partitionable candidate search tree.

The package builds a complete candidate index for a labeled query over a
labeled data graph, splits it under memory and list-length budgets,
routes the pieces between a host side and a batched dataflow pipeline
(both run the pipeline's loop; only the kernel side is costed),
enumerates all embeddings exactly, and reports closed-form cycle-cost
estimates for the pipeline. The pipeline variants (basic, task, sep)
only price a run: one run's counters give all three estimates.
"""

from .candidate_tree import (
    CandidateTree,
    build_candidate_tree,
    dump_tree,
    estimate_workload,
)
from .graph import Graph, GraphFormatError, candidates_by_local_features, graph_to_text, load_graph, save_graph
from .kernel import CycleModel, RoundTrace, cycle_estimate, pipeline_enumerate
from .partition import (
    PartitionConfig,
    UnsplittableTreeError,
    partition_factor,
    partition_tree,
    project_tree,
    within_budgets,
)
from .plan import DisconnectedQueryError, QueryPlan, build_query_plan
from .randgraph import powerlaw_graph, random_graph
from .scheduler import JobStats, SchedulerState, host_match, route_tree, run_job

__all__ = [
    "CandidateTree",
    "CycleModel",
    "DisconnectedQueryError",
    "Graph",
    "GraphFormatError",
    "JobStats",
    "PartitionConfig",
    "QueryPlan",
    "RoundTrace",
    "SchedulerState",
    "UnsplittableTreeError",
    "build_candidate_tree",
    "build_query_plan",
    "candidates_by_local_features",
    "cycle_estimate",
    "dump_tree",
    "estimate_workload",
    "graph_to_text",
    "host_match",
    "load_graph",
    "partition_factor",
    "partition_tree",
    "pipeline_enumerate",
    "powerlaw_graph",
    "project_tree",
    "random_graph",
    "route_tree",
    "run_job",
    "save_graph",
    "within_budgets",
]
