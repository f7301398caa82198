"""The benchmark's tracer contract, checked against the package.

perfbench/tracing.py times each layer by replacing the module attributes
listed in its WRAPPED table for the length of a traced pass. It is
imported here read-only. An entry point that is renamed, removed, or
no longer reached through its module would read 0, so every wrapped
attribute must exist and the chunk routine must be timed once per chunk.
Tracing must change no answer and no counter.
"""

import dataclasses
import sys
from pathlib import Path

import submatch.partition
import submatch.scheduler
from submatch import PartitionConfig, SchedulerState, fixtures

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
try:
    import tracing
finally:
    del sys.path[0]

SPLIT_QUERY = "q2"  # 55 partitions from 112 chunks at the default budgets


def test_every_wrapped_entry_point_exists():
    for module, attr, _ in tracing.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def run_split_job(config):
    # Looked up on the module, as the benchmark calls it, so a traced run sees the wrapper.
    embeddings, stats = submatch.scheduler.run_job(
        fixtures.benchmark_graph(), fixtures.benchmark_queries()[SPLIT_QUERY], config, SchedulerState(0.1), "share"
    )
    return embeddings, dataclasses.replace(stats, wall_ms=0.0)


def test_tracing_counts_every_chunk_and_changes_no_job(monkeypatch):
    config = PartitionConfig()
    original = submatch.partition.project_tree
    chunks = []

    def counting(tree, u, part_set):
        chunks.append(part_set)
        return original(tree, u, part_set)

    with monkeypatch.context() as patch:
        patch.setattr(submatch.partition, "project_tree", counting)
        untraced = run_split_job(config)

    tracer = tracing.Tracer(config)
    with tracer.installed():
        traced = run_split_job(config)

    assert traced == untraced
    assert untraced[1].partitions > 1
    assert tracer.layer_metrics(0.0)["partition.project_calls"] == len(chunks) > 0
