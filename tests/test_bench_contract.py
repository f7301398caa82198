"""The benchmark's contract, checked against the package.

Every name perfbench/*.py imports from the package must exist; the
files are parsed here, not run. perfbench/tracing.py times each layer
by replacing the module attributes listed in its WRAPPED table for the
length of a traced pass. It is imported here read-only. An entry point
that is renamed, removed, or no longer reached through its module would
read 0, so every wrapped attribute must exist and the chunk routine
must be timed once per chunk. Tracing must change no answer and no
counter.
"""

import ast
import dataclasses
import importlib
import pkgutil
import sys
from pathlib import Path

import submatch.partition
import submatch.scheduler
from submatch import PartitionConfig, SchedulerState

import helpers

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

sys.path.insert(0, str(PERFBENCH))
try:
    import tracing
finally:
    del sys.path[0]

SPLIT_QUERY = "q2"  # 55 partitions from 108 chunks at the default budgets


def package_imports(path):
    """(module, name) for each package import in one file; name is None for `import submatch...`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "submatch":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "submatch"]
    return found


def test_every_name_the_benchmark_imports_exists():
    checked = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        for module, name in package_imports(path):
            owner = importlib.import_module(module)
            submodules = {info.name for info in pkgutil.iter_modules(getattr(owner, "__path__", ()))}
            assert name is None or hasattr(owner, name) or name in submodules, f"{path.name}: from {module} import {name}"
            checked += 1
    assert checked >= 10


def test_every_wrapped_entry_point_exists():
    for module, attr, _ in tracing.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def run_split_job(config):
    # Looked up on the module, as the benchmark calls it, so a traced run sees the wrapper.
    embeddings, stats = submatch.scheduler.run_job(
        helpers.benchmark_graph(), helpers.benchmark_queries()[SPLIT_QUERY], config, SchedulerState(0.1), "share"
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
