"""Measurement loop, checks and report of one benchmark run (see run.py)."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from submatch import SchedulerState, build_query_plan, scheduler

from inputs import DELTA, VARIANT, WORKLOADS, answer_digest, load_references, make_inputs, strictly_sorted
from speed import Calibrated
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".bench_state"
SETUPS = 3
WALL, CALIBRATED = 0, 1  # columns of a job's timings
# What a job must repeat exactly, after its answer digest.
REPEATED = (
    "embeddings",
    "partitions",
    "results_generated",
    "edge_tasks_generated",
    "cycles_basic",
    "cycles_task",
    "cycles_sep",
)


class Checker:
    """Answer and determinism checks, made outside every timed region."""

    def __init__(self, inputs, references):
        self.base_id = inputs.base_id
        self.references = references
        self.orders = {name: build_query_plan(q, inputs.data).order for name, q in inputs.queries.items()}
        self.records: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0

    def fail(self, name, why):
        self.failed += 1
        print(f"FAIL {name}: {why}", file=sys.stderr)

    def check(self, name, embeddings, stats):
        record = [answer_digest(embeddings, self.orders[name], self.base_id)]
        record += [getattr(stats, field) for field in REPEATED]
        first = self.records.setdefault(name, record)
        if not strictly_sorted(embeddings):
            self.fail(name, "embeddings are not strictly sorted")
        elif self.references is not None and [stats.embeddings, record[0]] != self.references[name]:
            self.fail(name, f"answer {stats.embeddings} {record[0]} != reference {self.references[name]}")
        elif record != first:
            self.fail(name, f"counts drifted between passes: {first} then {record}")


def run_pass(inputs, checker, clock) -> dict[str, tuple[float, float]]:
    """Run every job once; returns each job's (wall, calibrated) seconds."""
    seconds = {}
    for name, query in inputs.queries.items():
        checker.attempted += 1
        try:
            # Looked up on the module on every call, so a traced pass sees the wrapper.
            result, wall, calibrated = clock.time(
                scheduler.run_job, inputs.data, query, inputs.config, SchedulerState(DELTA), VARIANT
            )
        except Exception:  # one failing job must not stop the run
            traceback.print_exc()
            checker.fail(name, "run_job raised")
            continue
        seconds[name] = (wall, calibrated)
        embeddings, stats = result
        checker.check(name, embeddings, stats)
        del result, embeddings
    return seconds


def pass_total(seconds, column):
    return sum(times[column] for times in seconds.values())


def traced_metrics(inputs, checker, clock, run_seconds):
    """Alternate untraced and traced passes; per-layer medians and overhead."""
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < run_seconds:
        untraced.append(pass_total(run_pass(inputs, checker, clock), CALIBRATED))
        tracer = Tracer(inputs.config)
        with tracer.installed():
            seconds = run_pass(inputs, checker, clock)
        traced.append(pass_total(seconds, CALIBRATED))
        layers.append(tracer.layer_metrics(pass_total(seconds, WALL)))
    metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1
    return metrics


def end_to_end_metrics(inputs, checker, clock, run_seconds, setup_s):
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < run_seconds:
        passes.append(run_pass(inputs, checker, clock))
    job_medians = [statistics.median(p[name][CALIBRATED] for p in passes if name in p) for name in checker.records]
    metrics = {
        "wall_s": statistics.median(pass_total(p, CALIBRATED) for p in passes),
        "job_max_s": max(job_medians),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for i, field in enumerate(REPEATED, start=1):
        if field.startswith("cycles_"):
            metrics[field] = sum(record[i] for record in checker.records.values())
    return metrics


def source_digest() -> str:
    digest = hashlib.sha256()
    for base in (ROOT / "src" / "submatch", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def same_as_earlier_runs(key: str, records: dict[str, list]) -> bool:
    """Compare with the last run of the same code, workload and seeds."""
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / f"{key}.json"
    mine = {"source": source_digest(), "records": records}
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier["source"] == mine["source"]:
            return earlier["records"] == records
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(mine))
    os.replace(tmp, path)
    return True


def run(args) -> None:
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    with Calibrated() as clock:
        setup_s = []
        inputs = None
        for _ in range(1 if args.trace else SETUPS):
            inputs = None  # free the previous graph before building the next
            inputs, _, seconds = clock.time(make_inputs, workload, args.seed, args.graph_seed)
            setup_s.append(seconds)
        references = load_references(args.graph_seed, workload.n)
        checker = Checker(inputs, references)
        if args.trace:
            metrics = traced_metrics(inputs, checker, clock, args.seconds)
        else:
            metrics = end_to_end_metrics(inputs, checker, clock, args.seconds, setup_s)

    key = f"{args.workload}-g{args.graph_seed}-s{args.seed}"
    if not same_as_earlier_runs(key, checker.records):
        checker.fail("all", f"counts differ from an earlier run of the same code ({STATE_DIR / key}.json)")
    if not args.trace:
        metrics["pass_ratio"] = 1 - checker.failed / checker.attempted

    for name, record in checker.records.items():
        print(f"{name}: embeddings={record[1]} digest={record[0]} partitions={record[2]}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from those BENCHMARK.json declares")
    # An unchecked answer is no evidence of success: report no failure count.
    checked = references is not None or checker.failed > 0
    if references is None:
        print(f"answer check skipped: no references for graph seed {args.graph_seed} at n={workload.n}")
    result = {
        "correct": checker.failed == 0 if checked else None,
        "attempted": checker.attempted,
        "failed": checker.failed if checked else None,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
