"""Command-line driver.

Subcommands:
  run       match one query end to end, JSON report on stdout
  compare   sweep variants / share thresholds / partition factors, CSV;
            one job per distinct (share threshold, factor), priced per variant
  gen       write a seeded random graph file
  oracle    brute-force reference count (debugging; hidden from help)
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from .graph import GraphFormatError, load_graph, save_graph
from .kernel import DEFAULT_CAPACITY, DEFAULT_LATENCIES, CycleModel, cycle_estimate
from .oracle import OracleGuardError, brute_force_embeddings
from .partition import PartitionConfig, UnsplittableTreeError
from .plan import build_query_plan
from .randgraph import powerlaw_graph, random_graph
from .scheduler import JOB_VARIANTS, SchedulerState, run_job

COMPARE_FIELDS = ("variant", "delta", "k", "embeddings", "partitions", "cycles", "wall_ms")


class CliError(Exception):
    def __init__(self, kind: str, message: str, line: int | None = None):
        super().__init__(message)
        self.kind = kind
        self.line = line


def _parse_l_consts(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError("expected six comma-separated values")
    return tuple(float(p) for p in parts)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="data graph file")
    p.add_argument("--query", required=True, help="query graph file")
    p.add_argument("--delta-s", dest="delta_s", type=int, default=262144, help="tree size budget in bytes")
    p.add_argument("--delta-d", dest="delta_d", type=int, default=16, help="adjacency list length budget")
    p.add_argument("--port-max", dest="port_max", type=int, default=16, help="hard cap on list length")
    p.add_argument("--no", dest="capacity", type=int, default=DEFAULT_CAPACITY, help="per-round expansion bound")
    p.add_argument("--l-consts", dest="l_consts", type=_parse_l_consts, default=DEFAULT_LATENCIES,
                   help="six stage latencies, comma separated")
    p.add_argument("--dram-ratio", dest="dram_ratio", type=float, default=1.0,
                   help="latency multiplier modeling slow external memory (about 7 is typical)")
    p.add_argument("--json", action="store_true", help="report errors as JSON on stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="submatch", description="Subgraph matching over a partitionable candidate search tree")
    sub = parser.add_subparsers(dest="command", metavar="{run,compare,gen}")

    run_p = sub.add_parser("run", help="run one query end to end")
    _add_config_flags(run_p)
    run_p.add_argument("--variant", default="share", choices=JOB_VARIANTS)
    run_p.add_argument("--delta", type=float, default=0.1, help="host workload share in [0,1]")
    run_p.add_argument("--k", dest="fixed_k", type=int, default=None, help="fix the partition factor (>= 2)")
    run_p.add_argument("--trace", help="write the per-round kernel trace CSV here")

    cmp_p = sub.add_parser("compare", help="sweep variants, share thresholds, or partition factors")
    _add_config_flags(cmp_p)
    cmp_p.add_argument("--variant", default="basic,task,sep", help="comma list of variants")
    cmp_p.add_argument("--delta", default="0.1", help="comma list of host shares")
    cmp_p.add_argument("--k", dest="fixed_k", default="auto", help="comma list of partition factors or 'auto'")

    gen_p = sub.add_parser("gen", help="generate a random labeled graph file")
    gen_p.add_argument("--out", required=True)
    gen_p.add_argument("--n", type=int, required=True, help="vertex count")
    gen_p.add_argument("--p", type=float, default=None, help="edge probability (uniform model)")
    gen_p.add_argument("--power-law", dest="power_law", type=float, default=None, help="power-law exponent (> 1)")
    gen_p.add_argument("--labels", type=int, default=3)
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--json", action="store_true")

    oracle_p = sub.add_parser("oracle")  # debugging helper, hidden from the command list
    oracle_p.add_argument("--data", required=True)
    oracle_p.add_argument("--query", required=True)
    oracle_p.add_argument("--json", action="store_true")

    return parser


def _load(path: str, role: str):
    try:
        return load_graph(path)
    except OSError as exc:
        raise CliError("io", f"cannot read {role} file: {exc}")
    except (GraphFormatError, UnicodeDecodeError) as exc:
        raise CliError("format", f"{role}: {exc}", getattr(exc, "line", None))


def _config_from(args, fixed_k: int | None) -> PartitionConfig:
    try:
        return PartitionConfig(
            size_budget=args.delta_s,
            degree_budget=args.delta_d,
            port_limit=args.port_max,
            fixed_k=fixed_k,
        )
    except ValueError as exc:
        raise CliError("config", str(exc))


def _model_from(args) -> CycleModel:
    try:
        model = CycleModel(tuple(args.l_consts))
        if args.dram_ratio != 1.0:
            if not 1.0 <= args.dram_ratio < math.inf:
                raise ValueError("dram-ratio must be finite and >= 1")
            model = model.scaled(args.dram_ratio)
        return model
    except ValueError as exc:
        raise CliError("config", str(exc))


def _write_trace(path: str, traces) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "depth", "p_o", "t_v", "t_n", "accepted"])
            for i, row in enumerate(traces):
                writer.writerow([i, row.depth, row.outputs, row.visited_tasks, row.edge_tasks, row.accepted])
    except OSError as exc:
        raise CliError("io", f"cannot write trace file: {exc}")


def _cmd_run(args) -> int:
    data = _load(args.data, "data")
    query = _load(args.query, "query")
    _check_delta(args.delta)
    _check_capacity(args.capacity)
    config = _config_from(args, _check_k(args.fixed_k))
    model = _model_from(args)
    delta = args.delta if args.variant == "share" else 0.0
    state = SchedulerState(delta=delta)
    if args.trace:
        _write_trace(args.trace, ())  # an unwritable path fails here, before the job
    try:
        _, stats = run_job(
            data, query, config, state, args.variant,
            capacity=args.capacity, model=model, collect_trace=bool(args.trace),
        )
    except (UnsplittableTreeError, ValueError) as exc:
        raise CliError("run", str(exc))
    if args.trace:
        _write_trace(args.trace, stats.traces)
    print(json.dumps(stats.to_report()))
    return 0


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _check_delta(delta: float) -> float:
    if not 0.0 <= delta <= 1.0:
        raise CliError("config", "delta must lie in [0, 1]")
    return delta


def _check_k(k: int | None) -> int | None:
    if k is not None and k < 2:
        raise CliError("config", "k must be >= 2")
    return k


def _check_capacity(capacity: int) -> None:
    if capacity < 1:
        raise CliError("config", "--no must be >= 1")


def _compare_grid(args) -> tuple[list[str], list[float], list[tuple[str, PartitionConfig]]]:
    """Parse and check every compare value, configs included, before any job runs."""
    variants = _split_list(args.variant)
    for variant in variants:
        if variant not in JOB_VARIANTS:
            raise CliError("config", f"unknown variant {variant!r}")
    _check_capacity(args.capacity)
    try:
        deltas = [_check_delta(float(text)) for text in _split_list(args.delta)]
        ks = [(text, _check_k(None if text == "auto" else int(text))) for text in _split_list(args.fixed_k)]
    except ValueError as exc:
        raise CliError("config", f"bad --delta or --k value: {exc}")
    for flag, values in (("--variant", variants), ("--delta", deltas), ("--k", ks)):
        if not values:
            raise CliError("config", f"{flag} lists no value")
    return variants, deltas, [(text, _config_from(args, fixed_k)) for text, fixed_k in ks]


def _cmd_compare(args) -> int:
    data = _load(args.data, "data")
    query = _load(args.query, "query")
    variants, deltas, configs = _compare_grid(args)
    _model_from(args)  # checked before the header, like the grid

    writer = csv.writer(sys.stdout)
    writer.writerow(COMPARE_FIELDS)
    # Variants differ only in pricing, so rows with the same effective delta
    # and k share one job; jobs maps that pair to the job's stats and model.
    jobs = {}
    for variant in variants:
        for delta in deltas:
            for k_text, config in configs:
                share = delta if variant == "share" else 0.0
                key = (share, config.fixed_k)
                if key not in jobs:
                    model = _model_from(args)
                    try:
                        _, stats = run_job(
                            data, query, config, SchedulerState(share), variant, capacity=args.capacity, model=model
                        )
                    except (UnsplittableTreeError, ValueError) as exc:
                        raise CliError("run", str(exc))
                    jobs[key] = stats, model
                stats, model = jobs[key]
                cycles = cycle_estimate(model, variant, args.capacity)
                writer.writerow(
                    [variant, delta, k_text, stats.embeddings, stats.partitions, round(cycles), round(stats.wall_ms, 3)]
                )
    return 0


def _cmd_gen(args) -> int:
    if args.p is not None and args.power_law is not None:
        raise CliError("config", "choose either --p or --power-law, not both")
    try:
        if args.power_law is not None:
            graph = powerlaw_graph(args.n, args.power_law, args.labels, args.seed)
        else:
            graph = random_graph(args.n, args.p if args.p is not None else 0.1, args.labels, args.seed)
        save_graph(graph, args.out)
    except (ValueError, OSError) as exc:
        raise CliError("gen", str(exc))
    return 0


def _cmd_oracle(args) -> int:
    data = _load(args.data, "data")
    query = _load(args.query, "query")
    try:
        plan = build_query_plan(query, data)
        found = brute_force_embeddings(query, data, plan.order)
    except (OracleGuardError, ValueError) as exc:
        raise CliError("oracle", str(exc))
    print(json.dumps({"embeddings": len(found), "order": list(plan.order)}))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    handlers = {"run": _cmd_run, "compare": _cmd_compare, "gen": _cmd_gen, "oracle": _cmd_oracle}
    try:
        return handlers[args.command](args)
    except CliError as exc:
        payload = {"error": {"type": exc.kind, "message": str(exc)}}
        if exc.line is not None:
            payload["error"]["line"] = exc.line
        if getattr(args, "json", False) or args.command == "run":
            print(json.dumps(payload))
        else:
            print(f"submatch: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
