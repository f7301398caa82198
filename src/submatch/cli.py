"""Command-line driver.

Subcommands:
  run       match one query end to end, JSON report on stdout
  compare   sweep share thresholds and partition factors, CSV; each row is
            one job, reported as run reports it
  gen       write a seeded random graph file
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .graph import GraphFormatError, load_graph, save_graph
from .kernel import DEFAULT_CAPACITY, DEFAULT_LATENCIES, CycleModel
from .partition import PartitionConfig, UnsplittableTreeError
from .randgraph import powerlaw_graph, random_graph
from .scheduler import REPORT_FIELDS, JobStats, SchedulerState, run_job

COMPARE_FIELDS = ("delta", "k", *REPORT_FIELDS)


class CliError(Exception):
    def __init__(self, kind: str, message: str, line: int | None = None):
        super().__init__(message)
        self.kind = kind
        self.line = line


def _ascii(kind):
    """kind (int or float) read, as load_graph reads fields, only from ASCII text without '_'.

    Python's int and float also read other scripts' digits and '_'. The
    ValueError is a usage error in a flag and a config error in a list.
    """

    def parse(text: str):
        if not text.isascii() or "_" in text:
            raise ValueError(f"{text!r} is not in ASCII digits")
        return kind(text)

    parse.__name__ = kind.__name__  # the type argparse names in its usage error
    return parse


_int, _float = _ascii(int), _ascii(float)


def _parse_l_consts(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError("expected six comma-separated values")
    return tuple(map(_float, parts))


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="data graph file")
    p.add_argument("--query", required=True, help="query graph file")
    p.add_argument("--delta-s", dest="delta_s", type=_int, default=PartitionConfig.size_budget, help="tree size budget in bytes")
    p.add_argument("--delta-d", dest="delta_d", type=_int, default=PartitionConfig.degree_budget, help="adjacency list length budget")
    p.add_argument("--port-max", dest="port_max", type=_int, default=PartitionConfig.port_limit, help="hard cap on list length")
    p.add_argument("--no", dest="capacity", type=_int, default=DEFAULT_CAPACITY, help="per-round expansion bound")
    p.add_argument("--l-consts", dest="l_consts", type=_parse_l_consts, default=DEFAULT_LATENCIES,
                   help="six stage latencies, comma separated")
    p.add_argument("--dram-ratio", dest="dram_ratio", type=_float, default=1.0,
                   help="latency multiplier modeling slow external memory (about 7 is typical)")
    p.add_argument("--json", action="store_true", help="report errors as JSON on stdout (run always does)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="submatch", description="Subgraph matching over a partitionable candidate search tree")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run one query end to end")
    _add_config_flags(run_p)
    run_p.add_argument("--delta", type=_float, default=SchedulerState.delta, help="host workload share in [0,1]")
    run_p.add_argument("--k", dest="fixed_k", type=_int, default=None, help="fix the partition factor (>= 2)")
    run_p.add_argument("--trace", help="write the per-round kernel trace CSV here")

    cmp_p = sub.add_parser("compare", help="sweep share thresholds and partition factors")
    _add_config_flags(cmp_p)
    cmp_p.add_argument("--delta", default="0", help="comma list of host shares")
    cmp_p.add_argument("--k", dest="fixed_k", default="auto", help="comma list of partition factors or 'auto'")

    gen_p = sub.add_parser("gen", help="generate a random labeled graph file")
    gen_p.add_argument("--out", required=True)
    gen_p.add_argument("--n", type=_int, required=True, help="vertex count")
    gen_p.add_argument("--p", type=_float, default=None, help="edge probability (uniform model)")
    gen_p.add_argument("--power-law", dest="power_law", type=_float, default=None, help="power-law exponent (> 1)")
    gen_p.add_argument("--labels", type=_int, default=3)
    gen_p.add_argument("--seed", type=_int, default=0)
    gen_p.add_argument("--json", action="store_true")

    return parser


def _load(path: str, role: str):
    try:
        return load_graph(path)
    except OSError as exc:
        raise CliError("io", f"cannot read {role} file: {exc}")
    except (GraphFormatError, UnicodeDecodeError) as exc:
        raise CliError("format", f"{role}: {exc}", getattr(exc, "line", None))


def _built_from(args, deltas: list[float], fixed_ks: list[int | None]) -> tuple[list, list, CycleModel]:
    """Each delta's SchedulerState, each k's PartitionConfig and the CycleModel, before any job runs.

    The library objects check the values; their ValueError is a config error.
    """
    try:
        states = [SchedulerState(delta) for delta in deltas]
        configs = [
            PartitionConfig(size_budget=args.delta_s, degree_budget=args.delta_d, port_limit=args.port_max, fixed_k=k)
            for k in fixed_ks
        ]
        return states, configs, CycleModel(args.l_consts, args.capacity).scaled(args.dram_ratio)
    except ValueError as exc:
        raise CliError("config", str(exc))


def _job(data, query, config, state, model, trace=None) -> JobStats:
    """Stats of one job, priced under every variant; a job that cannot run is a run error."""
    try:
        return run_job(data, query, config, state, model=model, trace=trace)[1]
    except (UnsplittableTreeError, ValueError) as exc:
        raise CliError("run", str(exc))


def _report(stats: JobStats) -> dict:
    """The job's report; a price that overflows is a config error."""
    try:
        return stats.to_report()
    except ValueError as exc:
        raise CliError("config", f"{exc}; lower --l-consts or --dram-ratio")


def _write_trace(path: str, traces) -> None:
    """The trace as CSV: round is the row's position and t_v is p_o, one visited task per output."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "depth", "p_o", "t_v", "t_n", "accepted"])
            for i, row in enumerate(traces):
                writer.writerow([i, row.depth, row.outputs, row.outputs, row.edge_tasks, row.accepted])
    except OSError as exc:
        raise CliError("io", f"cannot write trace file: {exc}")


def _cmd_run(args) -> int:
    data = _load(args.data, "data")
    query = _load(args.query, "query")
    (state,), (config,), model = _built_from(args, [args.delta], [args.fixed_k])
    trace = None if args.trace is None else []
    if trace is not None:
        _write_trace(args.trace, trace)  # an unwritable or empty path fails here, before the job
    stats = _job(data, query, config, state, model, trace)
    if trace is not None:
        _write_trace(args.trace, trace)  # the rounds the job ran, even if its price then overflows
    print(json.dumps(_report(stats)))
    return 0


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _cmd_compare(args) -> int:
    data = _load(args.data, "data")
    query = _load(args.query, "query")
    # every value is parsed and built into its state, config and model before the header
    try:
        deltas = [_float(text) for text in _split_list(args.delta)]
        k_texts = _split_list(args.fixed_k)
        fixed_ks = [None if text == "auto" else _int(text) for text in k_texts]
    except ValueError as exc:
        raise CliError("config", f"bad --delta or --k value: {exc}")
    for flag, values in (("--delta", deltas), ("--k", k_texts)):
        if not values:
            raise CliError("config", f"{flag} lists no value")
    states, configs, model = _built_from(args, deltas, fixed_ks)

    writer = csv.writer(sys.stdout)
    writer.writerow(COMPARE_FIELDS)
    for state in states:
        for k_text, config in zip(k_texts, configs):
            stats = _job(data, query, config, state, model)
            writer.writerow([state.delta, k_text, *_report(stats).values()])
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    handlers = {"run": _cmd_run, "compare": _cmd_compare, "gen": _cmd_gen}
    # The error is reported after its except block ends, which frees the
    # traceback and the job frames (and answers) it holds.
    try:
        return handlers[args.command](args)
    except CliError as exc:
        kind, message, line = exc.kind, str(exc), exc.line
    except MemoryError:
        cause = "the graph is built whole before it is written" if args.command == "gen" else "a job holds all its answers"
        kind, message, line = "memory", f"out of memory; {cause}, so allow the process more memory", None
    payload = {"error": {"type": kind, "message": message}}
    if line is not None:
        payload["error"]["line"] = line
    if getattr(args, "json", False) or args.command == "run":
        print(json.dumps(payload))
    else:
        print(f"submatch: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
