"""Closed-loop benchmark of `submatch.run_job`, end to end or traced by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload split-3k --seed 1 --seconds 20 --trace 0

One process runs one workload: it sets up the inputs (several times, to
time set-up), then runs the workload's job list one job at a time, in
whole passes, until `--seconds` have passed. Every answer is checked
against stored references (see inputs.py), and every count must repeat
exactly across passes and across runs of the same code and seeds.

With `--trace 0` it prints the end-to-end metrics. With `--trace 1` it
alternates untraced and traced passes and prints the per-layer metrics
of the traced ones (see tracing.py), plus the tracing overhead. The
metric names and units are those BENCHMARK.json declares. The last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

The package is imported from this checkout's `src/`; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="split-3k, split-30k or unsplit-30k")
    parser.add_argument("--seed", type=int, default=1357, help="seed of the vertex relabelling")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--graph-seed",
        type=int,
        default=1357,
        help="generator seed of the data graph; only 1357 has reference answers",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "submatch" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    bench.run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
