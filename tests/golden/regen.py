"""Rewrite outputs.json, the golden record of every bundled query's job at 3k.

Run from the repository root after a change that is meant to move trees,
answers or cycles: PYTHONPATH=src python tests/golden/regen.py
tests/test_golden.py only reads the file; it never rewrites it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import helpers  # noqa: E402
from submatch.fixtures import QUERY_NAMES  # noqa: E402


def main() -> None:
    entries = {name: helpers.golden_entry(name) for name in QUERY_NAMES}
    (HERE / "outputs.json").write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
