"""Every bundled query's job at 3k against the recorded golden outputs.

tests/golden/outputs.json pins, per query on the benchmark graph at
default budgets and delta 0.1, the emitted trees (count and digest) and
the job's counters and cycles. The file is read only; a change meant to
move these outputs rewrites it with tests/golden/regen.py.
"""

import json
from pathlib import Path

import pytest

from submatch.fixtures import QUERY_NAMES

import helpers

GOLDEN = json.loads((Path(__file__).parent / "golden" / "outputs.json").read_text())


def test_golden_file_covers_every_bundled_query():
    assert sorted(GOLDEN) == sorted(QUERY_NAMES)


@pytest.mark.parametrize("name", QUERY_NAMES)
def test_job_outputs_match_the_golden_file(name):
    assert helpers.golden_entry(name) == GOLDEN[name]
