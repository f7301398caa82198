"""The bundled graph files: the worked data/query pair and the benchmark queries.

The worked pair is the small data/query combination whose candidate
sets, partitions, and both embeddings are pinned down exactly in the
test suite. q0..q8 are the benchmark's query shapes.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

QUERY_NAMES = tuple(f"q{i}" for i in range(9))


def data_path(name: str) -> Path:
    """Filesystem path of a bundled graph file (without extension)."""
    return Path(str(resources.files("submatch").joinpath("data", f"{name}.graph")))
