"""Property tests of the graph file loader on random small graphs.

Skipped where hypothesis is not installed.
"""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from submatch import GraphFormatError, graph_to_text, load_graph, random_graph

CORRUPTIONS = ("self_loop", "endpoint_too_large", "repeated_edge", "swapped", "underscore", "non_ascii_digit", "field_count")

graphs = st.builds(
    random_graph,
    n=st.integers(1, 12),
    p=st.floats(0.0, 1.0),
    num_labels=st.integers(1, 4),
    seed=st.integers(0, 10**6),
)


def load_text(text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.graph"
        path.write_text(text, encoding="utf-8")
        return load_graph(path)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(graph=graphs)
def test_canonical_text_loads_back_to_the_graph(graph):
    assert load_text(graph_to_text(graph)) == graph


def corrupt(lines: list[str], kind: str, n: int, draw) -> int:
    """Corrupt one line of a canonical graph text in place; returns its 1-based number."""
    first_edge = 1 + n
    if kind in ("self_loop", "endpoint_too_large", "swapped"):
        i = draw(st.integers(first_edge, len(lines) - 1))
        _, a, b = lines[i].split()
        if kind == "self_loop":
            lines[i] = f"e {a} {a}"
        elif kind == "endpoint_too_large":
            lines[i] = f"e {a} {n + draw(st.integers(0, 3))}"
        else:
            lines[i] = f"e {b} {a}"
    elif kind == "repeated_edge":
        # a later edge line becomes a copy of an earlier one, so the copy is the defect
        i = draw(st.integers(first_edge + 1, len(lines) - 1))
        lines[i] = lines[draw(st.integers(first_edge, i - 1))]
    else:
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split()
        if kind == "field_count":
            fields = fields[:-1] if draw(st.booleans()) else fields + ["0"]
        else:
            f = draw(st.integers(1, len(fields) - 1))
            digits = fields[f]
            # int() would read either form as the same number
            fields[f] = "0_" + digits if kind == "underscore" else digits[:-1] + chr(0x660 + int(digits[-1]))
        lines[i] = " ".join(fields)
    return i + 1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graph=graphs, kind=st.sampled_from(CORRUPTIONS), data=st.data())
def test_one_corrupt_line_is_reported_at_its_line(graph, kind, data):
    assume(graph.num_edges >= {"self_loop": 1, "endpoint_too_large": 1, "swapped": 1, "repeated_edge": 2}.get(kind, 0))
    lines = graph_to_text(graph).splitlines()
    line = corrupt(lines, kind, graph.num_vertices, data.draw)
    with pytest.raises(GraphFormatError) as err:
        load_text("\n".join(lines) + "\n")
    assert err.value.line == line, str(err.value)
