"""Vertex-labeled undirected simple graphs and their text file format.

The on-disk format is line oriented::

    t <num_vertices> <num_edges>
    v <id> <label> <degree>      one line per vertex, ids dense 0..n-1
    e <src> <dst>                src < dst, each undirected edge once

Lines starting with ``#`` are comments and may appear anywhere; ``v``
and ``e`` records may come in any order after the header. Query graphs
and data graphs share the format.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, reduce, wraps
from itertools import islice
from operator import eq, or_


class GraphFormatError(ValueError):
    """A graph file violated the format or a graph invariant."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def paused_collector(fn):
    """Decorator: run fn with CPython's cyclic collector paused.

    The collector is turned back on only if it was on at the call, also
    when fn raises, so pauses nest. The wrapper allocates nothing after
    turning it back on, so the collection that fn's allocations make due
    starts at the caller's next allocation, not inside the call.
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


@dataclass(frozen=True)
class Graph:
    """Immutable vertex-labeled undirected simple graph.

    A graph is its labels and its adjacency rows. Rows are sorted
    ascending and hold no duplicates and no self-loops. Labels are
    non-negative ints of any size. ``from_edges`` builds the rows from
    plain per-vertex lists, each sorted once, with the cyclic collector
    paused.

    ``degrees`` (``len(adj[v])`` per vertex), ``vertices_by_label``,
    ``label_rank`` and ``neighbour_labels`` are derived on first use and
    cached: one pass over the graph each, paid once by the first job on
    it. A neighbour-label mask gives each
    present label the bit of its rank among the present labels, so its
    size follows the number of distinct labels, not their values.

    ``neighbours_by_label`` builds every label's vertex set on first
    use too, but fills its rows one by one, as jobs look them up, and
    ``local_filter`` keeps each (label, least degree) candidate list
    that ``candidates_by_local_features`` makes. None of these caches
    takes part in equality or hashing.
    """

    labels: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...]

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return sum(self.degrees) // 2

    @property
    def max_degree(self) -> int:
        return max(self.degrees) if self.degrees else 0

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Each vertex's neighbour count, ``len(adj[v])``."""
        return tuple(map(len, self.adj))

    @cached_property
    def vertices_by_label(self) -> dict[int, list[int]]:
        """Vertex ids of each present label, ascending; built on first use."""
        index: dict[int, list[int]] = {}
        for v, lab in enumerate(self.labels):
            index.setdefault(lab, []).append(v)
        return index

    @cached_property
    def label_rank(self) -> dict[int, int]:
        """Each present label's rank among the present labels, from 0."""
        return {lab: i for i, lab in enumerate(sorted(set(self.labels)))}

    @cached_property
    def neighbour_labels(self) -> tuple[int, ...]:
        """Per vertex, a bit mask of its neighbours' labels; built on first use.

        Bit ``label_rank[L]`` of ``neighbour_labels[v]`` is set iff v has
        a neighbour of label L, so an isolated vertex has mask 0. A mask
        has at most as many bits as the graph has distinct labels,
        whatever their values: at most 32 + 4 * ceil(distinct / 30)
        bytes per vertex (an int header, one 4-byte digit per 30 labels
        and a tuple slot), about 1 MiB for 30,000 vertices and 11 labels.
        """
        rank = self.label_rank
        bit = [1 << rank[lab] for lab in self.labels]
        return tuple(reduce(or_, map(bit.__getitem__, row), 0) for row in self.adj)

    @cached_property
    def neighbours_by_label(self) -> "dict[int, dict[int, tuple[int, ...]]]":
        """``neighbours_by_label[b][v]``: v's neighbours of label b, ascending.

        First use builds the set of every present label's vertices, one
        set entry per vertex in all; every label the graph lacks reads
        one shared row map over the empty set. The first lookup of a
        (vertex, label) pair filters ``adj[v]`` by it once, and every
        later job on the graph reads the stored row. Only non-empty rows are kept, so the index
        holds at most one row per (vertex, neighbour label) pair and
        never more entries than the adjacency. A lookup of a label v has
        no neighbour of, or one the graph lacks, returns an empty row and
        stores no row. The index refers to the graph's rows, not to the
        graph. On the 30,000-vertex bench graph the rows of all nine
        bundled queries take 3.2 MiB and the label sets 1.4 MiB.
        """
        absent = _LabelRows(self.adj, ())
        rows = {lab: _LabelRows(self.adj, vertices) for lab, vertices in self.vertices_by_label.items()}
        return defaultdict(lambda: absent, rows)

    @cached_property
    def local_filter(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """(label, least degree) -> the label's vertices of at least that degree, ascending."""
        return {}

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (src, dst) with src < dst, sorted."""
        return [(a, b) for a, row in enumerate(self.adj) for b in row[bisect_right(row, a) :]]

    @classmethod
    @paused_collector
    def from_edges(cls, labels: Sequence[int], edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a validated graph from per-vertex labels and an edge list.

        Each edge, in either orientation and any order, is appended to
        both endpoints' plain lists, and each list is sorted into its
        row. Every defect then shows in bulk: an id of n or more, or
        below -n, fails the indexing; any other negative id lands in a
        row as a negative entry; and a self-loop or a repeated edge
        repeats an entry of a sorted row. Only when one of these shows
        are the edges scanned again, to name the first defective edge in
        input order (a one-shot iterator is kept in a list for that).
        The build runs with the cyclic collector paused.
        """
        if min(labels, default=0) < 0:
            i = next(i for i, lab in enumerate(labels) if lab < 0)
            raise GraphFormatError(f"vertex {i} has negative label {labels[i]}")
        if isinstance(edges, Iterator):
            edges = list(edges)
        n = len(labels)
        adj: list[list[int]] = [[] for _ in range(n)]
        try:
            for a, b in edges:
                adj[a].append(b)
                adj[b].append(a)
        except IndexError:
            raise GraphFormatError(_first_defect(n, edges)[1]) from None  # type: ignore[index]
        for row in adj:
            row.sort()
        rows = tuple(map(tuple, adj))
        if not _rows_well_formed(rows):
            raise GraphFormatError(_first_defect(n, edges)[1])  # type: ignore[index]
        return cls(tuple(labels), rows)


class _LabelRows(dict):
    """Vertex -> its neighbours of one label, each row filled on first lookup.

    A row is the vertex's adjacency filtered by a frozenset of the
    label's vertices: one C-level pass that keeps the ascending order.
    """

    __slots__ = ("adj", "has_label")

    def __init__(self, adj: tuple[tuple[int, ...], ...], vertices: Iterable[int]):
        super().__init__()
        self.adj = adj
        self.has_label = frozenset(vertices).__contains__

    def __missing__(self, v: int) -> tuple[int, ...]:
        row = tuple(filter(self.has_label, self.adj[v]))
        if row:
            self[v] = row
        return row


def _rows_well_formed(rows: Iterable[tuple[int, ...]]) -> bool:
    """Whether no sorted row holds a negative entry or one entry twice."""
    # One flat list, each non-empty row followed by -1, so one C-level
    # pass over adjacent pairs finds a repeat; -1 equals no entry >= 0.
    flat = [-1]
    for row in filter(None, rows):
        if row[0] < 0:
            return False
        flat += row
        flat.append(-1)
    return not any(map(eq, flat, islice(flat, 1, None)))


def _first_defect(n: int, edges: Iterable[tuple[int, int]]) -> tuple[int, str] | None:
    """Index and description of the first defective edge in input order, if any."""
    seen: set[tuple[int, int]] = set()
    for i, (a, b) in enumerate(edges):
        if a == b:
            return i, f"self-loop at vertex {a}"
        if not (0 <= a < n and 0 <= b < n):
            return i, f"edge ({a}, {b}) references unknown vertex"
        if (a, b) in seen:
            return i, f"duplicate edge ({a}, {b})"
        seen.add((a, b))
        seen.add((b, a))
    return None


# load_graph's record kinds: kind -> (name, form, field count, what the fields are called)
_RECORDS = {
    "t": ("header", "'t <|V|> <|E|>'", 3, "counts"),
    "v": ("vertex line", "'v <id> <label> <degree>'", 4, "fields"),
    "e": ("edge line", "'e <src> <dst>'", 3, "endpoints"),
}


def load_graph(path) -> Graph:
    """Parse a graph file, rejecting the whole file on the first defect.

    Raises GraphFormatError carrying the offending line number for
    malformed lines, duplicate vertices, unknown-vertex or duplicate
    edges, self-loops, id gaps, and degree mismatches. Records may come
    in any order after the header: an edge's endpoints are checked
    against the header's id range, and every id in it must be declared.
    """
    header: tuple[int, int] | None = None
    vertices: dict[int, tuple[int, int, int]] = {}  # id -> (label, declared degree, line)
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []  # file line of each edge

    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                kind = parts[0]
                if kind not in _RECORDS:
                    raise GraphFormatError(f"unknown record type {kind!r}", lineno)
                name, form, count, called = _RECORDS[kind]
                if (kind == "t") != (header is None):  # one header, before every other record
                    raise GraphFormatError("duplicate header" if kind == "t" else f"{name} before header", lineno)
                if len(parts) != count:
                    raise GraphFormatError(f"malformed {name}, expected {form}", lineno)
                try:
                    if not line.isascii() or "_" in line:  # int() would read other scripts' digits and '_' as digits
                        raise ValueError(line)
                    fields = list(map(int, parts[1:]))
                except ValueError:
                    raise GraphFormatError(f"malformed {name}, {called} must be integers", lineno)
                if kind == "t":
                    nv, ne = fields
                    if nv < 0 or ne < 0:
                        raise GraphFormatError("negative count in header", lineno)
                    header = (nv, ne)
                elif kind == "v":
                    vid, lab, deg = fields
                    if not 0 <= vid < header[0]:
                        raise GraphFormatError(f"vertex id {vid} outside 0..{header[0] - 1}", lineno)
                    if vid in vertices:
                        raise GraphFormatError(f"duplicate vertex {vid}", lineno)
                    if lab < 0:
                        raise GraphFormatError(f"negative label {lab}", lineno)
                    vertices[vid] = (lab, deg, lineno)
                else:
                    a, b = fields
                    if a > b:
                        raise GraphFormatError(f"edge ({a}, {b}) must be written src < dst", lineno)
                    edges.append((a, b))
                    edge_lines.append(lineno)

        if header is None:
            raise GraphFormatError("missing 't <|V|> <|E|>' header")
        if len(vertices) < header[0]:
            # the first undeclared id is at most the number declared
            vid = next(v for v in range(len(vertices) + 1) if v not in vertices)
            raise GraphFormatError(f"vertex {vid} never declared (ids must be dense 0..{header[0] - 1})")
        if len(edges) != header[1]:
            raise GraphFormatError(f"header declares {header[1]} edges, file has {len(edges)}")

        graph = Graph.from_edges([vertices[v][0] for v in range(header[0])], edges)
    except GraphFormatError:
        # Graph.from_edges finds self-loops, unknown endpoints and repeats in
        # bulk once the file is read, so such an edge read so far precedes the error.
        defect = _first_defect(header[0] if header else 0, edges)
        if defect is None:
            raise
        raise GraphFormatError(defect[1], edge_lines[defect[0]]) from None

    for vid in range(header[0]):
        _, deg, lineno = vertices[vid]
        if deg != graph.degrees[vid]:
            raise GraphFormatError(f"vertex {vid} declares degree {deg} but has {graph.degrees[vid]}", lineno)
    return graph


def graph_to_text(graph: Graph) -> str:
    """Canonical text encoding; load_graph(save_graph(g)) == g."""
    lines = [f"t {graph.num_vertices} {graph.num_edges}"]
    for v in range(graph.num_vertices):
        lines.append(f"v {v} {graph.labels[v]} {graph.degrees[v]}")
    for a, b in graph.edges():
        lines.append(f"e {a} {b}")
    return "\n".join(lines) + "\n"


def save_graph(graph: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_text(graph))


def candidates_by_local_features(data: Graph, query: Graph, u: int) -> list[int]:
    """Data vertices matching u's label with at least u's degree, ascending.

    This is the weakest sound per-vertex filter: any embedding must map u
    to a vertex with the same label and at least as many neighbors. The
    first lookup of a (label, degree) pair scans that label's class, from
    the data graph's label index, and keeps the result in
    ``data.local_filter``; every call returns a new list.
    """
    label, deg = key = query.labels[u], query.degrees[u]
    if key not in data.local_filter:
        data.local_filter[key] = tuple(v for v in data.vertices_by_label.get(label, ()) if data.degrees[v] >= deg)
    return list(data.local_filter[key])
