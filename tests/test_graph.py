import gc
import random
import weakref
from types import SimpleNamespace

import pytest

from submatch import (
    Graph,
    GraphFormatError,
    PartitionConfig,
    SchedulerState,
    candidates_by_local_features,
    graph_to_text,
    load_graph,
    powerlaw_graph,
    random_graph,
    run_job,
    save_graph,
)
from submatch.candidate_tree import start_candidates
from submatch.graph import paused_collector

import helpers


def test_worked_data_graph_loads_with_expected_shape():
    g = helpers.worked_data()
    assert g.num_vertices == 10
    assert g.num_edges == 12
    assert g.labels == (0, 0, 2, 1, 2, 1, 2, 3, 3, 3)
    assert g.degrees == (3, 2, 3, 2, 3, 4, 3, 1, 1, 2)
    copy = Graph(g.labels, g.adj)  # a graph is its labels and rows; degrees are derived
    assert copy == g and copy.degrees == g.degrees and copy.num_edges == 12


def test_single_vertex_graph(tmp_path):
    path = tmp_path / "one.graph"
    path.write_text("t 1 0\nv 0 5 0\n")
    g = load_graph(path)
    assert g.num_vertices == 1
    assert g.num_edges == 0
    assert g.max_degree == 0


def test_generated_file_round_trips_byte_identically(tmp_path):
    g = random_graph(50, 0.15, 4, seed=99)
    path = tmp_path / "g.graph"
    save_graph(g, path)
    original = path.read_bytes()
    reloaded = load_graph(path)
    assert reloaded == g
    save_graph(reloaded, path)
    assert path.read_bytes() == original


def test_round_trip_identity_on_random_graphs(tmp_path):
    rng = random.Random(4)
    path = tmp_path / "roundtrip.graph"
    for _ in range(10):
        g = random_graph(rng.randint(1, 40), rng.uniform(0, 0.4), rng.randint(1, 5), rng)
        path.write_text(graph_to_text(g))
        assert load_graph(path) == g


@pytest.mark.parametrize(
    "body, fragment, line",
    [
        ("t 2 1\nv 0 0 1\nv 1 0 1\ne 0 1 9\n", "malformed edge line", 4),
        ("t 2 0\nv 0 0 0\nv 0 1 0\n", "duplicate vertex", 3),
        ("t 3 1\nv 0 0 1\nv 1 0 1\nv 2 0 0\ne 0 5\n", "unknown vertex", 5),
        ("t 2 1\nv 0 0 0\nv 1 0 0\ne 1 1\n", "self-loop", 4),
        ("t 2 2\nv 0 0 1\nv 1 0 1\ne 0 1\ne 0 1\n", "duplicate edge", 5),
        ("t 2 1\nv 0 0 1\nv 1 0 1\ne 1 0\n", "src < dst", 4),
        ("t 2 0\nv 0 0 0\nv 3 0 0\n", "outside", 3),
        ("t 2 1\nv 0 0 1\nv 1 0 2\ne 0 1\n", "declares degree", 3),
        ("t 2 1\nv 0 0 9\nv 1 0 1\ne 0 1\n", "declares degree", 2),
        ("t 2 0\nv 0 0 0\n", "never declared", None),
        ("v 0 0 0\n", "before header", 1),
        ("t 2 0\nt 2 0\nv 0 0 0\nv 1 0 0\n", "duplicate header", 2),
        ("t -1 0\n", "negative count in header", 1),
        ("t 1 0\nv 0 -1 0\n", "negative label -1", 2),
        ("e 0 1\n", "edge line before header", 1),
        ("# only a comment\n", "missing 't <|V|> <|E|>' header", None),
        # int() reads these fields as 2, 1, 10, 1, 1 and 0, which would load
        ("t \u0662 1\nv 0 0 1\nv 1 0 1\ne 0 1\n", "counts must be integers", 1),
        ("t 2 1\nv \u0661 0 1\nv 0 0 1\ne 0 1\n", "fields must be integers", 2),
        ("t 2 1\nv 0 1_0 1\nv 1 10 1\ne 0 1\n", "fields must be integers", 2),
        ("t 2 1\nv 0 0 1\nv 1 0 \uff11\ne 0 1\n", "fields must be integers", 3),
        ("t 2 1\nv 0 0 1\nv 1 0 1\ne 0 \u0661\n", "endpoints must be integers", 4),
        ("t 2 1\nv 0 0 1\nv 1 0 1\ne 0_0 1\n", "endpoints must be integers", 4),
    ],
)
def test_parse_errors_reject_whole_file_with_line(tmp_path, body, fragment, line):
    path = tmp_path / "bad.graph"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(GraphFormatError) as err:
        load_graph(path)
    assert fragment in str(err.value)
    assert err.value.line == line


@pytest.mark.parametrize(
    "header, later",
    [("t 2 3", "e 0\n"), ("t 2 3", "e 0 1\n"), ("t 2 3", "x\n"), ("t 2 3", ""), ("t 3 2", "")],
    ids=["malformed", "third_copy", "unknown_record", "edge_count", "undeclared_vertex"],
)
def test_repeated_edge_is_reported_before_a_later_defect(tmp_path, header, later):
    # repeats are found once the whole file is read, yet the first defect in file order wins
    path = tmp_path / "bad.graph"
    path.write_text(header + "\nv 0 0 1\nv 1 0 1\ne 0 1\ne 0 1\n# line 6\n" + later)
    with pytest.raises(GraphFormatError) as err:
        load_graph(path)
    assert "duplicate edge (0, 1)" in str(err.value)
    assert err.value.line == 5


def test_records_may_come_in_any_order_after_the_header(tmp_path):
    path, canonical = tmp_path / "edges_first.graph", tmp_path / "canonical.graph"
    path.write_text("t 3 2\nv 0 0 1\ne 0 1\ne 1 2\nv 2 0 1\nv 1 1 2\n")
    canonical.write_text("t 3 2\nv 0 0 1\nv 1 1 2\nv 2 0 1\ne 0 1\ne 1 2\n")
    assert load_graph(path) == load_graph(canonical)


@pytest.mark.parametrize(
    "body, line",
    [("t 3 2\ne 0 1\ne 1 3\nv 0 0 1\nv 1 0 2\nv 2 0 1\n", 3), ("t 3 2\nv 0 0 1\nv 1 0 2\nv 2 0 1\ne 0 1\ne 1 3\n", 6)],
)
def test_edge_endpoints_are_checked_against_the_header_range(tmp_path, body, line):
    path = tmp_path / "bad.graph"
    path.write_text(body)
    with pytest.raises(GraphFormatError) as err:
        load_graph(path)
    assert str(err.value) == f"line {line}: edge (1, 3) references unknown vertex"
    assert err.value.line == line


def test_comments_and_blank_lines_are_ignored(tmp_path):
    path = tmp_path / "c.graph"
    path.write_text("# header\n\nt 2 1\n# vertices\nv 0 0 1\nv 1 0 1\ne 0 1\n")
    assert load_graph(path).num_edges == 1


def test_worked_root_candidates_match_worked_example():
    data, query = helpers.worked_data(), helpers.worked_query()
    assert candidates_by_local_features(data, query, 0) == [0, 1]


def test_absent_label_gives_empty_candidates():
    data = helpers.worked_data()
    query = Graph.from_edges([7, 0], [(0, 1)])
    assert candidates_by_local_features(data, query, 0) == []


def test_candidates_match_linear_scan_oracle():
    rng = random.Random(11)
    data = random_graph(30, 0.2, 3, rng)
    query = random_graph(5, 0.5, 3, rng)
    for u in range(query.num_vertices):
        expected = sorted(
            v
            for v in range(data.num_vertices)
            if data.labels[v] == query.labels[u] and data.degrees[v] >= query.degrees[u]
        )
        assert candidates_by_local_features(data, query, u) == expected


def test_candidates_monotone_under_edge_addition():
    rng = random.Random(23)
    for trial in range(10):
        data, query = helpers.make_instance(500 + trial, max_data=30)
        denser = helpers.add_random_edges(data, rng.randint(1, 10), rng)
        for u in range(query.num_vertices):
            before = set(candidates_by_local_features(data, query, u))
            after = set(candidates_by_local_features(denser, query, u))
            assert before <= after


def test_every_oracle_embedding_passes_local_filter():
    for data, query, plan, expected in helpers.solvable_instances(8, 900, max_data=40):
        cands = [set(candidates_by_local_features(data, query, u)) for u in range(query.num_vertices)]
        for emb in expected:
            for pos, v in enumerate(emb):
                assert v in cands[plan.order[pos]]


def test_label_index_filter_equals_full_scan_for_every_label_and_degree():
    # every label (the last two absent) and every degree up to one past the maximum
    rng = random.Random(31)
    bench = helpers.benchmark_graph()
    graphs = [Graph(bench.labels, bench.adj)]  # a fresh object: the fixture is shared
    graphs += [random_graph(rng.randint(1, 40), rng.uniform(0.05, 0.5), 4, rng) for _ in range(20)]
    for data in graphs:
        assert "vertices_by_label" not in data.__dict__  # built on first use only
        for label in range(max(data.labels) + 2):
            label_class = [v for v in range(data.num_vertices) if data.labels[v] == label]
            for degree in range(data.max_degree + 2):
                query = SimpleNamespace(labels=(label,), degrees=(degree,))
                expected = [v for v in label_class if data.degrees[v] >= degree]
                assert candidates_by_local_features(data, query, 0) == expected, (label, degree)
        assert "vertices_by_label" in data.__dict__
        assert data == Graph(data.labels, data.adj)  # the index is not compared


def brute_neighbour_labels(graph):
    """Per vertex, the set of its neighbours' labels, from the definition."""
    return [{graph.labels[w] for w in graph.adj[v]} for v in range(graph.num_vertices)]


def mask_labels(graph, mask):
    """The labels whose rank bits are set in one of graph's masks."""
    by_rank = sorted(set(graph.labels))
    return {by_rank[bit] for bit in range(mask.bit_length()) if mask >> bit & 1}


def test_neighbour_labels_match_brute_force_sets():
    rng = random.Random(41)
    graphs = [helpers.worked_data()]
    graphs += [random_graph(rng.randint(1, 40), rng.uniform(0, 0.5), rng.randint(1, 6), rng) for _ in range(20)]
    # labels 64 and above, and an isolated vertex (6) whose mask is 0
    graphs.append(Graph.from_edges([0, 63, 64, 65, 200, 64, 7], [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (4, 5)]))
    for graph in graphs:
        masks = graph.neighbour_labels
        assert len(masks) == graph.num_vertices
        assert [mask_labels(graph, m) for m in masks] == brute_neighbour_labels(graph)
    rank = graphs[-1].label_rank
    assert rank == {0: 0, 7: 1, 63: 2, 64: 3, 65: 4, 200: 5}
    assert graphs[-1].neighbour_labels[4] == 1 << rank[64] | 1 << rank[65]
    assert graphs[-1].neighbour_labels[6] == 0


def test_neighbour_labels_built_once_on_first_use():
    data = Graph.from_edges([1, 2, 1], [(0, 1), (1, 2)])
    assert "neighbour_labels" not in data.__dict__
    first = data.neighbour_labels
    rank = data.label_rank
    assert first == (1 << rank[2], 1 << rank[1], 1 << rank[2]) == (1 << 1, 1 << 0, 1 << 1)
    assert data.neighbour_labels is first
    assert data == Graph(data.labels, data.adj)  # the masks are not compared


def assert_label_rows_match_brute_force(graph, labels):
    """Every (vertex, label) row of neighbours_by_label equals a label filter of adj[v]."""
    index = graph.neighbours_by_label
    for label in labels:
        for v in range(graph.num_vertices):
            expected = tuple(w for w in graph.adj[v] if graph.labels[w] == label)
            assert index[label][v] == expected, (label, v)
            assert index[label][v] == expected  # the stored row, on the second lookup
    # rows are stored only where non-empty: at most one per (vertex, neighbour label)
    stored = sum(len(rows) for rows in index.values())
    assert stored == sum(map(len, brute_neighbour_labels(graph)))
    assert sum(len(row) for rows in index.values() for row in rows.values()) == 2 * graph.num_edges


def test_neighbours_by_label_rows_match_brute_force():
    rng = random.Random(43)
    graphs = [Graph(g.labels, g.adj) for g in (helpers.worked_data(), helpers.benchmark_graph())]  # unshared copies
    graphs += [random_graph(rng.randint(1, 40), rng.uniform(0, 0.5), rng.randint(1, 6), rng) for _ in range(20)]
    # labels 64 and above, and an isolated vertex (6) with no row
    graphs.append(Graph.from_edges([0, 63, 64, 65, 200, 64, 7], [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (4, 5)]))
    graphs.append(Graph.from_edges([], []))
    for graph in graphs:
        absent = max(graph.labels, default=0) + 1
        assert_label_rows_match_brute_force(graph, sorted(set(graph.labels)) + [absent, 10**15])
    assert graphs[-2].neighbours_by_label[64][4] == (2, 5)
    assert graphs[-2].neighbours_by_label[64][6] == ()
    assert 6 not in graphs[-2].neighbours_by_label[64]


def test_neighbours_by_label_is_built_on_first_use_and_leaves_equality_alone():
    worked = helpers.worked_data()  # shared by other tests, so take unused copies
    data, fresh = (Graph(worked.labels, worked.adj) for _ in range(2))
    before = hash(data)
    assert "neighbours_by_label" not in data.__dict__
    expected, _ = run_job(data, helpers.worked_query(), PartitionConfig(), SchedulerState(), "share")
    assert "neighbours_by_label" in data.__dict__ and data.neighbours_by_label
    assert data == fresh and hash(data) == before == hash(fresh)
    assert run_job(fresh, helpers.worked_query(), PartitionConfig(), SchedulerState(), "share")[0] == expected
    # the index refers to no graph, so a used graph is freed by reference counting alone
    gone = weakref.ref(data)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del data
        assert gone() is None
    finally:
        if was_enabled:
            gc.enable()


def spread(graph, factor):
    """graph with each label L replaced by (L + 1) * factor + L."""
    return Graph(tuple((lab + 1) * factor + lab for lab in graph.labels), graph.adj)


def test_label_masks_follow_the_number_of_labels_not_their_values():
    instances = [(data, query) for data, query, _, _ in helpers.solvable_instances(12, 1300)]
    # a 3-vertex data graph with one huge label against a 2-vertex query: two answers
    instances.append((Graph.from_edges([0, 300_000_000, 0], [(0, 1), (1, 2)]), Graph.from_edges([0, 300_000_000], [(0, 1)])))
    answers = []
    for data, query in instances:
        expected, _ = run_job(data, query, PartitionConfig(), SchedulerState(), "share")
        answers.append(len(expected))
        for factor in (1, 10**12, 10**15):
            big_data, big_query = spread(data, factor), spread(query, factor)
            assert len(big_data.label_rank) == len(set(data.labels))
            assert max(big_data.neighbour_labels).bit_length() <= len(big_data.label_rank)
            embeddings, _ = run_job(big_data, big_query, PartitionConfig(), SchedulerState(), "share")
            assert embeddings == expected
    assert answers[-1] == 2 and sum(answers) > 0


def test_query_label_absent_from_data_leaves_no_candidates():
    data = Graph.from_edges([0, 1, 0], [(0, 1), (1, 2)])
    # data vertex 1 (label 1) has label-0 neighbours; the query's label 5e12 is absent from the data
    query = Graph.from_edges([1, 5 * 10**12], [(0, 1)])
    assert [sorted(c) for c in start_candidates(data, query)] == [[], []]
    assert run_job(data, query, PartitionConfig(), SchedulerState(), "share")[0] == []


def random_edge_list(rng, n, p):
    """The edges of a random simple graph on n vertices, each in random orientation, shuffled."""
    edges = [(a, b) if rng.random() < 0.5 else (b, a) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    rng.shuffle(edges)
    return edges


def test_from_edges_equals_set_based_reference():
    rng = random.Random(17)
    cases = [([], []), ([3], []), ([0, 1, 2], []), ([0, 1, 2, 0], [(3, 0)])]  # n=0, no edges, isolated vertices
    for _ in range(200):
        n = rng.randint(1, 30)
        cases.append(([rng.randrange(4) for _ in range(n)], random_edge_list(rng, n, rng.uniform(0, 0.6))))
    for labels, edges in cases:
        expected = helpers.reference_from_edges(labels, edges)
        assert Graph.from_edges(labels, edges) == expected
        assert Graph.from_edges(labels, iter(edges)) == expected  # one-shot iterator
        assert Graph.from_edges(labels, (e for e in edges)) == expected  # one-shot generator


def error_message(build, labels, edges):
    with pytest.raises(GraphFormatError) as info:
        build(labels, list(edges))
    return str(info.value)


@pytest.mark.parametrize(
    "labels, edges",
    [
        ([0, -2, 1, -1], [(0, 1)]),  # negative label
        ([0, 1, 2, 3], [(0, 1), (2, 2)]),  # self-loop
        ([0, 1, 2, 3], [(0, 1), (0, 4)]),  # endpoint out of range, either side
        ([0, 1, 2, 3], [(0, 1), (9, 2)]),
        ([0, 1, 2, 3], [(0, 1), (2, -1)]),  # negative endpoints
        ([0, 1, 2, 3], [(0, 1), (-1, 2)]),
        ([0, 1, 2, 3], [(-4, 1)]),
        ([0, 1, 2, 3], [(1, -5)]),
        ([0, 1, 2, 3], [(-1, -2)]),
        ([0, 1, 2, 3], [(-3, -3)]),
        ([], [(0, 1)]),
        ([0, 1, 2, 3], [(0, 1), (1, 2), (0, 1)]),  # duplicate, same orientation
        ([0, 1, 2, 3], [(0, 1), (1, 2), (1, 0)]),  # duplicate, reversed
        # two defects: the first in input order is named
        ([0, 1, 2, 3], [(0, 1), (0, 1), (2, 2)]),
        ([0, 1, 2, 3], [(2, 2), (0, 1), (0, 1)]),
        ([0, 1, 2, 3], [(0, 1), (1, 0), (0, 9)]),
        ([0, 1, 2, 3], [(0, 9), (0, 1), (1, 0)]),
        ([0, 1, 2, 3], [(1, 2), (2, 1), (0, -1)]),
        ([0, 1, 2, 3], [(0, -1), (1, 2), (2, 1)]),
        ([0, 1, 2, 3], [(3, -1), (3, 3)]),
        ([0, 1, 2, 3], [(3, 3), (3, -1)]),
        ([0, 1, 2, 3], [(2, 3), (1, 2), (0, 4), (3, 2)]),
    ],
)
def test_from_edges_defects_raise_the_reference_message(labels, edges):
    expected = error_message(helpers.reference_from_edges, labels, edges)
    assert error_message(Graph.from_edges, labels, edges) == expected
    assert error_message(lambda lab, e: Graph.from_edges(lab, iter(e)), labels, edges) == expected


def test_from_edges_names_the_first_of_random_defects():
    rng = random.Random(23)
    defects = [lambda n: (0, 0), lambda n: (n - 1, n - 1), lambda n: (0, n), lambda n: (n + 3, 1),
               lambda n: (-1, 0), lambda n: (1, -n), lambda n: (-n - 1, 0)]
    for _ in range(300):
        n = rng.randint(2, 12)
        labels = [rng.randrange(3) for _ in range(n)]
        edges = random_edge_list(rng, n, 0.5)
        for _ in range(2):
            if edges and rng.random() < 0.4:
                a, b = rng.choice(edges)
                bad = (a, b) if rng.random() < 0.5 else (b, a)  # a repeat, either orientation
            else:
                bad = rng.choice(defects)(n)
            edges.insert(rng.randint(0, len(edges)), bad)
        assert error_message(Graph.from_edges, labels, edges) == error_message(helpers.reference_from_edges, labels, edges)


def test_edges_equals_the_filtered_rows():
    rng = random.Random(29)
    graphs = [Graph.from_edges([], []), Graph.from_edges([0, 0, 0], [(2, 0)]), helpers.worked_data()]
    graphs += [random_graph(rng.randint(1, 40), rng.uniform(0, 0.5), 3, rng) for _ in range(30)]
    for g in graphs:
        assert g.edges() == [(a, b) for a in range(g.num_vertices) for b in g.adj[a] if a < b]


class RecordingRandom(random.Random):
    """A Random that records, at each `choices` call, whether the collector was on."""

    def __init__(self, seed):
        super().__init__(seed)
        self.collector_on = []

    def choices(self, *args, **kwargs):
        self.collector_on.append(gc.isenabled())
        return super().choices(*args, **kwargs)


@pytest.mark.parametrize("enabled", [True, False])
def test_builders_pause_the_collector_and_leave_it_as_found(enabled):
    collector_on = []

    def recorded(edges):
        for edge in edges:
            collector_on.append(gc.isenabled())
            yield edge

    rng = RecordingRandom(5)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        Graph.from_edges([0, 1, 2], recorded([(0, 1), (1, 2)]))
        assert gc.isenabled() == enabled
        with pytest.raises(GraphFormatError):
            Graph.from_edges([0, 1, 2], recorded([(0, 1), (1, 1)]))
        assert gc.isenabled() == enabled
        with pytest.raises(GraphFormatError):
            Graph.from_edges([0, -1], [])
        assert gc.isenabled() == enabled
        assert powerlaw_graph(200, 2.5, 3, rng).num_edges > 0
        assert gc.isenabled() == enabled
        with pytest.raises(ValueError):
            powerlaw_graph(0, 2.5, 3, 1)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert collector_on == [False] * 4
    assert rng.collector_on and not any(rng.collector_on)


def test_paused_collector_leaves_the_due_collection_to_the_caller():
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    @paused_collector
    def allocate():
        assert not gc.isenabled()
        return [[] for _ in range(5000)]  # tracked objects, far above the young threshold

    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(record)
    try:
        kept = allocate()
        during = len(starts)  # allocates nothing tracked, so collects nothing
        assert gc.isenabled()
        after = [kept]  # the caller's next allocation starts the collection
        assert (during, len(starts) > 0) == (0, True)
    finally:
        gc.callbacks.remove(record)
        (gc.enable if was_enabled else gc.disable)()
    assert after[0] is kept
