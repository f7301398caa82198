import random
from types import SimpleNamespace

import pytest

from submatch import (
    Graph,
    GraphFormatError,
    candidates_by_local_features,
    graph_to_text,
    load_graph,
    random_graph,
    save_graph,
)
from submatch import fixtures

import helpers


def test_worked_data_graph_loads_with_expected_shape():
    g = fixtures.worked_data()
    assert g.num_vertices == 10
    assert g.num_edges == 12
    assert g.labels == (0, 0, 2, 1, 2, 1, 2, 3, 3, 3)
    assert g.degrees == (3, 2, 3, 2, 3, 4, 3, 1, 1, 2)


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
    ],
)
def test_parse_errors_reject_whole_file_with_line(tmp_path, body, fragment, line):
    path = tmp_path / "bad.graph"
    path.write_text(body)
    with pytest.raises(GraphFormatError) as err:
        load_graph(path)
    assert fragment in str(err.value)
    assert err.value.line == line


def test_comments_and_blank_lines_are_ignored(tmp_path):
    path = tmp_path / "c.graph"
    path.write_text("# header\n\nt 2 1\n# vertices\nv 0 0 1\nv 1 0 1\ne 0 1\n")
    assert load_graph(path).num_edges == 1


def test_worked_root_candidates_match_worked_example():
    data, query = fixtures.worked_data(), fixtures.worked_query()
    assert candidates_by_local_features(data, query, 0) == [0, 1]


def test_absent_label_gives_empty_candidates():
    data = fixtures.worked_data()
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
    bench = fixtures.benchmark_graph()
    graphs = [Graph(bench.labels, bench.adj, bench.degrees)]  # a fresh object: the fixture is shared
    graphs += [random_graph(rng.randint(1, 40), rng.uniform(0.05, 0.5), 4, rng) for _ in range(20)]
    for data in graphs:
        assert "vertices_by_label" not in data.__dict__  # built on first use only
        for label in range(data.label_count + 2):
            label_class = [v for v in range(data.num_vertices) if data.labels[v] == label]
            for degree in range(data.max_degree + 2):
                query = SimpleNamespace(labels=(label,), degrees=(degree,))
                expected = [v for v in label_class if data.degrees[v] >= degree]
                assert candidates_by_local_features(data, query, 0) == expected, (label, degree)
        assert "vertices_by_label" in data.__dict__
        assert data == Graph(data.labels, data.adj, data.degrees)  # the index is not compared


def brute_neighbour_labels(graph):
    """Per vertex, the set of its neighbours' labels, from the definition."""
    return [{graph.labels[w] for w in graph.adj[v]} for v in range(graph.num_vertices)]


def mask_labels(mask):
    return {bit for bit in range(mask.bit_length()) if mask >> bit & 1}


def test_neighbour_labels_match_brute_force_sets():
    rng = random.Random(41)
    graphs = [fixtures.worked_data()]
    graphs += [random_graph(rng.randint(1, 40), rng.uniform(0, 0.5), rng.randint(1, 6), rng) for _ in range(20)]
    # labels 64 and above, and an isolated vertex (6) whose mask is 0
    graphs.append(Graph.from_edges([0, 63, 64, 65, 200, 64, 7], [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (4, 5)]))
    for graph in graphs:
        masks = graph.neighbour_labels
        assert len(masks) == graph.num_vertices
        assert [mask_labels(m) for m in masks] == brute_neighbour_labels(graph)
    assert graphs[-1].neighbour_labels[4] == 1 << 64 | 1 << 65
    assert graphs[-1].neighbour_labels[6] == 0


def test_neighbour_labels_built_once_on_first_use():
    data = Graph.from_edges([1, 2, 1], [(0, 1), (1, 2)])
    assert "neighbour_labels" not in data.__dict__
    first = data.neighbour_labels
    assert first == (1 << 2, 1 << 1, 1 << 2)
    assert data.neighbour_labels is first
    assert data == Graph(data.labels, data.adj, data.degrees)  # the masks are not compared
