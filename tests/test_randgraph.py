import hashlib
import random

import pytest

from submatch import fixtures, graph_to_text, powerlaw_graph, randgraph

import helpers

# (n, exponent, num_labels, avg_degree). n=1 has no pair to draw; n=6 asks
# for all 15 pairs but rarely draws its light vertices, so it stops at the
# attempt cap.
SHAPES = [
    (1, 2.5, 3, 8.0),
    (2, 2.5, 2, 8.0),
    (6, 1.5, 2, 50.0),
    (40, 2.5, 4, 6.0),
    (200, 2.1, 5, 10.0),
    (500, 3.0, 11, 3.0),
]


@pytest.mark.parametrize("draw_batch", [randgraph._DRAW_BATCH, 3], ids=["default_batch", "batch_3"])
@pytest.mark.parametrize("shape", SHAPES)
def test_batched_draws_equal_one_pair_per_call(monkeypatch, shape, draw_batch):
    monkeypatch.setattr(randgraph, "_DRAW_BATCH", draw_batch)
    n, exponent, labels, avg_degree = shape
    for seed in range(5):
        assert powerlaw_graph(n, exponent, labels, seed, avg_degree) == helpers.reference_powerlaw_graph(
            n, exponent, labels, seed, avg_degree
        ), seed
        batched, reference = random.Random(seed), random.Random(seed)
        assert powerlaw_graph(n, exponent, labels, batched, avg_degree) == helpers.reference_powerlaw_graph(
            n, exponent, labels, reference, avg_degree
        ), seed
        assert batched.getstate() == reference.getstate(), seed


def test_dense_target_reaches_the_attempt_cap():
    graph = powerlaw_graph(6, 1.5, 2, 0, 50.0)
    assert graph.num_edges < 15  # the target, all 15 pairs, is never reached


def test_benchmark_graph_bytes_are_pinned():
    text = graph_to_text(fixtures.benchmark_graph())
    assert hashlib.sha256(text.encode()).hexdigest() == "1fe4dc95217d16a610b338f0a620e2b6590523d0abd593668d85bb92c7f838a1"
