"""Seeded random graph generators for benchmarks and tests."""

from __future__ import annotations

import math
import random

from .graph import Graph, paused_collector

# Most endpoint pairs powerlaw_graph draws per call: enough to amortise the
# call, few enough that the drawn list stays small (under 400 KiB).
_DRAW_BATCH = 4096


def _unrank_pair(index: int, n: int) -> tuple[int, int]:
    """Map a linear index into the upper-triangle pair (u, v), u < v."""
    # offset(u) = u*n - u*(u+1)/2 rows precede row u; invert by quadratic.
    # isqrt rounds down, so the estimate is the true row or the one after it.
    u = int((2 * n - 1 - math.isqrt((2 * n - 1) ** 2 - 8 * index)) // 2)
    if u * n - u * (u + 1) // 2 > index:
        u -= 1
    v = index - (u * n - u * (u + 1) // 2) + u + 1
    return u, v


def random_graph(n: int, p: float, num_labels: int, seed: int | random.Random) -> Graph:
    """Uniform random graph with round(p * C(n,2)) distinct edges.

    Labels are uniform over range(num_labels). Deterministic for a fixed
    seed; the same seed always yields the same graph.
    """
    if n < 1 or num_labels < 1 or not 0.0 <= p <= 1.0:
        raise ValueError("need n >= 1, num_labels >= 1, 0 <= p <= 1")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    labels = [rng.randrange(num_labels) for _ in range(n)]
    total = n * (n - 1) // 2
    m = round(p * total)
    return Graph.from_edges(labels, [_unrank_pair(i, n) for i in rng.sample(range(total), m)])


@paused_collector
def powerlaw_graph(
    n: int,
    exponent: float,
    num_labels: int,
    seed: int | random.Random,
    avg_degree: float = 8.0,
) -> Graph:
    """Hub-heavy random graph with endpoint weights (i+1)^(-1/(exponent-1)).

    Targets avg_degree by drawing weighted endpoint pairs and dropping
    self-loops and duplicates, so the realized edge count can fall short
    on dense targets. Pairs are drawn in batches no larger than the
    edges still missing, the attempts still allowed and _DRAW_BATCH.
    `choices` takes one random() per endpoint in order and an attempt
    adds at most one edge, so a batch never draws past where drawing one
    pair per call would stop: a seed gives the same graph, and leaves a
    passed-in Random in the same state, as drawing one pair per call.
    The edge set goes to Graph.from_edges unsorted (it sorts the rows),
    and the whole call runs with the cyclic collector paused.
    """
    if n < 1 or num_labels < 1 or not exponent > 1.0:
        raise ValueError("need n >= 1, num_labels >= 1, exponent > 1")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    labels = [rng.randrange(num_labels) for _ in range(n)]
    weights = [(i + 1) ** (-1.0 / (exponent - 1.0)) for i in range(n)]
    cum = list(weights)
    for i in range(1, n):
        cum[i] += cum[i - 1]
    target = min(int(n * avg_degree) // 2, n * (n - 1) // 2)
    limit = 50 * (target + 1)
    edges: set[tuple[int, int]] = set()
    attempts = 0
    population = range(n)
    while len(edges) < target and attempts < limit:
        batch = min(target - len(edges), limit - attempts, _DRAW_BATCH)
        attempts += batch
        ends = rng.choices(population, cum_weights=cum, k=2 * batch)
        edges.update((a, b) if a < b else (b, a) for a, b in zip(ends[::2], ends[1::2]) if a != b)
    return Graph.from_edges(labels, edges)
