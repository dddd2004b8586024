"""Differential tests against networkx, an independent implementation of the
same decisions. Skipped where networkx is not installed; it is a test-only
dependency."""

import random
from itertools import combinations

import pytest

from degmatch import Graph, is_graphic_eg, is_graphic_hh, make_sequence, max_matching

nx = pytest.importorskip("networkx")


def gnm_edges(n, m, rng):
    return rng.sample(list(combinations(range(n), 2)), m)


def degree_list(n, edges):
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    return degrees


def seeded_sequences(count, seed):
    """Degree lists with n up to 60: gnm degrees (graphic), the same with one
    entry moved by one (odd sum), two raised to n - 1 (usually failing an
    Erdos-Gallai inequality), and uniform random entries."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(2, 61)
        degrees = degree_list(n, gnm_edges(n, rng.randrange(n * (n - 1) // 2 + 1), rng))
        kind = rng.randrange(4)
        if kind == 1:
            i = rng.randrange(n)
            degrees[i] += 1 if degrees[i] < n - 1 else -1
        elif kind == 2:
            degrees[0] = degrees[1] = n - 1
        elif kind == 3:
            degrees = [rng.randrange(n) for _ in range(n)]
        yield degrees


def test_graphicality_agrees_with_networkx():
    verdicts = []
    for degrees in seeded_sequences(600, seed=1):
        expected = nx.is_graphical(degrees, method="eg")
        d = make_sequence(degrees)
        assert is_graphic_eg(d).is_graphic == expected, degrees
        assert is_graphic_hh(d) == expected, degrees
        verdicts.append(expected)
    # both answers occur often enough for the comparison to mean something
    assert 150 < sum(verdicts) < 450


def test_max_matching_agrees_with_networkx():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randrange(2, 61)
        edges = gnm_edges(n, rng.randrange(min(3 * n, n * (n - 1) // 2) + 1), rng)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        expected = len(nx.max_weight_matching(G, maxcardinality=True))
        assert max_matching(Graph(n, frozenset(edges))).size == expected, (n, sorted(edges))
