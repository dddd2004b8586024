"""Unit tests for the deterministic graph family generators."""

import random
import re
import tracemalloc

import pytest

from degmatch import families
from degmatch import (
    CapExceededError,
    Graph,
    ValidationError,
    complete_bipartite,
    cycle,
    disjoint_cliques,
    disjoint_triangles,
    half_graph,
    make_family,
    make_sequence,
    max_matching,
    path,
    regular_circulant,
    windmill,
)
from oracles import FAMILY_LOOPS, edge_list_text_by_adjacency

# each kind's parameters just over the cap of 10**6 vertices or edges: one
# step down, each of these families is at or under it
OVER_CAP = {
    "half-graph": {"n": 2002},  # 1001**2 edges
    "windmill": {"t": 1, "l": 1415},  # 1415 * 1414 / 2 edges
    "cycle": {"n": 10**6 + 1},
    "path": {"n": 10**6 + 1},
    "complete-bipartite": {"a": 1000, "b": 1001},
    "disjoint-triangles": {"k": 333_334},  # 3k vertices and 3k edges
    "disjoint-cliques": {"k": 1, "l": 1415},
    "regular-circulant": {"n": 2000, "r": 1001},  # 2000 * 1001 / 2 edges
}

# small cases of every kind, whose counts are read off the built graphs
SMALL = [
    ("half-graph", {"n": n}) for n in (2, 4, 6, 10)
] + [
    ("windmill", {"t": t, "l": l}) for t in (1, 2, 5) for l in (2, 3, 6)
] + [
    ("cycle", {"n": n}) for n in (3, 4, 9)
] + [
    ("path", {"n": n}) for n in (1, 2, 7)
] + [
    ("complete-bipartite", {"a": a, "b": b}) for a in (1, 3) for b in (1, 4)
] + [
    ("disjoint-triangles", {"k": k}) for k in (1, 4)
] + [
    ("disjoint-cliques", {"k": k, "l": l}) for k in (1, 3) for l in (1, 2, 5)
] + [
    ("regular-circulant", {"n": n, "r": r}) for n, r in ((1, 0), (6, 0), (6, 3), (7, 2), (8, 5), (9, 8))
]

# every kind at every small size: the grid the builders are checked on
# against their loop oracles
GRID = {
    "half-graph": [{"n": n} for n in range(2, 41, 2)],
    "windmill": [{"t": t, "l": l} for t in range(1, 9) for l in range(2, 9)],
    "cycle": [{"n": n} for n in range(3, 61)],
    "path": [{"n": n} for n in range(1, 61)],
    "complete-bipartite": [{"a": a, "b": b} for a in range(1, 11) for b in range(1, 11)],
    "disjoint-triangles": [{"k": k} for k in range(1, 21)],
    "disjoint-cliques": [{"k": k, "l": l} for k in range(1, 7) for l in range(1, 9)],
    "regular-circulant": [{"n": n, "r": r} for n in range(1, 21) for r in range(n) if n * r % 2 == 0],
}


class TestAgainstLoops:
    """The builders make normalized edges by each family's rule and trust
    them; the oracles build each family by loops over its vertices, through
    the validating constructor."""

    @pytest.mark.parametrize("kind", GRID)
    def test_builders_equal_loops(self, kind):
        for params in GRID[kind]:
            g = make_family(kind, **params)
            assert g == FAMILY_LOOPS[kind](**params), (kind, params)
            # trusting the edges is sound: validating them changes nothing
            assert Graph(g.vertex_count, g.edges) == g, (kind, params)

    @pytest.mark.parametrize("kind", GRID)
    def test_text_equals_adjacency_writer(self, kind):
        for params in GRID[kind]:
            g = make_family(kind, **params)
            text = g.to_edge_list_text()
            # the text is written from the edges: no adjacency was built
            assert "_adj" not in g.__dict__, (kind, params)
            assert text == edge_list_text_by_adjacency(g), (kind, params)

    def test_text_of_seeded_graphs(self):
        rng = random.Random(42)
        graphs = [Graph(0), Graph(1), Graph(5, frozenset([(3, 1)]))]
        for n in range(2, 40):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            # the last n // 4 vertices are isolated, and some of the first n
            graphs.append(Graph(n + n // 4, frozenset(rng.sample(pairs, rng.randint(0, len(pairs))))))
        for g in graphs:
            assert g.to_edge_list_text() == edge_list_text_by_adjacency(g), g


class TestSizeCap:
    """Every builder computes its vertex and edge counts from its parameters
    and refuses a family over ``EDGE_LIST_CAP`` before building anything."""

    @pytest.mark.parametrize("kind,params", SMALL, ids=lambda x: x if isinstance(x, str) else None)
    def test_counts_match_built_graphs(self, monkeypatch, kind, params):
        g = make_family(kind, **params)
        # under a cap of -1 every family is refused, with the counts it computed
        monkeypatch.setattr(families, "EDGE_LIST_CAP", -1)
        with pytest.raises(CapExceededError) as info:
            make_family(kind, **params)
        n, m = map(int, re.fullmatch(r"family of (\d+) vertices and (\d+) edges exceeds cap -1", str(info.value)).groups())
        assert (n, m) == (g.vertex_count, g.m), (kind, params)
        monkeypatch.setattr(families, "EDGE_LIST_CAP", max(n, m))
        assert make_family(kind, **params) == g

    @pytest.mark.parametrize(
        "kind,params",
        [*OVER_CAP.items(), ("cycle", {"n": 10**8}), ("disjoint-cliques", {"k": 1, "l": 10**6}),
         ("windmill", {"t": 1, "l": 10**6}), ("complete-bipartite", {"a": 10**6, "b": 10**6})],
        ids=lambda x: x if isinstance(x, str) else None,
    )
    def test_over_cap(self, kind, params):
        # refused before any edge exists: a list of 10**6 slots alone would
        # take 8 MB
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="exceeds cap 1000000"):
                make_family(kind, **params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_long_ints_are_shown_short(self):
        with pytest.raises(CapExceededError) as info:
            complete_bipartite(10**4000, 10**4000)
        assert len(str(info.value)) < 120, str(info.value)


class TestHalfGraph:
    def test_n2_single_edge(self):
        g = half_graph(2)
        assert sorted(g.edges) == [(0, 1)]

    def test_n4_explicit_edges(self):
        # direct evaluation of the defining predicate on labels 1..4
        g = half_graph(4)
        assert sorted(g.edges) == [(0, 1), (0, 2), (0, 3), (1, 3)]

    def test_n6_edge_count_and_degrees(self):
        g = half_graph(6)
        assert g.m == 9  # n^2 / 4
        assert g.degree_sequence().degrees == (5, 4, 3, 3, 2, 1)

    def test_degree_pattern_matches_predicate(self):
        for n in range(2, 17, 2):
            g = half_graph(n)
            assert g.m == n * n // 4
            expected = tuple(range(n - 1, n // 2 - 1, -1)) + tuple(range(n // 2, 0, -1))
            assert g.degree_sequence().degrees == expected

    def test_odd_n_rejected(self):
        with pytest.raises(ValidationError):
            half_graph(5)


class TestWindmill:
    def test_friendship_shape(self):
        g = windmill(2, 3)
        assert g.vertex_count == 5 and g.m == 6
        assert g.degree_sequence().degrees == (4, 2, 2, 2, 2)

    def test_single_blade_is_complete(self):
        g = windmill(1, 4)
        assert g.m == 6 and g.degree_sequence().degrees == (3, 3, 3, 3)

    def test_friendship_matching_number(self):
        assert max_matching(windmill(3, 3)).size == 3

    def test_degree_profile(self):
        for t in range(1, 5):
            for l in range(2, 6):
                g = windmill(t, l)
                degs = g.degree_sequence().degrees
                assert degs[0] == t * (l - 1)
                assert all(x == l - 1 for x in degs[1:])

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            windmill(0, 3)
        with pytest.raises(ValidationError):
            windmill(2, 1)


class TestMakeFamily:
    def test_cycle(self):
        g = make_family("cycle", n=6)
        assert g.degree_sequence().degrees == (2,) * 6
        assert max_matching(g).size == 3

    def test_disjoint_triangles_matching(self):
        assert max_matching(make_family("disjoint-triangles", k=2)).size == 2

    def test_complete_bipartite_matching(self):
        assert max_matching(make_family("complete-bipartite", a=2, b=6)).size == 2

    def test_same_sequence_different_matching_numbers(self):
        # one degree sequence, two realizations, different matching numbers
        c6 = cycle(6)
        two_triangles = disjoint_triangles(2)
        assert c6.degree_sequence() == two_triangles.degree_sequence()
        assert max_matching(c6).size == 3
        assert max_matching(two_triangles).size == 2

    def test_underscores_accepted(self):
        assert make_family("half_graph", n=4) == half_graph(4)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            make_family("moebius", n=8)

    def test_missing_parameter(self):
        with pytest.raises(ValidationError, match="needs parameters"):
            make_family("windmill", t=2)


class TestCirculantAndOthers:
    def test_regular_and_simple_up_to_50(self):
        for n in range(3, 51):
            for r in range(2, min(n, 8)):
                if (n * r) % 2:
                    continue
                g = regular_circulant(n, r)
                assert g.degree_sequence().degrees == (r,) * n, (n, r)

    def test_cycle_equals_circulant_r2(self):
        assert regular_circulant(7, 2) == cycle(7)

    def test_odd_r_needs_even_n(self):
        with pytest.raises(ValidationError):
            regular_circulant(7, 3)

    def test_path_and_cliques(self):
        assert path(1).m == 0
        assert path(5).degree_sequence().degrees == (2, 2, 2, 1, 1)
        g = disjoint_cliques(2, 5)
        assert g.vertex_count == 10 and g.m == 20
        assert max_matching(g).size == 4

    def test_five_cliques_matching_density(self):
        # n/5 disjoint K5 blocks: matching number is 2n/5
        for blocks in (1, 2, 3):
            g = disjoint_cliques(blocks, 5)
            assert max_matching(g).size == 2 * blocks

    def test_validation(self):
        with pytest.raises(ValidationError):
            cycle(2)
        with pytest.raises(ValidationError):
            complete_bipartite(0, 3)
        with pytest.raises(ValidationError):
            regular_circulant(5, 5)
        with pytest.raises(ValidationError, match="path needs n >= 1, got 0"):
            path(0)
        with pytest.raises(ValidationError, match="need count >= 1 and size >= 1, got 0, 3"):
            disjoint_cliques(0, 3)
        with pytest.raises(ValidationError, match="need count >= 1 and size >= 1, got 2, 0"):
            disjoint_cliques(2, 0)
