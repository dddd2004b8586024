"""Unit tests for the graph type and the matching machinery."""

import dataclasses
import importlib
import inspect
import itertools
import pkgutil
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from degmatch import (
    CapExceededError,
    Graph,
    Matching,
    ValidationError,
    cycle,
    disjoint_cliques,
    greedy_maximal_matching,
    grow,
    half_graph,
    make_sequence,
    max_matching,
    min_maximal_matching,
    path,
    pinch,
    verify_matching,
    windmill,
)
import degmatch
from degmatch import dpg
from degmatch.enumeration import _extension_witness, all_graphic_sequences, conjecture_scan, enumerate_realizations
from degmatch.graphs import EDGE_LIST_CAP, _greedy_matching, _index_order_blossom, _ranked_blossom
from oracles import blossom_oracle, max_matching_exhaustive


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1))


def random_graph(rng, n, p):
    edges = frozenset(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    )
    return Graph(n, edges)


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return Graph(n, frozenset(chosen))


class TestGraphType:
    def test_normalizes_and_dedupes(self):
        g = Graph(3, frozenset([(1, 0), (0, 1), (2, 1)]))
        assert sorted(g.edges) == [(0, 1), (1, 2)]
        assert g.m == 2

    def test_rejects_loops_and_out_of_range(self):
        with pytest.raises(ValidationError):
            Graph(3, frozenset([(1, 1)]))
        with pytest.raises(ValidationError):
            Graph(3, frozenset([(0, 3)]))

    def test_degrees_and_neighbors(self):
        g = path(4)
        assert g.degrees() == (1, 2, 2, 1)
        assert g.neighbors(1) == (0, 2)
        assert g.degree_sequence().degrees == (2, 2, 1, 1)
        assert g.is_edge(2, 1) and not g.is_edge(0, 3)

    def test_edge_list_round_trip(self):
        g = Graph(5, frozenset([(0, 1), (2, 3)]))  # vertex 4 isolated
        text = g.to_edge_list_text()
        assert Graph.from_edge_list_text(text) == g

    def test_edge_list_parsing(self):
        text = "# a comment\nn 4\n0 1\n2 3\n"
        g = Graph.from_edge_list_text(text)
        assert g.vertex_count == 4 and g.m == 2
        # without a declared count the highest endpoint wins
        g2 = Graph.from_edge_list_text("0 1\n1 2\n")
        assert g2.vertex_count == 3

    def test_edge_list_malformed(self):
        with pytest.raises(ValidationError):
            Graph.from_edge_list_text("0 1 2\n")

    @pytest.mark.parametrize("repeat", ["0 1", "1 0"])
    def test_edge_list_repeated_edge(self, repeat):
        with pytest.raises(ValidationError, match="repeated edge 0 1"):
            Graph.from_edge_list_text(f"n 3\n0 1\n1 2\n{repeat}\n")

    @pytest.mark.parametrize("text", ["n 100000000\n0 1\n", f"0 {'9' * 40}\n", f"n {EDGE_LIST_CAP + 1}\n"])
    def test_edge_list_over_vertex_cap(self, text):
        # refused before any per-vertex list exists: a list of 10**6 slots
        # alone would take 8 MB
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="exceeds edge-list cap 1000000"):
                Graph.from_edge_list_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_edge_list_at_vertex_cap(self):
        g = Graph.from_edge_list_text(f"n {EDGE_LIST_CAP}\n0 1\n")
        assert g.vertex_count == EDGE_LIST_CAP and g.m == 1
        assert Graph.from_edge_list_text(f"0 {EDGE_LIST_CAP - 1}\n").vertex_count == EDGE_LIST_CAP

    def test_neighbors_out_of_range(self):
        g = path(3)
        for v in (-1, 3):
            with pytest.raises(ValidationError, match=f"vertex {v} out of range"):
                g.neighbors(v)

    def test_adjacency_built_once(self):
        g = half_graph(8)
        assert g.adjacency() is g.adjacency()
        assert g.degrees() is g.degrees()
        assert all(g.neighbors(v) is g.adjacency()[v] for v in range(g.vertex_count))

    def test_trusted_equals_validated(self):
        rng = random.Random(3)
        hosts = [Graph(0), Graph(3), path(4), half_graph(6), cycle(7)]
        hosts += [random_graph(rng, n, 0.5) for n in range(1, 10)]
        hosts += list(enumerate_realizations(make_sequence([3, 3, 2, 2, 2, 0])))
        for g in hosts:
            built = Graph(g.vertex_count, g.edges)
            for adj in (None, built.adjacency()):
                t = Graph._trusted(g.vertex_count, g.edges, adj)
                assert t == built and built == t and hash(t) == hash(built)
                assert t.adjacency() == built.adjacency() and t.adjacency() is t.adjacency()
                assert t.degrees() == built.degrees() and t.degrees() is t.degrees()
                with pytest.raises(dataclasses.FrozenInstanceError):
                    t.edges = frozenset()


class TestMatchingType:
    def test_disjointness_enforced(self):
        with pytest.raises(ValidationError):
            Matching(frozenset([(0, 1), (1, 2)]), 3)

    def test_vertex_sets(self):
        m = Matching(frozenset([(0, 1)]), 4)
        assert m.matched_vertices == frozenset({0, 1})
        assert m.unmatched_vertices == frozenset({2, 3})


class TestTrustedMatchings:
    """The matching kernels and the two split searches build their matchings
    with ``Matching._trusted``, which skips the checks of ``Matching``: every
    such site must still hand out a valid matching. The growth policies'
    selector hands out sorted edge lists, checked here through the
    validating constructor."""

    SITES = {"max_matching", "greedy_maximal_matching", "min_maximal_matching", "_split_witness", "_extension_witness"}

    def test_the_sites_are_all_covered(self):
        found = set()
        for info in pkgutil.iter_modules(degmatch.__path__):
            module = importlib.import_module(f"degmatch.{info.name}")
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if fn.__module__ == module.__name__ and "Matching._trusted(" in inspect.getsource(fn):
                    found.add(name)
        assert found == self.SITES

    def test_every_site_hands_out_a_valid_matching(self):
        small = [g for n in range(1, 7) for g in all_graphs(n)][::11]
        for g in small + [gnm(30, 60, seed) for seed in range(4)] + c6_chain_graphs(60, 20):
            full = max_matching(g)
            assert verify_matching(g, full)
            assert verify_matching(g, greedy_maximal_matching(g, 3), require_maximal=True)
            if g.vertex_count <= 8:
                assert verify_matching(g, min_maximal_matching(g), require_maximal=True)
            # grow hands the list-based selector the index-order partner list
            # when it holds it; a size of None asks for nu edges
            index_order = _index_order_blossom(g.adjacency())
            for policy in dpg.MATCHING_POLICIES:
                for size in list(range(1, full.size + 1)) + [None]:
                    for known in ({}, {"match": index_order}):
                        edges = dpg._select_matching(
                            g.adjacency(), size, size or 0, policy=policy, **known
                        )
                        if full.size == 0:
                            assert edges is None, (g, policy)
                            continue
                        m = Matching(frozenset(edges), g.vertex_count)
                        assert edges == sorted(m.edges), (g, policy, size)
                        assert m.size == (size or full.size) and verify_matching(g, m), (g, policy, size)
                        if policy == "first":
                            assert sorted(m.edges) == sorted(full.edges)[: m.size], (g, size)
        for row in conjecture_scan(6):
            g, m = row.witness
            assert m.size == row.nu_bar_d and verify_matching(g, m, require_maximal=True)
        for d in all_graphic_sequences(6):
            for delta in range(2, d.n + 1, 2):
                witness = _extension_witness(d.degrees, delta)
                if witness is not None:
                    g, m = witness
                    assert m == Matching(m.edges, d.n) and verify_matching(g, m), (d, delta)
                    assert g.degrees() == d.degrees and m.matched_vertices == set(range(delta)), (d, delta)


class TestMaxMatching:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (cycle(3), 1),
            (cycle(6), 3),
            (windmill(2, 3), 2),  # near-perfect: one vertex stays unmatched
        ],
    )
    def test_examples(self, g, expected):
        m = max_matching(g)
        assert m.size == expected
        assert verify_matching(g, m, require_maximal=True)

    def test_empty_graph(self):
        assert max_matching(Graph(0, frozenset())).size == 0
        assert max_matching(Graph(4, frozenset())).size == 0

    def test_deterministic(self):
        g = half_graph(8)
        assert max_matching(g).edges == max_matching(g).edges

    def test_agrees_with_exhaustive_on_all_graphs_up_to_5(self):
        for n in range(6):
            for g in all_graphs(n):
                assert max_matching(g).size == max_matching_exhaustive(g).size

    def test_agrees_with_exhaustive_on_random_graphs_up_to_10(self):
        rng = random.Random(4242)
        for _ in range(250):
            g = random_graph(rng, rng.randint(6, 10), rng.choice([0.15, 0.3, 0.5, 0.8]))
            assert max_matching(g).size == max_matching_exhaustive(g).size

    def test_exhaustive_cap(self):
        with pytest.raises(CapExceededError):
            max_matching_exhaustive(Graph(11, frozenset()))


def relabelled_max_matching(g, rank):
    """Oracle for the ordered kernel: index-order blossom on the graph
    relabelled v -> rank[v], mapped back to the original labels."""
    relabelled = Graph(g.vertex_count, frozenset((rank[u], rank[v]) for u, v in g.edges))
    inverse = [0] * g.vertex_count
    for old, new in enumerate(rank):
        inverse[new] = old
    return frozenset(
        (inverse[u], inverse[v]) if inverse[u] < inverse[v] else (inverse[v], inverse[u])
        for u, v in max_matching(relabelled).edges
    )


class TestBlossomVisitOrder:
    """The kernel run in a vertex order returns exactly the matching of the
    relabel-then-map-back route, edge for edge."""

    @staticmethod
    def assert_same_as_relabelled(g, rng, shuffles=5):
        for _ in range(shuffles):
            rank = list(range(g.vertex_count))
            rng.shuffle(rank)
            assert _ranked_blossom(g.adjacency(), rank) == relabelled_max_matching(g, rank)

    def test_index_order_is_max_matching(self):
        g = half_graph(10)
        assert _ranked_blossom(g.adjacency(), range(g.vertex_count)) == max_matching(g).edges

    def test_every_labelled_graph_up_to_5(self):
        # every permutation up to n = 4, five seeded ones at n = 5
        rng = random.Random(5)
        for n in range(1, 6):
            for g in all_graphs(n):
                ranks = itertools.permutations(range(n)) if n <= 4 else (rng.sample(range(n), n) for _ in range(5))
                for rank in ranks:
                    assert _ranked_blossom(g.adjacency(), rank) == relabelled_max_matching(g, rank), (g, rank)

    def test_random_graphs(self):
        rng = random.Random(2718)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 40), rng.choice([0.05, 0.1, 0.3, 0.6]))
            self.assert_same_as_relabelled(g, rng)

    @pytest.mark.parametrize(
        "g",
        [cycle(3), cycle(9), cycle(21), windmill(3, 3), windmill(5, 3), windmill(4, 5),
         half_graph(12), half_graph(30)],
        ids=lambda g: f"n{g.vertex_count}m{g.m}",
    )
    def test_families(self, g):
        self.assert_same_as_relabelled(g, random.Random(g.vertex_count), shuffles=20)


def gnm(n, m, seed):
    pairs = list(itertools.combinations(range(n), 2))
    return Graph(n, frozenset(random.Random(seed).sample(pairs, m)))


def chain_graphs(g0, steps, delta_policy, matching_policy, every, rng_seed=17):
    """Every ``every``-th graph of a seeded chain grown from ``g0``."""
    trace = grow(g0, steps, delta_policy, rng_seed, matching_policy)
    g = g0
    out = []
    for rec in trace.steps:
        g = pinch(g, Matching(frozenset(rec.removed_matching), g.vertex_count))
        if (rec.step_index + 1) % every == 0:
            out.append(g)
    assert g == trace.final_graph
    return out


def c6_chain_graphs(steps, every):
    """Every ``every``-th graph of a seeded C6 chain grown by fixed:4 / first."""
    return chain_graphs(cycle(6), steps, "fixed:4", "first", every)


def star(t, centre):
    """K_{1,t} on vertices 0..t, its centre at label ``centre``."""
    return Graph(t + 1, frozenset((centre, v) for v in range(t + 1) if v != centre))


def broom(path_length, leaves, seed):
    """A path with ``leaves`` pendant leaves, each hung on a seeded path
    vertex, under seeded labels."""
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(path_length - 1)]
    edges += [(rng.randrange(path_length), path_length + j) for j in range(leaves)]
    label = list(range(path_length + leaves))
    rng.shuffle(label)
    return Graph(len(label), frozenset((label[u], label[v]) for u, v in edges))


def stars_among_isolated(n, sizes, seed):
    """Disjoint stars K_{1,t}, one per t in ``sizes``, at seeded labels
    among n vertices; the rest are isolated."""
    ids = iter(random.Random(seed).sample(range(n), sum(sizes) + len(sizes)))
    edges = []
    for t in sizes:
        centre = next(ids)
        edges += [(centre, next(ids)) for _ in range(t)]
    return Graph(n, frozenset(edges))


def disjoint_union(*parts):
    """The graphs side by side, each shifted past the ones before it."""
    edges, offset = [], 0
    for g in parts:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.vertex_count
    return Graph(offset, frozenset(edges))


class TestBlossomOracle:
    """The tree-bounded kernel returns the oracle's matching edge for edge,
    in index order and under shuffled ranks."""

    @staticmethod
    def assert_matches_oracle(g, rng, shuffles=5):
        assert max_matching(g).edges == blossom_oracle(g)
        for _ in range(shuffles):
            rank = list(range(g.vertex_count))
            rng.shuffle(rank)
            assert _ranked_blossom(g.adjacency(), rank) == blossom_oracle(g, rank)

    @pytest.mark.parametrize("n", [2, 5, 10, 25, 50, 100, 200, 400, 800])
    def test_gnm_2n(self, n):
        g = gnm(n, min(2 * n, n * (n - 1) // 2), n)
        self.assert_matches_oracle(g, random.Random(n))

    def test_c6_chain(self):
        # pinched chains grow long odd cycles through the new vertices, so a
        # single search contracts dozens of nested blossoms
        rng = random.Random(300)
        for g in c6_chain_graphs(300, 5):
            self.assert_matches_oracle(g, rng)

    @pytest.mark.parametrize(
        "g",
        [cycle(3), cycle(5), cycle(31), cycle(101), windmill(3, 3), windmill(6, 3),
         windmill(4, 5), windmill(7, 4), half_graph(10), half_graph(24), half_graph(60),
         # most free roots of these see only vertices of failed trees, so
         # the kernel marks them dead without a search
         *(pytest.param(star(t, c), id=f"star{t}-centre{c}") for t in (1, 2, 10, 50) for c in sorted({0, t // 2, t})),
         *(pytest.param(broom(k, leaves, seed), id=f"broom{k}-leaves{leaves}-seed{seed}")
           for k, leaves in ((2, 9), (5, 40), (12, 60), (30, 90)) for seed in (1, 2)),
         *(pytest.param(stars_among_isolated(n, sizes, n), id=f"stars-among{n}")
           for n, sizes in ((30, [3, 1, 5]), (120, [2, 8, 1, 13, 4]), (400, [40, 3, 17, 1, 1, 25, 9]))),
         # two or more vertices stay unmatched and none is isolated, so the
         # kernel stops once one live free vertex is left (f)
         pytest.param(disjoint_union(disjoint_cliques(2, 5), disjoint_cliques(1, 7)), id="K5+K5+K7"),
         pytest.param(disjoint_union(*map(cycle, (3, 5, 7, 9, 11))), id="odd-cycles"),
         pytest.param(disjoint_union(disjoint_cliques(1, 5), path(21)), id="K5+P21")],
        ids=lambda g: f"n{g.vertex_count}m{g.m}",
    )
    def test_families(self, g):
        self.assert_matches_oracle(g, random.Random(g.vertex_count))

    @pytest.mark.parametrize(
        "seed, matching_policy",
        [("gnm", "first"), ("gnm", "random"), ("half-graph", "first"), ("half-graph", "max-degree"),
         ("half-graph", "random")],
    )
    def test_max_chain(self, seed, matching_policy):
        # every 4th of 20 --policy max steps from a sparse gnm seed: ν falls
        # to 9-21 on 104-120 vertices, so most free roots see only vertices
        # of failed trees; every 5th of 40 from the half graph: near-perfect
        # matchings whose searches contract up to 70 blossoms per graph
        if seed == "gnm":
            g0, steps, every = gnm(100, 200, 100), 20, 4
        else:
            g0, steps, every = half_graph(40), 40, 5
        rng = random.Random(g0.vertex_count)
        for g in chain_graphs(g0, steps, "max", matching_policy, every):
            self.assert_matches_oracle(g, rng)

    def test_mostly_isolated_vertices(self):
        # a few odd cycles and a path among 1000 vertices
        rng = random.Random(1000)
        ids = rng.sample(range(1000), 40)
        edges = set()
        for cyc in (ids[0:5], ids[5:12], ids[12:21]):
            edges.update(zip(cyc, cyc[1:] + cyc[:1]))
        edges.update(zip(ids[21:39], ids[22:40]))
        g = Graph(1000, frozenset(edges))
        self.assert_matches_oracle(g, rng)

    @given(graphs(max_n=12), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=150)
    def test_hypothesis(self, g, seed):
        self.assert_matches_oracle(g, random.Random(seed))

    def test_every_labelled_graph_up_to_6(self):
        # later searches skip the vertices of failed (Hungarian) trees; the
        # oracle searches through them
        rng = random.Random(6)
        count = 0
        for n in range(1, 7):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph(n, frozenset(e for i, e in enumerate(pairs) if mask >> i & 1))
                assert max_matching(g).edges == blossom_oracle(g), g
                if rng.random() < 0.05:
                    rank = list(range(n))
                    rng.shuffle(rank)
                    assert _ranked_blossom(g.adjacency(), rank) == blossom_oracle(g, rank), (g, rank)
                count += 1
        assert count == 33867


def kernel_line_reads(adj, marker, read):
    """``read`` of the kernel's locals each time ``_index_order_blossom(adj)``
    reaches the line that contains ``marker``."""
    code = _index_order_blossom.__code__
    lines, first = inspect.getsourcelines(_index_order_blossom)
    target = first + next(i for i, line in enumerate(lines) if marker in line)
    reads = []

    def in_kernel(frame, event, arg):
        if event == "line" and frame.f_lineno == target:
            reads.append(read(frame.f_locals))
        return in_kernel

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: in_kernel if frame.f_code is code else None)
    try:
        _index_order_blossom(adj)
    finally:
        sys.settrace(previous)
    return reads


def contraction_sizes(adj):
    """The number of bases each blossom contraction of
    ``_index_order_blossom(adj)`` absorbs, read on the line after its two
    path walks."""
    return kernel_line_reads(adj, "merged = members[cur_base]", lambda f: len(f["absorbed"]))


def search_roots(adj):
    """The root of each search ``_index_order_blossom(adj)`` sets up."""
    return kernel_line_reads(adj, "touched = [root]", lambda f: f["root"])


class TestBlossomContractions:
    """A contraction runs only for an edge between two different bases, so
    it absorbs at least one base. One that absorbs none was started from a
    stale base of the scanned vertex: the answer is the same, the work is
    wasted."""

    @pytest.mark.parametrize(
        "graphs",
        [lambda: chain_graphs(half_graph(40), 40, "max", "first", 5), lambda: c6_chain_graphs(300, 25)],
        ids=["half-graph-max", "c6-fixed4"],
    )
    def test_every_contraction_absorbs_a_base(self, graphs):
        rng = random.Random(9)
        sizes = []
        for g in graphs():
            rank = list(range(g.vertex_count))
            rng.shuffle(rank)
            order = sorted(range(g.vertex_count), key=rank.__getitem__)
            relabelled = [sorted(rank[u] for u in g.adjacency()[v]) for v in order]
            for adj in (g.adjacency(), relabelled):
                sizes += contraction_sizes(adj)
        assert sizes and min(sizes) >= 1


class TestBlossomStop:
    """The kernel stops once fewer than two free vertices lie outside the
    failed trees, counting the roots of failed searches and the free roots
    marked dead unsearched (f). The greedy warm start leaves one free
    vertex in each odd clique here, and a search from it fails."""

    @pytest.mark.parametrize(
        "g, roots",
        [
            # the search from 4 fails, leaving 9 the one live free vertex
            pytest.param(disjoint_cliques(2, 5), [4], id="K5+K5"),
            pytest.param(disjoint_union(disjoint_cliques(2, 5), disjoint_cliques(1, 7)), [4, 9], id="K5+K5+K7"),
            # the search from 2 fails and 3 sees only its dead tree, so 3 is
            # marked dead unsearched, leaving 8 the one live free vertex
            pytest.param(disjoint_union(star(3, 0), disjoint_cliques(1, 5)), [2], id="K1,3+K5"),
        ],
    )
    def test_searches(self, g, roots):
        assert search_roots(g.adjacency()) == roots
        assert max_matching(g).edges == blossom_oracle(g)


class TestGreedyMaximal:
    def test_path_always_maximal(self):
        g = path(4)
        for seed in range(50):
            m = greedy_maximal_matching(g, seed)
            assert m.size in (1, 2)
            assert verify_matching(g, m, require_maximal=True)

    def test_empty_graph(self):
        assert greedy_maximal_matching(Graph(3, frozenset()), 0).size == 0

    def test_verify_rejects_edges_sharing_a_vertex(self):
        # Matching refuses such edges, so only a trusted one can carry them
        shared = Matching._trusted(frozenset([(0, 1), (1, 2)]), 3)
        assert not verify_matching(path(3), shared)

    def test_k4_every_seed_gives_two(self):
        # in K4 no single edge is maximal: the two uncovered vertices stay adjacent
        k4 = windmill(1, 4)
        for e in k4.edges:
            assert not verify_matching(k4, Matching(frozenset([e]), 4), require_maximal=True)
        for seed in range(50):
            assert greedy_maximal_matching(k4, seed).size == 2

    def test_reproducible(self):
        g = half_graph(10)
        assert greedy_maximal_matching(g, 9).edges == greedy_maximal_matching(g, 9).edges

    def test_greedy_pass_stops_at_size(self):
        edges = [(0, 0, 1), (0, 1, 2), (0, 2, 3), (0, 4, 5)]
        assert _greedy_matching(6, edges, 0) == []
        assert _greedy_matching(6, edges, 1) == [(0, 1)]
        assert _greedy_matching(6, edges, 2) == [(0, 1), (2, 3)]
        assert _greedy_matching(6, edges) == _greedy_matching(6, edges, 5) == [(0, 1), (2, 3), (4, 5)]


def brute_min_maximal(g):
    """Oracle: filter all edge subsets down to maximal matchings."""
    edges = sorted(g.edges)
    best = None
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            verts = [v for e in combo for v in e]
            if len(set(verts)) != 2 * r:
                continue
            vs = set(verts)
            if any(u not in vs and v not in vs for u, v in edges):
                continue
            best = r if best is None else min(best, r)
        if best is not None:
            return best
    return best


class TestMinMaximal:
    @pytest.mark.parametrize(
        "g,expected",
        [(path(4), 1), (cycle(6), 2), (cycle(3), 1)],
    )
    def test_examples(self, g, expected):
        assert brute_min_maximal(g) == expected
        m = min_maximal_matching(g)
        assert m.size == expected
        assert verify_matching(g, m, require_maximal=True)

    def test_path_picks_the_middle_edge(self):
        assert sorted(min_maximal_matching(path(4)).edges) == [(1, 2)]

    def test_matches_oracle_on_random_graphs(self):
        for g in self.seeded_random_graphs():
            m = min_maximal_matching(g)
            assert m.size == brute_min_maximal(g), g
            assert verify_matching(g, m, require_maximal=True), g

    def test_cap(self):
        with pytest.raises(CapExceededError):
            min_maximal_matching(Graph(17, frozenset()))

    @staticmethod
    def seeded_random_graphs():
        rng = random.Random(7)
        return [random_graph(rng, rng.randint(2, 7), rng.choice([0.3, 0.6])) for _ in range(40)]

    def test_edges_on_random_graphs_are_pinned(self):
        # recorded from the search before it was split into a seed and a
        # bounded kernel: the public edges stay those of the first minimum found
        expected = [
            [(0, 2)], [(0, 1)], [(1, 2), (3, 5)], [(0, 1), (2, 5)], [(0, 1)],
            [(0, 1)], [(0, 6), (3, 4)], [(0, 2)], [(2, 3)], [(0, 2)],
            [(1, 3), (2, 4)], [(1, 2)], [(0, 1)], [(1, 3)], [],
            [(2, 3)], [(0, 3), (1, 2)], [(1, 4), (2, 3)], [(0, 1)], [],
            [(0, 2), (1, 3)], [(1, 4)], [(1, 4)], [(0, 6), (1, 4)], [],
            [(0, 3), (2, 5)], [], [(1, 2)], [(1, 3)], [(0, 6), (2, 5)],
            [(1, 3), (2, 5)], [(0, 2)], [(0, 6), (3, 5)], [(0, 3)], [(0, 1)],
            [], [(0, 2), (1, 4)], [], [(0, 4), (1, 3)], [(0, 1)],
        ]
        got = [sorted(min_maximal_matching(g).edges) for g in self.seeded_random_graphs()]
        assert got == expected


class TestPinchAndDelete:
    def test_pinch_triangle_gives_four_cycle(self):
        g = cycle(3)
        grown = pinch(g, Matching(frozenset([(0, 1)]), 3))
        assert grown.degrees() == (2, 2, 2, 2)
        assert grown.m == 4

    def test_pinch_perfect_matching_of_c6(self):
        g = cycle(6)
        m = max_matching(g)
        grown = pinch(g, m)
        assert grown.degrees()[:6] == g.degrees()
        assert grown.degrees()[6] == 6

    def test_pinch_empty_matching_warns(self):
        g = cycle(3)
        with pytest.warns(UserWarning):
            grown = pinch(g, Matching(frozenset(), 3))
        assert grown.vertex_count == 4 and grown.degrees()[3] == 0

    @staticmethod
    def assert_pinch_equals_rebuild(g, m):
        star = {(u, g.vertex_count) for u in m.matched_vertices}
        rebuilt = Graph(g.vertex_count + 1, (g.edges - m.edges) | star)
        grown = pinch(g, m)
        assert grown == rebuilt
        assert grown.edges == rebuilt.edges
        assert grown.adjacency() == rebuilt.adjacency()
        assert grown.degrees() == rebuilt.degrees()
        assert grown.degree_sequence() == rebuilt.degree_sequence()

    def test_pinch_equals_rebuild_on_random_graphs(self):
        rng = random.Random(99)
        for _ in range(80):
            g = random_graph(rng, rng.randint(2, 30), rng.choice([0.1, 0.3, 0.6]))
            full = sorted(max_matching(g).edges)
            if not full:
                continue
            m = Matching(frozenset(rng.sample(full, rng.randint(1, len(full)))), g.vertex_count)
            self.assert_pinch_equals_rebuild(g, m)

    def test_pinch_equals_rebuild_on_empty_and_perfect_matchings(self):
        for g in (cycle(6), half_graph(10), windmill(4, 3)):
            with pytest.warns(UserWarning):
                self.assert_pinch_equals_rebuild(g, Matching(frozenset(), g.vertex_count))
        for g in (cycle(6), half_graph(10), path(8)):
            m = max_matching(g)
            assert 2 * m.size == g.vertex_count
            self.assert_pinch_equals_rebuild(g, m)

    def test_pinch_rejects_foreign_matching(self):
        g = path(4)
        with pytest.raises(ValidationError, match="not a sub-matching"):
            pinch(g, Matching(frozenset([(0, 2)]), 4))
        with pytest.raises(ValidationError, match="host size 5 does not match graph size 4"):
            pinch(g, Matching(frozenset([(0, 1)]), 5))

    @given(graphs(max_n=8), st.integers(min_value=0, max_value=100))
    @settings(max_examples=60)
    def test_pinch_then_delete_restores(self, g, seed):
        m = greedy_maximal_matching(g, seed)
        if not m.edges:
            return
        grown = pinch(g, m)
        v_new = g.vertex_count
        # dropping the pinch vertex's edges undoes the star; re-inserting the
        # removed matching then reconstructs the original graph exactly
        restored = {e for e in grown.edges if v_new not in e}
        assert restored == g.edges - m.edges
        assert Graph(g.vertex_count, frozenset(restored | m.edges)) == g


class TestVerifyMatching:
    def test_examples(self):
        tri = cycle(3)
        assert verify_matching(tri, Matching(frozenset([(0, 1)]), 3), require_maximal=True)
        p4 = path(4)
        assert verify_matching(p4, Matching(frozenset([(1, 2)]), 4), require_maximal=True)
        assert not verify_matching(p4, Matching(frozenset([(0, 1)]), 4), require_maximal=True)

    def test_foreign_edge_fails(self):
        assert not verify_matching(path(4), Matching(frozenset([(0, 2)]), 4))

    def test_host_size_mismatch_fails(self):
        assert not verify_matching(path(4), Matching(frozenset([(0, 1)]), 5))


class TestMatchingInequalities:
    """Degree-sum relations every maximal / maximum matching must satisfy."""

    @given(graphs(max_n=9), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=120)
    def test_maximal_matching_degree_sums(self, g, seed):
        m = greedy_maximal_matching(g, seed)
        deg = g.degrees()
        covered = sum(deg[v] for v in m.matched_vertices)
        uncovered = sum(deg[v] for v in m.unmatched_vertices)
        assert covered >= uncovered + 2 * m.size
        assert covered >= g.m + m.size
        if g.m:
            assert m.size >= Fraction(g.m, 2 * g.max_degree - 1)

    @given(graphs(max_n=9), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80)
    def test_covered_degrees_dominate_every_uncovered_block(self, g, seed):
        m = greedy_maximal_matching(g, seed)
        deg = g.degrees()
        uncovered = sorted((deg[v] for v in m.unmatched_vertices), reverse=True)
        covered = [deg[v] for v in m.matched_vertices]
        for k in range(1, len(uncovered) + 1):
            assert sum(min(dv - 1, k) for dv in covered) >= sum(uncovered[:k])

    @given(graphs(max_n=9))
    @settings(max_examples=120)
    def test_maximum_matching_blocking_inequality(self, g):
        m = max_matching(g)
        deg = g.degrees()
        lhs = sum(max(deg[u] - 1, deg[v] - 1) for u, v in m.edges)
        lhs += sum(1 for u, v in m.edges if deg[u] == deg[v] == 2)
        assert lhs >= sum(deg[w] for w in m.unmatched_vertices)
