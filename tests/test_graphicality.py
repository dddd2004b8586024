"""Unit tests for graphicality decisions, realizations, and nu_star."""

import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from degmatch import (
    Graph,
    InternalConsistencyError,
    NotGraphicError,
    ValidationError,
    augment,
    bound_report,
    delta_star,
    extension_feasible,
    is_graphic_eg,
    is_graphic_hh,
    make_sequence,
    nu_star,
    nu_star_formula,
    realize_hh,
)
from degmatch import graphicality


def brute_realization_exists(degrees):
    """Independent oracle: scan every labelled graph on n vertices."""
    n = len(degrees)
    pairs = list(itertools.combinations(range(n), 2))
    target = tuple(degrees)
    for mask in range(1 << len(pairs)):
        deg = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                deg[u] += 1
                deg[v] += 1
        if tuple(deg) == target:
            return True
    return False


arranged_sequences = st.lists(
    st.integers(min_value=0, max_value=8), min_size=0, max_size=9
).map(lambda vals: make_sequence(vals))


class TestErdosGallai:
    def test_k4_sequence_is_graphic(self):
        assert is_graphic_eg(make_sequence([3, 3, 3, 3])).is_graphic

    def test_odd_sum_fails_parity(self):
        v = is_graphic_eg(make_sequence([3, 2, 2]))
        assert not v.is_graphic and not v.parity_ok and v.failing_k is None

    def test_failing_index_reported(self):
        # no 4-vertex graph has degrees (3,3,1,1); oracle confirms
        assert not brute_realization_exists([3, 3, 1, 1])
        v = is_graphic_eg(make_sequence([3, 3, 1, 1]))
        assert not v.is_graphic and v.parity_ok and v.failing_k == 2

    def test_empty_and_all_zero_are_graphic(self):
        assert is_graphic_eg(make_sequence([])).is_graphic
        assert is_graphic_eg(make_sequence([0, 0, 0])).is_graphic

    @given(arranged_sequences)
    def test_restricted_indices_agree_with_full_check(self, d):
        assert is_graphic_eg(d).is_graphic == is_graphic_eg(d, check_all_k=True).is_graphic


class TestHavelHakimi:
    @pytest.mark.parametrize(
        "degrees,expected",
        [([2, 2, 2], True), ([4, 1, 1, 1], False), ([], True)],
    )
    def test_examples(self, degrees, expected):
        assert is_graphic_hh(make_sequence(degrees)) is expected
        if degrees:
            assert brute_realization_exists(sorted(degrees, reverse=True)) is expected

    @given(arranged_sequences)
    def test_agrees_with_erdos_gallai(self, d):
        assert is_graphic_hh(d) == is_graphic_eg(d).is_graphic

    def test_agrees_with_enumeration_oracle_small(self):
        for n in range(1, 6):
            for combo in itertools.combinations_with_replacement(range(n - 1, -1, -1), n):
                d = make_sequence(list(combo))
                assert is_graphic_hh(d) == brute_realization_exists(d.degrees)


class TestRealize:
    def test_triangle(self):
        g = realize_hh(make_sequence([2, 2, 2]))
        assert sorted(g.edges) == [(0, 1), (0, 2), (1, 2)]

    def test_two_disjoint_edges(self):
        g = realize_hh(make_sequence([1, 1, 1, 1]))
        assert sorted(g.edges) == [(0, 1), (2, 3)]

    def test_complete_graph(self):
        g = realize_hh(make_sequence([3, 3, 3, 3]))
        assert g.m == 6

    def test_vertex_i_gets_degree_d_i(self):
        d = make_sequence([4, 3, 3, 2, 2, 2])
        g = realize_hh(d)
        assert g.degrees() == d.degrees

    def test_non_graphic_raises_with_verdict(self):
        with pytest.raises(NotGraphicError) as info:
            realize_hh(make_sequence([3, 3, 1, 1]))
        assert info.value.verdict is not None and info.value.verdict.failing_k == 2

    def test_isolated_vertices_allowed(self):
        g = realize_hh(make_sequence([1, 1, 0]))
        assert g.degrees() == (1, 1, 0)

    @given(arranged_sequences)
    @settings(max_examples=60)
    def test_realizes_exactly_when_graphic(self, d):
        if is_graphic_eg(d).is_graphic:
            assert realize_hh(d).degrees() == d.degrees
        else:
            with pytest.raises(NotGraphicError):
                realize_hh(d)


class TestExtension:
    @pytest.mark.parametrize(
        "degrees,delta",
        [([2, 2, 2], 2), ([1, 1, 1, 1], 4), ([1, 1], 2)],
    )
    def test_feasible_examples(self, degrees, delta):
        assert extension_feasible(make_sequence(degrees), delta)

    def test_odd_delta_rejected(self):
        with pytest.raises(ValidationError):
            extension_feasible(make_sequence([2, 2, 2]), 3)

    def test_delta_beyond_n_rejected(self):
        with pytest.raises(ValidationError):
            extension_feasible(make_sequence([2, 2, 2]), 4)

    def test_non_graphic_input_rejected(self):
        with pytest.raises(NotGraphicError):
            extension_feasible(make_sequence([3, 3, 1, 1]), 2)

    def test_matches_direct_augmented_check(self):
        for degrees in ([2, 2, 2], [3, 3, 2, 2], [1, 1, 1, 1], [3, 3, 3, 3], [2, 2, 1, 1]):
            d = make_sequence(degrees)
            for delta in range(2, d.n + 1, 2):
                assert extension_feasible(d, delta) == is_graphic_eg(augment(d, delta)).is_graphic

    def test_monotone_in_delta(self):
        # feasibility at delta implies feasibility at every smaller even delta
        for degrees in ([2, 2, 2, 2, 2, 2], [3, 3, 2, 2, 2, 2], [4, 3, 3, 2, 2, 2]):
            d = make_sequence(degrees)
            feas = [extension_feasible(d, delta) for delta in range(2, d.n + 1, 2)]
            assert feas == sorted(feas, reverse=True)


class TestDeltaStarAndNuStar:
    @pytest.mark.parametrize(
        "degrees,expected",
        [([1, 1], 2), ([2, 2, 2], 2), ([2, 2, 2, 2, 2, 2], 6)],
    )
    def test_delta_star_examples(self, degrees, expected):
        assert delta_star(make_sequence(degrees)) == expected

    def test_delta_star_rejects_all_zero(self):
        with pytest.raises(ValidationError):
            delta_star(make_sequence([0, 0]))

    def test_delta_star_rejects_non_graphic(self):
        with pytest.raises(NotGraphicError):
            delta_star(make_sequence([5, 1]))

    @pytest.mark.parametrize(
        "degrees,expected",
        [([1, 1], 1), ([2, 2, 2, 2, 2, 2], 3), ([3, 3, 3, 3], 2)],
    )
    def test_formula_examples(self, degrees, expected):
        assert nu_star_formula(make_sequence(degrees)) == expected

    @pytest.mark.parametrize(
        "degrees,expected",
        [([2, 2, 2], 1), ([1, 1, 1, 1], 2), ([4, 2, 2, 2, 2], 2)],
    )
    def test_nu_star_examples(self, degrees, expected):
        assert nu_star(make_sequence(degrees)) == expected

    def test_nu_star_ignores_isolated_vertices(self):
        assert nu_star(make_sequence([2, 2, 2, 0, 0])) == 1

    def test_perfect_matching_case_reaches_n(self):
        # delta* can equal n, so the search space must go all the way up
        d = make_sequence([1, 1])
        assert delta_star(d) == d.n


def gnm_degree_sequence(n, m, seed):
    """Degree sequence of a seeded uniform random graph with n vertices and m edges."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    return make_sequence(degrees)


class TestValidateOnce:
    """A public function runs the Erdos-Gallai guard once; the kernels behind
    it never repeat it."""

    @pytest.fixture(scope="class")
    def d(self):
        return gnm_degree_sequence(800, 3200, seed=1)

    @pytest.fixture
    def eg_calls(self, monkeypatch):
        calls = []
        original = graphicality._eg_first_violation

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(graphicality, "_eg_first_violation", counting)
        return calls

    @pytest.mark.parametrize("fn", [bound_report, realize_hh])
    def test_single_evaluation(self, d, eg_calls, fn):
        fn(d)
        assert len(eg_calls) == 1

    def test_nu_star_guard_plus_one_per_probe(self, d, eg_calls):
        nu_star(d)
        # the delta_star binary search runs over [1, n // 2]
        probes = (d.n // 2).bit_length()
        assert len(eg_calls) <= 1 + probes


class TestLeftShiftLemma:
    """If removing one unit from a support set keeps a sequence graphic, any
    left-shifted support set does too. Full scan up to n = 7."""

    def test_shifted_reductions_stay_graphic(self):
        from degmatch import SupportSet, all_graphic_sequences, left_shift_leq

        # the same vectors and support sets recur across masks; decide each once
        @lru_cache(maxsize=None)
        def graphic(degrees):
            return is_graphic_eg(make_sequence(degrees)).is_graphic

        support_set = lru_cache(maxsize=None)(SupportSet.of)

        for d in all_graphic_sequences(7):
            n = d.n
            for mask in range(1, 1 << n):
                reduced = tuple(d.degrees[i] - (1 if mask >> i & 1 else 0) for i in range(n))
                if not graphic(reduced):
                    continue
                support = [i + 1 for i in range(n) if mask >> i & 1]
                a_k = SupportSet.of(support)
                for shifted in itertools.combinations(range(1, n + 1), len(support)):
                    if not left_shift_leq(support_set(shifted), a_k):
                        continue
                    moved = tuple(
                        d.degrees[i] - (1 if (i + 1) in shifted else 0) for i in range(n)
                    )
                    assert graphic(moved), (
                        d, support, shifted,
                    )


class TestReductionEquivalence:
    """Reducing the top 2*mu entries is graphic iff some realization has a
    mu-edge matching (checked by brute force over labelled graphs)."""

    def brute_max_nu(self, degrees):
        n = len(degrees)
        pairs = list(itertools.combinations(range(n), 2))
        best = 0
        for mask in range(1 << len(pairs)):
            deg = [0] * n
            edges = []
            for i, (u, v) in enumerate(pairs):
                if mask >> i & 1:
                    deg[u] += 1
                    deg[v] += 1
                    edges.append((u, v))
            if tuple(deg) != tuple(degrees):
                continue
            best = max(best, self.greedy_exact_nu(n, edges))
        return best

    @staticmethod
    def greedy_exact_nu(n, edges):
        best = 0
        for r in range(len(edges), 0, -1):
            for combo in itertools.combinations(edges, r):
                verts = [v for e in combo for v in e]
                if len(set(verts)) == 2 * r:
                    return r
        return best

    @pytest.mark.parametrize(
        "degrees", [[2, 2, 2], [1, 1, 1, 1], [3, 3, 2, 2], [2, 2, 2, 2, 2]]
    )
    def test_small_sequences(self, degrees):
        d = make_sequence(degrees)
        brute = self.brute_max_nu(degrees)
        for mu in range(1, d.n // 2 + 1):
            assert extension_feasible(d, 2 * mu) == (mu <= brute)
