"""Unit tests for the five sequence-level matching bounds."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from degmatch import (
    Graph,
    NotGraphicError,
    bound_report,
    gale_ryser_bound,
    greedy_maximal_matching,
    half_graph,
    make_sequence,
    matching_lower_bound,
    max_matching,
    maximality_bound,
    nu_star,
    posa_bound,
    vizing_bound,
    windmill,
)
from degmatch import bounds, graphicality
from degmatch.enumeration import all_graphic_sequences, enumerate_realizations


class TestMaximalityBound:
    @pytest.mark.parametrize(
        "degrees,expected",
        [
            ([2, 2, 2], 1),
            ([4, 2, 2, 2, 2], 2),
            ([3] * 8, 3),
        ],
    )
    def test_examples(self, degrees, expected):
        assert maximality_bound(make_sequence(degrees)) == expected

    def test_non_graphic_rejected(self):
        with pytest.raises(NotGraphicError):
            maximality_bound(make_sequence([3, 3, 1, 1]))

    def test_zeros_are_stripped(self):
        assert maximality_bound(make_sequence([2, 2, 2, 0, 0])) == 1

    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=10))
    @settings(max_examples=120)
    def test_deficiency_strictly_increasing(self, values):
        # the scan in maximality_bound leans on this monotonicity, which
        # holds on positive arranged sequences as long as 2k <= n
        d = make_sequence(values)
        degs = d.degrees
        n = len(degs)
        m = sum(degs) // 2

        def r(k):
            return sum(degs[: 2 * k]) - m - k

        vals = [r(k) for k in range(n // 2 + 1)]
        assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))


class TestVizing:
    def test_examples(self):
        assert vizing_bound(make_sequence([2, 2, 2])) == (Fraction(1), 1)
        assert vizing_bound(make_sequence([3] * 8)) == (Fraction(3), 3)
        frac, ceil = vizing_bound(half_graph(6).degree_sequence())
        assert frac == Fraction(9, 6) and ceil == 2

    def test_empty_after_strip(self):
        assert vizing_bound(make_sequence([0, 0])) == (Fraction(0), 0)


class TestPosa:
    def test_half_graph_is_exact(self):
        d = half_graph(6).degree_sequence()
        assert d.degrees == (5, 4, 3, 3, 2, 1)
        assert posa_bound(d) == 3

    def test_triangle(self):
        assert posa_bound(make_sequence([2, 2, 2])) == 1

    def test_windmill_direct_evaluation(self):
        # direct evaluation of the slack definition gives 2 here (never above
        # the true matching number, which is also 2)
        d = windmill(2, 3).degree_sequence()
        assert posa_bound(d) == 2
        assert max_matching(windmill(2, 3)).size == 2

    def test_general_windmill_value(self):
        # Wd(2,4): degrees (6,3,3,3,3,3,3); the low-degree counts allow r=1,
        # giving ceil((7-1)/2) = 3, which matches the true matching number
        g = windmill(2, 4)
        assert posa_bound(g.degree_sequence()) == 3
        assert max_matching(g).size == 3


class TestGaleRyser:
    @pytest.mark.parametrize(
        "degrees,expected",
        [
            ([2, 2, 2], 1),
            ([3] * 8, 3),
            ([1, 1], 1),
        ],
    )
    def test_examples(self, degrees, expected):
        assert gale_ryser_bound(make_sequence(degrees)) == expected

    def test_regular_closed_form(self):
        # r-regular: the bound works out to max(r/2, r/(2r-1) * n/2), rounded up
        for r in (2, 3, 4, 5):
            for n in range(r + 1, 16):
                if (n * r) % 2:
                    continue
                d = make_sequence([r] * n)
                expected = max(
                    math.ceil(Fraction(r, 2)), math.ceil(Fraction(r * n, 2 * (2 * r - 1)))
                )
                assert gale_ryser_bound(d) == expected, (r, n)

    def test_non_graphic_rejected(self):
        with pytest.raises(NotGraphicError):
            gale_ryser_bound(make_sequence([4, 1, 1, 1]))


class TestMatchingLowerBound:
    def test_triangle(self):
        assert matching_lower_bound(make_sequence([2, 2, 2])) == 1

    def test_regular_is_n_over_3(self):
        for k in range(1, 7):
            assert matching_lower_bound(make_sequence([2] * (3 * k))) == k
        # other regular degrees also land on n/3 when divisible
        assert matching_lower_bound(make_sequence([4] * 9)) == 3

    def test_half_graph_ratio_tends_to_one_fifth(self):
        n = 100
        k = matching_lower_bound(half_graph(n).degree_sequence())
        assert abs(k / n - 0.2) <= 0.02


class TestBoundReport:
    def test_windmill_report(self):
        d = make_sequence([4, 2, 2, 2, 2])
        rep = bound_report(d)
        assert rep.k_star == 2
        star = nu_star(d)
        assert star == 2
        for value in (rep.k_star, rep.ell_star, rep.noP3, rep.posa, rep.vizing_ceil):
            assert value <= star
        assert not rep.zeros_stripped

    def test_regular_k_star_closed_form(self):
        for ell in (2, 3, 4, 5):
            n = 12
            rep = bound_report(make_sequence([ell] * n))
            assert rep.k_star == math.ceil(Fraction(ell * n, 2 * (2 * ell - 1)))

    def test_half_graph_report(self):
        rep = bound_report(half_graph(6).degree_sequence())
        assert rep.posa == 3 and rep.vizing_ceil == 2

    def test_zeros_flagged(self):
        assert bound_report(make_sequence([2, 2, 2, 0])).zeros_stripped

    def test_record_is_flat(self):
        rec = bound_report(make_sequence([2, 2, 2])).as_record()
        assert rec["k_star"] == 1
        assert all(not isinstance(v, (dict, list)) for v in rec.values())

    def test_all_bounds_positive_on_positive_sequences(self):
        for d in all_graphic_sequences(6):
            rep = bound_report(d)
            assert min(rep.k_star, rep.ell_star, rep.noP3, rep.posa, rep.vizing_ceil) >= 1

    def test_comparison_lemma_on_random_degree_sequences(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(2, 12)
            edges = frozenset(
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
            )
            d = Graph(n, edges).degree_sequence()
            rep = bound_report(d)
            stripped, _ = d.strip_zeros()
            m = stripped.degree_sum // 2
            if m:
                assert Fraction(m, 2 * stripped.max_degree - 1) <= rep.k_star
                # and therefore k* beats half the vizing ratio
                assert rep.k_star > Fraction(m, stripped.max_degree + 1) / 2


class TestGreedySoundnessManySeeds:
    def test_fifty_seeds_per_graph(self):
        # maximal-matching bounds hold for every seeded greedy matching
        rng = random.Random(2024)
        for _ in range(30):
            n = rng.randint(4, 12)
            edges = frozenset(
                (u, v) for u in range(n) for v in range(u + 1, n)
                if rng.random() < rng.choice([0.25, 0.5, 0.75])
            )
            g = Graph(n, edges)
            rep = bound_report(g.degree_sequence())
            floor = max(rep.k_star, rep.ell_star)
            for seed in range(50):
                assert greedy_maximal_matching(g, seed).size >= floor


class TestSandwich:
    """Every bound is at most nu(G) <= nu*(d) on every small realization."""

    def test_all_graphic_sequences_up_to_5(self):
        for d in all_graphic_sequences(5):
            rep = bound_report(d)
            star = nu_star(d)
            for g in enumerate_realizations(d, max_n=5, max_degree_sum=20):
                nu = max_matching(g).size
                assert max(rep.posa, rep.noP3, rep.vizing_ceil) <= nu <= star
                assert max(rep.k_star, rep.ell_star) <= nu
                # maximal-matching bounds hold for every greedy run too
                for seed in range(5):
                    gm = greedy_maximal_matching(g, seed)
                    assert gm.size >= max(rep.k_star, rep.ell_star)


class TestEveryBoundIsGuarded:
    """Every public bound rejects a non-graphic sequence."""

    @pytest.mark.parametrize(
        "fn", [maximality_bound, gale_ryser_bound, matching_lower_bound, posa_bound, vizing_bound]
    )
    @pytest.mark.parametrize("degrees", [[3, 2], [4, 1, 1, 1]])
    def test_non_graphic_rejected(self, fn, degrees):
        with pytest.raises(NotGraphicError):
            fn(make_sequence(degrees))


class TestRunFormsBuilt:
    """The run form is built once for the guard and once for Posa's distinct
    degrees; ell* finds its run ends by bisection and builds none."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        original = graphicality._run_form

        def counting(degs):
            calls.append(1)
            return original(degs)

        for module in (graphicality, bounds):
            monkeypatch.setattr(module, "_run_form", counting)
        return calls

    @pytest.mark.parametrize("fn,expected", [(bound_report, 2), (gale_ryser_bound, 1)])
    def test_count(self, built, fn, expected):
        fn(make_sequence([5, 5, 4, 3, 3, 2, 2, 2, 1, 1]))
        assert len(built) == expected
