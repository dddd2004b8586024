"""The Erdos-Gallai-type kernels against the loops that define them.

The Erdos-Gallai evaluator ``_eg_first_violation`` reads every capped sum
sum(min(d_i, c)) off the run form, the prefix sums at run ends; the closed
form's two parts (``_small_k_holds`` and ``_corrected_holds``, joined in
``oracles.closed_form_holds``) and ``_gale_ryser_bound`` read them off the
prefix sums. The slow oracles below write each sum out term by term, as the
definitions do.
"""

import random
from itertools import accumulate, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from degmatch import bound_report, make_sequence, nu_star
from degmatch.bounds import _gale_ryser_bound, _k_star
from degmatch.enumeration import all_graphic_sequences
from degmatch.graphicality import _capped_sum, _eg_first_violation, _run_form
from oracles import closed_form_holds


def eg_first_violation_oracle(degs, check_all_k=False):
    """Smallest checked k with sum(d[:k]) > k(k-1) + sum(min(d_i, k), i >= k)."""
    n = len(degs)
    if check_all_k:
        ks = list(range(1, n + 1))
    else:
        s = 0
        for i in range(1, n + 1):
            if degs[i - 1] >= i:
                s = i
            else:
                break
        if s == 0:
            return None
        ks = [k for k in range(1, s + 1) if k == s or degs[k - 1] > degs[k]]
    ki = 0
    running = 0
    for k in range(1, n + 1):
        running += degs[k - 1]
        if ki < len(ks) and ks[ki] == k:
            ki += 1
            rhs = k * (k - 1) + sum(min(x, k) for x in degs[k:])
            if running > rhs:
                return k
    return None


def small_k_family_oracle(degs, mu):
    """The nu* small-k family for a matching of size mu, term by term."""
    delta = 2 * mu
    n = len(degs)
    for k in range(1, mu):
        lhs = sum(degs[:k])
        rhs = k * k + sum(min(degs[i] - (1 if i < delta else 0), k) for i in range(k, n))
        if lhs > rhs:
            return False
    return True


def closed_form_oracle(degs, mu):
    """The nu* inequality family for a matching of size mu, term by term."""
    if not small_k_family_oracle(degs, mu):
        return False
    delta = 2 * mu
    n = len(degs)
    dd = degs[delta - 1]
    after = sum(1 for i in range(delta, n) if degs[i] == dd)
    upto = sum(1 for i in range(delta) if degs[i] == dd)
    k = delta + (after - upto)
    lhs = sum(degs[:k]) - k + after
    rhs = k * (k - 1) + sum(min(degs[i] - (1 if degs[i] == dd else 0), k) for i in range(k, n))
    return lhs <= rhs


def gale_ryser_oracle(degs):
    """Smallest ell whose top 2*ell degrees, less one each and capped at k,
    dominate the next k degrees for every k."""
    n = len(degs)
    for ell in range(0, n // 2 + 1):
        if all(
            sum(min(degs[i] - 1, k) for i in range(2 * ell)) >= sum(degs[2 * ell : 2 * ell + k])
            for k in range(1, n - 2 * ell + 1)
        ):
            return ell
    raise AssertionError("no feasible ell")


def eg(degs, check_all_k=False):
    """The Erdos-Gallai evaluator on the run form of an arranged ``degs``."""
    return _eg_first_violation(_run_form(degs), check_all_k)


def ell_star(positive):
    """``_gale_ryser_bound`` handed the prefix sums and k* of ``positive``."""
    prefix = [0, *accumulate(positive)]
    return _gale_ryser_bound(positive, prefix, _k_star(prefix))


def arranged(n, top):
    """Every non-increasing tuple of length n with entries in [0, top]."""
    return combinations_with_replacement(range(top, -1, -1), n)


def gnm_degree_sequence(n, m, seed):
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


GNM = [gnm_degree_sequence(n, 4 * n, seed) for n in (10, 20, 40, 80, 120) for seed in range(3)]


def assert_eg_matches(degs):
    for check_all_k in (False, True):
        assert eg(degs, check_all_k) == eg_first_violation_oracle(degs, check_all_k), (
            degs,
            check_all_k,
        )


def assert_graphic_kernels_match(positive):
    """Closed form at every mu, and ell*, on the positive part of a graphic sequence."""
    for mu in range(1, len(positive) // 2 + 1):
        assert closed_form_holds(positive, mu) == closed_form_oracle(positive, mu), (positive, mu)
    assert ell_star(positive) == gale_ryser_oracle(positive), positive


class TestCappedSum:
    def test_every_range_and_cap(self):
        for n in range(0, 6):
            for degs in arranged(n, 5):
                prefix = [0, *accumulate(degs)]
                for a in range(n + 1):
                    for b in range(a, n + 1):
                        for c in range(0, max(degs, default=0) + 2):
                            expected = sum(min(x, c) for x in degs[a:b])
                            assert _capped_sum(degs, prefix, a, b, c) == expected, (degs, a, b, c)

    @given(st.lists(st.integers(min_value=0, max_value=60), max_size=40), st.data())
    @settings(max_examples=200)
    def test_drawn(self, values, data):
        degs = tuple(sorted(values, reverse=True))
        prefix = [0, *accumulate(degs)]
        a = data.draw(st.integers(0, len(degs)))
        b = data.draw(st.integers(a, len(degs)))
        c = data.draw(st.integers(0, 62))
        assert _capped_sum(degs, prefix, a, b, c) == sum(min(x, c) for x in degs[a:b])


class TestErdosGallaiOracle:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_arranged_sequence(self, n):
        # entries up to n: one above the largest graphic degree
        for degs in arranged(n, n):
            assert_eg_matches(degs)

    @given(st.lists(st.integers(min_value=0, max_value=40), max_size=40))
    @settings(max_examples=300)
    def test_drawn(self, values):
        assert_eg_matches(tuple(sorted(values, reverse=True)))

    @pytest.mark.parametrize("d", GNM, ids=lambda d: f"n{d.n}")
    def test_gnm(self, d):
        assert_eg_matches(d.degrees)


class TestGraphicKernelsOracle:
    def test_every_graphic_sequence_up_to_7(self):
        for d in all_graphic_sequences(7):
            assert_graphic_kernels_match(d.degrees)

    @given(st.integers(min_value=2, max_value=30), st.data())
    @settings(max_examples=150)
    def test_drawn_graphs(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.sets(st.sampled_from(pairs), min_size=1))
        degrees = [0] * n
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        assert_graphic_kernels_match(make_sequence(degrees).strip_zeros()[0].degrees)

    @pytest.mark.parametrize("d", GNM, ids=lambda d: f"n{d.n}")
    def test_gnm(self, d):
        assert_graphic_kernels_match(d.strip_zeros()[0].degrees)


# Recorded once from the term-by-term kernels; the oracles above are too
# slow at these sizes.
GOLDEN = {
    "gnm(800, 3200) seed 1": (
        lambda: gnm_degree_sequence(800, 3200, 1),
        dict(k_star=156, ell_star=156, noP3=200, posa=14, vizing_num=3200, vizing_den=19, vizing_ceil=169,
             zeros_stripped=False),
        400,
    ),
    "gnm(1600, 6400) seed 0": (
        lambda: gnm_degree_sequence(1600, 6400, 0),
        dict(k_star=311, ell_star=311, noP3=399, posa=15, vizing_num=6400, vizing_den=19, vizing_ceil=337,
             zeros_stripped=True),
        799,
    ),
    "5^600": (
        lambda: make_sequence([5] * 600),
        dict(k_star=167, ell_star=167, noP3=200, posa=5, vizing_num=250, vizing_den=1, vizing_ceil=250,
             zeros_stripped=False),
        300,
    ),
    "799^10,10^790": (
        lambda: make_sequence([799] * 10 + [10] * 790),
        dict(k_star=5, ell_star=5, noP3=10, posa=10, vizing_num=1589, vizing_den=160, vizing_ceil=10,
             zeros_stripped=False),
        10,
    ),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_values_at_size(name):
    build, report, nu = GOLDEN[name]
    d = build()
    assert bound_report(d).as_record() == report
    assert nu_star(d) == nu
