"""Acceptance suite: one test per criterion, each printed as a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the conjecture-scan table.

Scope notes. The exhaustive criteria iterate every arranged positive graphic
sequence with n <= 6 over the full degree range, and every n = 7 sequence
within the default enumeration degree-sum cap (24). Criterion runtimes stay
far inside their stated budgets.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

from degmatch import (
    Graph,
    Matching,
    all_graphic_sequences,
    bound_report,
    conjecture_scan,
    cycle,
    delta_star,
    disjoint_triangles,
    enumerate_realizations,
    extension_feasible,
    greedy_maximal_matching,
    grow,
    half_graph,
    is_graphic_eg,
    is_graphic_hh,
    make_sequence,
    matching_lower_bound,
    max_matching,
    maximality_bound,
    nu_star_formula,
    pinch,
    posa_bound,
    rows_to_csv,
    vizing_bound,
    windmill,
)
from oracles import SupportSet, _extension_witness, left_shift_leq, nu_star_brute

N7_DEGREE_SUM_CAP = 24  # default enumeration cap, applied to the n = 7 slice


def _report(num: int, name: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"criterion {num:02d} [{name}]: FAIL")
        raise
    print(f"criterion {num:02d} [{name}]: PASS")


@lru_cache(maxsize=None)
def positive_even_sequences(n_max: int):
    """Every arranged positive sequence with entries <= n-1 and even sum."""
    out = []
    for n in range(1, n_max + 1):
        for combo in combinations_with_replacement(range(n - 1, 0, -1), n):
            if sum(combo) % 2 == 0:
                out.append(make_sequence(list(combo)))
    return tuple(out)


@lru_cache(maxsize=None)
def graphic_universe():
    """Graphic sequences: all with n <= 6, plus n = 7 within the sum cap."""
    seqs = list(all_graphic_sequences(6))
    seqs.extend(
        d for d in all_graphic_sequences(7, min_n=7) if d.degree_sum <= N7_DEGREE_SUM_CAP
    )
    return tuple(seqs)


def _caps_for(d):
    return {"max_n": 7, "max_degree_sum": max(N7_DEGREE_SUM_CAP, d.degree_sum)}


def test_criterion_01_graphicality_oracle_equivalence():
    def body():
        for d in positive_even_sequences(6):
            eg = is_graphic_eg(d).is_graphic
            hh = is_graphic_hh(d)
            has_realization = any(
                True for _ in enumerate_realizations(d, max_n=6, max_degree_sum=30)
            )
            assert eg == hh == has_realization, d

    _report(1, "graphicality oracle equivalence", body)


def test_criterion_02_nu_star_three_way_agreement():
    def body():
        for d in graphic_universe():
            brute = nu_star_brute(d, **_caps_for(d))
            assert brute == delta_star(d) // 2 == nu_star_formula(d), d

    _report(2, "nu* three-way agreement", body)


def test_criterion_03_strong_extension_equivalence():
    def body():
        for d in graphic_universe():
            for delta in range(2, d.n + 1, 2):
                strong = _extension_witness(d.degrees, delta) is not None
                assert strong == extension_feasible(d, delta), (d, delta)

    _report(3, "strong extension condition", body)


def test_criterion_04_regular_maximality_bound():
    def body():
        for ell in (2, 3, 4, 5):
            for n in range(8, 21):
                if (n * ell) % 2:
                    continue
                got = maximality_bound(make_sequence([ell] * n))
                assert got == math.ceil(Fraction(ell * n, 2 * (2 * ell - 1))), (ell, n)

    _report(4, "regular-sequence maximality bound", body)


def test_criterion_05_half_graph_values():
    def body():
        for n in range(4, 21, 2):
            g = half_graph(n)
            d = g.degree_sequence()
            assert max_matching(g).size == n // 2, n
            assert posa_bound(d) == n // 2, n
            frac, _ = vizing_bound(d)
            assert frac == Fraction(n, 4), n
        d200 = half_graph(200).degree_sequence()
        ratio = maximality_bound(d200) / 200
        assert abs(ratio - (2 - math.sqrt(2)) / 4) <= 0.02

    _report(5, "half-graph exactness and k* ratio", body)


def test_criterion_06_friendship_graph_values():
    def body():
        for t in range(1, 11):
            g = windmill(t, 3)
            n = 2 * t + 1
            assert max_matching(g).size == t, t
            assert maximality_bound(g.degree_sequence()) == math.ceil((n + 3) / 6), t

    _report(6, "friendship-graph maximality bound", body)


def test_criterion_07_regular_matching_lower_bound_sharpness():
    def body():
        for k in range(1, 5):
            assert matching_lower_bound(make_sequence([2] * (3 * k))) == k, k
            assert max_matching(disjoint_triangles(k)).size == k, k

    _report(7, "one-third bound sharp on triangle unions", body)


def _soundness_sweep_graphs():
    master = random.Random(917)
    for i in range(1000):
        n = master.randint(4, 12)
        p = (0.2, 0.5, 0.8)[i % 3]
        edges = frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n) if master.random() < p
        )
        yield Graph(n, edges)


def test_criterion_08_soundness_sweep():
    def body():
        for g in _soundness_sweep_graphs():
            d = g.degree_sequence()
            rep = bound_report(d)
            degs = g.degrees()
            m = g.m
            stripped, _ = d.strip_zeros()
            delta_max = stripped.max_degree
            co_m1 = math.ceil(Fraction(m, 2 * delta_max - 1)) if m else 0
            viz_ceil = math.ceil(Fraction(m, delta_max + 1)) if m else 0

            maximum = max_matching(g)
            assert maximum.size >= max(rep.posa, rep.noP3, viz_ceil)
            lhs = sum(max(degs[u] - 1, degs[v] - 1) for u, v in maximum.edges)
            lhs += sum(1 for u, v in maximum.edges if degs[u] == degs[v] == 2)
            assert lhs >= sum(degs[w] for w in maximum.unmatched_vertices)

            for seed in (0, 1, 2):
                gm = greedy_maximal_matching(g, seed)
                assert gm.size >= max(rep.k_star, rep.ell_star, co_m1)
                covered = sum(degs[v] for v in gm.matched_vertices)
                uncovered = sum(degs[v] for v in gm.unmatched_vertices)
                assert covered >= uncovered + 2 * gm.size
                assert covered >= m + gm.size

    _report(8, "soundness sweep over 1000 random graphs", body)


def test_criterion_09_comparison_lemma():
    def body():
        checked = 0
        sequences = list(graphic_universe())
        for ell in (2, 3, 4, 5):
            for n in range(8, 21):
                if (n * ell) % 2 == 0:
                    sequences.append(make_sequence([ell] * n))
        sequences.extend(half_graph(n).degree_sequence() for n in range(4, 21, 2))
        sequences.append(half_graph(200).degree_sequence())
        sequences.extend(windmill(t, 3).degree_sequence() for t in range(1, 11))
        sequences.extend(make_sequence([2] * (3 * k)) for k in range(1, 5))
        sequences.extend(g.degree_sequence() for g in _soundness_sweep_graphs())
        for d in sequences:
            stripped, _ = d.strip_zeros()
            m = stripped.degree_sum // 2
            if m == 0:
                continue
            k_star = maximality_bound(stripped)
            assert Fraction(m, 2 * stripped.max_degree - 1) <= k_star, d
            checked += 1
        assert checked > 1000

    _report(9, "comparison lemma across all generated sequences", body)


def test_criterion_10_dpg_invariants():
    def body():
        seeds = {"triangle": cycle(3), "K4": windmill(1, 4), "C6": cycle(6)}
        for name, g0 in seeds.items():
            for policy in ("fixed:2", "random", "max"):
                for seed in (0, 1, 2):
                    trace = grow(g0, 50, delta_policy=policy, rng_seed=seed)
                    assert len(trace.steps) == 50, (name, policy, seed)
                    g = g0
                    for rec in trace.steps:
                        m = Matching(frozenset(rec.removed_matching), g.vertex_count)
                        grown = pinch(g, m)  # simplicity re-validated on construction
                        assert grown.degrees()[: g.vertex_count] == g.degrees()
                        assert grown.degrees()[g.vertex_count] == rec.delta
                        expected = tuple(
                            sorted(list(g.degrees()) + [rec.delta], reverse=True)
                        )
                        assert rec.resulting_degree_sequence == expected
                        g = grown
                    assert g == trace.final_graph

    _report(10, "growth preserves degrees and simplicity", body)


def test_criterion_11_conjecture_scan():
    def body():
        rows = conjecture_scan(6)
        for row in rows:
            assert row.nu_bar_d >= row.ell_star, row
            assert row.nu_bar_d >= row.k_star, row
        print()
        print(rows_to_csv(rows), end="")

    _report(11, "conjecture scan n <= 6 (table emitted, no equality asserted)", body)


def test_criterion_12_left_shift_lemma():
    def body():
        for d in all_graphic_sequences(6):
            n = d.n
            for mask in range(1, 1 << n):
                support = [i + 1 for i in range(n) if mask >> i & 1]
                reduced = [
                    d.degrees[i] - (1 if mask >> i & 1 else 0) for i in range(n)
                ]
                if not is_graphic_eg(make_sequence(reduced)).is_graphic:
                    continue
                a_k = SupportSet.of(support)
                for shifted in combinations(range(1, n + 1), len(support)):
                    if not left_shift_leq(SupportSet.of(shifted), a_k):
                        continue
                    reduced_shifted = [
                        d.degrees[i] - (1 if (i + 1) in shifted else 0)
                        for i in range(n)
                    ]
                    assert is_graphic_eg(
                        make_sequence(reduced_shifted)
                    ).is_graphic, (d, support, shifted)

    _report(12, "left-shifted reductions stay graphic", body)
