"""Unit tests for the exhaustive realization oracles."""

import itertools
from collections import Counter
from functools import lru_cache

import pytest

from degmatch import (
    CapExceededError,
    NotGraphicError,
    ValidationError,
    all_graphic_sequences,
    conjecture_scan,
    count_realizations,
    delta_star,
    enumerate_realizations,
    extension_feasible,
    is_graphic_eg,
    make_sequence,
    min_maximal_matching,
    nu_bar_sequence,
    nu_star_brute,
    nu_star_formula,
    rows_to_csv,
    strong_extension_check,
)


@lru_cache(maxsize=None)
def degree_vector_counts(n):
    """Independent oracle: walk all labelled graphs on n vertices once and
    count how many have each degree vector."""
    pairs = list(itertools.combinations(range(n), 2))
    counts = Counter()
    for mask in range(1 << len(pairs)):
        deg = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                deg[u] += 1
                deg[v] += 1
        counts[tuple(deg)] += 1
    return counts


def brute_count(degrees):
    """Independent oracle: the number of labelled graphs with exactly this degree vector."""
    return degree_vector_counts(len(degrees))[tuple(degrees)]


class TestEnumerate:
    @pytest.mark.parametrize(
        "degrees,expected",
        [
            ([1, 1, 1, 1], 3),
            ([2, 2, 2], 1),
            ([3, 3, 1, 1], 0),
        ],
    )
    def test_counts(self, degrees, expected):
        assert brute_count(degrees) == expected
        assert count_realizations(make_sequence(degrees)) == expected

    def test_triangle_is_the_unique_realization(self):
        graphs = list(enumerate_realizations(make_sequence([2, 2, 2])))
        assert len(graphs) == 1
        assert sorted(graphs[0].edges) == [(0, 1), (0, 2), (1, 2)]

    def test_vertex_i_has_degree_d_i(self):
        d = make_sequence([3, 2, 2, 2, 1])
        for g in enumerate_realizations(d):
            assert g.degrees() == d.degrees

    def test_no_duplicates(self):
        d = make_sequence([2, 2, 2, 2, 1, 1])
        seen = [frozenset(g.edges) for g in enumerate_realizations(d)]
        assert len(seen) == len(set(seen))

    def test_complete_against_filter_up_to_6(self):
        for n in range(1, 7):
            for combo in itertools.combinations_with_replacement(range(n - 1, -1, -1), n):
                d = make_sequence(list(combo))
                assert count_realizations(d, max_n=6, max_degree_sum=30) == brute_count(
                    d.degrees
                ), d

    def test_caps(self):
        with pytest.raises(CapExceededError):
            list(enumerate_realizations(make_sequence([1] * 9)))
        with pytest.raises(CapExceededError):
            list(enumerate_realizations(make_sequence([7] * 8)))
        # caps are configuration, not constants
        assert count_realizations(make_sequence([1] * 10), max_n=10, max_degree_sum=30) == 945

    def test_isolated_vertices_pass_through(self):
        assert count_realizations(make_sequence([1, 1, 0])) == 1


class TestNuStarBrute:
    @pytest.mark.parametrize(
        "degrees,expected",
        [
            ([2, 2, 2, 2, 2, 2], 3),
            ([1, 1, 1, 1], 2),
            ([4, 2, 2, 2, 2], 2),
        ],
    )
    def test_examples(self, degrees, expected):
        assert nu_star_brute(make_sequence(degrees)) == expected

    def test_rejects_non_graphic(self):
        with pytest.raises(NotGraphicError):
            nu_star_brute(make_sequence([3, 3, 1, 1]))

    def test_three_way_agreement_small(self):
        for d in all_graphic_sequences(5):
            brute = nu_star_brute(d, max_n=5, max_degree_sum=20)
            assert brute == delta_star(d) // 2 == nu_star_formula(d), d


class TestNuBar:
    @pytest.mark.parametrize(
        "degrees,expected",
        [
            ([2, 2, 2], 1),
            ([1, 1, 1, 1], 2),
            ([2, 2, 2, 2, 2, 2], 2),
        ],
    )
    def test_examples(self, degrees, expected):
        assert nu_bar_sequence(make_sequence(degrees)) == expected

    def test_rejects_non_graphic(self):
        with pytest.raises(NotGraphicError):
            nu_bar_sequence(make_sequence([4, 1, 1, 1]))

    @staticmethod
    def exhaustive_nu_bar(d, max_n, max_degree_sum):
        """Independent oracle: the smallest maximal matching of every
        realization, with no floor and no cutoff."""
        realizations = enumerate_realizations(d, max_n=max_n, max_degree_sum=max_degree_sum)
        return min(min_maximal_matching(g).size for g in realizations)

    def test_matches_exhaustive_oracle_up_to_7(self):
        # nu_bar_sequence stops at the proven floor max(ell*, k*), so
        # ConjectureRow's bound check can no longer fire: this is what still
        # checks the floor and the cutoff
        for d in all_graphic_sequences(7):
            expected = self.exhaustive_nu_bar(d, 7, 42)
            assert nu_bar_sequence(d, max_n=7, max_degree_sum=42) == expected, d

    def test_walk_goes_on_past_one_above_the_floor(self):
        # the best size found falls from 4 to 3 before a later realization
        # reaches the floor 2
        d = make_sequence([3, 3, 3, 3, 1, 1, 1, 1])
        assert self.exhaustive_nu_bar(d, 8, 56) == 2
        assert nu_bar_sequence(d, max_n=8, max_degree_sum=56) == 2

    def test_isolated_vertices_do_not_change_it(self):
        for degrees in ([2, 2, 2], [1, 1, 1, 1], [3, 2, 2, 1, 1, 1]):
            d = make_sequence(degrees)
            assert nu_bar_sequence(make_sequence(degrees + [0, 0])) == nu_bar_sequence(d)


class TestStrongExtension:
    @pytest.mark.parametrize(
        "degrees,delta",
        [
            ([2, 2, 2, 2, 2, 2], 6),
            ([3, 1, 1, 1], 2),
            ([1, 1], 2),
        ],
    )
    def test_true_examples(self, degrees, delta):
        assert strong_extension_check(make_sequence(degrees), delta)

    def test_false_when_extension_impossible(self):
        # the star K_{1,3} is the unique realization of (3,1,1,1): no
        # 2-edge matching exists, so a degree-4 newcomer cannot be absorbed
        d = make_sequence([3, 1, 1, 1])
        assert not extension_feasible(d, 4)
        assert not strong_extension_check(d, 4)

    def test_validation(self):
        d = make_sequence([2, 2, 2])
        with pytest.raises(ValidationError):
            strong_extension_check(d, 3)
        with pytest.raises(ValidationError):
            strong_extension_check(d, 4)

    def test_bad_delta_reported_before_non_graphic_input(self):
        d = make_sequence([3, 3, 1, 1])
        for delta in (3, 6):
            with pytest.raises(ValidationError):
                strong_extension_check(d, delta)
        with pytest.raises(NotGraphicError):
            strong_extension_check(d, 2)

    def test_matches_feasibility_up_to_6(self):
        for d in all_graphic_sequences(6):
            for delta in range(2, d.n + 1, 2):
                assert strong_extension_check(
                    d, delta, max_n=6, max_degree_sum=30
                ) == extension_feasible(d, delta), (d, delta)

    def test_weak_form_matches_feasibility(self):
        # some realization has a matching of size delta/2  <=>  the augmented
        # sequence is graphic (no covering requirement on the weak side)
        for d in all_graphic_sequences(5):
            best = nu_star_brute(d, max_n=5, max_degree_sum=20)
            for delta in range(2, d.n + 1, 2):
                assert (delta // 2 <= best) == extension_feasible(d, delta), (d, delta)


class TestGraphicSequenceIteration:
    def test_counts_match_filter(self):
        # independent oracle: iterate all arranged positive tuples directly
        for n in range(1, 6):
            expected = 0
            for combo in itertools.combinations_with_replacement(range(n - 1, 0, -1), n):
                if sum(combo) % 2 == 0 and is_graphic_eg(make_sequence(list(combo))).is_graphic:
                    expected += 1
            got = sum(1 for d in all_graphic_sequences(n, min_n=n))
            assert got == expected

    def test_canonical_order(self):
        seqs = list(all_graphic_sequences(4))
        assert seqs == sorted(seqs, key=lambda d: (d.n, d.degrees))
        assert all(min(d.degrees) >= 1 for d in seqs)


class TestConjectureScan:
    def test_rows_for_known_sequences(self):
        rows = {r.sequence.degrees: r for r in conjecture_scan(6)}
        r6 = rows[(2, 2, 2, 2, 2, 2)]
        assert (r6.nu_bar_d, r6.ell_star, r6.equal) == (2, 2, True)
        r3 = rows[(2, 2, 2)]
        assert (r3.nu_bar_d, r3.ell_star, r3.equal) == (1, 1, True)

    def test_scan_is_sound(self):
        for row in conjecture_scan(4):
            assert row.nu_bar_d >= row.ell_star
            assert row.nu_bar_d >= row.k_star

    def test_full_scan_at_7(self):
        # the five rows where nu_bar exceeds ell*, pinned; whether they are
        # counterexamples to nu_bar = ell* is open
        rows = conjecture_scan(7)
        assert len(rows) == 341
        unequal = {
            r.sequence.to_text(): (r.nu_bar_d, r.ell_star, r.k_star)
            for r in rows
            if not r.equal
        }
        assert unequal == {
            "6,2,2,2,2,2,2": (3, 2, 2),
            "6,3,3,3,3,3,3": (3, 2, 2),
            "6,4,4,4,4,4,4": (3, 2, 2),
            "6,6,4,4,4,4,4": (3, 2, 2),
            "6,6,6,4,4,4,4": (3, 2, 2),
        }

    def test_cap(self):
        with pytest.raises(CapExceededError):
            conjecture_scan(9)

    def test_csv_shape(self):
        rows = conjecture_scan(3)
        text = rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "sequence;nu_bar;ell_star;k_star;equal"
        assert len(lines) == len(rows) + 1
        assert lines[1].count(";") == 4
