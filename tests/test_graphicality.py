"""Unit tests for graphicality decisions, realizations, and nu_star."""

import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from degmatch import (
    InternalConsistencyError,
    NotGraphicError,
    ValidationError,
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
from oracles import SupportSet, augment, brute_realization_exists, gnm_degree_sequence, left_shift_leq


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

    def test_degree_above_n_minus_1_fails_without_a_count_per_level(self):
        assert is_graphic_hh(make_sequence([10**12, 1])) is False


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

    @pytest.mark.parametrize(
        "degrees, shown",
        [
            ([3, 3, 1, 1], "3,3,1,1"),
            ([99] + [9] * 15, "99," + "9," * 14 + "9"),  # 32 characters: shown whole
            ([9] * 17, "9," * 16 + "…"),
            ([3] * 5001, "3," * 16 + "…"),
            ([10**5000, 1], "1" + "0" * 31 + "…"),  # too long for str: shown from its digits
        ],
    )
    def test_non_graphic_message_shows_at_most_32_characters(self, degrees, shown):
        with pytest.raises(NotGraphicError) as info:
            nu_star(make_sequence(degrees))
        assert str(info.value) == f"sequence ({shown}) is not graphic"

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


def realize_hh_oracle(d):
    """Reference for realize_hh: its rule written directly, with a min over all
    n vertices and a keyed sort of the targets on every step (O(n^2 log n))."""
    n = d.n
    residual = list(d.degrees)
    edges = []
    for _ in range(n):
        v = min(range(n), key=lambda i: (-residual[i], i))
        k = residual[v]
        if k == 0:
            break
        residual[v] = 0
        targets = sorted(
            (j for j in range(n) if j != v and residual[j] > 0),
            key=lambda j: (-residual[j], j),
        )
        assert len(targets) >= k
        for j in targets[:k]:
            residual[j] -= 1
            edges.append((v, j))
    assert not any(residual)
    return frozenset((u, w) if u < w else (w, u) for u, w in edges)


class TestRealizeMatchesOracle:
    """realize_hh picks the same edges as the reference rule."""

    def test_every_graphic_sequence_up_to_8(self):
        checked = 0
        for n in range(9):
            for combo in itertools.combinations_with_replacement(range(n - 1, -1, -1), n):
                d = make_sequence(list(combo))
                if is_graphic_eg(d).is_graphic:
                    assert realize_hh(d).edges == realize_hh_oracle(d), d
                    checked += 1
        assert checked == 1707  # OEIS A004251, summed over n = 0..8

    @given(arranged_sequences)
    def test_hypothesis_sequences(self, d):
        if is_graphic_eg(d).is_graphic:
            assert realize_hh(d).edges == realize_hh_oracle(d)

    @staticmethod
    def long_run_families():
        """Sequences whose runs of equal demand are long and get split often,
        by family; the two-value family also holds some that are not graphic."""
        rng = random.Random(2024)
        hubs = [[n - 1] * k + [k] * (n - k) for n in range(2, 61, 3) for k in range(1, n, 4)]
        regular = [[r] * n for n in range(1, 61, 3) for r in range(1, 8) if r < n and r * n % 2 == 0]
        two_value = [
            [a] * p + [b] * q
            for a, b, p, q in itertools.product((3, 6, 11), (1, 2, 5), (4, 9, 20), (7, 16))
            if a > b
        ]
        friendship = [[2 * t] + [2] * (2 * t) for t in range(1, 31, 2)]
        gnm = []
        for n in range(50, 151, 25):
            degrees = [0] * n
            for u, v in rng.sample(list(itertools.combinations(range(n), 2)), 4 * n):
                degrees[u] += 1
                degrees[v] += 1
            gnm.append(degrees + [0] * rng.randint(1, 5))
        return {"hubs": hubs, "regular": regular, "two-value": two_value, "friendship": friendship, "gnm": gnm}

    @pytest.mark.parametrize("family", ["hubs", "regular", "two-value", "friendship", "gnm"])
    def test_long_runs(self, family):
        checked = 0
        for degrees in self.long_run_families()[family]:
            d = make_sequence(degrees)
            if is_graphic_eg(d).is_graphic:
                assert realize_hh(d).edges == realize_hh_oracle(d), degrees
                checked += 1
        assert checked

    @pytest.mark.parametrize("degs", [(2, 2), (3, 1, 1), (4, 4, 1, 1, 1, 1), (5, 5, 5, 1, 1, 1)])
    def test_kernel_runs_out_of_targets_on_non_graphic_input(self, degs):
        # the unchecked kernel still notices when a step finds too few targets
        with pytest.raises(InternalConsistencyError, match="ran out of targets"):
            graphicality._hh_rows(degs)

    def test_kernel_fails_exactly_on_non_graphic_input_up_to_8(self):
        # every arranged tuple with entries <= n, odd sums and degrees >= n included
        checked = failed = 0
        for n in range(9):
            for degs in itertools.combinations_with_replacement(range(n, -1, -1), n):
                graphic = is_graphic_eg(make_sequence(list(degs))).is_graphic
                checked += 1
                try:
                    graphicality._hh_rows(degs)
                except InternalConsistencyError as exc:
                    assert "ran out of targets" in str(exc) and not graphic, degs
                    failed += 1
                else:
                    assert graphic, degs
        assert (checked, checked - failed) == (17577, 1707)


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

    def test_formula_rejects_all_zero(self):
        with pytest.raises(ValidationError, match="nu_star undefined"):
            nu_star_formula(make_sequence([0, 0, 0]))

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


class TestValidateOnce:
    """A public function runs the Erdos-Gallai guard once; the kernels behind
    it never repeat it."""

    @pytest.fixture(scope="class")
    def d(self):
        return gnm_degree_sequence(800, 3200, seed=1)

    @pytest.fixture
    def eg_calls(self, monkeypatch, d):
        """The Erdos-Gallai evaluations of ``d``'s own run form. The delta_star
        probes use the same evaluator on reduced sequences, which are not counted."""
        calls = []
        original = graphicality._eg_first_violation
        own = graphicality._run_form(d.degrees)

        def counting(runs, *args, **kwargs):
            if runs == own:
                calls.append(1)
            return original(runs, *args, **kwargs)

        monkeypatch.setattr(graphicality, "_eg_first_violation", counting)
        return calls

    @pytest.mark.parametrize("fn", [bound_report, realize_hh, nu_star, delta_star])
    def test_single_evaluation(self, d, eg_calls, fn):
        fn(d)
        assert len(eg_calls) == 1


class TestLeftShiftLemma:
    """If removing one unit from a support set keeps a sequence graphic, any
    left-shifted support set does too. Full scan up to n = 7."""

    def test_shifted_reductions_stay_graphic(self):
        from degmatch import all_graphic_sequences

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
