"""Unit tests for the degree-sequence type and its constructors, and for the
position-based oracles (support sets, the left-shift order, ``augment``) that
the graphicality and acceptance tests speak in."""

import pytest
from hypothesis import given, strategies as st

from degmatch import DegreeSequence, ValidationError, make_sequence, parse_sequence
from degmatch.errors import _shown_int
from oracles import SupportSet, augment, left_shift_leq


class TestMakeSequence:
    def test_sorts_non_increasing(self):
        assert make_sequence([3, 1, 2, 2]).degrees == (3, 2, 2, 1)

    def test_empty_is_allowed(self):
        d = make_sequence([])
        assert d.n == 0
        assert d.degree_sum == 0

    def test_negative_entry_is_rejected_naming_position(self):
        with pytest.raises(ValidationError, match="negative degree at position 1"):
            make_sequence([2, -1])

    def test_non_integer_rejected(self):
        with pytest.raises(ValidationError):
            make_sequence([2, 1.5])  # type: ignore[list-item]

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=12))
    def test_always_arranged(self, values):
        d = make_sequence(values)
        assert list(d.degrees) == sorted(values, reverse=True)
        assert d.degree_sum == sum(values)


class TestDegreeSequenceType:
    def test_direct_construction_requires_arranged(self):
        with pytest.raises(ValidationError):
            DegreeSequence((1, 2))

    def test_edge_count_requires_even_sum(self):
        assert make_sequence([2, 2, 2]).edge_count_if_graphic == 3
        with pytest.raises(ValidationError):
            _ = make_sequence([3, 2, 2]).edge_count_if_graphic

    def test_strip_zeros(self):
        d, stripped = make_sequence([2, 1, 0, 0]).strip_zeros()
        assert d.degrees == (2, 1) and stripped
        d2, stripped2 = make_sequence([2, 1]).strip_zeros()
        assert d2.degrees == (2, 1) and not stripped2

    def test_text_round_trip(self):
        d = make_sequence([3, 2, 2, 1])
        assert parse_sequence(d.to_text()) == d
        assert parse_sequence(" 3, 2 ,2,1 ") == d
        assert parse_sequence("") == DegreeSequence()

    def test_sequence_protocol(self):
        d = make_sequence([1, 3, 2])
        assert len(d) == 3 and len(DegreeSequence()) == 0
        assert d[0] == 3 and d[-1] == 1 and d[1:] == (2, 1)
        assert list(d) == [3, 2, 1]
        assert str(d) == "(3,2,1)" and str(DegreeSequence()) == "()"

    def test_shown_int_shows_a_non_int_by_str(self):
        assert _shown_int(2.5) == "2.5"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValidationError):
            parse_sequence("3,x,1")


class TestLeftShift:
    def test_examples(self):
        assert left_shift_leq(SupportSet.of([1, 3]), SupportSet.of([2, 3]))
        assert not left_shift_leq(SupportSet.of([2, 3]), SupportSet.of([1, 3]))
        assert not left_shift_leq(SupportSet.of([1]), SupportSet.of([1, 2]))

    def test_support_set_validation(self):
        with pytest.raises(ValidationError):
            SupportSet((2, 1))
        with pytest.raises(ValidationError):
            SupportSet((0, 1))

    @given(st.sets(st.integers(min_value=1, max_value=12), max_size=6))
    def test_reflexive(self, indices):
        s = SupportSet.of(indices)
        assert left_shift_leq(s, s)

    @given(
        st.sets(st.integers(min_value=1, max_value=12), min_size=1, max_size=5),
        st.sets(st.integers(min_value=1, max_value=12), min_size=1, max_size=5),
    )
    def test_antisymmetric(self, xs, ys):
        a, b = SupportSet.of(xs), SupportSet.of(ys)
        if left_shift_leq(a, b) and left_shift_leq(b, a):
            assert a == b

    @given(
        st.sets(st.integers(min_value=1, max_value=10), min_size=2, max_size=4),
        st.sets(st.integers(min_value=1, max_value=10), min_size=2, max_size=4),
        st.sets(st.integers(min_value=1, max_value=10), min_size=2, max_size=4),
    )
    def test_transitive(self, xs, ys, zs):
        a, b, c = (SupportSet.of(s) for s in (xs, ys, zs))
        if left_shift_leq(a, b) and left_shift_leq(b, c):
            assert left_shift_leq(a, c)


class TestAugment:
    @pytest.mark.parametrize(
        "degrees,delta,expected",
        [
            ([2, 2, 2], 2, (2, 2, 2, 2)),
            ([1, 1], 2, (2, 1, 1)),
        ],
    )
    def test_examples(self, degrees, delta, expected):
        assert augment(make_sequence(degrees), delta).degrees == expected

    def test_delta_beyond_n_is_an_error(self):
        with pytest.raises(ValidationError, match="exceeds n"):
            augment(make_sequence([3, 1]), 4)

    def test_delta_below_one_is_an_error(self):
        with pytest.raises(ValidationError):
            augment(make_sequence([3, 1]), 0)
