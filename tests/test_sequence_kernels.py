"""The searched sequence kernels against the loops that define them.

``_gale_ryser_bound`` finds ell* by galloping and bisection, which is
sound only because its feasibility condition is monotone in ell (the
lemma in its docstring); ``_posa_bound`` reads r off prefix maxima; and
``parse_sequence`` validates its entries in one pass. Each is checked
here against a literal loop, and the lemma against every row it covers.
"""

import pytest
from hypothesis import given, settings, strategies as st

from degmatch import (
    CapExceededError,
    DegreeSequence,
    ValidationError,
    make_sequence,
    nu_bar_sequence,
    parse_sequence,
)
from degmatch.bounds import _gale_ryser_bound, _posa_bound
from degmatch.cli import main
from degmatch.enumeration import all_graphic_sequences
from test_capped_sum import GNM, gale_ryser_oracle, gnm_degree_sequence

GRAPHIC_UP_TO_9 = [d.degrees for d in all_graphic_sequences(9)]


def skewed(n, k):
    """(n-1)^k, k^(n-k): k vertices joined to all others, the rest only to them."""
    return (n - 1,) * k + (k,) * (n - k)


SKEWED = [skewed(n, k) for n in (2, 3, 5, 8, 13, 21, 34) for k in sorted({1, 2, 3, n // 4, n // 2, n - 1}) if 1 <= k < n]


def ell_star_slacks(degs, ell):
    """slack(k) = sum(min(d_i - 1, k), i < 2*ell) - sum(d_{2*ell} .. d_{2*ell+k-1})
    for k = 1 .. n - 2*ell, walked up in k: the left side gains the number
    of top entries with d_i - 1 >= k, the right side the next degree."""
    top = 2 * ell
    slacks = []
    left = right = 0
    c = top
    for k in range(1, len(degs) - top + 1):
        while c and degs[c - 1] - 1 < k:
            c -= 1
        left += c
        right += degs[top + k - 1]
        slacks.append(left - right)
    return slacks


def assert_lemma(degs):
    """Every k's slack is non-decreasing in ell, so the feasible ell form a
    suffix of 0 .. n // 2, and ell* is where it starts."""
    slacks = [ell_star_slacks(degs, ell) for ell in range(len(degs) // 2 + 1)]
    for ell in range(len(slacks) - 1):
        assert all(b >= a for a, b in zip(slacks[ell], slacks[ell + 1])), (degs, ell)
    feasible = [min(s, default=0) >= 0 for s in slacks]
    assert feasible == sorted(feasible), degs
    assert feasible.index(True) == _gale_ryser_bound(degs), degs


def posa_oracle(degs):
    """ceil((n - r) / 2) for the smallest r with t(q) - q + 1 <= r at every
    q < (n - r + 1) // 2, where t(q) counts the degrees <= q."""
    n = len(degs)
    for ell in range(1, n + 1):
        if all(sum(1 for x in degs if x <= q) - q + 1 <= ell for q in range((n - ell + 1) // 2)):
            return (n - ell + 1) // 2
    return 0  # n == 0


class TestGaleRyserMonotone:
    def test_every_graphic_row_up_to_9(self):
        assert len(GRAPHIC_UP_TO_9) == 4360
        for degs in GRAPHIC_UP_TO_9:
            assert_lemma(degs)

    @pytest.mark.parametrize("n", [100, 200, 400, 800, 1600])
    def test_gnm(self, n):
        assert_lemma(gnm_degree_sequence(n, 4 * n, n).strip_zeros()[0].degrees)

    @pytest.mark.parametrize("degs", SKEWED, ids=lambda d: f"{d[0]}^{d.count(d[0])}")
    def test_skewed(self, degs):
        assert_lemma(degs)


INPUTS = [
    *GRAPHIC_UP_TO_9,
    *SKEWED,
    *(d.strip_zeros()[0].degrees for d in GNM),
]


class TestSearchedKernelsAgainstLoops:
    def test_gale_ryser_bound(self):
        for degs in INPUTS:
            assert _gale_ryser_bound(degs) == gale_ryser_oracle(degs), degs

    def test_posa_bound(self):
        for degs in INPUTS:
            assert _posa_bound(degs) == posa_oracle(degs), degs

    def test_empty(self):
        assert _gale_ryser_bound(()) == gale_ryser_oracle(()) == 0
        assert _posa_bound(()) == posa_oracle(()) == 0


def parse_oracle(text):
    """Parse part by part, as the text format is defined: strip each part,
    convert it, and arrange the values with ``make_sequence``."""
    stripped = text.strip()
    if not stripped:
        return DegreeSequence()
    values = []
    for i, p in enumerate(part.strip() for part in stripped.split(",")):
        try:
            values.append(int(p))
        except ValueError:
            raise ValidationError(f"entry {i} is not an integer: {p!r}") from None
    return make_sequence(values)


def outcome(parse, text):
    try:
        return parse(text)
    except ValidationError as exc:
        return str(exc)


SEPARATORS = st.sampled_from([",", ", ", " ,", ",\t", "\n,", ",　", ",,"])
JOINED = st.lists(st.tuples(st.integers(-3, 40), SEPARATORS), max_size=12).map(
    lambda items: "".join(f"{x}{sep}" for x, sep in items)[:-1]
)
SCRAMBLED = st.text(alphabet="0123456789,,, -+_\t\na　\x1c٣", max_size=24)


class TestParseSequence:
    @given(st.one_of(JOINED, SCRAMBLED))
    @settings(max_examples=500)
    def test_same_result_or_message_as_per_part_route(self, text):
        got = outcome(parse_sequence, text)
        assert got == outcome(parse_oracle, text), text
        if isinstance(got, DegreeSequence):
            assert DegreeSequence(got.degrees) == got  # the full constructor accepts it

    def test_first_bad_entry_is_named(self):
        assert outcome(parse_sequence, "3, -1, x") == "entry 2 is not an integer: 'x'"
        assert outcome(parse_sequence, "3, -1, -2") == "negative degree at position 1: -1"

    def test_direct_construction_keeps_its_checks(self):
        with pytest.raises(ValidationError):
            DegreeSequence((1, 2))
        with pytest.raises(ValidationError):
            DegreeSequence((2, -1))


class TestCaps:
    def test_nu_bar_sequence_derives_its_cap_from_n(self):
        d = parse_sequence("4,4,4,4,4,4,4")  # degree sum 28, above the fixed cap of 24
        assert nu_bar_sequence(d) == 2
        with pytest.raises(CapExceededError):
            nu_bar_sequence(d, max_degree_sum=24)

    def test_scan_conjecture_passes_max_n_through(self, capsys):
        assert main(["scan-conjecture", "--max-n", "9"]) == 0
        rows = [line.split(";") for line in capsys.readouterr().out.splitlines()[1:]]
        at_9 = [r for r in rows if r[0].count(",") == 8]
        assert len(at_9) == 3148
        assert sum(int(r[1]) > int(r[2]) for r in at_9) == 80
