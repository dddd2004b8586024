"""The searched sequence kernels against the loops that define them.

``_gale_ryser_bound`` finds ell* by galloping and bisection, which is
sound only because its feasibility condition is monotone in ell (the
lemma in its docstring), and checks that condition only at run ends,
which is sound only because the slack is concave between them (the second
lemma); ``_nu_star_formula`` gallops the same way to the
largest mu its small-k family admits, which is sound only because that
family is downward closed in mu; ``_posa_bound`` reads r off prefix maxima
at the distinct degrees; ``_k_star`` and ``_matching_lower_bound`` bisect;
``_delta_star`` probes the run form without sorting, and the one
Erdos-Gallai evaluator, ``_eg_first_violation``, checks the run form it is
given, with or without runs that share a value; ``nu_star`` answers by
delta_star / 2 alone; ``parse_sequence`` converts each distinct entry once,
or every entry in one pass;
and ``degmatch realize`` prints straight from the Havel-Hakimi rows. Each is checked here
against a literal loop or the form it replaced, and each lemma against
every row it covers.
"""

import random
import re
import sys
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from degmatch import (
    CapExceededError,
    DegreeSequence,
    InternalConsistencyError,
    ValidationError,
    make_sequence,
    nu_bar_sequence,
    parse_sequence,
)
from degmatch import delta_star, nu_star, nu_star_formula
from degmatch import graphicality, sequences
from degmatch.bounds import _gale_ryser_bound, _k_star, _matching_lower_bound, _posa_bound
from degmatch.cli import main
from degmatch.enumeration import all_graphic_sequences
from degmatch.errors import _integers
from degmatch.families import half_graph
from degmatch.graphicality import (
    _delta_star,
    _eg_first_violation,
    _gallop,
    _nu_star_formula,
    _reduced_graphic,
    _run_form,
    _small_k_holds,
)
from oracles import (
    delta_star_sorted,
    eg_first_violation_walk,
    extension_feasible_sorted,
    matching_lower_scan,
    maximality_scan,
    nu_star_scan,
    realize_output,
)
from test_capped_sum import (
    GNM,
    arranged,
    eg,
    ell_star,
    gale_ryser_oracle,
    gnm_degree_sequence,
    small_k_family_oracle,
)

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
    assert feasible.index(True) == ell_star(degs), degs


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
            assert ell_star(degs) == gale_ryser_oracle(degs), degs

    def test_posa_bound(self):
        for degs in INPUTS:
            assert _posa_bound(degs) == posa_oracle(degs), degs

    def test_empty(self):
        assert ell_star(()) == gale_ryser_oracle(()) == 0
        assert _posa_bound(()) == posa_oracle(()) == 0


def run_ends(degs):
    """Where each run of equal degrees ends, written out entry by entry."""
    n = len(degs)
    return [i for i in range(1, n + 1) if i == n or degs[i - 1] != degs[i]]


class TestGaleRyserRunEnds:
    """The second lemma of ``_gale_ryser_bound``: with f(0) = 0, the slack's
    minimum over k = 0 .. n - 2*ell is its minimum over k = 0 and the
    k = e - 2*ell for run ends e > 2*ell."""

    def test_every_ell_of_every_graphic_row_up_to_9(self):
        checked = 0
        for degs in GRAPHIC_UP_TO_9:
            for ell in range(len(degs) // 2 + 1):
                top = 2 * ell
                slacks = ell_star_slacks(degs, ell)  # slacks[k - 1] is f(k)
                at_run_ends = [slacks[e - top - 1] for e in run_ends(degs) if e > top]
                assert min([0, *slacks]) == min([0, *at_run_ends]), (degs, ell)
                checked += 1
        assert checked == 21426


class TestGaleRyserAboveKStar:
    """The third lemma of ``_gale_ryser_bound``: no ell below k* is
    feasible, so the search starts at k*."""

    def test_every_ell_of_every_graphic_row_up_to_9(self):
        for degs in GRAPHIC_UP_TO_9:
            k_star = maximality_scan(degs)
            for ell in range(len(degs) // 2 + 1):
                if min(ell_star_slacks(degs, ell), default=0) >= 0:
                    assert ell >= k_star, (degs, ell)

    def test_gap_up_to_10(self):
        gaps = {ell_star(d.degrees) - _k_star([0, *accumulate(d.degrees)]) for d in all_graphic_sequences(10)}
        assert gaps == {0, 1, 2}


def graphic_blocks(blocks, zeros):
    """Disjoint union of regular blocks r^c and hub blocks (n-1)^k, k^(n-k),
    plus isolated vertices, arranged: graphic, with long runs and few values."""
    values = []
    for kind, size, degree in blocks:
        if kind == "regular":
            degree = min(degree, size - 1)
            degree -= degree * size % 2  # an odd degree needs an even size
            values += [degree] * size
        else:
            values += skewed(size + 1, min(degree, size) or 1)
    return tuple(sorted(values + [0] * zeros, reverse=True))


BLOCKS = st.lists(
    st.tuples(st.sampled_from(["regular", "hub"]), st.integers(1, 60), st.integers(0, 60)), min_size=1, max_size=4
)
GRAPHIC_RUNS = st.builds(graphic_blocks, BLOCKS, st.integers(0, 30))
ARRANGED_RUNS = st.lists(st.tuples(st.integers(0, 50), st.integers(1, 40)), max_size=6).map(
    lambda runs: tuple(sorted((v for v, c in runs for _ in range(c)), reverse=True))
)

EDGE_CASES = [
    (),
    (0,),
    (0, 0, 0),
    (1, 1),
    (1, 1, 0, 0),
    (2, 2, 2, 0, 0),
    (1,) * 10,  # r = 1, delta = n feasible
    (5,) * 12,
    (3,) * 4,  # K_4: delta = n infeasible
    (7,) * 8,
]
GRAPHIC_ROWS = [*GRAPHIC_UP_TO_9, *SKEWED, *(d.degrees for d in GNM), *EDGE_CASES]


def assert_run_form_kernels(degs):
    """Every new sequence kernel equals the form it replaced, on a graphic ``degs``."""
    for check_all_k in (False, True):
        assert eg(degs, check_all_k) == eg_first_violation_walk(degs, check_all_k) is None, degs
    for delta in range(2, len(degs) + 1, 2):
        assert _reduced_graphic(_run_form(degs), delta) == extension_feasible_sorted(degs, delta), (degs, delta)
    if any(degs):
        assert _delta_star(degs) == delta_star_sorted(degs), degs
    positive = tuple(x for x in degs if x)
    prefix = [0, *accumulate(positive)]
    assert _k_star(prefix) == maximality_scan(positive), degs
    assert _matching_lower_bound(prefix) == matching_lower_scan(positive), degs
    assert _posa_bound(positive) == posa_oracle(positive), degs
    if len(positive) <= 60:
        assert ell_star(positive) == gale_ryser_oracle(positive), degs


def split_run_forms(degs):
    """Run forms of an arranged ``degs`` whose neighbouring runs share a
    value, the shape ``_reduced_graphic`` builds: each run of ``_run_form``
    cut in two at each inner point in turn, then every entry a run of its own."""
    vals, ends, sums = _run_form(degs)
    for j, (v, a, e) in enumerate(zip(vals, [0, *ends], ends)):
        below = sums[j] - v * (e - a)
        for cut in range(a + 1, e):
            yield (
                vals[:j] + [v, *vals[j:]],
                ends[:j] + [cut, *ends[j:]],
                sums[:j] + [below + v * (cut - a), *sums[j:]],
            )
    yield list(degs), list(range(1, len(degs) + 1)), list(accumulate(degs))


class TestRunFormKernelsAgainstOracles:
    """The run-form kernels against the forms they replaced, kept in
    ``tests/oracles.py``: the sort per delta_star probe, the Erdos-Gallai
    pointer walked one entry at a time, and the linear k* and noP3 scans."""

    def test_graphic_rows(self):
        for degs in GRAPHIC_ROWS:
            assert_run_form_kernels(degs)

    @given(GRAPHIC_RUNS)
    @settings(max_examples=300)
    def test_long_runs_and_zeros(self, degs):
        assert_run_form_kernels(degs)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_eg_on_every_arranged_sequence(self, n):
        # entries up to n: one above the largest graphic degree
        for degs in arranged(n, n):
            for check_all_k in (False, True):
                assert eg(degs, check_all_k) == eg_first_violation_walk(degs, check_all_k), degs

    def test_eg_on_split_runs(self):
        checked = 0
        for n in range(1, 9):
            for degs in arranged(n, n):
                first, every = eg_first_violation_walk(degs), eg_first_violation_walk(degs, True)
                for runs in split_run_forms(degs):
                    # an extra run end below s may fail before the first k of the
                    # arranged index set, so only the verdict must agree there
                    assert (_eg_first_violation(runs) is None) == (first is None), (degs, runs)
                    assert _eg_first_violation(runs, True) == every, (degs, runs)
                    checked += 1
        assert checked == 75859

    @given(ARRANGED_RUNS)
    @settings(max_examples=300)
    def test_eg_on_long_runs(self, degs):
        for check_all_k in (False, True):
            assert eg(degs, check_all_k) == eg_first_violation_walk(degs, check_all_k), degs

    def test_delta_probes_sort_nothing(self, monkeypatch):
        def no_sort(*args, **kwargs):
            raise AssertionError("a delta_star probe sorted")

        monkeypatch.setattr(graphicality, "sorted", no_sort, raising=False)
        assert _delta_star(skewed(800, 10)) == 20
        assert _delta_star((5,) * 600) == 600


class TestRunFormBuiltOnce:
    """``delta_star`` and ``nu_star`` bisect on the run form the guard built."""

    @pytest.mark.parametrize("fn,factor", [(delta_star, 1), (nu_star, 2)], ids=["delta_star", "nu_star"])
    @pytest.mark.parametrize("degs", [(3, 3, 2, 2), skewed(800, 10), (5,) * 600], ids=["3322", "skewed-800", "5^600"])
    def test_one_run_form_per_call(self, monkeypatch, fn, factor, degs):
        calls = []

        def counting(degs):
            calls.append(1)
            return _run_form(degs)

        monkeypatch.setattr(graphicality, "_run_form", counting)
        assert factor * fn(DegreeSequence(degs)) == delta_star_sorted(degs)
        assert len(calls) == 1


class TestNuStarIsHalfDeltaStar:
    """``nu_star`` answers by the extension search alone; the closed form
    must give the same number (the paper's first theorem)."""

    def test_every_graphic_row_up_to_10(self):
        rows = 0
        for d in all_graphic_sequences(10):
            assert delta_star(d) == 2 * nu_star_formula(d) == 2 * nu_star(d), d
            rows += 1
        assert rows == 4360 + 11655

    def test_hubs_and_gnm(self):
        for d in [*(DegreeSequence(degs) for degs in SKEWED), *GNM]:
            assert delta_star(d) == 2 * nu_star_formula(d) == 2 * nu_star(d), d

    def test_all_zero_message(self):
        for degs in [(), (0, 0)]:
            with pytest.raises(ValidationError, match="^delta_star undefined for an empty or all-zero sequence$"):
                nu_star(DegreeSequence(degs))


def parse_oracle(text):
    """Parse part by part, as the text format is defined: strip each part,
    match it against an optional sign and ASCII decimal digits, convert it,
    and arrange the values with ``make_sequence``."""
    stripped = text.strip()
    if not stripped:
        return DegreeSequence()
    values = []
    for i, p in enumerate(part.strip() for part in stripped.split(",")):
        if not re.fullmatch(r"[+-]?[0-9]+", p):
            raise ValidationError(f"entry {i} is not an integer: {p!r}")
        values.append(int(p))
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
# up to 60 entries from 14 tokens, so a text of 42 entries or more has at
# most a third of them distinct and is converted per distinct token: one
# value spelled several ways, and a rejected or negative token that sends
# the text to the per-entry pass
FEW_DISTINCT = st.lists(
    st.sampled_from(["3", "03", "+3", " 3", "　3", "3 ", "1", "+01", "0", "-0", "12", "x", "-2", "٣"]),
    max_size=60,
).map(",".join)


def i_mod_k_text(n, share):
    """``i % k`` for i < n, k = share * n, shuffled: k distinct entries."""
    values = [i % int(share * n) for i in range(n)]
    random.Random(n).shuffle(values)
    return ",".join(map(str, values))


SHUFFLED_1000 = i_mod_k_text(1000, 1.0)


class TestParseSequence:
    @given(st.one_of(JOINED, SCRAMBLED, FEW_DISTINCT))
    @settings(max_examples=500)
    def test_same_result_or_message_as_per_part_route(self, text):
        got = outcome(parse_sequence, text)
        assert got == outcome(parse_oracle, text), text
        if isinstance(got, DegreeSequence):
            assert DegreeSequence(got.degrees) == got  # the full constructor accepts it

    def test_first_bad_entry_is_named(self):
        assert outcome(parse_sequence, "3, -1, x") == "entry 2 is not an integer: 'x'"
        assert outcome(parse_sequence, "3, -1, -2") == "negative degree at position 1: -1"
        # int() reads these as 10 and 3; the text format takes ASCII decimal digits only
        assert outcome(parse_sequence, "1_0") == "entry 0 is not an integer: '1_0'"
        assert outcome(parse_sequence, "3, ٣") == "entry 1 is not an integer: '٣'"

    @pytest.mark.parametrize(
        "text",
        [" 3 ,2 , 1 ", "\t2,\n2", "+3,1,1,1", "", "   ", "x", "3,x", "2.5", "1e3", "-1", "3,-1", "3,2,", ",3",
         "1_0", "٣", "3, ٣", "3,\u3000 1", "3,\x1c1", "1 2", "+-1", "٣,x", "x,-1", "-1,x",
         "3,03,+3, 3,\u30003,1,1,1,1,1,1,1,1,1,1,1,1,1", "1,1,1,1,1,1,1,1,1,3,x", "1,1,1,1,1,1,1,1,1,3,-3",
         "03,3,3,3,3,3,3,3,3,3,+0,0"],
    )
    def test_corpus(self, text):
        assert outcome(parse_sequence, text) == outcome(parse_oracle, text)

    @pytest.mark.parametrize(
        "position, entry",
        [(None, None), (-1, "x"), (0, "x"), (-1, "-1"), (50_000, "٣"), (50_000, "1_0")],
        ids=["accepted", "bad-last", "bad-first", "negative-last", "arabic-indic-middle", "underscore-middle"],
    )
    def test_long_texts(self, position, entry):
        # 100,000 entries, far beyond the texts Hypothesis builds: the bulk
        # conversion and the halving search for a rejected entry run over a
        # long list
        entries = [str(i % 9) for i in range(100_000)]
        if position is not None:
            entries[position] = entry
        text = " , ".join(entries)
        assert outcome(parse_sequence, text) == outcome(parse_oracle, text)

    @pytest.mark.parametrize(
        "text",
        [SHUFFLED_1000, ",".join(map(str, half_graph(1000).degree_sequence().degrees)),
         i_mod_k_text(1000, 0.3), i_mod_k_text(1000, 0.5)],
        ids=["shuffled-0..999", "half-graph-1000", "k/n=0.3", "k/n=0.5"],
    )
    def test_both_sides_of_the_count_rule(self, text):
        # at most a third of the entries distinct (k/n = 0.3) is converted per
        # distinct entry; more (the other three) per entry
        assert outcome(parse_sequence, text) == outcome(parse_oracle, text)

    def test_each_distinct_token_is_converted_once(self, monkeypatch):
        calls = []

        def recording(entries):
            calls.append(list(entries))
            return _integers(entries)

        monkeypatch.setattr(sequences, "_integers", recording)
        # test_long_texts' accepted text: 9 values in 11 distinct tokens, as
        # its first and last entries have a space on one side only
        text = " , ".join(str(i % 9) for i in range(100_000))
        assert parse_sequence(text).n == 100_000
        assert [len(entries) for entries in calls] == [11]
        assert sorted(calls[0]) == sorted(token.strip() for token in set(text.split(",")))
        calls.clear()
        assert parse_sequence(SHUFFLED_1000).degrees == tuple(range(999, -1, -1))
        assert [len(entries) for entries in calls] == [1000]

    def test_rejected_text_builds_no_counter(self, monkeypatch):
        built = []

        def recording(tokens):
            built.append(len(tokens))
            return Counter(tokens)

        monkeypatch.setattr(sequences, "Counter", recording)
        # few distinct tokens, one rejected: the set alone sends the text to
        # the per-entry pass, which names the bad entry
        for text in ["x," + ",".join(["3"] * 100_000), ",".join(["3"] * 100_000) + ",-1"]:
            assert outcome(parse_sequence, text) == outcome(parse_oracle, text)
        assert built == []
        assert parse_sequence(",".join(["3"] * 100_000)).n == 100_000
        assert built == [100_000]

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int has no digit limit")
    def test_overlong_entries(self):
        # int refuses more digits than its limit (4300 by default); such an
        # entry is named for its digit count, and any long entry is echoed
        # only in part
        over = sys.get_int_max_str_digits() + 1
        head = "9" * 31
        assert outcome(parse_sequence, "1," + "9" * over) == f"entry 1 has too many digits ({over}): '9{head}'…"
        assert outcome(parse_sequence, "-" + "9" * over) == f"entry 0 has too many digits ({over}): '-{head}'…"
        assert outcome(parse_sequence, "+" + "9" * over) == f"entry 0 has too many digits ({over}): '+{head}'…"
        assert outcome(parse_sequence, "3," + "9" * over + "x") == f"entry 1 is not an integer: '9{head}'…"
        assert outcome(parse_sequence, "x" * 33) == f"entry 0 is not an integer: '{'x' * 32}'…"
        assert outcome(parse_sequence, "x" * 32) == f"entry 0 is not an integer: '{'x' * 32}'"

    def test_long_negative_degrees_are_echoed_in_part(self):
        # through the same cap; an int of more digits than str allows is
        # echoed as well, not refused by str while the message is formatted
        assert outcome(parse_sequence, "1,-" + "9" * 4300) == f"negative degree at position 1: -{'9' * 31}…"
        assert outcome(make_sequence, [3, -10**5000]) == f"negative degree at position 1: -1{'0' * 30}…"
        assert outcome(make_sequence, [3, -10**31]) == f"negative degree at position 1: -1{'0' * 30}…"
        assert outcome(make_sequence, [3, 1 - 10**31]) == f"negative degree at position 1: -{'9' * 31}"

    def test_direct_construction_keeps_its_checks(self):
        with pytest.raises(ValidationError):
            DegreeSequence((1, 2))
        with pytest.raises(ValidationError):
            DegreeSequence((2, -1))


def small_k_values(degs):
    """The small-k family's verdict at every mu = 1 .. n // 2."""
    prefix = [0, *accumulate(degs)]
    return [_small_k_holds(degs, prefix, mu) for mu in range(1, len(degs) // 2 + 1)]


class TestNuStarGallop:
    def test_every_graphic_row_up_to_10(self):
        rows = 0
        for d in all_graphic_sequences(10):
            assert _nu_star_formula(d.degrees) == nu_star_scan(d.degrees), d
            rows += 1
        assert rows == 4360 + 11655

    def test_hubs(self):
        hubs = [skewed(n, k) for n in range(2, 41) for k in range(1, n)]
        hubs += [skewed(800, k) for k in (6, 8, 10, 12, 100, 399, 400, 799)]
        for degs in hubs:
            assert _nu_star_formula(degs) == nu_star_scan(degs), degs

    def test_small_k_family_is_downward_closed(self):
        for degs in GRAPHIC_UP_TO_9:
            values = small_k_values(degs)
            assert values == [small_k_family_oracle(degs, mu) for mu in range(1, len(degs) // 2 + 1)], degs
            assert values == sorted(values, reverse=True), degs
        for degs in [*SKEWED, *(d.strip_zeros()[0].degrees for d in GNM)]:
            values = small_k_values(degs)
            assert values == sorted(values, reverse=True), degs

    @pytest.mark.parametrize("n,k", [(3200, 12), (3200, 1600), (25600, 20)])
    def test_family_checks_are_logarithmic(self, monkeypatch, n, k):
        calls = []
        original = graphicality._small_k_holds

        def counting(degs, prefix, mu):
            calls.append(mu)
            return original(degs, prefix, mu)

        monkeypatch.setattr(graphicality, "_small_k_holds", counting)
        assert _nu_star_formula(skewed(n, k)) == min(k, n // 2)
        # at most one gallop probe and one bisection step per bit of n // 2
        assert len(calls) <= 2 * (n // 2).bit_length() + 1, calls


class TestGallop:
    """``_gallop`` on every false-then-true predicate over small ranges,
    the answer a running from lo (all true) to hi (true only at hi) and
    hi + 1 (never true)."""

    def test_every_threshold(self):
        for lo in range(-2, 4):
            for hi in range(lo - 1, lo + 20):
                for a in range(lo, hi + 2):
                    calls = []

                    def holds(x):
                        calls.append(x)
                        return x >= a

                    assert _gallop(lo, hi, holds) == a, (lo, hi, a)
                    assert all(lo <= x <= hi for x in calls), (lo, hi, a, calls)
                    # the probes lo, lo + 1, lo + 3, lo + 7, ..., the last at
                    # hi, up to the first that holds
                    probes, step = [lo] if lo <= hi else [], 1
                    while probes and probes[-1] < min(a, hi):
                        probes.append(min(probes[-1] + step, hi))
                        step *= 2
                    assert calls[: len(probes)] == probes, (lo, hi, a, calls)
                    assert len(calls) <= 2 * (a - lo + 2).bit_length(), (lo, hi, a, calls)

    def test_never_true_is_refused_by_gale_ryser(self):
        # 1,1,1 is not graphic: no ell up to n // 2 = 1 is feasible, so the
        # gallop returns n // 2 + 1, which no graphic input reaches
        prefix = [0, 1, 2, 3]
        with pytest.raises(InternalConsistencyError, match="no feasible ell"):
            _gale_ryser_bound((1, 1, 1), prefix, _k_star(prefix))


class TestRealizeOutput:
    """Every format of ``degmatch realize`` must equal the text the command
    wrote from ``sorted(realize_hh(d).edges)``, byte for byte."""

    @staticmethod
    def assert_same(capsys, d):
        for fmt in ("json", "csv", "text"):
            assert main(["realize", "--seq=" + d.to_text(), "--format", fmt]) == 0
            assert capsys.readouterr().out == realize_output(d, fmt), (d, fmt)

    def test_every_graphic_row_up_to_7(self, capsys):
        for d in all_graphic_sequences(7):
            self.assert_same(capsys, d)

    def test_zeros_and_empty(self, capsys):
        for degs in [(), (0,), (0, 0, 0), (1, 1, 0), (2, 2, 2, 0, 0)]:
            self.assert_same(capsys, DegreeSequence(degs))

    @pytest.mark.parametrize("n", [100, 200, 400, 800])
    def test_seeded(self, capsys, n):
        self.assert_same(capsys, gnm_degree_sequence(n, 4 * n, n))
        self.assert_same(capsys, DegreeSequence((5,) * n))
        self.assert_same(capsys, DegreeSequence(skewed(n, n // 80 + 6)))


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
