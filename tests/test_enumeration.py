"""Unit tests for the exhaustive realization oracles."""

import hashlib
import itertools
import json
import random
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

from degmatch import (
    CapExceededError,
    Graph,
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
    max_matching,
    min_maximal_matching,
    nu_bar_sequence,
    nu_star_formula,
    parse_sequence,
    rows_to_csv,
)
from degmatch import enumeration, graphicality, graphs, sequences
from degmatch.cli import main
from degmatch.enumeration import SPLIT_MAX_N, ConjectureRow, _completions
from oracles import _extension_witness, check_extension_witness, check_witness, nu_star_brute

SCAN_UNIVERSE = Path(__file__).resolve().parent.parent / "bench" / "data" / "scan_universe.json"


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
        for d in (make_sequence([1] * 9), make_sequence([7] * 8)):
            with pytest.raises(CapExceededError):
                list(enumerate_realizations(d))
            with pytest.raises(CapExceededError):
                count_realizations(d)
        # caps are configuration, not constants
        assert count_realizations(make_sequence([1] * 10), max_n=10, max_degree_sum=30) == 945

    def test_isolated_vertices_pass_through(self):
        assert count_realizations(make_sequence([1, 1, 0])) == 1


class TestEnumerationOrder:
    """The walk yields the same realizations in the same order: SHA-256 of
    each realization's sorted edge list, one per line, in the order yielded."""

    @pytest.mark.parametrize(
        "text,count,digest",
        [
            ("4,4,4,4,4,4,4,4", 19355, "871e10f928aae2a7281492a44f86a857e03a012912957e4b65cdf58488d489d4"),
            ("3,3,3,3,3,3,3,3", 19355, "d993e4385f48921ae8b21b2ab3f7ffc3f672bae59f4a94fef9a2115379fc066b"),
            ("6,6,6,6,6,6,3,3", 20, "d14741f66c712c052020df61683eee1ad42a44d25e3f192253233876158708ea"),
            ("1,1,1,1,1,1,1,1,1,1", 945, "7f24ab4222fa121cf78db61444d6da164829beae371c02396bff707cc153ba80"),
            ("3,3,2,2,2,0,0", 7, "58468121ba24fcb1e6c7676f959e267cd9cf0b69e7b21ada0a2f2a417d7410ee"),
            ("7,7,7,7,7,6,6,6,5", 1390, "e2a6e55acff8bc8060b2bfdce5a429684c3b80c6194ff56e7af4abf603a44e4c"),
            ("3,3,2,2,2,2,1,1,1,1", 22296, "876dc2200e8b7166641e0202ec6ec28fecc6e863d1bf013aebc82a2aa3921c96"),
            ("3,3,1,1", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ],
    )
    def test_ordered_edge_lists(self, text, count, digest):
        d = parse_sequence(text)
        h = hashlib.sha256()
        seen = 0
        for g in enumerate_realizations(d, max_n=10, max_degree_sum=60):
            h.update((repr(sorted(g.edges)) + "\n").encode())
            seen += 1
        assert (seen, h.hexdigest()) == (count, digest)

    def test_degrees_agree_with_the_edges(self):
        d = make_sequence([4, 3, 3, 2, 2, 2, 0])
        for g in enumerate_realizations(d):
            assert Graph(g.vertex_count, g.edges).degrees() == g.degrees() == d.degrees


class TestEnumerationChecksOnce:
    """Erdos-Gallai runs once per call, at entry, and a yielded realization
    is built without re-normalizing its edges."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        for module, name in ((graphicality, "_eg_first_violation"), (graphs, "_normalize_edges")):
            original = getattr(module, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        return counts

    @staticmethod
    def walk(text):
        return sum(1 for _ in enumerate_realizations(parse_sequence(text), max_degree_sum=56))

    @pytest.mark.parametrize("text", ["4,4,4,4,3,3,3,3", "3,3,2,2,2,0,0", "6,6,6,6,6,6,3,3", "3,3,1,1"])
    def test_one_eg_evaluation(self, calls, text):
        self.walk(text)
        assert calls["_eg_first_violation"] == 1

    @pytest.mark.parametrize("text", ["4,4,4,4,3,3,3,3", "3,3,2,2,2,0,0", "6,6,6,6,6,6,3,3"])
    def test_no_edge_normalization(self, calls, text):
        assert self.walk(text) > 0
        assert calls["_normalize_edges"] == 0


def recursive_walk(residual, later):
    """Reference for the leaves of ``enumeration._fold_states``: the same
    backtracking written as nested generators, one frame per vertex."""
    n = len(residual)
    edges = []

    def rec(i):
        if i == n:
            yield edges
            return
        need = residual[i]
        cands = [j for j in later[i] if residual[j] > 0]
        if need > len(cands):
            return
        for combo in itertools.combinations(cands, need):
            for j in combo:
                residual[j] -= 1
                edges.append((i, j))
            yield from rec(i + 1)
            for j in combo:
                residual[j] += 1
            if need:
                del edges[-need:]

    return rec(0)


def complete_later(n):
    return [range(i + 1, n) for i in range(n)]


@pytest.fixture
def hosts(monkeypatch):
    """Record the (residual, later) of every walk the split search and the
    first theorem's oracle ask for, and answer none, so a caller goes on to
    build every host it can;
    the tests walk the hosts through the kernel imported above. Each search
    asks for the first completion of a whole residual vector."""
    asked = []

    def record(residual, later, first=False):
        assert first
        asked.append((list(residual), [list(row) for row in later]))
        return []

    monkeypatch.setattr(enumeration, "_completions", record)
    return asked


class TestFlatWalk:
    """On any host, ``_completions`` gives exactly the leaves of the
    recursive walk, in the same order, and with ``first`` the first of
    them or nothing; either way it gives ``residual`` back."""

    @staticmethod
    def assert_same_walk(residual, later):
        residual = list(residual)
        before = list(residual)
        leaves = [tuple(edges) for edges in recursive_walk(list(before), later)]
        assert _completions(residual, later) == leaves
        assert residual == before
        assert _completions(residual, later, first=True) == leaves[:1]
        assert residual == before
        return len(leaves)

    def test_every_graphic_row_up_to_7(self):
        rows = leaves = 0
        for d in all_graphic_sequences(7):
            rows += 1
            leaves += self.assert_same_walk(d.degrees, complete_later(d.n))
        assert (rows, leaves) == (341, 16757)

    def test_rows_with_zero_entries(self):
        # every vector with a zero and entries below n, n <= 5, graphic or not
        leaves = 0
        for n in range(1, 6):
            for vec in itertools.product(range(n), repeat=n):
                if 0 in vec:
                    leaves += self.assert_same_walk(vec, complete_later(n))
        assert leaves > 0
        for vec, count in (((3, 3, 2, 2, 2, 0, 0), 7), ((0, 3, 3, 2, 2, 2, 0), 7), ((0, 2, 0, 2, 2, 0), 1),
                           ((0, 0, 0), 1), ((3, 0, 3, 1, 1, 0, 0), 0)):
            assert self.assert_same_walk(vec, complete_later(len(vec))) == count

    def test_every_split_witness_host_up_to_6(self, hosts):
        for d in all_graphic_sequences(6):
            degs = d.degrees
            for ell in range(1, d.n // 2 + 1):
                for cover in enumeration._cover_splits(degs, 2 * ell):
                    for pairs in enumeration._pair_classes(degs, cover):
                        assert enumeration._split_witness(degs, cover, list(pairs)) is None
        assert len(hosts) == 1244
        assert sum(self.assert_same_walk(*host) for host in hosts) > 0

    def test_every_extension_witness_host_up_to_6(self, hosts):
        for d in all_graphic_sequences(6):
            for delta in range(2, d.n + 1, 2):
                assert _extension_witness(d.degrees, delta) is None
        assert len(hosts) == 459
        assert sum(self.assert_same_walk(*host) for host in hosts) > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_random_restricted_hosts(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.randint(1, 8)
            host = [[j for j in range(i + 1, n) if rng.random() < 0.6] for i in range(n)]
            # the degrees of a random subgraph of the host: at least one leaf
            residual = [0] * n
            for i, row in enumerate(host):
                for j in row:
                    if rng.random() < 0.5:
                        residual[i] += 1
                        residual[j] += 1
            assert self.assert_same_walk(residual, host) >= 1
            self.assert_same_walk([rng.randrange(n) for _ in range(n)], host)


def walk_states(residual, later):
    """Reference for the state memos: every state the full walk reaches at
    a vertex of positive demand, as the residual vector with 0 before that
    vertex, mapped to whether the vertex has enough candidates to try a
    combination."""
    n = len(residual)
    residual = list(residual)
    states = {}

    def rec(i):
        while i < n and not residual[i]:
            i += 1
        if i == n:
            return
        need = residual[i]
        cands = [j for j in later[i] if residual[j] > 0]
        states[tuple(residual)] = need <= len(cands)
        residual[i] = 0
        for combo in itertools.combinations(cands, need):
            for j in combo:
                residual[j] -= 1
            rec(i + 1)
            for j in combo:
                residual[j] += 1
        residual[i] = need

    rec(0)
    return states


@pytest.fixture
def combination_calls(monkeypatch):
    """Count the ``combinations`` iterators the walks start."""
    calls = []
    original = enumeration.combinations

    def counting(pool, r):
        calls.append(r)
        return original(pool, r)

    monkeypatch.setattr(enumeration, "combinations", counting)
    return calls


class TestCompletions:
    """The enumeration and the count, which fold K_n, give exactly the
    leaves of the recursive walk on K_n, in order, and try the combinations
    of each residual state with enough candidates once."""

    @staticmethod
    def assert_same_leaves(d):
        expected = [frozenset(edges) for edges in recursive_walk(list(d.degrees), complete_later(d.n))]
        caps = {"max_degree_sum": 42}
        assert [g.edges for g in enumerate_realizations(d, **caps)] == expected, d
        assert count_realizations(d, **caps) == len(expected), d
        return len(expected)

    def test_every_graphic_row_up_to_7(self):
        assert sum(self.assert_same_leaves(d) for d in all_graphic_sequences(7)) == 16757

    def test_rows_with_zero_entries(self):
        # every row with a zero and entries below n, n <= 5, graphic or not:
        # a row that is not graphic has no leaf, and the enumeration none
        rows = {make_sequence(vec) for n in range(1, 6) for vec in itertools.product(range(n), repeat=n) if 0 in vec}
        leaves = [self.assert_same_leaves(d) for d in sorted(rows, key=lambda d: d.degrees)]
        assert 0 in leaves and sum(leaves) > 0

    def test_count_is_the_number_enumerated_up_to_7(self):
        for d in all_graphic_sequences(7):
            caps = {"max_degree_sum": 42}
            assert count_realizations(d, **caps) == sum(1 for _ in enumerate_realizations(d, **caps)), d

    @pytest.mark.parametrize("text", ["4,4,4,4,4,4,4,4", "3,3,2,2,2,0,0", "6,6,6,6,6,6,3,3", "5,5,5,5,5,2,2,1"])
    def test_each_state_is_tried_once(self, combination_calls, text):
        d = parse_sequence(text)
        states = walk_states(d.degrees, complete_later(d.n))
        graphs_found = list(enumerate_realizations(d, max_degree_sum=56))
        assert len(combination_calls) == sum(states.values())
        combination_calls.clear()
        assert count_realizations(d, max_degree_sum=56) == len(graphs_found)
        assert len(combination_calls) == sum(states.values())

    def test_deep_walk_needs_no_recursion(self):
        # a threshold graph on 2,200 vertices, odd vertices joined to every
        # earlier one: its degree sequence has one realization, reached
        # through about 1,100 vertices with demand, one below the other
        degrees = [0] * 2200
        for v in range(1, 2200, 2):
            degrees[v] += v
            for u in range(v):
                degrees[u] += 1
        d = make_sequence(degrees)
        assert count_realizations(d, max_n=2200, max_degree_sum=d.degree_sum) == 1

    def test_interleaved_and_restarted_generators(self):
        texts = ["3,3,2,2,2,2,2", "4,4,3,3,2,2,2", "2,2,2,2,2,2,0"]
        alone = {t: [g.edges for g in enumerate_realizations(parse_sequence(t))] for t in texts}
        walks = {t: enumerate_realizations(parse_sequence(t)) for t in texts}
        together = {t: [] for t in texts}
        for rounds in itertools.zip_longest(*walks.values()):
            for t, g in zip(texts, rounds):
                if g is not None:
                    together[t].append(g.edges)
        assert together == alone
        for t in texts:
            dropped = enumerate_realizations(parse_sequence(t))
            first = [g.edges for g in itertools.islice(dropped, len(alone[t]) // 2)]
            assert first == alone[t][: len(first)]
            assert [g.edges for g in enumerate_realizations(parse_sequence(t))] == alone[t]
            assert first + [g.edges for g in dropped] == alone[t]


class TestDeadStates:
    """The split search's hosts at n = 7 give the recursive walk's leaves,
    and on a host with no realization each reachable state whose vertex has
    enough candidates starts one ``combinations`` iterator, with ``first``
    or without."""

    def test_every_split_witness_host_at_7(self, hosts, combination_calls):
        for d in all_graphic_sequences(7, min_n=7):
            degs = d.degrees
            for ell in range(1, d.n // 2 + 1):
                for cover in enumeration._cover_splits(degs, 2 * ell):
                    for pairs in enumeration._pair_classes(degs, cover):
                        enumeration._split_witness(degs, cover, list(pairs))
        leafless = 0
        for residual, later in hosts:
            if TestFlatWalk.assert_same_walk(residual, later) == 0:
                leafless += 1
                tried = sum(walk_states(residual, later).values())
                for first in (False, True):
                    combination_calls.clear()
                    _completions(list(residual), later, first=first)
                    assert len(combination_calls) == tried
        assert (len(hosts), leafless) == (7920, 5700)


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

    def test_split_cap_admits_n_10(self):
        assert nu_bar_sequence(parse_sequence(",".join(["1"] * 10))) == 5
        assert nu_bar_sequence(parse_sequence(",".join(["9"] * 10))) == 5  # no degree-sum cap by default
        with pytest.raises(CapExceededError, match="n=11 exceeds enumeration cap 10"):
            nu_bar_sequence(parse_sequence(",".join(["1"] * 10 + ["0"])))

    def test_isolated_vertices_do_not_change_it(self):
        for degrees in ([2, 2, 2], [1, 1, 1, 1], [3, 2, 2, 1, 1, 1]):
            d = make_sequence(degrees)
            assert nu_bar_sequence(make_sequence(degrees + [0, 0])) == nu_bar_sequence(d)


def perfect_matchings(vertices):
    """Every perfect matching of a vertex list, as lists of pairs."""
    if not vertices:
        yield []
        return
    first, rest = vertices[0], vertices[1:]
    for k, v in enumerate(rest):
        for m in perfect_matchings(rest[:k] + rest[k + 1:]):
            yield [(first, v)] + m


def split_outcomes(degs, ell, covers, pairings):
    """{degree multiset of C: whether some C of ``covers`` with it and some
    M of ``pairings(C)`` have a witness}."""
    out = {}
    for cover in covers:
        key = tuple(degs[v] for v in cover)
        if not out.get(key):
            out[key] = any(enumeration._split_witness(degs, cover, pairs) is not None for pairs in pairings(cover))
    return out


class TestSplitSearch:
    """nu_bar by the split search: exact, and each row carries a witness."""

    @pytest.fixture(scope="class")
    def scan_8(self):
        return conjecture_scan(8)

    def test_every_witness_up_to_8_checks(self, scan_8):
        assert len(scan_8) == 1212
        for row in scan_8:
            check_witness(row.sequence.degrees, row.nu_bar_d, row.witness)

    def test_stored_answers_at_8(self):
        # read only: the answers of the exhaustive walk, stored with the benchmark
        stored = json.loads(SCAN_UNIVERSE.read_text())
        at_8 = {seq: value[1] for seq, value in stored.items() if seq.count(",") == 7}
        assert len(at_8) == 871
        for seq, expected in at_8.items():
            assert nu_bar_sequence(parse_sequence(seq), max_n=8, max_degree_sum=56) == expected, seq

    def test_every_labelled_split_agrees_with_the_reduced_search(self):
        # no symmetry shortcut: every labelled C of every size and every
        # perfect matching on it, against one C per degree multiset and one
        # M per multiset of degree pairs, split by split
        for d in all_graphic_sequences(7):
            degs = d.degrees
            positive = list(range(d.n))
            full_nu_bar = None
            for ell in range(d.n // 2 + 1):
                full = split_outcomes(degs, ell, itertools.combinations(positive, 2 * ell), perfect_matchings)
                reduced = split_outcomes(
                    degs, ell, enumeration._cover_splits(degs, 2 * ell),
                    lambda cover: enumeration._pair_classes(degs, cover),
                )
                assert full == reduced, (d, ell)
                if full_nu_bar is None and any(full.values()):
                    full_nu_bar = ell
            assert nu_bar_sequence(d, max_n=7, max_degree_sum=42) == full_nu_bar, d

    def test_no_row_up_to_8_needs_a_non_top_split(self, scan_8):
        # the top split (the 2l largest degrees in C) alone reaches nu_bar on
        # all 1,212 rows with n <= 8, so no row here needs a non-top split:
        # the search tries the others only to reject an l, and the test above
        # checks every split's outcome, top or not, on every row with n <= 7
        # (the top split also suffices on all 3,148 rows with n = 9, checked
        # once outside the suite)
        for row in scan_8:
            degs, ell = row.sequence.degrees, row.nu_bar_d
            top = list(range(2 * ell))
            assert split_outcomes(degs, ell, [top], perfect_matchings) == {degs[: 2 * ell]: True}, row.sequence

    @pytest.mark.parametrize("text", ["4,4,3,3,3,2,2,1", "2,2,2,2,2,2", "5,3,3,3,2,2,1,1,0", "1,1"])
    def test_covers_are_every_degree_multiset_once_top_first(self, text):
        degs = parse_sequence(text).degrees
        positive = [v for v in range(len(degs)) if degs[v] > 0]
        for size in range(len(positive) + 1):
            covers = [list(c) for c in enumeration._cover_splits(degs, size)]
            keys = [tuple(degs[v] for v in c) for c in covers]
            expected = {tuple(degs[v] for v in c) for c in itertools.combinations(positive, size)}
            assert len(keys) == len(set(keys)) and set(keys) == expected
            assert covers[0] == positive[:size]

    @pytest.mark.parametrize("text", ["4,4,3,3,3,2,2,1", "3,3,3,3,3,3", "5,4,3,2,2,1,1,1"])
    def test_pairings_are_every_degree_pair_multiset_once(self, text):
        degs = parse_sequence(text).degrees

        def key(pairs):
            return tuple(sorted(tuple(sorted((degs[u], degs[v]))) for u, v in pairs))

        for size in range(0, len(degs) + 1, 2):
            for cover in enumeration._cover_splits(degs, size):
                got = [key(pairs) for pairs in enumeration._pair_classes(degs, cover)]
                expected = {key(pairs) for pairs in perfect_matchings(list(cover))}
                assert len(got) == len(set(got)) and set(got) == expected, (text, cover)

    @pytest.mark.parametrize("text", ["3,2,2,1,1,1", "4,4,3,3,3,2,2,1", "2,2,2,2,2,2", "5,3,3,3,2,2,1,1,0"])
    def test_collected_splits_match_brute_oracles(self, text):
        # collected before they are read: each split the generators yield
        # must stay as it was when later ones are built
        degs = parse_sequence(text).degrees
        positive = [v for v in range(len(degs)) if degs[v] > 0]

        def first_ids(c):
            counts = Counter(degs[v] for v in c)
            return tuple(sorted(degs.index(x) + i for x, t in counts.items() for i in range(t)))

        def key(pairs):
            return tuple(sorted(tuple(sorted((degs[u], degs[v]))) for u, v in pairs))

        for size in range(len(positive) + 1):
            covers = list(enumeration._cover_splits(degs, size))
            assert covers == sorted({first_ids(c) for c in itertools.combinations(positive, size)})
            if size % 2:
                continue
            for cover in covers:
                # itertools gives the perfect matchings in lexicographic order;
                # the generator yields the first of each degree-pair multiset
                first_of = {}
                for m in itertools.combinations(itertools.combinations(cover, 2), size // 2):
                    if len({v for pair in m for v in pair}) == size:
                        first_of.setdefault(key(m), m)
                assert list(enumeration._pair_classes(degs, cover)) == list(first_of.values()), (text, cover)

    def test_witness_is_not_part_of_the_row(self, scan_8):
        row = scan_8[-1]
        bare = ConjectureRow(row.sequence, row.nu_bar_d, row.ell_star, row.k_star, row.equal)
        assert bare.witness is None and bare == row and hash(bare) == hash(row)


class TestStrongExtension:
    """The paper's first theorem: d extends by delta exactly when some
    realization has a matching of delta/2 edges covering the delta largest
    degrees. ``extension_feasible`` answers; the oracle searches for that
    realization and matching."""

    @pytest.mark.parametrize(
        "degrees,delta",
        [
            ([2, 2, 2, 2, 2, 2], 6),
            ([3, 1, 1, 1], 2),
            ([1, 1], 2),
        ],
    )
    def test_true_examples(self, degrees, delta):
        d = make_sequence(degrees)
        assert extension_feasible(d, delta)
        check_extension_witness(d.degrees, delta, _extension_witness(d.degrees, delta))

    def test_false_when_extension_impossible(self):
        # the star K_{1,3} is the unique realization of (3,1,1,1): no
        # 2-edge matching exists, so a degree-4 newcomer cannot be absorbed
        d = make_sequence([3, 1, 1, 1])
        assert not extension_feasible(d, 4)
        assert _extension_witness(d.degrees, 4) is None

    @pytest.mark.parametrize("delta", [3, -1, 0, -2, 4, 10**40])
    def test_bad_delta_message_is_extension_feasibles(self, delta, capsys):
        # the command line asks the extension question through
        # extension_feasible and prints its refusal as it is
        d = make_sequence([2, 2, 2])
        with pytest.raises(ValidationError) as feasible:
            extension_feasible(d, delta)
        assert main(["extend", "--seq", d.to_text(), f"--delta={delta}"]) == 1
        assert capsys.readouterr().err == f"ERROR VALIDATION: {feasible.value}\n"

    def test_bad_delta_reported_before_non_graphic_input(self):
        d = make_sequence([3, 3, 1, 1])
        for delta in (3, 6):
            with pytest.raises(ValidationError):
                extension_feasible(d, delta)
        with pytest.raises(NotGraphicError):
            extension_feasible(d, 2)

    def test_matches_feasibility_up_to_6(self):
        for d in all_graphic_sequences(6):
            for delta in range(2, d.n + 1, 2):
                assert (_extension_witness(d.degrees, delta) is not None) == extension_feasible(d, delta), (d, delta)

    def test_weak_form_matches_feasibility(self):
        # some realization has a matching of size delta/2  <=>  the augmented
        # sequence is graphic (no covering requirement on the weak side)
        for d in all_graphic_sequences(5):
            best = nu_star_brute(d, max_n=5, max_degree_sum=20)
            for delta in range(2, d.n + 1, 2):
                assert (delta // 2 <= best) == extension_feasible(d, delta), (d, delta)


def walk_extension_oracle(d, max_n):
    """Independent oracle: the deltas for which some realization has a
    perfect matching on the edges inside some vertex set whose degrees are
    the delta largest, found by walking every realization."""
    degs = d.degrees
    candidates = {}
    for delta in range(2, d.n + 1, 2):
        top = sorted(degs)[d.n - delta:]
        candidates[delta] = [set(c) for c in itertools.combinations(range(d.n), delta)
                             if sorted(degs[v] for v in c) == top]
    found = set()
    for g in enumerate_realizations(d, max_n=max_n, max_degree_sum=max_n * (max_n - 1)):
        for delta in candidates.keys() - found:
            for c in candidates[delta]:
                inner = frozenset((u, v) for u, v in g.edges if u in c and v in c)
                if max_matching(Graph(d.n, inner)).size == delta // 2:
                    found.add(delta)
                    break
        if len(found) == len(candidates):
            break
    return found


class TestStrongExtensionBySplits:
    """The first theorem's oracle is a split search: one labelled C, the
    top delta vertices, and one M per multiset of degree pairs."""

    def test_matches_feasibility_up_to_9(self):
        pairs = 0
        for d in all_graphic_sequences(9):
            for delta in range(2, d.n + 1, 2):
                pairs += 1
                assert (_extension_witness(d.degrees, delta) is not None) == extension_feasible(d, delta), (d, delta)
        assert pairs == 17066

    def test_every_witness_up_to_9_checks(self):
        witnesses = 0
        for d in all_graphic_sequences(9):
            for delta in range(2, d.n + 1, 2):
                witness = _extension_witness(d.degrees, delta)
                if witness is not None:
                    check_extension_witness(d.degrees, delta, witness)
                    witnesses += 1
        assert witnesses == 16691

    def test_matches_the_realization_walk_up_to_7(self):
        pairs = 0
        for d in all_graphic_sequences(7):
            walk = walk_extension_oracle(d, 7)
            for delta in range(2, d.n + 1, 2):
                pairs += 1
                assert (_extension_witness(d.degrees, delta) is not None) == (delta in walk), (d, delta)
        assert pairs == 990

    @pytest.mark.parametrize("text", ["3,3,2,2,2,0,0", "2,2,2,0"])
    def test_isolated_vertex_in_the_top_delta(self, text):
        d = parse_sequence(text)
        for delta in range(2, d.n + 1, 2):
            witness = _extension_witness(d.degrees, delta)
            assert (witness is not None) == (delta in walk_extension_oracle(d, 8)), (d, delta)
            assert (witness is not None) == extension_feasible(d, delta), (d, delta)

    def test_no_realization_walk_and_no_blossom(self, monkeypatch):
        counts = Counter()
        assert not hasattr(enumeration, "max_matching")
        for module, name in (
            (enumeration, "enumerate_realizations"),
            (graphs, "max_matching"),
        ):
            original = getattr(module, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        answers = [
            _extension_witness(parse_sequence(text).degrees, delta) is not None
            for text, delta in (("2,2,2,2,2,2", 6), ("3,1,1,1", 4), ("4,4,3,3,3,2,2,1", 4), ("3,3,2,2,2,0,0", 6))
        ]
        assert answers == [True, False, True, False]
        assert counts == Counter()


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

    def test_candidates_are_not_revalidated(self, monkeypatch):
        # each candidate is drawn arranged and positive, so none is checked again
        calls = []
        monkeypatch.setattr(sequences, "_check_degrees", lambda values: calls.append(values))
        assert sum(1 for _ in all_graphic_sequences(6)) > 0
        assert calls == []


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
            conjecture_scan(SPLIT_MAX_N + 1)

    def test_csv_at_7_is_pinned(self):
        text = rows_to_csv(conjecture_scan(7))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "be8e3b4cbe50c903e337c940566802356d9b765fbb3423b58f002f9b03cbc02f"
        )

    def test_csv_shape(self):
        rows = conjecture_scan(3)
        text = rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "sequence;nu_bar;ell_star;k_star;equal"
        assert len(lines) == len(rows) + 1
        assert lines[1].count(";") == 4
