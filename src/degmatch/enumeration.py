"""Exhaustive oracles over all labelled realizations of a degree sequence.

These functions are the ground truth the closed forms and bounds are
measured against, so they walk every labelled realization (vertex i has
degree d_i exactly) with no isomorphism reduction. The walk needs no
graphicality check below its entry: each vertex takes exactly its residual
demand from later vertices, so every leaf is a realization and a dead
branch ends at the first vertex whose demand exceeds its remaining
candidates. The one pruned walk is nu_bar: every maximal matching of every
realization has at least max(ell*, k*) edges, so it stops at the first
realization that reaches that floor, and it searches each later
realization only for a maximal matching smaller than the best so far. The unpruned walk, the minimum of
``min_maximal_matching`` over every realization, is kept as its test
oracle. Caps keep accidental big inputs from hanging the process; they are
arguments, not constants.

Validation contract: public functions validate their input once, through
``graphicality.require_graphic``; ``_nu_bar`` and the bound kernels that
``conjecture_scan`` calls take a graphic sequence and never re-validate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Iterator

from .bounds import _gale_ryser_bound, _maximality_bound
from .errors import CapExceededError, InternalConsistencyError, ValidationError
from .graphicality import is_graphic_eg, require_graphic
from .graphs import Edge, Graph, _min_maximal_below, max_matching, min_maximal_matching
from .sequences import DegreeSequence

__all__ = [
    "DEFAULT_MAX_N",
    "DEFAULT_MAX_DEGREE_SUM",
    "ConjectureRow",
    "enumerate_realizations",
    "count_realizations",
    "nu_star_brute",
    "nu_bar_sequence",
    "strong_extension_check",
    "all_graphic_sequences",
    "conjecture_scan",
    "rows_to_csv",
]

DEFAULT_MAX_N = 8
DEFAULT_MAX_DEGREE_SUM = 24


def _check_caps(d: DegreeSequence, max_n: int, max_degree_sum: int) -> None:
    if d.n > max_n:
        raise CapExceededError(f"n={d.n} exceeds enumeration cap {max_n}")
    if d.degree_sum > max_degree_sum:
        raise CapExceededError(
            f"degree sum {d.degree_sum} exceeds enumeration cap {max_degree_sum}"
        )


def enumerate_realizations(
    d: DegreeSequence,
    *,
    max_n: int = DEFAULT_MAX_N,
    max_degree_sum: int = DEFAULT_MAX_DEGREE_SUM,
) -> Iterator[Graph]:
    """Yield every labelled simple graph whose vertex-i degree equals d_i.

    Backtracking over the neighbor set of each vertex in index order: vertex
    i takes exactly its residual demand from the later vertices whose
    residual is still positive. Later vertices never touch i again, so at
    i = n every demand is met and each leaf is a realization; a dead branch
    ends at the first vertex whose demand exceeds its remaining candidates.
    Erdos-Gallai runs once, at entry, so a non-graphic sequence yields
    nothing without a search.
    """
    _check_caps(d, max_n, max_degree_sum)
    if not is_graphic_eg(d).is_graphic:
        return
    n = d.n
    residual = list(d.degrees)
    edges: list[Edge] = []

    def rec(i: int) -> Iterator[Graph]:
        if i == n:
            # each pair (i, j), i < j, is chosen once: the edges are normalized
            yield Graph._trusted(n, frozenset(edges), None, d.degrees)
            return
        need = residual[i]
        cands = [j for j in range(i + 1, n) if residual[j] > 0]
        if need > len(cands):
            return
        for combo in combinations(cands, need):
            for j in combo:
                residual[j] -= 1
                edges.append((i, j))
            yield from rec(i + 1)
            for j in combo:
                residual[j] += 1
            if need:
                del edges[-need:]

    yield from rec(0)


def count_realizations(
    d: DegreeSequence,
    *,
    max_n: int = DEFAULT_MAX_N,
    max_degree_sum: int = DEFAULT_MAX_DEGREE_SUM,
) -> int:
    return sum(1 for _ in enumerate_realizations(d, max_n=max_n, max_degree_sum=max_degree_sum))


def nu_star_brute(
    d: DegreeSequence,
    *,
    max_n: int = DEFAULT_MAX_N,
    max_degree_sum: int = DEFAULT_MAX_DEGREE_SUM,
) -> int:
    """Maximum matching number over all realizations, by enumerating them."""
    require_graphic(d)
    realizations = enumerate_realizations(d, max_n=max_n, max_degree_sum=max_degree_sum)
    best = max((max_matching(g).size for g in realizations), default=-1)
    if best < 0:
        raise InternalConsistencyError(f"graphic sequence {d} produced no realizations")
    return best


def nu_bar_sequence(
    d: DegreeSequence,
    *,
    max_n: int = DEFAULT_MAX_N,
    max_degree_sum: int = DEFAULT_MAX_DEGREE_SUM,
) -> int:
    """Minimum over realizations of the smallest maximal matching size.

    The walk over realizations stops once it reaches the proven floor
    max(ell*, k*), and each search after the first is cut at the best size
    found so far; the answer is the exhaustive one.
    """
    require_graphic(d)
    degs = d.strip_zeros()[0].degrees
    floor = max(_gale_ryser_bound(degs), _maximality_bound(degs))
    return _nu_bar(d, max_n, max_degree_sum, floor)


def _nu_bar(d: DegreeSequence, max_n: int, max_degree_sum: int, floor: int) -> int:
    # floor = max(ell*, k*) holds for every realization (see the module
    # docstring); the first search is the public one, which enforces its vertex cap
    realizations = enumerate_realizations(d, max_n=max_n, max_degree_sum=max_degree_sum)
    first = next(realizations, None)
    if first is None:
        raise InternalConsistencyError(f"graphic sequence {d} produced no realizations")
    best = min_maximal_matching(first).size
    if best == floor:
        return best
    for g in realizations:
        better = _min_maximal_below(g, best, floor)
        if better is not None:
            best = len(better)
            if best == floor:
                break
    return best


def strong_extension_check(
    d: DegreeSequence,
    delta: int,
    *,
    max_n: int = DEFAULT_MAX_N,
    max_degree_sum: int = DEFAULT_MAX_DEGREE_SUM,
) -> bool:
    """Does some realization have a matching of size delta/2 covering the
    delta largest degrees?

    Under ties, "largest delta degrees" is read as multiset equality of the
    covered degrees with the top delta entries of the sequence. Exhaustive:
    for each realization, every candidate vertex set with that degree
    multiset is tested for a perfect matching on its induced subgraph.
    """
    if delta % 2 or delta < 2:
        raise ValidationError(f"delta={delta} must be a positive even integer")
    if delta > d.n:
        raise ValidationError(f"delta={delta} exceeds n={d.n}")
    require_graphic(d)
    degs = d.degrees
    mu = delta // 2
    threshold = degs[delta - 1]
    forced = [i for i in range(d.n) if degs[i] > threshold]
    ties = [i for i in range(d.n) if degs[i] == threshold]
    slots = delta - len(forced)
    if slots < 0 or slots > len(ties):
        raise InternalConsistencyError("inconsistent tie block while building candidate sets")
    for g in enumerate_realizations(d, max_n=max_n, max_degree_sum=max_degree_sum):
        if max_matching(g).size < mu:
            continue
        for chosen in combinations(ties, slots):
            vertices = forced + list(chosen)
            sub = g.induced_subgraph(vertices)
            if max_matching(sub).size == mu:
                return True
    return False


def all_graphic_sequences(n_max: int, *, min_n: int = 1) -> Iterator[DegreeSequence]:
    """All arranged graphic sequences with positive entries and n <= n_max.

    Emitted in canonical order: by length, then lexicographically on the
    degree tuple.
    """
    for n in range(min_n, n_max + 1):
        found = []
        for combo in combinations_with_replacement(range(n - 1, 0, -1), n):
            if sum(combo) % 2:
                continue
            d = DegreeSequence(combo)
            if is_graphic_eg(d).is_graphic:
                found.append(d)
        found.sort(key=lambda s: s.degrees)
        yield from found


@dataclass(frozen=True)
class ConjectureRow:
    """One scanned sequence: its minimum maximal matching over realizations
    against the two sequence-level maximal-matching bounds."""

    sequence: DegreeSequence
    nu_bar_d: int
    ell_star: int
    k_star: int
    equal: bool

    def __post_init__(self) -> None:
        if self.nu_bar_d < self.ell_star or self.nu_bar_d < self.k_star:
            raise InternalConsistencyError(
                f"proven lower bound exceeded nu_bar on {self.sequence}: "
                f"nu_bar={self.nu_bar_d}, ell*={self.ell_star}, k*={self.k_star}"
            )


def conjecture_scan(n_max: int, *, max_n: int = DEFAULT_MAX_N) -> list[ConjectureRow]:
    """Tabulate nu_bar(d) against ell* for every graphic sequence with n <= n_max.

    Equality is recorded, never asserted: whether it always holds is open.
    The degree-sum cap is derived from n_max so the scan really covers
    every sequence up to that length.
    """
    if n_max > max_n:
        raise CapExceededError(f"n_max={n_max} exceeds enumeration cap {max_n}")
    degree_sum_cap = max(DEFAULT_MAX_DEGREE_SUM, n_max * (n_max - 1))
    rows = []
    for d in all_graphic_sequences(n_max):
        # all_graphic_sequences yields graphic sequences without zero entries
        ell = _gale_ryser_bound(d.degrees)
        ks = _maximality_bound(d.degrees)
        nb = _nu_bar(d, max_n, degree_sum_cap, max(ell, ks))
        rows.append(ConjectureRow(d, nb, ell, ks, nb == ell))
    return rows


def rows_to_csv(rows: list[ConjectureRow]) -> str:
    """Serialize scan rows; semicolon-separated since sequences contain commas."""
    lines = ["sequence;nu_bar;ell_star;k_star;equal"]
    for r in rows:
        lines.append(
            f"{r.sequence.to_text()};{r.nu_bar_d};{r.ell_star};{r.k_star};{str(r.equal).lower()}"
        )
    return "\n".join(lines) + "\n"
