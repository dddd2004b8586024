"""Exhaustive oracles over all labelled realizations of a degree sequence.

Everything here is brute force on purpose: these functions are the ground
truth the closed forms and bounds are measured against. Realizations are
labelled (vertex i has degree d_i exactly) and no isomorphism reduction is
performed. Caps keep accidental big inputs from hanging the process; they
are arguments, not constants.

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
from .graphicality import _eg_graphic_list, is_graphic_eg, require_graphic
from .graphs import Edge, Graph, max_matching, min_maximal_matching
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

    Backtracking over the neighbor set of each vertex in index order; a
    branch is entered only if the residual demands on the untouched suffix
    still form a graphic sequence, so dead subtrees are never visited.
    Yields nothing when the sequence is not graphic.
    """
    _check_caps(d, max_n, max_degree_sum)
    n = d.n
    if d.degree_sum % 2:
        return
    residual = list(d.degrees)
    edges: list[Edge] = []

    def suffix_ok(start: int) -> bool:
        tail = sorted(residual[start:], reverse=True)
        return _eg_graphic_list(tail)

    def rec(i: int) -> Iterator[Graph]:
        if i == n:
            yield Graph(n, frozenset(edges))
            return
        need = residual[i]
        cands = [j for j in range(i + 1, n) if residual[j] > 0]
        if need > len(cands):
            return
        for combo in combinations(cands, need):
            for j in combo:
                residual[j] -= 1
                edges.append((i, j))
            if suffix_ok(i + 1):
                yield from rec(i + 1)
            for j in combo:
                residual[j] += 1
            if need:
                del edges[-need:]

    if not suffix_ok(0):
        return
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
    """Minimum over realizations of the smallest maximal matching size."""
    require_graphic(d)
    return _nu_bar(d, max_n, max_degree_sum)


def _nu_bar(d: DegreeSequence, max_n: int, max_degree_sum: int) -> int:
    best = None
    for g in enumerate_realizations(d, max_n=max_n, max_degree_sum=max_degree_sum):
        size = min_maximal_matching(g).size
        best = size if best is None else min(best, size)
        if best == 0:
            break
    if best is None:
        raise InternalConsistencyError(f"graphic sequence {d} produced no realizations")
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
        nb = _nu_bar(d, max_n, degree_sum_cap)
        ell = _gale_ryser_bound(d.degrees)
        ks = _maximality_bound(d.degrees)
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
