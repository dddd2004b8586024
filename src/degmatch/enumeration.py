"""Exhaustive oracles over all labelled realizations of a degree sequence.

These functions are the ground truth the closed forms and bounds are
measured against. ``enumerate_realizations`` walks every labelled
realization (vertex i has degree d_i exactly) with no isomorphism
reduction. One backtracking kernel, ``_realize_in_host``, does every walk:
each vertex takes exactly its residual demand from the later vertices the
host lets it join, so every leaf is a realization inside that host and a
dead branch ends at the first vertex whose demand exceeds its remaining
candidates. It runs as one generator frame over an explicit stack of the
combinations each vertex has taken, so a leaf costs no climb through
nested generator frames. ``enumerate_realizations`` and
``count_realizations`` share its K_n case, which needs no graphicality
check below its entry; the count builds no graph per leaf.

Both realization questions are decided by a split search instead of a
walk. d splits into C and I, M is a perfect matching on C, and a
realization H of (d_C - 1, d_I) inside K_n - M gives G = H + M, a witness
anyone can re-check. Equal degrees are interchangeable, so one labelled C
per multiset split and one M per multiset of degree pairs stand for all.

- nu_bar, the minimum maximal matching over all realizations: M is maximal
  in G exactly when the vertices it misses are independent, so H also
  avoids every I x I pair. l runs upward from the proven floor
  max(ell*, k*), and each l tries every multiset split with |C| = 2l, the
  top split first; an l is rejected only after all fail, so the answer is
  exact without the unproved lemma that the top split suffices.
- The paper's strong extension check (some realization has a matching of
  delta/2 edges covering the delta largest degrees): C is the top delta
  vertices, and H may use I x I pairs.

The realization walks these replaced are kept only as test oracles. Caps
keep accidental big inputs from hanging the process; they are arguments,
checked once at the public edge. ``DEFAULT_MAX_N`` is the realization
walk's vertex cap and ``SPLIT_MAX_N`` that of the split searches; a
``max_degree_sum`` of None means no degree-sum cap.

Validation contract: public functions validate their input once, through
``graphicality.require_graphic``; ``_nu_bar`` and the bound kernels that
``conjecture_scan`` calls take a graphic sequence and never re-validate or
re-check caps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from typing import Iterator, Optional, Sequence

from .bounds import _gale_ryser_bound, _maximality_bound
from .errors import CapExceededError, InternalConsistencyError, ValidationError
from .graphicality import is_graphic_eg, require_graphic
from .graphs import Edge, Graph, Matching, max_matching
from .sequences import DegreeSequence

__all__ = [
    "DEFAULT_MAX_N",
    "DEFAULT_MAX_DEGREE_SUM",
    "SPLIT_MAX_N",
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
SPLIT_MAX_N = 10  # the slowest call at n = 10 takes about 0.1 s; the n = 11 scan rows take about 72 s


def _check_caps(d: DegreeSequence, max_n: int, max_degree_sum: Optional[int]) -> None:
    if d.n > max_n:
        raise CapExceededError(f"n={d.n} exceeds enumeration cap {max_n}")
    if max_degree_sum is not None and d.degree_sum > max_degree_sum:
        raise CapExceededError(
            f"degree sum {d.degree_sum} exceeds enumeration cap {max_degree_sum}"
        )


def _realize_in_host(residual: list[int], later: Sequence[Sequence[int]]) -> Iterator[list[Edge]]:
    """Yield the edges (i, j), i < j, of every realization of ``residual``
    inside a host graph, where ``later[i]`` lists, in increasing order, the
    vertices after i that i may join.

    Backtracking over the neighbor set of each vertex in index order:
    vertex i takes exactly its residual demand from the vertices in
    ``later[i]`` whose residual is still positive, one combination at a
    time in ``combinations`` order. Later vertices never touch i again, so
    at i = n every demand is met and each leaf is a realization; a dead
    branch ends at the first vertex whose demand exceeds its remaining
    candidates. The walk is one loop over an explicit stack, one entry
    (vertex, its combinations, the one taken) per vertex of positive
    demand: going down it takes each vertex's first combination, going up
    it gives back the top entry's and takes its next. ``residual`` is
    restored once the generator is exhausted and left changed if it is
    abandoned, and the yielded list is valid until the next step of the
    generator.
    """
    n = len(residual)
    edges: list[Edge] = []
    stack: list[tuple[int, Iterator[tuple[int, ...]], tuple[int, ...]]] = []
    i = 0
    while True:
        while i < n:
            need = residual[i]
            if need:
                cands = [j for j in later[i] if residual[j] > 0]
                if need > len(cands):
                    break
                choices = combinations(cands, need)
                combo = next(choices)
                for j in combo:
                    residual[j] -= 1
                    edges.append((i, j))
                stack.append((i, choices, combo))
            i += 1
        else:
            yield edges
        while stack:
            i, choices, combo = stack.pop()
            for j in combo:
                residual[j] += 1
            del edges[-len(combo):]
            combo = next(choices, None)
            if combo is not None:
                for j in combo:
                    residual[j] -= 1
                    edges.append((i, j))
                stack.append((i, choices, combo))
                i += 1
                break
        else:
            return


def enumerate_realizations(
    d: DegreeSequence,
    *,
    max_n: int = DEFAULT_MAX_N,
    max_degree_sum: int = DEFAULT_MAX_DEGREE_SUM,
) -> Iterator[Graph]:
    """Yield every labelled simple graph whose vertex-i degree equals d_i."""
    for edges in _realizations_in_kn(d, max_n, max_degree_sum):
        # each pair (i, j), i < j, is chosen once: the edges are normalized
        yield Graph._trusted(d.n, frozenset(edges), None, d.degrees)


def count_realizations(
    d: DegreeSequence,
    *,
    max_n: int = DEFAULT_MAX_N,
    max_degree_sum: int = DEFAULT_MAX_DEGREE_SUM,
) -> int:
    """The number of labelled realizations of d, counted off the walk's
    leaves without building a graph per leaf."""
    return sum(1 for _ in _realizations_in_kn(d, max_n, max_degree_sum))


def _realizations_in_kn(d: DegreeSequence, max_n: int, max_degree_sum: int) -> Iterator[list[Edge]]:
    """The caps check, then the walk of ``_realize_in_host`` with host K_n,
    in index order. Erdos-Gallai runs once, at entry, so a non-graphic
    sequence yields nothing without a search."""
    _check_caps(d, max_n, max_degree_sum)
    if not is_graphic_eg(d).is_graphic:
        return iter(())
    n = d.n
    return _realize_in_host(list(d.degrees), [range(i + 1, n) for i in range(n)])


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
    max_n: int = SPLIT_MAX_N,
    max_degree_sum: Optional[int] = None,
) -> int:
    """Minimum over realizations of the smallest maximal matching size.

    Decided by the split search of ``_nu_bar``, starting at the proven
    floor max(ell*, k*); the answer is the exhaustive one. With no
    ``max_degree_sum`` only ``max_n`` caps the input.
    """
    require_graphic(d)
    _check_caps(d, max_n, max_degree_sum)
    degs = d.strip_zeros()[0].degrees
    floor = max(_gale_ryser_bound(degs), _maximality_bound(degs))
    return _nu_bar(d.degrees, floor)[0]


Witness = tuple[Graph, Matching]


def _nu_bar(degs: tuple[int, ...], floor: int) -> tuple[int, Witness]:
    """nu_bar and a witness (G, M) for the graphic ``degs``: a realization G
    and a maximal matching M of G with nu_bar edges.

    Some realization has a maximal matching of l edges exactly when a
    split of d into C (2l entries) and I admits a perfect matching M on C
    and a realization H of (d_C - 1, d_I) with no I x I pair and no pair of
    M; then G = H + M. l runs upward from ``floor``, which no maximal
    matching of any realization goes under, so the first l with a witness
    is nu_bar. Each l tries every multiset split, the top split first, and
    one M per multiset of degree pairs: equal degrees are interchangeable,
    so these stand for every labelled C and every M, and an l is rejected
    only after all of them fail.
    """
    positive = sum(1 for x in degs if x > 0)
    for ell in range(floor, positive // 2 + 1):
        for cover in _cover_splits(degs, 2 * ell):
            for pairs in _pair_classes(degs, cover):
                g = _split_witness(degs, cover, pairs)
                if g is not None:
                    return ell, (g, Matching._trusted(frozenset(pairs), len(degs)))
    raise InternalConsistencyError(f"graphic sequence {degs} has no maximal matching")


def _cover_splits(degs: tuple[int, ...], size: int) -> Iterator[list[int]]:
    """One cover C of ``size`` positive-degree vertices per multiset of
    degrees, as ascending vertex ids: from each degree value, its first
    vertices. ``degs`` is arranged, so the first C is the top split."""
    values = sorted({x for x in degs if x > 0}, reverse=True)
    first = [degs.index(x) for x in values]
    count = [degs.count(x) for x in values]
    chosen: list[int] = []

    def rec(k: int, left: int) -> Iterator[list[int]]:
        if k == len(values):
            if left == 0:
                yield chosen
            return
        for t in range(min(count[k], left), -1, -1):
            chosen.extend(range(first[k], first[k] + t))
            yield from rec(k + 1, left - t)
            del chosen[len(chosen) - t:]

    return rec(0, size)


def _pair_classes(degs: tuple[int, ...], cover: list[int]) -> Iterator[list[Edge]]:
    """One perfect matching of ``cover`` per multiset of degree pairs.

    The first free vertex, whose degree a is the largest left, is paired
    with the first free vertex of each smaller or equal degree b; when the
    previous pair was (a, b') too, only b <= b' is tried, so each multiset
    is built once, as its pairs in non-increasing order."""
    free = [True] * len(cover)
    pairs: list[Edge] = []

    def rec(prev: tuple[int, int]) -> Iterator[list[Edge]]:
        i = next((i for i, f in enumerate(free) if f), None)
        if i is None:
            yield pairs
            return
        free[i] = False
        a = degs[cover[i]]
        tried = set()
        for j in range(i + 1, len(cover)):
            b = degs[cover[j]]
            if not free[j] or b in tried or (prev[0] == a and b > prev[1]):
                continue
            tried.add(b)
            free[j] = False
            pairs.append((cover[i], cover[j]))
            yield from rec((a, b))
            pairs.pop()
            free[j] = True
        free[i] = True

    return rec((-1, -1))


def _split_witness(degs: tuple[int, ...], cover: Sequence[int], pairs: Sequence[Edge]) -> Optional[Graph]:
    """G = H + M for the first realization H of (d_C - 1, d_I) with no
    I x I pair and no pair of M = ``pairs`` (normalized edges), or None
    when there is none.

    I goes first in the kernel's order: an I vertex may join only C, so a
    split whose I cannot be absorbed dies at its first vertices."""
    n = len(degs)
    in_cover = [False] * n
    for v in cover:
        in_cover[v] = True
    order = [v for v in range(n) if not in_cover[v]] + list(cover)
    pos = {v: k for k, v in enumerate(order)}
    mate = [-1] * n
    for u, v in pairs:
        mate[pos[u]] = pos[v]
        mate[pos[v]] = pos[u]
    r = n - len(cover)
    later = [range(r, n)] * r + [[j for j in range(k + 1, n) if j != mate[k]] for k in range(r, n)]
    residual = [degs[v] - 1 if in_cover[v] else degs[v] for v in order]
    found = next(_realize_in_host(residual, later), None)
    if found is None:
        return None
    edges = {(order[i], order[j]) if order[i] < order[j] else (order[j], order[i]) for i, j in found}
    edges.update(pairs)
    return Graph._trusted(n, frozenset(edges), None, degs)


def strong_extension_check(
    d: DegreeSequence,
    delta: int,
    *,
    max_n: int = SPLIT_MAX_N,
    max_degree_sum: Optional[int] = None,
) -> bool:
    """Does some realization have a matching of size delta/2 covering the
    delta largest degrees?

    Under ties, "largest delta degrees" is read as multiset equality of the
    covered degrees with the top delta entries of the sequence. Decided
    exactly by ``_extension_witness``; with no ``max_degree_sum`` only
    ``max_n`` caps the input.
    """
    if delta % 2 or delta < 2:
        raise ValidationError(f"delta={delta} must be a positive even integer")
    if delta > d.n:
        raise ValidationError(f"delta={delta} exceeds n={d.n}")
    require_graphic(d)
    _check_caps(d, max_n, max_degree_sum)
    return _extension_witness(d.degrees, delta) is not None


def _extension_witness(degs: tuple[int, ...], delta: int) -> Optional[Witness]:
    """(G, M): a realization G of the graphic ``degs`` and a matching M of G
    with delta/2 edges covering the delta largest degrees, or None. C is
    the first delta vertices: within a tie, any choice is as good."""
    if degs[delta - 1] == 0:  # C holds an isolated vertex: nothing covers it
        return None
    n = len(degs)
    for pairs in _pair_classes(degs, list(range(delta))):
        m = frozenset(pairs)
        later = [[j for j in range(i + 1, n) if (i, j) not in m] for i in range(n)]
        residual = [x - 1 if i < delta else x for i, x in enumerate(degs)]
        found = next(_realize_in_host(residual, later), None)
        if found is not None:
            # in index order each edge (i, j) has i < j: it is normalized
            return Graph._trusted(n, m.union(found), None, degs), Matching(m, n)
    return None


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
    # (G, M): a realization of the sequence and a maximal matching of it
    # with nu_bar_d edges; not part of the row's value
    witness: Optional[Witness] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.nu_bar_d < self.ell_star or self.nu_bar_d < self.k_star:
            raise InternalConsistencyError(
                f"proven lower bound exceeded nu_bar on {self.sequence}: "
                f"nu_bar={self.nu_bar_d}, ell*={self.ell_star}, k*={self.k_star}"
            )


def conjecture_scan(n_max: int, *, max_n: int = DEFAULT_MAX_N) -> list[ConjectureRow]:
    """Tabulate nu_bar(d) against ell* for every graphic sequence with n <= n_max.

    Equality is recorded, never asserted: whether it always holds is open.
    Each row carries the witness of its nu_bar, a realization and a maximal
    matching of it with that many edges.
    Only ``n_max`` is capped: every row has n <= n_max, so the rows need
    no cap check of their own.
    """
    if n_max > max_n:
        raise CapExceededError(f"n_max={n_max} exceeds enumeration cap {max_n}")
    rows = []
    for d in all_graphic_sequences(n_max):
        # all_graphic_sequences yields graphic sequences without zero entries
        ell = _gale_ryser_bound(d.degrees)
        ks = _maximality_bound(d.degrees)
        nb, witness = _nu_bar(d.degrees, max(ell, ks))
        rows.append(ConjectureRow(d, nb, ell, ks, nb == ell, witness))
    return rows


def rows_to_csv(rows: list[ConjectureRow]) -> str:
    """Serialize scan rows; semicolon-separated since sequences contain commas."""
    lines = ["sequence;nu_bar;ell_star;k_star;equal"]
    for r in rows:
        lines.append(
            f"{r.sequence.to_text()};{r.nu_bar_d};{r.ell_star};{r.k_star};{str(r.equal).lower()}"
        )
    return "\n".join(lines) + "\n"
