"""Exhaustive oracles over all labelled realizations of a degree sequence.

These functions are the ground truth the closed forms and bounds are
measured against. ``enumerate_realizations`` walks every labelled
realization (vertex i has degree d_i exactly) with no isomorphism
reduction. There is one walk, ``_fold_states``: each vertex, in index
order, takes exactly its residual demand from the later vertices the host
lets it join, so every leaf is a realization inside that host and a dead
branch ends at the first vertex whose demand exceeds its remaining
candidates. Every vertex before the one whose turn it is has residual 0
and the host is fixed for the call, so the residual vector alone decides
the subtree below it: the fold keeps one value per state and tries each
state's combinations once however many paths reach it, on an explicit
stack, so a deep walk costs no Python frames.

- ``enumerate_realizations`` and ``count_realizations`` fold K_n.
  ``_completions`` keeps, per state, the list of edge tuples that complete
  it; the enumeration yields one graph per completion of the root state,
  and the count keeps one number per state and builds no edge list.
  Erdos-Gallai runs once, at entry.
- The split search below folds a restricted host and wants one
  realization: ``_completions`` with ``first`` stops each state at its
  first completion, which is the first leaf of the full walk, so a state
  worth nothing is a subtree with no leaf, walked once.

nu_bar, the minimum maximal matching over all realizations, is decided by
a split search instead of a walk. d splits into C and I, M is a perfect
matching on C, and a realization H of (d_C - 1, d_I) inside K_n - M with
no I x I pair gives G = H + M, in which M is maximal: the vertices it
misses are independent. G and M are a witness anyone can re-check. Equal
degrees are interchangeable, so one labelled C per multiset split and one
M per multiset of degree pairs stand for all. l runs upward from the
proven floor ell*, which is at least k*, and each l tries every multiset
split with |C| = 2l, the top split first; an l is rejected only after all
fail, so the answer is exact without the unproved lemma that the top
split suffices. ``_nu_bar`` computes the floor itself and returns nu_bar
with ell*, k* and the witness, so ``nu_bar_sequence`` and each scan row
make one call.

The paper's first theorem, whether d extends by a new even degree, is
answered by ``graphicality.extension_feasible``; the tests check it
against a split search of the same form.

The splits and the matchings come from flat generators: ``_cover_splits``
walks the vectors of how many vertices each degree value gives, and
``_pair_classes`` pairs the cover's first vertex and recurses on the tuple
left. Each yield is a new tuple and no function refers to itself through a
closure, so a search leaves no reference cycle for the cyclic collector.

The realization walks these replaced are kept only as test oracles. Caps
keep accidental big inputs from hanging the process; they are checked once
at the public edge. ``DEFAULT_MAX_N`` is the realization walk's vertex cap,
``SPLIT_MAX_N`` that of the split search and of ``conjecture_scan``'s
``n_max``; a ``max_degree_sum`` of None means no degree-sum cap.

Validation contract: public functions validate their input once, through
``graphicality.require_graphic``; ``_nu_bar`` and the bound kernels that
``conjecture_scan`` calls take a graphic sequence and never re-validate or
re-check caps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, combinations, combinations_with_replacement, product
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from . import _EXPORTS
from .bounds import _gale_ryser_bound, _k_star
from .constants import DEFAULT_MAX_DEGREE_SUM, DEFAULT_MAX_N
from .errors import CapExceededError, InternalConsistencyError, _refused
from .graphicality import is_graphic_eg, require_graphic
from .graphs import Edge, Graph, Matching
from .sequences import DegreeSequence

__all__ = ("DEFAULT_MAX_N", "DEFAULT_MAX_DEGREE_SUM", "SPLIT_MAX_N", *_EXPORTS["enumeration"])

# every row with n = 10 takes about 4 s in all, the slowest 21-28 ms; the
# n = 11 rows take about 35 s, the slowest 0.47 s
SPLIT_MAX_N = 10


def _check_caps(d: DegreeSequence, max_n: int, max_degree_sum: Optional[int]) -> None:
    if d.n > max_n:
        raise _refused("n={} exceeds enumeration cap {}", d.n, max_n, error=CapExceededError)
    if max_degree_sum is not None and d.degree_sum > max_degree_sum:
        raise _refused(
            "degree sum {} exceeds enumeration cap {}", d.degree_sum, max_degree_sum, error=CapExceededError
        )


State = tuple[int, ...]  # a residual vector, 0 before the vertex whose turn it is
Completion = tuple[Edge, ...]
_T = TypeVar("_T")


def _fold_states(
    residual: list[int],
    later: Sequence[Sequence[int]],
    leaf: _T,
    empty: Callable[[], _T],
    add: Callable[[_T, int, tuple[int, ...], _T], _T],
    first: bool = False,
) -> _T:
    """The value of the state ``residual`` inside a host, folded over the
    walk below it. ``later[v]`` lists, in increasing order, the vertices
    after v that v may join; K_n is ``range(v + 1, n)``.

    A state with no demand left is worth ``leaf``. Otherwise its first
    vertex v with positive demand takes it, one combination of ``later[v]``
    with positive residual at a time in ``combinations`` order, and the
    state is worth ``empty()`` passed through ``add(value, v, combination,
    worth of the state left)`` for each combination whose state left has a
    true worth. A state whose vertex v has fewer candidates than its demand
    is worth ``empty()`` with no combination tried, and with ``first`` a
    state stops at its first combination that gives it a true worth. The
    state alone decides its worth, so ``memo`` holds it per state and each
    state's combinations are tried once per call. The walk keeps an
    explicit stack, one entry per state being folded, so its depth costs no
    Python frames; ``residual`` is restored on return.
    """
    n = len(residual)
    i = 0
    memo: dict[State, _T] = {}
    # [vertex, its demand, the state on arrival, its combinations, the one
    # taken, the value so far]
    stack: list[list] = []
    while True:
        while i < n and not residual[i]:
            i += 1
        if i == n:
            worth = leaf
        else:
            state = tuple(residual)
            worth = memo.get(state)
            if worth is None:
                need = residual[i]
                cands = [j for j in later[i] if residual[j]]
                if need > len(cands):
                    worth = memo[state] = empty()
                else:
                    residual[i] = 0
                    stack.append([i, need, state, combinations(cands, need), (), empty()])
        # hand the worth found to the top entry and take its next combination
        while stack:
            top = stack[-1]
            v, need, state, choices, combo, value = top
            for j in combo:
                residual[j] += 1
            if worth:
                value = top[5] = add(value, v, combo, worth)
            combo = top[4] = None if first and value else next(choices, None)
            if combo is not None:
                for j in combo:
                    residual[j] -= 1
                i = v + 1
                break
            stack.pop()
            residual[v] = need
            worth = memo[state] = value
        else:
            return worth


def _add_completions(
    found: list[Completion], v: int, combo: tuple[int, ...], tails: list[Completion]
) -> list[Completion]:
    """Append to ``found`` one completion per tail: vertex v's edges to
    ``combo``, then the tail."""
    head = tuple([(v, j) for j in combo])
    found.extend([head + tail for tail in tails])
    return found


def _completions(residual: list[int], later: Sequence[Sequence[int]], first: bool = False) -> list[Completion]:
    """The edge tuples (i, j), i < j, that complete the state ``residual``
    inside the host ``later`` of ``_fold_states``: each is the first
    vertex's edges to one combination followed by one completion of the
    state they leave, in the order of the backtracking walk's leaves. With
    ``first`` only the first of them, if any."""
    # a state with no demand left has one completion, with no edges
    return _fold_states(residual, later, [()], list, _add_completions, first)


def enumerate_realizations(
    d: DegreeSequence,
    *,
    max_n: int = DEFAULT_MAX_N,
    max_degree_sum: int = DEFAULT_MAX_DEGREE_SUM,
) -> Iterator[Graph]:
    """Yield every labelled simple graph whose vertex-i degree equals d_i."""
    if not _walkable(d, max_n, max_degree_sum):
        return
    n, degrees = d.n, d.degrees
    later = [range(v + 1, n) for v in range(n)]
    for edges in _completions(list(degrees), later):
        # each pair (i, j), i < j, is chosen once: the edges are normalized
        yield Graph._trusted(n, frozenset(edges))


def count_realizations(
    d: DegreeSequence,
    *,
    max_n: int = DEFAULT_MAX_N,
    max_degree_sum: int = DEFAULT_MAX_DEGREE_SUM,
) -> int:
    """The number of labelled realizations of d, counted per residual state
    without building a graph or an edge list per realization."""
    if not _walkable(d, max_n, max_degree_sum):
        return 0
    later = [range(v + 1, d.n) for v in range(d.n)]
    return _fold_states(list(d.degrees), later, 1, int, lambda count, v, combo, below: count + below)


def _walkable(d: DegreeSequence, max_n: int, max_degree_sum: int) -> bool:
    """The caps check, then whether d has a realization to walk to.
    Erdos-Gallai runs once, at entry, so a non-graphic sequence is answered
    without a search."""
    _check_caps(d, max_n, max_degree_sum)
    return is_graphic_eg(d).is_graphic


def nu_bar_sequence(
    d: DegreeSequence,
    *,
    max_n: int = SPLIT_MAX_N,
    max_degree_sum: Optional[int] = None,
) -> int:
    """Minimum over realizations of the smallest maximal matching size.

    Decided by the split search of ``_nu_bar``, starting at the proven
    floor ell*, which is at least k*; the answer is the exhaustive one.
    With no ``max_degree_sum`` only ``max_n`` caps the input.
    """
    require_graphic(d)
    _check_caps(d, max_n, max_degree_sum)
    return _nu_bar(d.degrees)[0]


Witness = tuple[Graph, Matching]


def _nu_bar(degs: tuple[int, ...]) -> tuple[int, int, int, Witness]:
    """(nu_bar, ell*, k*, witness) for the graphic ``degs``, the witness a
    realization G and a maximal matching M of G with nu_bar edges.

    Some realization has a maximal matching of l edges exactly when a
    split of d into C (2l entries) and I admits a perfect matching M on C
    and a realization H of (d_C - 1, d_I) with no I x I pair and no pair of
    M; then G = H + M. l runs upward from the floor ell*, which is at least
    k* (the lemma (k*) of ``bounds._gale_ryser_bound``) and which no
    maximal matching of any realization goes under, so the first l with a
    witness is nu_bar. Each l tries every multiset split, the top split
    first, and one M per multiset of degree pairs: equal degrees are
    interchangeable, so these stand for every labelled C and every M, and
    an l is rejected only after all of them fail.
    """
    # degs is arranged, so its positive entries come first
    positive = degs[: sum(1 for x in degs if x > 0)]
    prefix = [0, *accumulate(positive)]
    k_star = _k_star(prefix)
    ell_star = _gale_ryser_bound(positive, prefix, k_star)
    for ell in range(ell_star, len(positive) // 2 + 1):
        for cover in _cover_splits(degs, 2 * ell):
            for pairs in _pair_classes(degs, cover):
                witness = _split_witness(degs, cover, pairs)
                if witness is not None:
                    return ell, ell_star, k_star, witness
    raise InternalConsistencyError(f"graphic sequence {degs} has no maximal matching")


def _cover_splits(degs: tuple[int, ...], size: int) -> Iterator[tuple[int, ...]]:
    """One cover C of ``size`` positive-degree vertices per multiset of
    degrees, as ascending vertex ids: from each degree value, its first
    vertices. A multiset is a vector of how many vertices each degree value
    gives, largest value first, and each count runs downward; ``degs`` is
    arranged, so the first C is the top split."""
    values = sorted({x for x in degs if x > 0}, reverse=True)
    first = [degs.index(x) for x in values]
    for takes in product(*[range(min(degs.count(x), size), -1, -1) for x in values]):
        if sum(takes) == size:
            yield tuple(v for f, t in zip(first, takes) for v in range(f, f + t))


def _pair_classes(
    degs: tuple[int, ...], cover: tuple[int, ...], prev: tuple[int, int] = (-1, -1)
) -> Iterator[tuple[Edge, ...]]:
    """One perfect matching of ``cover`` per multiset of degree pairs.

    ``cover[0]``, whose degree a is the largest left, is paired with the
    first vertex of each smaller or equal degree b; when the previous pair
    ``prev`` was (a, b') too, only b <= b' is tried, so each multiset is
    built once, as its pairs in non-increasing order."""
    if not cover:
        yield ()
        return
    u, a = cover[0], degs[cover[0]]
    tried = set()
    for j in range(1, len(cover)):
        b = degs[cover[j]]
        if b in tried or (prev[0] == a and b > prev[1]):
            continue
        tried.add(b)
        for rest in _pair_classes(degs, cover[1:j] + cover[j + 1 :], (a, b)):
            yield ((u, cover[j]), *rest)


def _split_witness(degs: tuple[int, ...], cover: Sequence[int], pairs: Sequence[Edge]) -> Optional[Witness]:
    """(G, M): M = ``pairs`` (normalized, disjoint edges) and G = H + M for
    the first realization H of (d_C - 1, d_I) with no I x I pair and no
    pair of M, or None when there is none.

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
    found = _completions(residual, later, first=True)
    if not found:
        return None
    m = frozenset(pairs)
    h = ((order[i], order[j]) if order[i] < order[j] else (order[j], order[i]) for i, j in found[0])
    return Graph._trusted(n, m.union(h)), Matching._trusted(m, n)


def all_graphic_sequences(n_max: int) -> Iterator[DegreeSequence]:
    """All arranged graphic sequences with positive entries and n <= n_max.

    Emitted in canonical order: by length, then lexicographically on the
    degree tuple.
    """
    for n in range(1, n_max + 1):
        found = []
        # drawn from a descending range, each combo is already arranged and positive
        for combo in combinations_with_replacement(range(n - 1, 0, -1), n):
            if sum(combo) % 2:
                continue
            d = DegreeSequence._trusted(combo)
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


def conjecture_scan(n_max: int) -> list[ConjectureRow]:
    """Tabulate nu_bar(d) against ell* for every graphic sequence with n <= n_max.

    Equality is recorded, never asserted: whether it always holds is open.
    Each row carries the witness of its nu_bar, a realization and a maximal
    matching of it with that many edges.
    Only ``n_max`` is capped, at ``SPLIT_MAX_N``: every row has
    n <= n_max, so the rows need no cap check of their own.
    """
    if n_max > SPLIT_MAX_N:
        raise _refused("n_max={} exceeds enumeration cap {}", n_max, SPLIT_MAX_N, error=CapExceededError)
    rows = []
    for d in all_graphic_sequences(n_max):
        nb, ell, ks, witness = _nu_bar(d.degrees)
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
