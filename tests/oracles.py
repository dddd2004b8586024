"""Slow oracles that only the tests run.

The package answers each question below by a fast kernel; these answer it
the slow way, so the tests can check the kernel against them:
``max_matching_exhaustive`` against the blossom ``max_matching``, and
``blossom_oracle``, the blossom kernel as it was before its searches were
bounded by their alternating trees, against ``max_matching`` and
``_ranked_blossom`` edge for edge (``tests/test_scale.py`` runs it on
grown graphs too);
``nu_star_brute`` against the closed form ``nu_star_formula`` and
``delta_star``; ``nu_star_scan``, the closed form (``closed_form_holds``)
tried at every size from the top down, against the galloping
``_nu_star_formula``;
``realize_output``, the text of ``sorted(realize_hh(d).edges)``, against
``degmatch realize``, which prints from the Havel-Hakimi rows; and the
forms the run-form sequence kernels replaced, kept as they were:
``eg_first_violation_walk``, the Erdos-Gallai pointer walked one entry at
a time over the flat sequence, against ``_eg_first_violation`` on the run
form; ``extension_feasible_sorted`` and ``delta_star_sorted``, which sort
the reduced sequence at every probe, against ``_reduced_graphic`` and
``_delta_star``; and the linear scans ``maximality_scan`` and
``matching_lower_scan`` against the bisections ``_k_star`` and
``_matching_lower_bound``.

The package has no position-based sequence operations; the tests keep
the ones they need here. ``SupportSet`` and ``left_shift_leq`` are the
vocabulary of the left-shift lemma tests, and ``augment``, the sequence
with one new entry, is what ``extension_feasible`` is checked against.
``_extension_witness`` is the paper's first theorem as a search: d
extends by a new even degree delta exactly when some realization has a
matching of delta/2 edges covering the delta largest degrees, and the
search looks for that realization and matching with the package's split
fold, so ``extension_feasible`` is checked against it.
``check_witness`` and ``check_extension_witness`` re-check a split
search's (G, M) witness from its edge sets alone; the scan and
first-theorem checks at scale in ``tests/test_scale.py`` run them too.

``FAMILY_LOOPS`` builds each graph family by loops over its vertices and
the validating ``Graph`` constructor, against the builders, which make
normalized edges by rule and trust them; ``edge_list_text_by_adjacency``
writes the edge-list text from the sorted adjacency, filtered to the
larger neighbours, against ``Graph.to_edge_list_text``, which writes it
from the edges.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Optional

from degmatch import enumeration
from degmatch.constants import DEFAULT_MAX_DEGREE_SUM, DEFAULT_MAX_N
from degmatch.enumeration import Witness, enumerate_realizations
from degmatch.errors import CapExceededError, InternalConsistencyError, ValidationError
from degmatch.graphicality import _corrected_holds, _small_k_holds, realize_hh, require_graphic
from degmatch.graphs import Edge, Graph, Matching, max_matching
from degmatch.sequences import DegreeSequence, make_sequence

EXHAUSTIVE_MATCHING_CAP = 10


def max_matching_exhaustive(g: Graph, cap: int = EXHAUSTIVE_MATCHING_CAP) -> Matching:
    """Naive exhaustive maximum matching; the independent oracle for tests.

    Branches on the lowest-indexed free vertex: leave it unmatched or pair
    it with each free later-indexed neighbor.
    """
    n = g.vertex_count
    if n > cap:
        raise CapExceededError(f"n={n} exceeds exhaustive matching cap {cap}")
    adj = g.adjacency()
    best: list[Edge] = []
    chosen: list[Edge] = []
    status = [False] * n  # matched flag

    def rec(v: int) -> None:
        nonlocal best
        while v < n and status[v]:
            v += 1
        if v >= n:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        free = sum(1 for i in range(v, n) if not status[i])
        if len(chosen) + free // 2 <= len(best):
            return
        # v stays unmatched
        rec(v + 1)
        # v matched to a later free neighbor
        status[v] = True
        for u in adj[v]:
            if u > v and not status[u]:
                status[u] = True
                chosen.append((v, u))
                rec(v + 1)
                chosen.pop()
                status[u] = False
        status[v] = False

    rec(0)
    return Matching(frozenset(best), n)


def blossom_oracle(g, rank=None):
    """The rank-ordered blossom kernel as it was before its searches were
    bounded by their alternating trees: every search resets all n vertices
    and every contraction scans all n vertices in rank order."""
    n = g.vertex_count
    adj = g.adjacency()
    order = range(n)
    if rank is not None:
        order = sorted(order, key=rank.__getitem__)
        adj = [sorted(nbrs, key=rank.__getitem__) for nbrs in adj]
    match = [-1] * n
    # greedy warm start, deterministic
    for v in order:
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    p = [-1] * n
    base = list(range(n))
    used = [False] * n

    def lca(a, b):
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = p[match[b]]

    def mark_path(v, b, child, in_blossom):
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def try_augment(root):
        for i in range(n):
            used[i] = False
            p[i] = -1
            base[i] = i
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    cur_base = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, cur_base, to, in_blossom)
                    mark_path(to, cur_base, v, in_blossom)
                    for i in order:
                        if in_blossom[base[i]]:
                            base[i] = cur_base
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv = p[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in order:
        if match[v] == -1:
            try_augment(v)
    return frozenset((v, match[v]) for v in range(n) if match[v] > v)


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


def closed_form_holds(degs: tuple[int, ...], mu: int, prefix: Optional[list[int]] = None) -> bool:
    """Check the inequality family certifying a matching of size ``mu``.

    ``degs`` must be arranged, positive, with 2*mu <= len(degs). Two parts:
    the small-k family for 1 <= k < mu, and a single corrected inequality.
    ``prefix``, the prefix sums of ``degs``, is built here when not given.
    """
    if prefix is None:
        prefix = [0, *accumulate(degs)]
    return _small_k_holds(degs, prefix, mu) and _corrected_holds(degs, prefix, mu)


def nu_star_scan(degs: tuple[int, ...]) -> int:
    """The closed form by a descending scan of candidate sizes: the first size
    whose inequality family holds wins. ``degs`` is non-empty and positive."""
    prefix = [0, *accumulate(degs)]
    for mu in range(len(degs) // 2, 0, -1):
        if closed_form_holds(degs, mu, prefix):
            return mu
    return 0


def realize_output(d: DegreeSequence, fmt: str) -> str:
    """What ``degmatch realize --format fmt`` prints for a graphic ``d``,
    formatted from ``sorted(realize_hh(d).edges)``."""
    g = realize_hh(d)
    edges = sorted(g.edges)
    if fmt == "json":
        record = {"n": g.vertex_count, "m": g.m, "edges": ";".join(f"{u}-{v}" for u, v in edges)}
        return json.dumps(record) + "\n"
    if fmt == "csv":
        return "\n".join(["u,v"] + [f"{u},{v}" for u, v in edges]) + "\n"
    return "\n".join([f"n {g.vertex_count}"] + [f"{u} {v}" for u, v in edges]) + "\n"


def eg_first_violation_walk(degs: tuple[int, ...], check_all_k: bool = False) -> Optional[int]:
    """Smallest checked k violating the Erdos-Gallai inequality, or None.

    Assumes ``degs`` arranged non-increasing with non-negative entries.
    By default only the indices that can matter are checked: k <= s with
    d_k > d_{k+1}, plus k = s, where s = max{i : d_i >= i}.
    """
    n = len(degs)
    if check_all_k:
        ks = list(range(1, n + 1))
    else:
        s = 0
        while s < n and degs[s] > s:
            s += 1
        if s == 0:  # all entries zero
            return None
        ks = [k for k in range(1, s + 1) if k == s or degs[k - 1] > degs[k]]
    # _capped_sum with c = k, inline: w = #{d_i >= k} only falls as k grows, so no bisect per k
    prefix = [0, *accumulate(degs)]
    w = n
    for k in ks:
        while w and degs[w - 1] < k:
            w -= 1
        p = max(w, k)
        if prefix[k] > k * (k - 1) + k * (p - k) + prefix[n] - prefix[p]:
            return k
    return None


def extension_feasible_sorted(degs: tuple[int, ...], delta: int) -> bool:
    """``delta`` is even and in [1, len(degs)]."""
    if degs[delta - 1] < 1:
        # fewer than delta positive entries: the reduced sequence would go
        # negative, so the augmented sequence cannot be graphic
        return False
    # the reduced sum is even: degs is graphic and delta is even
    reduced = [x - 1 for x in degs[:delta]] + list(degs[delta:])
    return eg_first_violation_walk(tuple(sorted(reduced, reverse=True))) is None


def delta_star_sorted(degs: tuple[int, ...]) -> int:
    """``degs`` has at least one positive entry."""
    lo, hi = 1, len(degs) // 2
    best = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        if extension_feasible_sorted(degs, 2 * mid):
            best = mid
            lo = mid + 1
        else:
            hi = mid - 1
    if best == 0:
        raise InternalConsistencyError("no feasible extension for a non-zero graphic sequence")
    return 2 * best


def maximality_scan(degs: tuple[int, ...]) -> int:
    n = len(degs)
    prefix = [0, *accumulate(degs)]
    m = prefix[n] // 2
    for k in range(0, n + 1):
        if prefix[min(2 * k, n)] - m - k >= 0:
            return k
    raise InternalConsistencyError("maximality bound scan ran past n")


def matching_lower_scan(degs: tuple[int, ...]) -> int:
    n = len(degs)
    prefix = [0, *accumulate(degs)]
    total = prefix[n]
    for k in range(0, n + 1):
        lhs = 2 * prefix[min(k, n)] + (prefix[min(2 * k, n)] - prefix[min(k, n)])
        if lhs >= total:
            return k
    raise InternalConsistencyError("matching lower bound scan ran past n")


@dataclass(frozen=True)
class SupportSet:
    """A strictly increasing set of 1-based positions."""

    indices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        idx = tuple(self.indices)
        object.__setattr__(self, "indices", idx)
        for i, x in enumerate(idx):
            if isinstance(x, bool) or not isinstance(x, int) or x < 1:
                raise ValidationError(f"support index at position {i} must be a positive integer: {x!r}")
        if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
            raise ValidationError("support indices must be strictly increasing")

    @classmethod
    def of(cls, indices: Iterable[int]) -> "SupportSet":
        return cls(tuple(sorted(set(indices))))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)


def left_shift_leq(a: SupportSet, b: SupportSet) -> bool:
    """True iff ``a`` can be obtained from ``b`` by shifting positions left.

    Positionwise comparison of equal-size index sets: |a| == |b| and
    a[j] <= b[j] for every j. Size mismatch compares as False.
    """
    if len(a) != len(b):
        return False
    return all(x <= y for x, y in zip(a.indices, b.indices))


def augment(d: DegreeSequence, delta: int) -> DegreeSequence:
    """Append a new degree ``delta`` and re-arrange."""
    if delta < 1:
        raise ValidationError(f"delta={delta} must be at least 1")
    if delta > d.n:
        raise ValidationError(f"delta={delta} exceeds n={d.n}")
    return make_sequence(list(d.degrees) + [delta])


def check_witness(degrees, size, witness):
    """Independent checker for a (G, M) witness, reading only edge sets:
    G's degrees are ``degrees``, M is a matching of G with ``size`` edges,
    and every edge of G meets M."""
    g, m = witness
    n = len(degrees)
    assert g.vertex_count == m.host_vertex_count == n
    deg = [0] * n
    for u, v in g.edges:
        assert 0 <= u < v < n
        deg[u] += 1
        deg[v] += 1
    assert deg == list(degrees)
    covered = set()
    for u, v in m.edges:
        assert (min(u, v), max(u, v)) in g.edges
        assert u not in covered and v not in covered
        covered.update((u, v))
    assert len(m.edges) == size
    assert all(u in covered or v in covered for u, v in g.edges)


def _extension_witness(degs: tuple[int, ...], delta: int) -> Optional[Witness]:
    """(G, M): a realization G of the graphic ``degs`` and a matching M of G
    with delta/2 edges covering the delta largest degrees, or None. C is
    the first delta vertices: within a tie, any choice is as good."""
    if degs[delta - 1] == 0:  # C holds an isolated vertex: nothing covers it
        return None
    n = len(degs)
    # _completions restores the residual vector on return
    residual = [x - 1 if i < delta else x for i, x in enumerate(degs)]
    for pairs in enumeration._pair_classes(degs, tuple(range(delta))):
        mate = [-1] * n
        for u, v in pairs:
            mate[u] = v
            mate[v] = u
        later = [[j for j in range(i + 1, n) if j != mate[i]] for i in range(n)]
        found = enumeration._completions(residual, later, first=True)
        if found:
            # in index order each edge (i, j) has i < j, and so has each
            # pair: both are normalized, and the pairs are disjoint
            m = frozenset(pairs)
            return Graph._trusted(n, m.union(found[0])), Matching._trusted(m, n)
    return None


def check_extension_witness(degrees, delta, witness):
    """Independent checker for a strong-extension witness (G, M), reading
    only edge sets: G's degrees are ``degrees``, M is delta/2 disjoint edges
    of G, and the degrees M covers are the delta largest, as a multiset."""
    g, m = witness
    n = len(degrees)
    assert g.vertex_count == m.host_vertex_count == n
    deg = [0] * n
    for u, v in g.edges:
        assert 0 <= u < v < n
        deg[u] += 1
        deg[v] += 1
    assert deg == list(degrees)
    covered = [x for u, v in m.edges for x in (u, v)]
    assert all((min(u, v), max(u, v)) in g.edges for u, v in m.edges)
    assert len(m.edges) == delta // 2 and len(set(covered)) == delta
    assert sorted(degrees[v] for v in covered) == sorted(degrees)[len(degrees) - delta:]


def half_graph_loops(n: int) -> Graph:
    """The half graph by its defining predicate on labels 1..n, tested on
    every pair."""
    half = n // 2
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i <= half and j <= half) or (i + half <= j):
                edges.append((i - 1, j - 1))
    return Graph(n, frozenset(edges))


def windmill_loops(t: int, l: int) -> Graph:
    edges = []
    for b in range(t):
        blade = [0] + [1 + b * (l - 1) + i for i in range(l - 1)]
        for a in range(len(blade)):
            for c in range(a + 1, len(blade)):
                edges.append((blade[a], blade[c]))
    return Graph(t * (l - 1) + 1, frozenset(edges))


def disjoint_cliques_loops(k: int, l: int) -> Graph:
    edges = []
    for c in range(k):
        base = c * l
        for i in range(l):
            for j in range(i + 1, l):
                edges.append((base + i, base + j))
    return Graph(k * l, frozenset(edges))


def regular_circulant_loops(n: int, r: int) -> Graph:
    edges = set()
    for i in range(n):
        for off in range(1, r // 2 + 1):
            edges.add((i, (i + off) % n))
        if r % 2:
            edges.add((i, (i + n // 2) % n))
    return Graph(n, frozenset(edges))


# each family kind built by loops over its vertices, through the validating
# constructor, which normalizes the edges: what the builders, which make
# normalized edges by rule and build trusted graphs, are checked against
FAMILY_LOOPS = {
    "half-graph": half_graph_loops,
    "windmill": windmill_loops,
    "cycle": lambda n: Graph(n, frozenset((i, (i + 1) % n) for i in range(n))),
    "path": lambda n: Graph(n, frozenset((i, i + 1) for i in range(n - 1))),
    "complete-bipartite": lambda a, b: Graph(a + b, frozenset((i, a + j) for i in range(a) for j in range(b))),
    "disjoint-triangles": lambda k: disjoint_cliques_loops(k, 3),
    "disjoint-cliques": disjoint_cliques_loops,
    "regular-circulant": regular_circulant_loops,
}


def edge_list_text_by_adjacency(g: Graph) -> str:
    """The edge-list text of ``g``, written from its sorted adjacency with
    each edge kept at its smaller end: what ``Graph.to_edge_list_text``
    writes from the edges alone."""
    lines = [f"{u} {v}" for u, nbrs in enumerate(g.adjacency()) for v in nbrs if v > u]
    return "\n".join([f"n {g.vertex_count}", *lines]) + "\n"
