"""Labelled simple graphs and matching machinery.

Graphs are immutable: a vertex count plus a frozenset of normalized edges
(u, v) with u < v. Matchings carry their host vertex count so covered and
uncovered vertex sets are well defined. ``pinch`` copies the parent's
sorted neighbor lists and runs its arithmetic, ``_pinch_lists``, on them
in place, which is how growth pinches without building a graph per step;
``_graph_of`` builds a graph from such lists, kept as its adjacency.

Maximum matching is Edmonds' blossom algorithm: a greedy warm start, then
one breadth-first search per free vertex, each costing what its
alternating tree costs rather than O(n). A search that fails leaves a
Hungarian tree: no augmenting path can later pass through it, and the
only way into it from outside is through its inner vertices, which lead
to dead ends. So later searches skip its vertices, a free vertex whose
neighbours are all in such trees is not searched at all, and the loop
stops once fewer than two free vertices lie outside those trees, since an
augmenting path needs two. The result is the same matching, edge for
edge (the proof is in ``_index_order_blossom``).

Edge-list text format: one edge per line as two whitespace-separated
0-based integers, each edge once in either orientation; lines starting
with ``#`` are ignored; the first non-comment line may be
``n <vertex_count>`` to declare isolated vertices. A declared or implied
vertex count above ``EDGE_LIST_CAP`` is refused with ``CapExceededError``
before any per-vertex list is built.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from . import _EXPORTS
from .errors import CapExceededError, ValidationError, _refused

if TYPE_CHECKING:
    from .sequences import DegreeSequence

__all__ = ("Edge", *_EXPORTS["graphs"])

Edge = tuple[int, int]

MIN_MAXIMAL_CAP = 16
# the most vertices an edge-list text may declare or imply
EDGE_LIST_CAP = 10**6


def _normalize_edges(edges: Iterable[Sequence[int]], n: int) -> frozenset[Edge]:
    out = set()
    for e in edges:
        u, v = e
        if u == v:
            raise _refused("self-loop at vertex {}", u)
        if not (0 <= u < n and 0 <= v < n):
            raise _refused("edge ({}, {}) out of range for {} vertices", u, v, n)
        out.add((u, v) if u < v else (v, u))
    return frozenset(out)


def _first_shared(edges: Iterable[Edge]) -> Optional[Edge]:
    """The first edge, in the order given, that shares a vertex with an
    earlier one, or None when the edges are pairwise vertex-disjoint."""
    seen: set[int] = set()
    for e in edges:
        u, v = e
        if u in seen or v in seen:
            return e
        seen.add(u)
        seen.add(v)
    return None


def _edge_lines(rows: Sequence[Sequence[int]], sep: str) -> list[str]:
    """The edges as ``u<sep>v`` strings, row by row: ``rows[u]`` lists the
    neighbours v > u of vertex u, so sorted rows give the edges sorted."""
    names = [str(v) for v in range(len(rows))]
    # one comprehension that builds each row's prefix (u and sep) once takes
    # about half the time of a loop over the rows
    return [head + names[v] for u, row in enumerate(rows) for head in (names[u] + sep,) for v in row]


def _edge_list_text(rows: Sequence[Sequence[int]]) -> str:
    """The edge-list text format, from sorted rows as ``_edge_lines`` reads them."""
    return "\n".join([f"n {len(rows)}", *_edge_lines(rows, " ")]) + "\n"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: frozenset[Edge] = frozenset()

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValidationError("vertex_count must be non-negative")
        object.__setattr__(self, "edges", _normalize_edges(self.edges, self.vertex_count))

    @classmethod
    def _trusted(
        cls, vertex_count: int, edges: frozenset[Edge], adj: Optional[tuple[tuple[int, ...], ...]] = None
    ) -> "Graph":
        """A graph from normalized edges, and their sorted adjacency if
        given, with no validation. As on a validated graph, the adjacency
        is built on first use unless given, and the degrees are read off
        it on first use."""
        g = object.__new__(cls)
        # plain stores into the instance dict of vertex_count, edges and
        # _adj when given, in the order the dataclass and the cached
        # properties use, keep the dict's keys shared; they pay for
        # themselves on the scan workload, where trusted graphs with no
        # instance dict saved 0.7-1.2 MB of peak RSS but cost 4-6% of its
        # queries per second
        fields = g.__dict__
        fields["vertex_count"] = vertex_count
        fields["edges"] = edges
        if adj is not None:
            fields["_adj"] = adj
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _adj(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(lst)) for lst in adj)

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self._adj))

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    @property
    def max_degree(self) -> int:
        return max(self._degrees, default=0)

    def degree_sequence(self) -> DegreeSequence:
        from .sequences import DegreeSequence

        # degrees are list lengths: non-negative ints, with nothing to check
        return DegreeSequence._trusted(tuple(sorted(self._degrees, reverse=True)))

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuples, built once per graph."""
        return self._adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.vertex_count:
            raise _refused("vertex {} out of range", v)
        return self._adj[v]

    def is_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def to_edge_list_text(self) -> str:
        # one row per vertex, filled from the edges and sorted on its own:
        # the adjacency is not built, and short sorts beat one of all edges
        rows: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            rows[u].append(v)
        for row in rows:
            row.sort()
        return _edge_list_text(rows)

    @staticmethod
    def from_edge_list_text(text: str) -> "Graph":
        declared = None
        pairs: set[Edge] = set()
        saw_data = False
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if not saw_data and parts[0] == "n":
                if len(parts) != 2:
                    raise _refused("malformed vertex-count line: {}", line)
                declared = int(parts[1])
                saw_data = True
                continue
            saw_data = True
            if len(parts) != 2:
                raise _refused("malformed edge line: {}", line)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise _refused("malformed edge line: {}", line) from None
            pair = (u, v) if u < v else (v, u)
            if pair in pairs:
                raise _refused("repeated edge {} {} at line {}", pair[0], pair[1], line)
            pairs.add(pair)
        if declared is None:
            declared = 1 + max((max(e) for e in pairs), default=-1)
        if declared > EDGE_LIST_CAP:
            raise _refused("vertex count {} exceeds edge-list cap {}", declared, EDGE_LIST_CAP, error=CapExceededError)
        return Graph(declared, frozenset(pairs))


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges of a host graph."""

    edges: frozenset[Edge] = frozenset()
    host_vertex_count: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "edges", _normalize_edges(self.edges, self.host_vertex_count)
        )
        clash = _first_shared(sorted(self.edges))
        if clash is not None:
            raise _refused("matching edges are not vertex-disjoint at ({}, {})", *clash)

    @classmethod
    def _trusted(cls, edges: frozenset[Edge], host_vertex_count: int) -> "Matching":
        """A matching from normalized, pairwise vertex-disjoint edges of a
        host on ``host_vertex_count`` vertices, with no validation: for the
        matching kernels' and the growth policies' own outputs."""
        m = object.__new__(cls)
        object.__setattr__(m, "edges", edges)
        object.__setattr__(m, "host_vertex_count", host_vertex_count)
        return m

    @property
    def size(self) -> int:
        return len(self.edges)

    @property
    def matched_vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)

    @property
    def unmatched_vertices(self) -> frozenset[int]:
        return frozenset(range(self.host_vertex_count)) - self.matched_vertices


def max_matching(g: Graph) -> Matching:
    """Maximum-cardinality matching, exact on every simple graph.

    Augmenting-path search with blossom contraction; deterministic because
    vertices and adjacency are visited in index order.
    """
    match = _index_order_blossom(g.adjacency())
    edges = frozenset((v, u) for v, u in enumerate(match) if u > v)
    return Matching._trusted(edges, g.vertex_count)


def _ranked_blossom(adj: Sequence[Sequence[int]], rank: Sequence[int]) -> frozenset[Edge]:
    """Edges of a maximum matching under a rank order, on sorted adjacency
    lists: ``rank``, a permutation of the vertices, gives vertex v position
    rank[v] in the warm start, the augment loop, the blossom collapse and
    every adjacency list, so this is the matching index-order blossom finds
    on the graph relabelled v -> rank[v], mapped back."""
    order = [0] * len(adj)
    for v, i in enumerate(rank):
        order[i] = v
    # new label i is appended to its neighbours' lists in increasing i, so
    # every relabelled list comes out sorted
    relabelled: list[list[int]] = [[] for _ in order]
    for i, v in enumerate(order):
        for u in adj[v]:
            relabelled[rank[u]].append(i)
    match = _index_order_blossom(relabelled)
    return frozenset(
        (order[i], order[j]) if order[i] < order[j] else (order[j], order[i])
        for i, j in enumerate(match)
        if j > i
    )


def _index_order_blossom(adj: Sequence[Sequence[int]]) -> list[int]:
    """Partner of each vertex (-1 if free) in a maximum matching: a greedy
    warm start, then one breadth-first augmenting-path search from each
    free vertex in index order (Edmonds 1965), until fewer than two free
    vertices are left outside the failed trees (f).

    A search costs what its alternating tree costs. Only the vertices the
    previous search touched are reset, and a blossom is contracted by
    moving the members of the bases it absorbs, newly outer ones queued
    in index order, instead of by a pass over all n vertices.

    A search that fails leaves ``match`` as it was. Its tree T is a
    Hungarian tree (Edmonds 1965): every vertex of T is marked dead and
    later searches skip dead neighbours. This returns the matching of the
    unpruned searches, edge for edge. Let D be the vertex set of T, O its
    outer and I its inner vertices.

    (a) At the failure every neighbour of an O-vertex is in D (each was
        scanned), and adjacent O-vertices share a base (else a blossom or
        an augmenting path would have formed). Every vertex of D except
        the root is matched inside D, and an I-vertex is in no blossom.
        No later augmentation touches D (by (c)), so this stays true.
    (b) So a live outer vertex can enter D only at an I-vertex, which is
        matched to the base of a T-blossom. An unpruned search then enters
        each T-blossom only through its base, whose ``p`` stays -1, since
        the rest of the blossom's neighbours are in it or in I.
    (c) Every blossom formed inside D therefore stays inside one T-blossom
        and absorbs no I-vertex, so no I-vertex becomes outer. Nothing
        inside D labels, re-bases or reorders a live vertex, the free
        root of T is adjacent to no live vertex, and no search augments
        into D: the live part of each search, its queue order included,
        is the same with D skipped. Nor does absorbing a blossom queue
        any of its members: every blossom was formed in the current search,
        which made all its members outer then, and a dead tree's blossoms
        are never absorbed.
    (d) A later failed tree of the unpruned searches is the pruned one
        plus the parts of earlier dead trees it walked, so the unpruned
        searches' failed trees cover exactly the pruned dead set.
    (e) A free root whose neighbours are all dead is marked dead without a
        search: the pruned search from it would skip every neighbour and
        fail with the one-vertex tree {root}. Its neighbours are in D, no
        later augmentation touches D, so no later search reaches the root
        either.
    (f) A failed tree holds one free vertex, its root, and (e) marks one
        free vertex, so ``lost`` counts the free vertices that are dead.
        Every free vertex below the current root is matched or dead, and
        stays so (by (c)), so n - 2 * matched - lost free vertices are
        live. An augmenting path joins two live free vertices, so with
        fewer than two there is none: every search left would fail and
        leave ``match`` as it is, and the loop stops. With lost = 0 this
        is the stop at n // 2 edges. ``matched`` and ``lost`` change only
        at a free root, so the stop is tested after the warm start, where
        lost = 0 and it spares building the search's lists, and before
        each free root.
    """
    n = len(adj)
    match = [-1] * n
    matched = 0
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    matched += 1
                    break
    if n - 2 * matched < 2:  # (f) with lost = 0
        return match
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    dead = [False] * n
    # members[b]: the vertices with base b once b heads a blossom, else None
    members: list[Optional[list[int]]] = [None] * n
    mark = [0] * n
    stamp = 0
    touched: list[int] = []
    lost = 0  # free vertices marked dead

    for root in range(n):
        if match[root] != -1:
            continue
        if n - 2 * matched - lost < 2:  # (f)
            break
        for u in adj[root]:
            if not dead[u]:
                break
        else:
            dead[root] = True  # (e)
            lost += 1
            continue
        for i in touched:
            used[i] = False
            p[i] = -1
            base[i] = i
            members[i] = None
        touched = [root]
        used[root] = True
        queue = [root]
        # the for loop also walks the vertices appended while it runs; it
        # breaks only on an augmentation
        for v in queue:
            mate = match[v]
            bv = base[v]
            for to in adj[v]:
                if to == mate or dead[to] or bv == base[to]:
                    continue
                w = match[to]
                if to == root or (w != -1 and p[w] != -1):
                    # lowest common base of v and to in the alternating tree
                    stamp += 1
                    a = v
                    while True:
                        a = base[a]
                        mark[a] = stamp
                        if match[a] == -1:
                            break
                        a = p[match[a]]
                    b = to
                    while True:
                        b = base[b]
                        if mark[b] == stamp:
                            break
                        b = p[match[b]]
                    cur_base = b
                    # re-parent both paths up to cur_base, collecting their bases
                    stamp += 1
                    absorbed = []
                    x, child = v, to
                    for _ in (0, 1):  # from v, then from to
                        while True:
                            y = base[x]
                            if y == cur_base:
                                break
                            if mark[y] != stamp:
                                mark[y] = stamp
                                absorbed.append(y)
                            mx = match[x]
                            y = base[mx]
                            if mark[y] != stamp:
                                mark[y] = stamp
                                absorbed.append(y)
                            p[x] = child
                            child = mx
                            x = p[mx]
                        x, child = to, v
                    # cur_base heads an outer blossom, so it is never absorbed
                    merged = members[cur_base]
                    if merged is None:
                        merged = members[cur_base] = [cur_base]
                    fresh = []
                    for y in absorbed:
                        ys = members[y]
                        if ys is None:
                            base[y] = cur_base
                            merged.append(y)
                            if not used[y]:
                                fresh.append(y)
                        else:  # its members are all outer already (c)
                            for i in ys:
                                base[i] = cur_base
                            merged.extend(ys)
                    if fresh:
                        fresh.sort()
                        for i in fresh:
                            used[i] = True
                        queue.extend(fresh)
                    bv = cur_base  # v now lies in the new blossom
                elif p[to] == -1:
                    p[to] = v
                    touched.append(to)
                    if w == -1:
                        u = to
                        while u != -1:
                            pv = p[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        break
                    used[w] = True
                    touched.append(w)
                    queue.append(w)
            else:
                continue  # no augmenting path through v
            break  # augmented
        else:
            # a Hungarian tree: no later search can use its vertices, so they
            # are not reset either, and their labels are never read again
            for i in touched:
                dead[i] = True
            touched = []
            lost += 1
            continue
        matched += 1
    return match


def _greedy_matching(n: int, edges: Iterable[tuple[int, int, int]], size: Optional[int] = None) -> list[Edge]:
    """Take each edge, in the given order, of a graph on n vertices whose
    endpoints are both free; stop once ``size`` edges are taken. An edge is
    a triple (key, u, v) whose key is not read, so the max-degree policy's
    ranked edges are walked as they are, without a pair built for each."""
    if size == 0:
        return []
    matched = [False] * n
    chosen = []
    for _, u, v in edges:
        if not matched[u] and not matched[v]:
            chosen.append((u, v))
            if len(chosen) == size:
                break
            matched[u] = matched[v] = True
    return chosen


def greedy_maximal_matching(g: Graph, rng_seed: int = 0) -> Matching:
    """Randomized greedy maximal matching, reproducible from the seed."""
    rng = random.Random(rng_seed)
    edges = [(0, u, v) for u, v in sorted(g.edges)]
    rng.shuffle(edges)
    return Matching._trusted(frozenset(_greedy_matching(g.vertex_count, edges)), g.vertex_count)


def min_maximal_matching(g: Graph) -> Matching:
    """Smallest maximal matching, by exhaustive branching.

    The greedy maximal matching seeds the size bound. At the lowest-indexed
    vertex u that still has a free neighbor, every maximal matching either
    pairs u with one of those neighbors or leaves u unmatched forever; both
    branches are explored, cut at the best size found so far, and the seed
    stands when no smaller maximal matching exists.
    """
    n = g.vertex_count
    if n > MIN_MAXIMAL_CAP:
        raise _refused(
            "instance too large for exact minimum maximal matching (n={} > {})", n, MIN_MAXIMAL_CAP,
            error=CapExceededError,
        )
    seed = greedy_maximal_matching(g, 0)
    best = _smaller_maximal(g.adjacency(), sorted(g.edges), [0] * n, [], seed.size)
    return seed if best is None else Matching._trusted(frozenset(best), n)


def _smaller_maximal(
    adj: Sequence[Sequence[int]], edges: list[Edge], status: list[int], chosen: list[Edge], bound: int
) -> Optional[list[Edge]]:
    """The sorted edges of the smallest maximal matching with fewer than
    ``bound`` edges that extends ``chosen``, the first found of that size,
    or None. ``status[v]`` is 0 for a free vertex, 1 for a matched one and
    2 for one left unmatched for good; both lists are restored on return.
    The state is passed as arguments, not held by a closure, so the search
    leaves no reference cycle."""
    if len(chosen) >= bound:
        return None
    u = -1
    for i in range(len(adj)):
        if status[i] == 0 and any(status[j] == 0 for j in adj[i]):
            u = i
            break
    if u == -1:
        if all(status[a] == 1 or status[b] == 1 for a, b in edges):
            return sorted(chosen)
        return None
    best = None
    status[u] = 1
    for y in adj[u]:
        if status[y] == 0:
            status[y] = 1
            chosen.append((u, y) if u < y else (y, u))
            found = _smaller_maximal(adj, edges, status, chosen, bound)
            chosen.pop()
            status[y] = 0
            if found is not None:
                best, bound = found, len(found)
    status[u] = 0
    if all(status[j] != 2 for j in adj[u]):
        status[u] = 2
        found = _smaller_maximal(adj, edges, status, chosen, bound)
        status[u] = 0
        if found is not None:
            best = found
    return best


def pinch(g: Graph, m: Matching) -> Graph:
    """Replace a matching by a new vertex adjacent to all its endpoints.

    The old vertices keep their degrees; the new vertex (id = old count)
    gets degree 2|M|.
    """
    if m.host_vertex_count != g.vertex_count:
        raise _refused("matching host size {} does not match graph size {}", m.host_vertex_count, g.vertex_count)
    if not m.edges <= g.edges:
        raise ValidationError("matching is not a sub-matching of the graph")
    if not m.edges:
        warnings.warn("pinching an empty matching only adds an isolated vertex", stacklevel=2)
    adj = [list(nbrs) for nbrs in g.adjacency()]
    _pinch_lists(adj, m.edges)
    return _graph_of(adj)


def _pinch_lists(adj: list[list[int]], edges: Iterable[Edge]) -> None:
    """Pinch a matching of the graph with sorted neighbor lists ``adj`` in
    place. Each endpoint drops its partner and gains the new vertex, whose
    id is the largest, at the end, so every list stays sorted and keeps its
    length: the old degrees do not change."""
    v_new = len(adj)
    star: list[int] = []
    for u, v in edges:
        adj[u].remove(v)
        adj[u].append(v_new)
        adj[v].remove(u)
        adj[v].append(v_new)
        star += (u, v)
    star.sort()
    adj.append(star)


def _graph_of(adj: list[list[int]]) -> Graph:
    """The graph with sorted neighbor lists ``adj``."""
    edges = frozenset((u, v) for u, nbrs in enumerate(adj) for v in nbrs if v > u)
    return Graph._trusted(len(adj), edges, tuple(map(tuple, adj)))


def verify_matching(g: Graph, m: Matching, require_maximal: bool = False) -> bool:
    """Check containment, disjointness, and (optionally) maximality."""
    if m.host_vertex_count != g.vertex_count:
        return False
    if not m.edges <= g.edges or _first_shared(m.edges) is not None:
        return False
    if require_maximal:
        covered = m.matched_vertices
        return all(u in covered or v in covered for u, v in g.edges)
    return True
