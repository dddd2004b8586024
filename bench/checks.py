"""Independent answer checks for the benchmark.

Each oracle here is written from the definitions, not from the code under
test: Erdős–Gallai and Havel–Hakimi on plain lists, a greedy maximal
matching, and a replay of degree-preserving growth on plain edge sets. A
check raises ``WrongAnswer`` when the program's answer is wrong.
"""

from __future__ import annotations

import hashlib
from itertools import accumulate


class WrongAnswer(AssertionError):
    """The program returned an answer that failed a check."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def eg_graphic(degs) -> bool:
    """Parity and Erdős–Gallai at every k, in O(n log n) with prefix sums."""
    d = sorted(degs, reverse=True)
    return sum(d) % 2 == 0 and eg_first_violation(d) is None


def eg_first_violation(d_desc) -> int | None:
    """Smallest k (1-based) at which the EG inequality fails, or None."""
    n = len(d_desc)
    prefix = [0, *accumulate(d_desc)]
    w = n  # number of entries >= k, non-increasing as k grows
    for k in range(1, n + 1):
        while w and d_desc[w - 1] < k:
            w -= 1
        if w <= k:
            tail = prefix[n] - prefix[k]
        else:
            tail = k * (w - k) + prefix[n] - prefix[w]
        if prefix[k] > k * (k - 1) + tail:
            return k
    return None


def eg_fails_at(d_desc, k: int) -> bool:
    """Does the EG inequality fail at this k (1-based)?"""
    lhs = sum(d_desc[:k])
    rhs = k * (k - 1) + sum(min(x, k) for x in d_desc[k:])
    return lhs > rhs


def hh_realize(degs):
    """Havel–Hakimi realization as an edge list on vertices 0..n-1 (vertex i
    keeps degree degs[i]), or None when the sequence is not graphic.

    Zeros are dropped before each step, so no residual demand goes negative;
    an odd sum or a demand above n - 1 ends with too few partners."""
    residual = [[x, v] for v, x in enumerate(degs)]
    edges = []
    while True:
        residual.sort(key=lambda p: -p[0])
        while residual and residual[-1][0] == 0:
            residual.pop()
        if not residual:
            return edges
        need, v = residual[0]
        rest = residual[1:]
        if need > len(rest):
            return None
        for p in rest[:need]:
            p[0] -= 1
            edges.append((v, p[1]) if v < p[1] else (p[1], v))
        residual = rest


def hh_graphic(degs) -> bool:
    return hh_realize(list(degs)) is not None


def greedy_maximal_size(edges) -> int:
    """Size of the maximal matching found by scanning edges in sorted order."""
    used: set[int] = set()
    size = 0
    for u, v in sorted(edges):
        if u not in used and v not in used:
            used.update((u, v))
            size += 1
    return size


def check_matching(edge_set, matching) -> None:
    """A matching must be a vertex-disjoint subset of the edge set."""
    seen: set[int] = set()
    for u, v in matching:
        e = (u, v) if u < v else (v, u)
        expect(e in edge_set, f"matching edge {e} is not an edge")
        expect(u not in seen and v not in seen, f"matching edges share a vertex at {e}")
        seen.update((u, v))


def degree_vector(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def check_simple_realization(n: int, edges, degs) -> None:
    """Edges form a simple graph on n vertices in which vertex i has degree degs[i]."""
    edge_list = list(edges)
    expect(all(0 <= u < v < n for u, v in edge_list), "edge out of range, self-loop or unnormalized")
    expect(len(set(edge_list)) == len(edge_list), "repeated edge")
    expect(degree_vector(n, edge_list) == list(degs), "realization degrees differ from the input")


def extension_degree_max(degs) -> int:
    """Largest even delta <= n such that degs + [delta] is graphic (0 if none)."""
    top = len(degs) - len(degs) % 2
    for delta in range(top, 0, -2):
        if eg_graphic(list(degs) + [delta]):
            return delta
    return 0


def replay_growth(g0_n: int, g0_edges, trace, delta_policy: str) -> None:
    """Check a growth trace step by step on a plain edge set.

    Each removed set must be a vertex-disjoint subset of the previous edges
    of size delta/2 (which witnesses delta <= 2*nu); after the pinch every old
    vertex keeps its degree and the new vertex has degree delta.
    """
    edges = set(g0_edges)
    n = g0_n
    deg = degree_vector(n, edges)
    expect(trace.seed_vertex_count == n and trace.seed_edge_count == len(edges), "seed size misreported")
    expect(list(trace.seed_degree_sequence) == sorted(deg, reverse=True), "seed degree sequence misreported")
    fixed = int(delta_policy.split(":")[1]) if delta_policy.startswith("fixed:") else None
    for i, step in enumerate(trace.steps):
        delta = step.delta
        expect(step.step_index == i and step.new_vertex == n, f"step {i}: wrong index or new vertex id")
        expect(delta >= 2 and delta % 2 == 0, f"step {i}: delta={delta} is not positive even")
        expect(fixed is None or delta == fixed, f"step {i}: delta={delta} ignores policy {delta_policy}")
        removed = [tuple(e) for e in step.removed_matching]
        expect(len(removed) * 2 == delta, f"step {i}: removed {len(removed)} edges for delta={delta}")
        check_matching(edges, removed)
        before = list(deg)
        edges.difference_update(removed)
        for u, v in removed:
            edges.add((u, n))
            edges.add((v, n))
        n += 1
        deg = degree_vector(n, edges)
        expect(deg[:-1] == before and deg[-1] == delta, f"step {i}: degrees not preserved")
        expect(list(step.resulting_degree_sequence) == sorted(deg, reverse=True),
               f"step {i}: reported degree sequence differs from the replay")
    final = trace.final_graph
    expect(final.vertex_count == n and set(final.edges) == edges, "final graph differs from the replay")
