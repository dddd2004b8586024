"""Slow oracles that only the tests run.

The package answers each question below by a fast kernel; these answer it
the slow way, so the tests can check the kernel against them:
``max_matching_exhaustive`` against the blossom ``max_matching``;
``nu_star_brute`` against the closed form ``nu_star_formula`` and
``delta_star``; ``nu_star_scan``, the closed form (``closed_form_holds``)
tried at every size from the top down, against the galloping
``_nu_star_formula``; and
``realize_output``, the text of ``sorted(realize_hh(d).edges)``, against
``degmatch realize``, which prints from the Havel-Hakimi rows.
"""

from __future__ import annotations

import json
from itertools import accumulate
from typing import Optional

from degmatch.constants import DEFAULT_MAX_DEGREE_SUM, DEFAULT_MAX_N
from degmatch.enumeration import enumerate_realizations
from degmatch.errors import CapExceededError, InternalConsistencyError
from degmatch.graphicality import _corrected_holds, _small_k_holds, realize_hh, require_graphic
from degmatch.graphs import Edge, Graph, Matching, max_matching
from degmatch.sequences import DegreeSequence

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
