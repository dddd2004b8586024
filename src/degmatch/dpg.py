"""Degree-preserving growth: grow a graph one vertex at a time by pinching.

A growth step removes a matching of size delta/2 and attaches a new vertex
to all of its endpoints, so existing degrees never change and the newcomer
has degree delta. Which matching gets removed is one of three policies,
``MATCHING_POLICIES``; a callable is not accepted.

A step can take degree delta exactly when delta <= 2 nu, so every step
needs the matching number nu, and it gets it from a matching search it
makes anyway. Under ``fixed:<delta>`` and ``max`` the delta draws nothing
from the rng, so the policy's own search gives nu: ``first`` its
index-order blossom run, whose lowest edges it pinches; ``random`` its
blossom run in a shuffled vertex order, whose matching it samples;
``max-degree`` under ``max`` one index-order run, which is also its
fallback pool, and under ``fixed:`` nothing unless its greedy pass falls
short of delta/2 edges, when one index-order run decides feasibility and
gives the pool. Under ``random`` nu must be known before delta is drawn:
there every step runs the index-order blossom first, reads nu off it, and
hands its partner list to the policy, where ``first`` pinches its lowest
edges and ``max-degree`` falls back to it.

Every step draws one seed from the run's Random, whatever its policies,
so the run's stream is the same under all of them. A step builds a Random
of its own from that seed only under the ``random`` matching policy, the
one policy that draws.

``grow`` runs on sorted neighbor lists, and every degree it reads is the
length of one. A pinch edits them in place (``graphs._pinch_lists``, the
arithmetic the public ``pinch`` runs on a copy); the degrees are also
kept in ascending order, each record's degree sequence is that list
reversed, and one ``Graph`` is built, the final one (``graphs._graph_of``,
which also builds ``pinch``'s result). Under ``max-degree``, ``grow``
also keeps the edges sorted in that policy's order for the whole run, as
plain tuples (-(deg u + deg v), u, v) whose natural order it is. A pinch
keeps every old degree, so a surviving edge keeps its tuple and its
place: each step deletes the edges it removed and inserts the new
vertex's by bisection instead of sorting all m edges.

``dp_step`` and ``pinch`` stay public, on immutable graphs, and serve as
the oracle for ``grow``: they share the policies' selection,
``_select_matching``, which works on neighbor lists.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Optional, Sequence

from . import _EXPORTS
from .constants import MATCHING_POLICIES
from .errors import CapExceededError, InfeasibleDeltaError, _integers, _refused, _shown_int
from .graphs import (
    Edge,
    Graph,
    Matching,
    _graph_of,
    _greedy_matching,
    _index_order_blossom,
    _pinch_lists,
    _ranked_blossom,
    max_matching,
    pinch,
)

__all__ = ("MATCHING_POLICIES", *_EXPORTS["dpg"])

# the most degree entries a growth trace may record: each record keeps the
# whole grown sequence, so s steps from n0 vertices record up to
# s * n0 + s * (s + 1) / 2 of them
TRACE_CAP = 2 * 10**7


def feasible_deltas(g: Graph) -> set[int]:
    """Degrees a new vertex can take in this graph: even values up to twice
    the matching number."""
    nu = max_matching(g).size
    return set(range(2, 2 * nu + 1, 2))


def _check_matching_policy(policy: str) -> None:
    if policy not in MATCHING_POLICIES:
        raise _refused("unknown matching policy {}; known: " + ", ".join(MATCHING_POLICIES), policy)


Ranked = tuple[int, int, int]  # an edge (u, v) as (-(deg u + deg v), u, v)


def _ranked(adj: Sequence[Sequence[int]], u: int, v: int) -> Ranked:
    """The edge (u, v) of the graph with neighbor lists ``adj`` as a tuple
    whose natural order is the max-degree order: higher degree sum first,
    then (u, v)."""
    return (-(len(adj[u]) + len(adj[v])), u, v)


def _max_degree_order(adj: Sequence[Sequence[int]], edges: Iterable[Edge]) -> list[Ranked]:
    """``edges`` in max-degree order, ranked by ``_ranked``."""
    return sorted([_ranked(adj, u, v) for u, v in edges])


def _select_matching(
    adj: Sequence[Sequence[int]],
    size: Optional[int],
    seed: int,
    *,
    policy: str,
    match: Optional[list[int]] = None,
    edge_order: Optional[list[Ranked]] = None,
) -> Optional[list[Edge]]:
    """The sorted edges of a matching of ``size`` edges per ``policy``,
    on the graph with sorted neighbor lists ``adj``, or None if it has no
    such matching. A ``size`` of None asks for ν edges, which the policy's
    own search finds, and None comes back when ν = 0. ``seed`` seeds the
    Random of the ``random`` policy; the other policies draw nothing.

    A caller may pass what it already holds: ``match``, the partner list of
    the index-order blossom's matching (``first`` takes its lowest edges,
    ``max-degree`` falls back to it), and ``edge_order``, the edges in
    max-degree order as ``_max_degree_order`` gives them."""
    n = len(adj)
    if policy == "random":
        # run the exact matcher in a random vertex order, then keep a random
        # subset of the matching it finds
        rng = random.Random(seed)
        rank = list(range(n))
        rng.shuffle(rank)
        edges = sorted(_ranked_blossom(adj, rank))
        size = len(edges) if size is None else size
        if not 0 < size <= len(edges):
            return None
        # all of the matching needs no sample: the step's Random is not read again
        return edges if size == len(edges) else sorted(rng.sample(edges, size))
    if match is None and (policy == "first" or size is None):
        match = _index_order_blossom(adj)
    if policy == "first":
        # the lowest edges of the index-order blossom's matching; each vertex
        # is in at most one edge, so they come out sorted
        edges = list(islice(((u, w) for u, w in enumerate(match) if w > u), size))
        if not edges or size is not None and len(edges) < size:
            return None
        return edges
    if size is None:
        size = (n - match.count(-1)) // 2
        if size == 0:
            return None
    if edge_order is None:
        edge_order = _max_degree_order(adj, ((u, v) for u in range(n) for v in adj[u] if v > u))
    # max-degree: the greedy matching is taken in max-degree order; else the
    # first edges of the index-order matching in that order
    pool = _greedy_matching(n, edge_order, size)
    if len(pool) < size:
        if match is None:
            match = _index_order_blossom(adj)
        pool = [(u, v) for _, u, v in _max_degree_order(adj, ((u, w) for u, w in enumerate(match) if w > u))]
        if len(pool) < size:
            return None
    return sorted(pool[:size])


@dataclass(frozen=True)
class DpStepRecord:
    step_index: int
    delta: int
    removed_matching: tuple[Edge, ...]
    new_vertex: int
    resulting_degree_sequence: tuple[int, ...]

    @property
    def resulting_vertex_count(self) -> int:
        return len(self.resulting_degree_sequence)

    @property
    def resulting_edge_count(self) -> int:
        return sum(self.resulting_degree_sequence) // 2


def dp_step(
    g: Graph,
    delta: int,
    policy: str = "random",
    rng_seed: int = 0,
    *,
    step_index: int = 0,
) -> tuple[Graph, DpStepRecord]:
    """One growth step: remove a matching of size delta/2, pinch it onto a
    new vertex. Raises listing the feasible degrees when delta cannot be
    realized in this graph."""
    if delta < 2 or delta % 2:
        raise _refused("delta={} must be a positive even integer", delta)
    _check_matching_policy(policy)
    edges = _select_matching(g.adjacency(), delta // 2, rng_seed, policy=policy)
    if edges is None:
        raise InfeasibleDeltaError(
            f"delta={_shown_int(delta)} is not feasible here", feasible=feasible_deltas(g)
        )
    grown = pinch(g, Matching(frozenset(edges), g.vertex_count))
    record = DpStepRecord(
        step_index=step_index,
        delta=delta,
        removed_matching=tuple(edges),
        new_vertex=g.vertex_count,
        resulting_degree_sequence=tuple(sorted(grown.degrees(), reverse=True)),
    )
    return grown, record


@dataclass(frozen=True)
class GrowthTrace:
    """Ordered log of growth steps from a seed graph."""

    seed_vertex_count: int
    seed_edge_count: int
    seed_degree_sequence: tuple[int, ...]
    requested_steps: int
    steps: tuple[DpStepRecord, ...]
    final_graph: Graph

    @property
    def halted_early(self) -> bool:
        return len(self.steps) < self.requested_steps

    def to_csv(self) -> str:
        lines = ["step_index,delta,new_vertex,n,m"]
        for s in self.steps:
            lines.append(
                f"{s.step_index},{s.delta},{s.new_vertex},"
                f"{s.resulting_vertex_count},{s.resulting_edge_count}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json

        payload = {
            "seed": {
                "n": self.seed_vertex_count,
                "m": self.seed_edge_count,
                "degree_sequence": self.seed_degree_sequence,
            },
            "steps": [
                {
                    "step_index": s.step_index,
                    "delta": s.delta,
                    "removed_matching": s.removed_matching,
                    "new_vertex": s.new_vertex,
                    "resulting_degree_sequence": s.resulting_degree_sequence,
                }
                for s in self.steps
            ],
        }
        return json.dumps(payload)


def _parse_delta_policy(policy: str) -> tuple[str, Optional[int]]:
    if policy in ("random", "max"):
        return policy, None
    if policy.startswith("fixed:"):
        try:
            # read as a --seq entry is: ASCII digits with an optional sign
            value = _integers([policy.split(":", 1)[1].strip()])[0]
        except ValueError:
            raise _refused("bad fixed delta in policy {}", policy) from None
        if value < 2 or value % 2:
            raise _refused("fixed delta must be a positive even integer, got {}", value)
        return "fixed", value
    raise _refused("unknown delta policy {}; expected fixed:<delta>, random or max", policy)


def grow(
    g0: Graph,
    steps: int,
    delta_policy: str = "max",
    rng_seed: int = 0,
    matching_policy: str = "random",
) -> GrowthTrace:
    """Iterate growth steps from a seed graph.

    ``delta_policy`` is one of ``fixed:<delta>``, ``random`` (uniform over
    the currently feasible degrees) or ``max``; ``matching_policy`` is one
    of ``MATCHING_POLICIES``. Runs halt early, with a truncated trace, when
    no feasible degree remains; that is an outcome, not an error. Fully
    reproducible from (seed graph, policies, seed). A run whose trace could
    record more than ``TRACE_CAP`` degree entries is refused with
    ``CapExceededError`` before any step, even one that would halt early.
    """
    if steps < 0:
        raise _refused("steps={} must be non-negative", steps)
    kind, fixed_value = _parse_delta_policy(delta_policy)
    _check_matching_policy(matching_policy)
    n0 = g0.vertex_count
    entries = steps * n0 + steps * (steps + 1) // 2
    if entries > TRACE_CAP:
        raise _refused(
            "{} steps from {} vertices could record {} degree entries, over the trace cap {}",
            steps, n0, entries, TRACE_CAP, error=CapExceededError,
        )
    rng = random.Random(rng_seed)
    # the mutable state of the grown graph: sorted neighbor lists, which a
    # pinch edits in place, and the degrees in ascending order
    adj = [list(a) for a in g0.adjacency()]
    ascending = sorted(g0.degrees())
    seed_degree_sequence = tuple(reversed(ascending))
    records: list[DpStepRecord] = []
    # the edges in max-degree order, kept for the whole run: a pinch keeps
    # every old degree, so the surviving edges keep their ranks, and each
    # step only moves the edges it removes and adds
    edge_order: Optional[list[Ranked]] = None
    if matching_policy == "max-degree":
        edge_order = _max_degree_order(adj, g0.edges)
    for idx in range(steps):
        n = len(adj)
        match = None
        size = fixed_value // 2 if kind == "fixed" else None
        if kind == "random":
            # ν must come before the delta draw: an index-order run gives it,
            # and the policy is handed its partner list. Under fixed: and max
            # the delta draws nothing from rng, and the policy's own search
            # gives ν.
            match = _index_order_blossom(adj)
            nu = (n - match.count(-1)) // 2
            if nu == 0:
                break
            size = rng.choice(range(2, 2 * nu + 1, 2)) // 2
        # every step draws a seed, so the stream is the same under every
        # policy; only random builds a Random from it
        edges = _select_matching(
            adj, size, rng.randrange(2**32), policy=matching_policy, match=match, edge_order=edge_order
        )
        if edges is None:
            break
        _pinch_lists(adj, edges)
        insort(ascending, 2 * len(edges))
        records.append(
            DpStepRecord(
                step_index=idx,
                delta=2 * len(edges),
                removed_matching=tuple(edges),
                new_vertex=n,
                resulting_degree_sequence=tuple(reversed(ascending)),
            )
        )
        if edge_order is not None:
            for u, v in edges:
                del edge_order[bisect_left(edge_order, _ranked(adj, u, v))]
                insort(edge_order, _ranked(adj, u, n))
                insort(edge_order, _ranked(adj, v, n))
    return GrowthTrace(
        seed_vertex_count=g0.vertex_count,
        seed_edge_count=g0.m,
        seed_degree_sequence=seed_degree_sequence,
        requested_steps=steps,
        steps=tuple(records),
        final_graph=_graph_of(adj),
    )
