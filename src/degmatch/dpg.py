"""Degree-preserving growth: grow a graph one vertex at a time by pinching.

A growth step removes a matching of size delta/2 and attaches a new vertex
to all of its endpoints, so existing degrees never change and the newcomer
has degree delta. Which matching gets removed is a policy choice; three
built-ins are provided and a callable can be passed instead.

A step can take degree delta exactly when delta <= 2 nu, so ``grow`` needs
the matching number nu at every step: it keeps the partner list of one
maximum matching. Under ``first``, whose trace is the lowest edges of the
index-order blossom's matching, each step runs that blossom again and reads
them off the list. Under the other policies only step 0 does: ``grow``
then carries the list from step to step, frees the ends of the pinched
edges it held, and searches from what is left for at most one more edge
than the parent had. That list gives nu and nothing else, so no trace
depends on it.

Under ``max-degree``, ``grow`` also keeps the edges sorted in that
policy's order for the whole run. A pinch keeps every old degree, so the
surviving edges keep their order: each step deletes the edges it removed
and inserts the new vertex's by bisection instead of sorting all m edges.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Optional, Union

from .errors import InfeasibleDeltaError, ValidationError
from .graphs import (
    Edge,
    Graph,
    Matching,
    _blossom_matching,
    _greedy_matching,
    _index_order_blossom,
    max_matching,
    pinch,
)

__all__ = [
    "MATCHING_POLICIES",
    "DpStepRecord",
    "GrowthTrace",
    "feasible_deltas",
    "dp_step",
    "grow",
]

MATCHING_POLICIES = ("random", "first", "max-degree")

MatchingPolicy = Union[str, Callable[[Graph, int, random.Random], Matching]]


def feasible_deltas(g: Graph) -> set[int]:
    """Degrees a new vertex can take in this graph: even values up to twice
    the matching number."""
    nu = max_matching(g).size
    return set(range(2, 2 * nu + 1, 2))


def _check_matching_policy(policy: MatchingPolicy) -> None:
    if not callable(policy) and policy not in MATCHING_POLICIES:
        raise ValidationError(f"unknown matching policy {policy!r}; known: {', '.join(MATCHING_POLICIES)}")


def _select_matching(
    g: Graph,
    size: int,
    rng: random.Random,
    *,
    policy: MatchingPolicy,
    match: Optional[list[int]] = None,
    nu: Optional[int] = None,
    edge_order: Optional[list[Edge]] = None,
) -> Optional[Matching]:
    """A matching of exactly ``size`` edges per policy, or None if infeasible;
    ``match`` is the partner list of a maximum matching of g when the caller
    has it (``first`` takes its lowest edges, so there it must be the
    index-order blossom's), ``nu`` the matching number when the caller knows
    it, and ``edge_order`` g's edges sorted by ``_max_degree_weight(g)``
    when the caller keeps them."""
    if callable(policy):
        m = policy(g, size, rng)
        return m if m is not None and m.size == size else None
    if policy == "random":
        # run the exact matcher in a random vertex order, stopping at ν edges
        # when ν is known, then keep a random subset of the matching it finds
        rank = list(range(g.vertex_count))
        rng.shuffle(rank)
        edges = sorted(_blossom_matching(g, rank, nu))
        if len(edges) < size:
            return None
        return Matching._trusted(frozenset(rng.sample(edges, size)), g.vertex_count)
    if policy == "first":
        # the lowest edges of the index-order blossom's matching; each vertex
        # is in at most one edge, so they come out sorted
        if match is None:
            match = _index_order_blossom(g.adjacency())
        edges = frozenset(islice(((u, w) for u, w in enumerate(match) if w > u), size))
        if len(edges) < size:
            return None
        return Matching._trusted(edges, g.vertex_count)
    weight = _max_degree_weight(g)
    if edge_order is None:
        edge_order = sorted(g.edges, key=weight)
    # max-degree: the greedy matching is taken in weight order, so it is
    # already sorted; else the heaviest edges of the index-order matching
    pool = _greedy_matching(edge_order, size)
    if len(pool) < size:
        pool = sorted(_blossom_matching(g, size=nu), key=weight)
    if len(pool) < size:
        return None
    return Matching._trusted(frozenset(pool[:size]), g.vertex_count)


def _max_degree_weight(g: Graph) -> Callable[[Edge], int]:
    """The sort key of the max-degree order on g's edges: higher degree sum
    first, then (u, v), as one integer (u*n + v < n*n)."""
    n = g.vertex_count
    nn = n * n
    deg = g.degrees()
    return lambda e: e[0] * n + e[1] - (deg[e[0]] + deg[e[1]]) * nn


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
    policy: MatchingPolicy = "random",
    rng_seed: int = 0,
    *,
    step_index: int = 0,
) -> tuple[Graph, DpStepRecord]:
    """One growth step: remove a matching of size delta/2, pinch it onto a
    new vertex. Raises listing the feasible degrees when delta cannot be
    realized in this graph."""
    if delta < 2 or delta % 2:
        raise ValidationError(f"delta={delta} must be a positive even integer")
    _check_matching_policy(policy)
    rng = random.Random(rng_seed)
    m = _select_matching(g, delta // 2, rng, policy=policy)
    if m is None:
        raise InfeasibleDeltaError(
            f"delta={delta} is not feasible here", feasible=feasible_deltas(g)
        )
    grown = pinch(g, m)
    record = DpStepRecord(
        step_index=step_index,
        delta=delta,
        removed_matching=tuple(sorted(m.edges)),
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
        payload = {
            "seed": {
                "n": self.seed_vertex_count,
                "m": self.seed_edge_count,
                "degree_sequence": list(self.seed_degree_sequence),
            },
            "steps": [
                {
                    "step_index": s.step_index,
                    "delta": s.delta,
                    "removed_matching": [list(e) for e in s.removed_matching],
                    "new_vertex": s.new_vertex,
                    "resulting_degree_sequence": list(s.resulting_degree_sequence),
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
            value = int(policy.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad fixed delta in policy {policy!r}") from None
        if value < 2 or value % 2:
            raise ValidationError(f"fixed delta must be a positive even integer, got {value}")
        return "fixed", value
    raise ValidationError(f"unknown delta policy {policy!r}; expected fixed:<delta>, random or max")


def grow(
    g0: Graph,
    steps: int,
    delta_policy: str = "max",
    rng_seed: int = 0,
    matching_policy: MatchingPolicy = "random",
) -> GrowthTrace:
    """Iterate growth steps from a seed graph.

    ``delta_policy`` is one of ``fixed:<delta>``, ``random`` (uniform over
    the currently feasible degrees) or ``max``. Runs halt early, with a
    truncated trace, when no feasible degree remains; that is an outcome,
    not an error. Fully reproducible from (seed graph, policies, seed).
    """
    if steps < 0:
        raise ValidationError(f"steps={steps} must be non-negative")
    kind, fixed_value = _parse_delta_policy(delta_policy)
    _check_matching_policy(matching_policy)
    rng = random.Random(rng_seed)
    g = g0
    records: list[DpStepRecord] = []
    # partner list of a maximum matching of g: the index-order one at step 0
    # and at every step under `first`, which pinches its lowest edges, else
    # carried from step to step for ν alone
    match: Optional[list[int]] = None
    nu = 0
    # g's edges in max-degree order, kept for the whole run: a pinch keeps
    # every old degree, so the surviving edges keep their order, and each
    # step only moves the edges it removes and adds
    edge_order: Optional[list[Edge]] = None
    if matching_policy == "max-degree":
        edge_order = sorted(g0.edges, key=_max_degree_weight(g0))
    for idx in range(steps):
        if match is None or matching_policy == "first":
            match = _index_order_blossom(g.adjacency())
        else:
            # g minus its newest vertex is a subgraph of the parent, so
            # ν <= ν_parent + 1, and the n // 2 cap spares an odd n one
            # failing search
            match = _index_order_blossom(g.adjacency(), min(nu + 1, g.vertex_count // 2), match)
        nu = (g.vertex_count - match.count(-1)) // 2
        if kind == "fixed":
            delta = fixed_value if fixed_value <= 2 * nu else None
        elif kind == "max":
            delta = 2 * nu if nu > 0 else None
        else:
            delta = rng.choice(range(2, 2 * nu + 1, 2)) if nu > 0 else None
        if delta is None:
            break
        step_seed = rng.randrange(2**32)
        step_policy = partial(_select_matching, policy=matching_policy, match=match, nu=nu, edge_order=edge_order)
        g, record = dp_step(g, delta, step_policy, step_seed, step_index=idx)
        records.append(record)
        if edge_order is not None:
            weight = _max_degree_weight(g)
            for e in record.removed_matching:
                del edge_order[bisect_left(edge_order, weight(e), key=weight)]
                for u in e:
                    insort(edge_order, (u, record.new_vertex), key=weight)
        # the pinch removed these edges; the rest of the matching survives
        for u, v in record.removed_matching:
            if match[u] == v:
                match[u] = match[v] = -1
        match.append(-1)
    return GrowthTrace(
        seed_vertex_count=g0.vertex_count,
        seed_edge_count=g0.m,
        seed_degree_sequence=g0.degree_sequence().degrees,
        requested_steps=steps,
        steps=tuple(records),
        final_graph=g,
    )
