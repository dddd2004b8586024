"""Sequence-level lower bounds on matchings.

Five bounds, all functions of the degree sequence alone:

* ``maximality_bound`` (k*): every maximal matching has at least this size.
* ``gale_ryser_bound`` (ell*): a finer inequality family, same guarantee.
* ``matching_lower_bound`` (noP3): lower bound on the matching number.
* ``posa_bound``: lower bound on the matching number via the count of
  low-degree vertices.
* ``vizing_bound``: m / (max degree + 1), exact rational.

Zero entries (isolated vertices) are stripped before evaluation since the
bounds concern graphs without isolated vertices; ``bound_report`` records
whether stripping happened.

Validation contract: public functions validate their input once, through
``graphicality.require_graphic``; the ``_``-prefixed kernels take the
arranged positive degrees of a graphic sequence and never re-validate.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import InternalConsistencyError
from .graphicality import require_graphic
from .sequences import DegreeSequence

__all__ = [
    "BoundReport",
    "maximality_bound",
    "vizing_bound",
    "posa_bound",
    "gale_ryser_bound",
    "matching_lower_bound",
    "bound_report",
]


@dataclass(frozen=True)
class BoundReport:
    """All five bounds for one degree sequence, plus consistency flags."""

    k_star: int
    ell_star: int
    noP3: int
    posa: int
    vizing_num: int
    vizing_den: int
    vizing_ceil: int
    zeros_stripped: bool

    @property
    def vizing(self) -> Fraction:
        return Fraction(self.vizing_num, self.vizing_den)

    def as_record(self) -> dict:
        """Flat key/value view for serialization, in field order."""
        return asdict(self)


def _positive_degrees(d: DegreeSequence) -> tuple[int, ...]:
    return d.strip_zeros()[0].degrees


def maximality_bound(d: DegreeSequence) -> int:
    """Smallest k whose deficiency sum(top 2k) - m - k is non-negative.

    The deficiency is strictly increasing in k, so a linear scan stops at
    the first hit.
    """
    require_graphic(d)
    return _maximality_bound(_positive_degrees(d))


def _maximality_bound(degs: tuple[int, ...]) -> int:
    n = len(degs)
    prefix = [0, *accumulate(degs)]
    m = prefix[n] // 2
    for k in range(0, n + 1):
        if prefix[min(2 * k, n)] - m - k >= 0:
            return k
    raise InternalConsistencyError("maximality bound scan ran past n")


def vizing_bound(d: DegreeSequence) -> tuple[Fraction, int]:
    """Edge count over (max degree + 1), as an exact rational and its ceiling."""
    require_graphic(d)
    return _vizing_bound(_positive_degrees(d))


def _vizing_bound(degs: tuple[int, ...]) -> tuple[Fraction, int]:
    if not degs:
        return Fraction(0), 0
    m = sum(degs) // 2
    frac = Fraction(m, degs[0] + 1)
    return frac, math.ceil(frac)


def posa_bound(d: DegreeSequence) -> int:
    """ceil((n - r) / 2), where r is the smallest slack that dominates
    the low-degree counts t(q) - q + 1 over all q below (n - r) / 2."""
    require_graphic(d)
    return _posa_bound(_positive_degrees(d))


def _posa_bound(degs: tuple[int, ...]) -> int:
    """r is the first ell whose condition t(q) - q + 1 <= ell holds for every
    q < (n - ell + 1) // 2, where t(q) counts the degrees <= q. With
    worst[j] = max(0, t(q) - q + 1 over q < j), that is the first ell with
    worst[(n - ell + 1) // 2] <= ell; the 0 changes nothing, since ell >= 1."""
    n = len(degs)
    asc = sorted(degs)
    worst = list(accumulate((bisect_right(asc, q) - q + 1 for q in range(n // 2)), max, initial=0))
    r = next((ell for ell in range(1, n + 1) if worst[(n - ell + 1) // 2] <= ell), n)
    return (n - r + 1) // 2


def gale_ryser_bound(d: DegreeSequence) -> int:
    """Smallest ell such that the top 2*ell degrees, each capped at k after
    discounting one matching edge, dominate the next k degrees for every k."""
    require_graphic(d)
    return _gale_ryser_bound(_positive_degrees(d))


def _gale_ryser_bound(degs: tuple[int, ...]) -> int:
    """The first feasible ell, found by galloping and then bisection.

    feasible(ell) holds when, with top = 2*ell, every k in 1..n - top has
    sum(min(d_i - 1, k), i < top) >= sum(d_top .. d_{top+k-1}).

    Lemma: on positive arranged degrees, feasible(ell) implies
    feasible(ell + 1). Proof: going from ell to ell + 1, each k's left side
    gains min(d_top, k + 1) - 1 + min(d_{top+1}, k + 1) - 1 >= 0, because
    every d_i >= 1; each k's right-hand window moves two places down a
    non-increasing list, so its sum cannot grow; and the range of k only
    shrinks. So the feasible ell form a suffix of 0..n // 2.

    Probing ell = 0, 1, 3, 7, ... and bisecting the last bracket finds the
    first feasible ell in O(log ell*) feasibility checks, each O(n):
    cheap both when ell* is near n / 4 (random graphs) and when it is a
    handful (a few hubs over many low degrees).
    """
    n = len(degs)
    prefix = [0, *accumulate(degs)]

    def feasible(ell: int) -> bool:
        top = 2 * ell
        w = top  # #{i < top : d_i >= k + 1} only falls as k grows, so no bisect per k
        for k in range(1, n - top + 1):
            while w and degs[w - 1] <= k:
                w -= 1
            if (k + 1) * w + prefix[top] - prefix[w] - top < prefix[top + k] - prefix[top]:
                return False
        return True

    lo, hi = -1, 0  # lo is infeasible (or below the range), hi is the probe
    while not feasible(hi):
        if hi == n // 2:
            raise InternalConsistencyError("gale-ryser scan found no feasible ell")
        lo, hi = hi, min(2 * hi + 1, n // 2)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def matching_lower_bound(d: DegreeSequence) -> int:
    """Smallest k with 2*sum(top k) + sum(next k) >= degree sum."""
    require_graphic(d)
    return _matching_lower_bound(_positive_degrees(d))


def _matching_lower_bound(degs: tuple[int, ...]) -> int:
    n = len(degs)
    prefix = [0, *accumulate(degs)]
    total = prefix[n]
    for k in range(0, n + 1):
        lhs = 2 * prefix[min(k, n)] + (prefix[min(2 * k, n)] - prefix[min(k, n)])
        if lhs >= total:
            return k
    raise InternalConsistencyError("matching lower bound scan ran past n")


def bound_report(d: DegreeSequence) -> BoundReport:
    """Evaluate all five bounds and cross-check m/(2*max_degree - 1) <= k*."""
    require_graphic(d)
    stripped, had_zeros = d.strip_zeros()
    degs = stripped.degrees
    k_star = _maximality_bound(degs)
    ell_star = _gale_ryser_bound(degs)
    nop3 = _matching_lower_bound(degs)
    posa = _posa_bound(degs)
    viz, viz_ceil = _vizing_bound(degs)
    m = sum(degs) // 2
    if m > 0:
        delta = degs[0]
        if m > k_star * (2 * delta - 1):
            raise InternalConsistencyError(
                f"k* fell below m/(2*max_degree - 1) on {stripped}: "
                f"m={m}, k*={k_star}, max degree={delta}"
            )
    return BoundReport(
        k_star=k_star,
        ell_star=ell_star,
        noP3=nop3,
        posa=posa,
        vizing_num=viz.numerator,
        vizing_den=viz.denominator,
        vizing_ceil=viz_ceil,
        zeros_stripped=had_zeros,
    )
