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
    degs = _positive_degrees(d)
    if not degs:
        return Fraction(0), 0
    m = sum(degs) // 2
    frac = Fraction(m, degs[0] + 1)
    return frac, math.ceil(frac)


def posa_bound(d: DegreeSequence) -> int:
    """ceil((n - r) / 2), where r is the smallest slack that dominates
    the low-degree counts t(q) - q + 1 over all q below (n - r) / 2."""
    degs = _positive_degrees(d)
    n = len(degs)
    asc = sorted(degs)
    r = n
    for ell in range(1, n + 1):
        # t(q) = bisect_right(asc, q), the number of vertices with degree <= q
        if all(bisect_right(asc, q) - q + 1 <= ell for q in range(0, (n - ell + 1) // 2)):
            r = ell
            break
    return (n - r + 1) // 2


def gale_ryser_bound(d: DegreeSequence) -> int:
    """Smallest ell such that the top 2*ell degrees, each capped at k after
    discounting one matching edge, dominate the next k degrees for every k."""
    require_graphic(d)
    return _gale_ryser_bound(_positive_degrees(d))


def _gale_ryser_bound(degs: tuple[int, ...]) -> int:
    n = len(degs)
    prefix = [0, *accumulate(degs)]
    for ell in range(0, n // 2 + 1):
        ok = True
        for k in range(1, n - 2 * ell + 1):
            lhs = sum(min(degs[i] - 1, k) for i in range(2 * ell))
            rhs = prefix[min(2 * ell + k, n)] - prefix[2 * ell]
            if lhs < rhs:
                ok = False
                break
        if ok:
            return ell
    raise InternalConsistencyError("gale-ryser scan found no feasible ell")


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
    posa = posa_bound(stripped)
    viz, viz_ceil = vizing_bound(stripped)
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
