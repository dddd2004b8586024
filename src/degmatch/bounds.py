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

The kernels read the prefix sums of the arranged degrees, one C-speed
``accumulate`` per call, and the run ends, one bisect per run. After that
each takes O(log n) or O(r log n) Python steps for r distinct degrees: k*
and noP3 bisect their rising left sides, Posa reads its worst case at the
distinct degrees of ``graphicality._run_form`` and bisects, and ell*
gallops up from k* (``graphicality._gallop``), a proven lower bound it is
handed, checking each ell at the run ends past 2*ell only, each found from
the last by a bisect (the lemmas are in ``_gale_ryser_bound``). ``bound_report`` computes the prefix
sums, k* and m once for all of them.

Validation contract: public functions validate their input once, through
``graphicality.require_graphic``; the ``_``-prefixed kernels take the
arranged positive degrees of a graphic sequence and never re-validate.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import accumulate
from operator import neg

from . import _EXPORTS
from .errors import InternalConsistencyError
from .graphicality import _gallop, _run_form, require_graphic
from .sequences import DegreeSequence

__all__ = _EXPORTS["bounds"]


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

    def as_record(self) -> dict:
        """Flat key/value view for serialization, in field order."""
        return asdict(self)


def _positive_degrees(d: DegreeSequence) -> tuple[int, ...]:
    return d.strip_zeros()[0].degrees


def maximality_bound(d: DegreeSequence) -> int:
    """Smallest k whose deficiency sum(top 2k) - m - k is non-negative.

    The deficiency rises with k up to the first hit, so one bisect finds it.
    """
    require_graphic(d)
    return _k_star([0, *accumulate(_positive_degrees(d))])


def _k_star(prefix: list[int]) -> int:
    """k* from the prefix sums of arranged positive degrees: the first k
    with sum(top min(2k, n)) - m - k >= 0, by bisection.

    On positive degrees sum(top 2k) - k rises with k while 2k <= n, by
    d_{2k} + d_{2k+1} - 1 >= 1 per step, so a bisection over k = 0..n // 2
    finds the first value >= m in O(log n) steps. If none is, the answer is
    (n + 1) // 2, just past that range: n is odd, and there the deficiency
    is m - (n + 1) // 2 >= 0, since the degree sum is even and at least n.
    """
    return bisect_left(range((len(prefix) + 1) // 2), prefix[-1] // 2, key=lambda k: prefix[2 * k] - k)


def vizing_bound(d: DegreeSequence) -> tuple[Fraction, int]:
    """Edge count over (max degree + 1), as an exact rational and its ceiling."""
    require_graphic(d)
    degs = _positive_degrees(d)
    return _vizing_bound(degs, sum(degs) // 2)


def _vizing_bound(degs: tuple[int, ...], m: int) -> tuple[Fraction, int]:
    """From arranged positive degrees and their edge count m."""
    if not degs:
        return Fraction(0), 0
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
    worst(j) = max(0, t(q) - q + 1 over q < j), that is the first ell with
    worst((n - ell + 1) // 2) <= ell; the 0 changes nothing, since ell >= 1.

    t(q) only changes where q reaches a degree value, and between two such
    points t(q) - q + 1 falls as q grows. So worst(j) is the largest value
    at the distinct degrees q < j, or at q = 0, where it is 1 on positive
    degrees and changes nothing either: a prefix maximum over the r
    distinct degrees, read by one bisect. As ell grows, (n - ell + 1) // 2
    falls, so worst falls and the condition, once it holds, keeps holding:
    r is found by bisection over 1..n, O(r log n).
    """
    n = len(degs)
    # the distinct degrees ascending; the run of v starts at a, so t(v) = n - a
    starts = [0, *_run_form(degs)[1]][-2::-1]
    points = [degs[a] for a in starts]
    best = list(accumulate((n - a - degs[a] + 1 for a in starts), max, initial=0))  # best[c]: c points below j
    r = 1 + bisect_left(range(1, n + 1), True, key=lambda ell: best[bisect_left(points, (n - ell + 1) // 2)] <= ell)
    return (n - r + 1) // 2


def gale_ryser_bound(d: DegreeSequence) -> int:
    """Smallest ell such that the top 2*ell degrees, each capped at k after
    discounting one matching edge, dominate the next k degrees for every k."""
    require_graphic(d)
    degs = _positive_degrees(d)
    prefix = [0, *accumulate(degs)]
    return _gale_ryser_bound(degs, prefix, _k_star(prefix))


def _gale_ryser_bound(degs: tuple[int, ...], prefix: list[int], k_star: int) -> int:
    """The first feasible ell, found by galloping and then bisection, given
    the prefix sums of ``degs`` and its k* (``_k_star``).

    feasible(ell) holds when, with top = 2*ell, every k in 1..n - top has
    slack f(k) = sum(min(d_i - 1, k), i < top) - sum(d_top .. d_{top+k-1}) >= 0.

    Lemma (monotone): on positive arranged degrees, feasible(ell) implies
    feasible(ell + 1). Proof: going from ell to ell + 1, each k's left side
    gains min(d_top, k + 1) - 1 + min(d_{top+1}, k + 1) - 1 >= 0, because
    every d_i >= 1; each k's right-hand window moves two places down a
    non-increasing list, so its sum cannot grow; and the range of k only
    shrinks. So the feasible ell form a suffix of 0..n // 2.

    Lemma (run ends): f(k) >= 0 for every k in 1..n - top exactly when
    f(e - top) >= 0 at every run end e > top (e = n among them). Proof:
    f(0) = 0, and f(k + 1) - f(k) = #{i < top : d_i >= k + 2} - d_{top+k}.
    Take two consecutive points of 0 and the e - top. Between them, for
    k from one point up to the next minus one, top + k stays inside one run,
    so d_{top+k} is constant, while the count only falls as k grows: the
    increments do not rise, f is concave there, and it is smallest at one
    of the two points. Every k in 1..n - top lies between two such points.

    Lemma (k*): feasible(ell) implies ell >= k*. Proof: if top < n, the
    check at k = n - top bounds its left side by sum(d_i - 1, i < top) =
    prefix[top] - top and makes its right side 2m - prefix[top], so
    prefix[2*ell] - m - ell >= 0, which is k*'s condition at ell; if
    top = n, then ell = n / 2 >= k*, since m >= n / 2 on positive degrees.

    So a check walks the run ends e > top, each found from the last by one
    bisect, not one step per k: at k = e - top the window sum is
    prefix[e] - prefix[top], while the w top entries >= k + 1, found by the
    bisect, give sum(min(d_i, k + 1), i < top) = (k + 1)*w + prefix[top] -
    prefix[w]. ``graphicality._gallop`` probes ell = k*, k* + 1, k* + 3,
    k* + 7, ... and bisects the last bracket, so it finds the first
    feasible ell in O(log(ell* - k* + 2)) checks of O(r log n) each, for r
    distinct degrees. On every graphic sequence with n <= 10, ell* - k* is
    0, 1 or 2.
    """
    n = len(degs)

    def feasible(ell: int) -> bool:
        top = e = 2 * ell
        base = 2 * prefix[top] - top
        while e < n:
            # the end of the run that holds e; f(k) at k = e - top is
            # (k + 1)*w - prefix[w] + base - prefix[e], with w = #{i < top : d_i >= k + 1}
            e = bisect_right(degs, -degs[e], e + 1, n, key=neg)
            k = e - top
            w = bisect_right(degs, -k - 1, 0, top, key=neg)
            if (k + 1) * w - prefix[w] + base < prefix[e]:
                return False
        return True

    ell = _gallop(min(k_star, n // 2), n // 2, feasible)
    if ell > n // 2:
        raise InternalConsistencyError("gale-ryser scan found no feasible ell")
    return ell


def matching_lower_bound(d: DegreeSequence) -> int:
    """Smallest k with 2*sum(top k) + sum(next k) >= degree sum."""
    require_graphic(d)
    return _matching_lower_bound([0, *accumulate(_positive_degrees(d))])


def _matching_lower_bound(prefix: list[int]) -> int:
    """From the prefix sums of arranged positive degrees: the first k with
    2*sum(top k) + sum(next k) >= degree sum, by bisection. The left side is sum(top k) + sum(top min(2k, n)), which
    rises with k, so a bisection over k = 0..n // 2 finds it in O(log n)
    steps. If no k there reaches the degree sum, the answer is (n + 1) // 2,
    just past that range: n is odd, and there the second sum is the whole
    degree sum."""
    return bisect_left(range((len(prefix) + 1) // 2), prefix[-1], key=lambda k: prefix[k] + prefix[2 * k])


def bound_report(d: DegreeSequence) -> BoundReport:
    """Evaluate all five bounds and cross-check m/(2*max_degree - 1) <= k*."""
    require_graphic(d)
    stripped, had_zeros = d.strip_zeros()
    degs = stripped.degrees
    prefix = [0, *accumulate(degs)]
    k_star = _k_star(prefix)
    ell_star = _gale_ryser_bound(degs, prefix, k_star)
    nop3 = _matching_lower_bound(prefix)
    posa = _posa_bound(degs)
    m = prefix[-1] // 2
    viz, viz_ceil = _vizing_bound(degs, m)
    if m and m > k_star * (2 * degs[0] - 1):
        raise InternalConsistencyError(
            f"k* fell below m/(2*max_degree - 1) on {stripped}: m={m}, k*={k_star}, max degree={degs[0]}"
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
