"""Graphicality decisions, realization construction, and the largest extension degree.

Two independent deciders (Erdos-Gallai inequalities and Havel-Hakimi
reduction) plus a deterministic Havel-Hakimi realization builder on one
integer-keyed heap, O((n + m) log n). The extension
machinery answers "can this sequence absorb a new vertex of even degree
delta", culminating in delta_star and the closed-form evaluation of the
maximum matching number over all realizations, nu_star.

Validation contract: public functions validate their input once;
``require_graphic`` is the only place that raises NotGraphicError; the
``_``-prefixed kernels take an arranged graphic tuple and never re-validate.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate
from operator import neg
from typing import TYPE_CHECKING, Optional

from .errors import InternalConsistencyError, NotGraphicError, ValidationError
from .sequences import DegreeSequence

if TYPE_CHECKING:
    from .graphs import Graph

__all__ = [
    "GraphicVerdict",
    "is_graphic_eg",
    "is_graphic_hh",
    "require_graphic",
    "realize_hh",
    "extension_feasible",
    "delta_star",
    "nu_star_formula",
    "nu_star",
]


@dataclass(frozen=True)
class GraphicVerdict:
    """Outcome of an Erdos-Gallai check."""

    is_graphic: bool
    failing_k: Optional[int] = None
    parity_ok: bool = True


def _capped_sum(degs: tuple[int, ...], prefix: list[int], a: int, b: int, c: int) -> int:
    """Sum of min(d_i, c) over a <= i < b on arranged ``degs`` with prefix sums ``prefix``:
    c*(p - a) + prefix[b] - prefix[p], where p - a entries of the range are >= c. A reduced
    entry d_i - 1 is capped through min(d_i - 1, k) = min(d_i, k + 1) - 1."""
    p = bisect_right(degs, -c, a, b, key=neg)
    return c * (p - a) + prefix[b] - prefix[p]


def _eg_first_violation(degs: tuple[int, ...], check_all_k: bool = False) -> Optional[int]:
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


def is_graphic_eg(d: DegreeSequence, *, check_all_k: bool = False) -> GraphicVerdict:
    """Decide graphicality by the Erdos-Gallai criterion.

    ``check_all_k`` forces the inequality at every k = 1..n instead of the
    restricted index set; both modes must agree (tested).
    """
    if d.degree_sum % 2:
        return GraphicVerdict(is_graphic=False, failing_k=None, parity_ok=False)
    k = _eg_first_violation(d.degrees, check_all_k=check_all_k)
    return GraphicVerdict(is_graphic=k is None, failing_k=k)


def require_graphic(d: DegreeSequence) -> None:
    """Raise NotGraphicError, carrying the Erdos-Gallai verdict, unless ``d`` is graphic."""
    verdict = is_graphic_eg(d)
    if not verdict.is_graphic:
        raise NotGraphicError(f"sequence {d} is not graphic", verdict)


def is_graphic_hh(d: DegreeSequence) -> bool:
    """Decide graphicality by iterated Havel-Hakimi reduction.

    Works on degree counts, since a reduction step depends only on the
    multiset of residual degrees: ``count[r]`` vertices have residual r.
    A step removes one vertex of the largest residual k and lowers k
    others by one: it walks down from level k, takes whole levels and
    then part of the last one reached, and only then moves each taken
    run down one level. The walk passes at most k levels, so a step costs
    O(k) and the whole reduction O(n + m).
    """
    if d.max_degree >= d.n > 0:
        return False  # the first step fails; this also keeps ``count`` to n levels
    count = [0] * (d.max_degree + 1)
    for x in d.degrees:
        count[x] += 1
    top = d.max_degree
    while True:
        while top and not count[top]:
            top -= 1
        if not top:
            return True
        count[top] -= 1
        need = top
        level = top
        taken = []
        while need:
            while level and not count[level]:
                level -= 1
            if not level:
                return False
            take = min(count[level], need)
            taken.append((level, take))
            need -= take
            level -= 1
        for level, take in taken:
            count[level] -= take
            count[level - 1] += take


def realize_hh(d: DegreeSequence) -> Graph:
    """Build a labelled realization where vertex i has degree d_i.

    Deterministic rule: repeatedly take the vertex with the largest
    remaining demand (lowest id on ties) and connect it to the vertices
    with the next-largest demands (again lowest id on ties).
    """
    from .graphs import Graph

    require_graphic(d)
    rows = _hh_rows(d.degrees)
    # each pair is written once, as (lower, higher), so vertex i has degree d_i
    edges = frozenset((u, v) for u, row in enumerate(rows) for v in row)
    return Graph._trusted(d.n, edges, None, d.degrees)


def _hh_rows(degs: tuple[int, ...]) -> list[list[int]]:
    """Kernel of realize_hh on an arranged graphic ``degs``: row u lists the
    neighbours v > u of vertex u, ascending, so reading the rows in order
    gives the edges sorted.

    One min-heap holds the vertices whose remaining demand r is positive,
    keyed by the integer i - r*n: it pops the largest demand first, and the
    lowest id among equal demands, which is the rule's order. A step pops v
    and then v's k targets, and pushes back each target whose demand is
    still positive, at key + n. So each edge costs O(log n), and sorting the
    rows O(m log n) more.
    """
    n = len(degs)
    # arranged, so the keys ascend: the list is already a heap
    heap = [i - r * n for i, r in enumerate(degs) if r]
    rows: list[list[int]] = [[] for _ in range(n)]
    while heap:
        key = heappop(heap)
        v = key % n
        k = (v - key) // n
        if k > len(heap):
            raise InternalConsistencyError("realization ran out of targets on a graphic sequence")
        targets = [heappop(heap) for _ in range(k)]
        row = rows[v]
        for t in targets:
            j = t % n
            if v < j:
                row.append(j)
            else:
                rows[j].append(v)
            if t + n < 0:  # a key is negative exactly while its demand is positive
                heappush(heap, t + n)
    # the heap empties only when every demand is met, so there is no unmet demand to check
    for row in rows:
        row.sort()
    return rows


def extension_feasible(d: DegreeSequence, delta: int) -> bool:
    """Can a graphic ``d`` absorb a new vertex of even degree ``delta``?

    Equivalent to graphicality of the augmented sequence, decided on the
    reduced sequence (first delta entries decremented).
    """
    if delta % 2:
        raise ValidationError(f"delta={delta} must be even")
    if not 1 <= delta <= d.n:
        raise ValidationError(f"delta={delta} out of range [1, {d.n}]")
    require_graphic(d)
    return _extension_feasible(d.degrees, delta)


def _extension_feasible(degs: tuple[int, ...], delta: int) -> bool:
    """Kernel of extension_feasible; ``delta`` is even and in [1, len(degs)]."""
    if degs[delta - 1] < 1:
        # fewer than delta positive entries: the reduced sequence would go
        # negative, so the augmented sequence cannot be graphic
        return False
    # the reduced sum is even: degs is graphic and delta is even
    reduced = [x - 1 for x in degs[:delta]] + list(degs[delta:])
    return _eg_first_violation(tuple(sorted(reduced, reverse=True))) is None


def delta_star(d: DegreeSequence) -> int:
    """Largest even delta such that the augmented sequence stays graphic.

    Binary search over delta in [2, n]; valid because feasibility is
    monotone downward in delta.
    """
    require_graphic(d)
    if d.max_degree == 0:
        raise ValidationError("delta_star undefined for an empty or all-zero sequence")
    return _delta_star(d.degrees)


def _delta_star(degs: tuple[int, ...]) -> int:
    """Kernel of delta_star; ``degs`` has at least one positive entry."""
    lo, hi = 1, len(degs) // 2
    best = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        if _extension_feasible(degs, 2 * mid):
            best = mid
            lo = mid + 1
        else:
            hi = mid - 1
    if best == 0:
        raise InternalConsistencyError("no feasible extension for a non-zero graphic sequence")
    return 2 * best


def _small_k_holds(degs: tuple[int, ...], prefix: list[int], mu: int) -> bool:
    """The small-k family of the closed form for a matching of size ``mu``:
    every 1 <= k < mu has prefix[k] <= k*k + tail(k), where tail(k) is the
    sum of min(d_i, k) over i >= k with d_i - 1 for i < 2*mu.

    ``degs`` must be arranged and positive, with 2*mu <= len(degs), and
    ``prefix`` its prefix sums. The two capped sums share one pointer:
    w = #{d_i >= k + 1} only falls as k grows, and before it moves it is
    #{d_i >= k}, so no k bisects.
    """
    delta = 2 * mu
    n = len(degs)
    w = n  # every entry is >= 1
    for k in range(1, mu):
        q = max(w, delta)  # entries of [delta, n) that are >= k end at q
        while w and degs[w - 1] <= k:
            w -= 1
        p = min(max(w, k), delta)  # entries of [k, delta) that are >= k + 1 end at p
        # tail(k): min(d_i, k + 1) - 1 summed over [k, delta), plus min(d_i, k) over [delta, n)
        tail = (k + 1) * (p - k) + prefix[delta] - prefix[p] - (delta - k)
        tail += k * (q - delta) + prefix[n] - prefix[q]
        if prefix[k] > k * k + tail:
            return False
    return True


def _corrected_holds(degs: tuple[int, ...], prefix: list[int], mu: int) -> bool:
    """The closed form's single corrected inequality for a matching of size
    ``mu``, at the index where reducing the top 2*mu entries can break the
    arrangement (k = 2*mu + t_d(2*mu)); same input contract as _small_k_holds."""
    delta = 2 * mu
    n = len(degs)
    dd = degs[delta - 1]
    after = bisect_right(degs, -dd, delta, key=neg) - delta
    k = bisect_left(degs, -dd, 0, delta, key=neg) + after  # delta + (after - upto)
    if k < 0:
        raise InternalConsistencyError("negative corrected index in closed form")
    # k is at or past the first dd, so the entries equal to dd from k on end at b
    b = delta + after
    tail = _capped_sum(degs, prefix, k, b, k + 1) - (b - k) + _capped_sum(degs, prefix, b, n, k)
    return prefix[k] - k + after <= k * (k - 1) + tail


def nu_star_formula(d: DegreeSequence) -> int:
    """Closed-form maximum matching number over all realizations: the
    largest size whose inequality family holds."""
    require_graphic(d)
    if d.max_degree == 0:
        raise ValidationError("nu_star undefined for an empty or all-zero sequence")
    return _nu_star_formula(d.strip_zeros()[0].degrees)


def _nu_star_formula(degs: tuple[int, ...]) -> int:
    """Kernel of nu_star_formula; ``degs`` is non-empty with positive entries.

    The answer is the largest mu <= n // 2 at which both the small-k family
    and the corrected inequality hold (0 if none does).

    Lemma: the small-k family is downward closed in mu. Proof: going from
    mu to mu - 1, each k's tail, the sum over i >= k of
    min(d_i - [i < 2*mu], k), decrements two fewer entries before capping,
    so it cannot shrink; the left sides prefix[k] do not depend on mu; and
    the range of k only shrinks. So the mu at which the family holds form a
    prefix 1..top of 1..n // 2 (mu = 1 checks no k).

    Probing mu = n // 2, n // 2 - 1, n // 2 - 3, ... and bisecting the last
    bracket finds top in O(log n) family checks, each O(n); below top only
    the corrected inequality, O(log n) each, is left to test, from top
    down. That returns what a descending scan over every mu returns.
    """
    prefix = [0, *accumulate(degs)]
    # the family fails at bad (n // 2 + 1 is past the range), and holds at probe once the gallop stops
    bad, probe, step = len(degs) // 2 + 1, len(degs) // 2, 1
    while not _small_k_holds(degs, prefix, probe):
        bad, probe, step = probe, max(probe - step, 1), 2 * step
    while bad - probe > 1:
        mid = (probe + bad) // 2
        if _small_k_holds(degs, prefix, mid):
            probe = mid
        else:
            bad = mid
    for mu in range(probe, 0, -1):
        if _corrected_holds(degs, prefix, mu):
            return mu
    return 0


def nu_star(d: DegreeSequence) -> int:
    """Maximum matching number over all realizations, computed two ways.

    Runs both the extension search (delta_star / 2) and the closed form and
    insists they agree; a disagreement is a defect, not a result.
    """
    require_graphic(d)
    if d.max_degree == 0:
        # the extension search runs first, so its error is the one reported
        raise ValidationError("delta_star undefined for an empty or all-zero sequence")
    via_search = _delta_star(d.degrees) // 2
    via_formula = _nu_star_formula(d.strip_zeros()[0].degrees)
    if via_search != via_formula:
        raise InternalConsistencyError(
            f"nu_star mismatch on {d}: extension search gives {via_search}, "
            f"closed form gives {via_formula}"
        )
    return via_formula
