"""Graphicality decisions, realization construction, and the largest extension degree.

Erdos-Gallai decides graphicality, and so does the deterministic
Havel-Hakimi realization builder, run for its verdict: on one integer-keyed
heap of runs of equal remaining demand, a step moves each run it touches in
one heap operation and writes each edge in O(1), so it is O((n + m) log n)
at worst and far less when runs are long, and it runs out of targets
exactly on a non-graphic sequence. The extension machinery answers "can this
sequence absorb a new vertex of even degree delta", culminating in
delta_star and with it the maximum matching number over all realizations,
nu_star = delta_star / 2; ``nu_star_formula`` is the paper's closed form
for the same number.

One evaluator, ``_eg_first_violation``, answers every Erdos-Gallai
question: the guard's and each delta_star probe's. It works on the run
form (``_run_form``), the r <= 2*sqrt(m) + 1 distinct degrees with the end
and prefix sum of each run, found in one pass with one bisect per run, and
checks O(r) indices. Lowering the top delta entries maps runs to runs, so a
delta_star probe builds its reduced sequence in run form in O(r), sorts
nothing, and asks the same evaluator.

Validation contract: public functions validate their input once;
``require_graphic`` is the only place that raises NotGraphicError; the
``_``-prefixed kernels take an arranged graphic tuple and never re-validate
(``_hh_rows`` takes any arranged tuple and raises on a non-graphic one).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from itertools import accumulate
from operator import neg
from typing import TYPE_CHECKING, Callable, Optional

from . import _EXPORTS
from .errors import _SHOWN, InternalConsistencyError, NotGraphicError, ValidationError, _refused, _shown, _shown_int
from .sequences import DegreeSequence

if TYPE_CHECKING:
    from .graphs import Graph

__all__ = (*_EXPORTS["graphicality"], "require_graphic")


@dataclass(frozen=True)
class GraphicVerdict:
    """Outcome of an Erdos-Gallai check."""

    is_graphic: bool
    failing_k: Optional[int] = None
    parity_ok: bool = True


def _gallop(lo: int, hi: int, holds: Callable[[int], bool]) -> int:
    """The first x in lo..hi at which ``holds`` is true, or hi + 1 if there
    is none, for a ``holds`` that is false and then true on lo..hi, and
    lo <= hi + 1 (Bentley and Yao, "An almost optimal algorithm for
    unbounded searching", Inf. Process. Lett. 1976).

    It probes lo, lo + 1, lo + 3, lo + 7, ..., with the last probe at hi,
    until one holds, then bisects between it and the probe before: for an
    answer a, O(log(a - lo + 2)) calls of ``holds``.
    """
    bad, probe, step = lo - 1, lo, 1
    while probe <= hi and not holds(probe):
        if probe == hi:
            return hi + 1
        bad, probe, step = probe, min(probe + step, hi), 2 * step
    return bad + 1 + bisect_left(range(bad + 1, probe), True, key=holds)


def _capped_sum(degs: tuple[int, ...], prefix: list[int], a: int, b: int, c: int) -> int:
    """Sum of min(d_i, c) over a <= i < b on arranged ``degs`` with prefix sums ``prefix``:
    c*(p - a) + prefix[b] - prefix[p], where p - a entries of the range are >= c. A reduced
    entry d_i - 1 is capped through min(d_i - 1, k) = min(d_i, k + 1) - 1."""
    p = bisect_right(degs, -c, a, b, key=neg)
    return c * (p - a) + prefix[b] - prefix[p]


Runs = tuple[list[int], list[int], list[int]]


def _run_form(degs: tuple[int, ...]) -> Runs:
    """The run form of an arranged ``degs``: its distinct values,
    descending, the end (exclusive) of each value's run, and the prefix sum
    at each run end; one pass with one bisect per run, O(r log n)."""
    vals, ends, sums = [], [], []
    i = total = 0
    n = len(degs)
    while i < n:
        v = degs[i]
        e = bisect_right(degs, -v, i + 1, n, key=neg)
        total += v * (e - i)
        vals.append(v)
        ends.append(e)
        sums.append(total)
        i = e
    return vals, ends, sums


def _eg_first_violation(runs: Runs, check_all_k: bool = False) -> Optional[int]:
    """Smallest checked k violating the Erdos-Gallai inequality, or None.

    ``runs`` is an arranged sequence in run form (``_run_form``): values
    non-increasing and non-negative, run ends, and the prefix sums at the
    run ends. Two neighbouring runs may share a value.

    By default only the run ends below s = max{i : d_i >= i} are checked,
    plus s: Tripathi and Vijay (Discrete Math. 2003) show this is enough on
    any arranged sequence. A run end between two runs of one value is
    checked without need, which is harmless. ``check_all_k`` checks every
    k = 1..n instead. Both walk k upward on two one-way pointers: the run
    that holds k, and t, where the runs ``[:t]`` hold the entries >= k.
    """
    vals, ends, sums = runs
    total = sums[-1] if sums else 0
    t = len(vals)
    a = below = 0  # the end of the previous run and the prefix sum there
    for v, e, at_e in zip(vals, ends, sums):
        if check_all_k:
            k, last = a + 1, e
        else:
            # d_i >= i here exactly for i <= v: check e if v >= e (so s >= e),
            # else s = v if v > a, or s = a, already checked, if v <= a
            k = last = v if v < e else e
            if k <= a:
                return None
        while k <= last:
            while t and vals[t - 1] < k:
                t -= 1
            c = ends[t - 1] if t else 0  # #{d_i >= k}
            lhs = below + v * (k - a)
            # k(k - 1) + sum(min(d_i, k), i > k): past k, the c - k entries >= k count k each
            rhs = k * (c - 1) + total - sums[t - 1] if c > k else k * (k - 1) + total - lhs
            if lhs > rhs:
                return k
            k += 1
        if v < e and not check_all_k:
            return None  # s was checked
        a, below = e, at_e
    return None


def is_graphic_eg(d: DegreeSequence, *, check_all_k: bool = False) -> GraphicVerdict:
    """Decide graphicality by the Erdos-Gallai criterion.

    ``check_all_k`` forces the inequality at every k = 1..n instead of the
    restricted index set; both modes must agree (tested).
    """
    return _eg_verdict(_run_form(d.degrees), check_all_k)


def _eg_verdict(runs: Runs, check_all_k: bool = False) -> GraphicVerdict:
    """``is_graphic_eg``'s verdict on a sequence in run form."""
    if runs[2] and runs[2][-1] % 2:  # the degree sum is odd
        return GraphicVerdict(is_graphic=False, failing_k=None, parity_ok=False)
    k = _eg_first_violation(runs, check_all_k=check_all_k)
    return GraphicVerdict(is_graphic=k is None, failing_k=k)


def require_graphic(d: DegreeSequence) -> Runs:
    """Raise NotGraphicError, carrying the Erdos-Gallai verdict, unless ``d``
    is graphic; return the run form it checked, for a caller that goes on
    to use it."""
    runs = _run_form(d.degrees)
    verdict = _eg_verdict(runs)
    if not verdict.is_graphic:
        # a longer sequence is cut inside its first _SHOWN entries, which
        # hold more than _SHOWN characters
        shown = _shown(",".join(map(_shown_int, d.degrees[:_SHOWN])))
        raise NotGraphicError(f"sequence ({shown}) is not graphic", verdict)
    return runs


def is_graphic_hh(d: DegreeSequence) -> bool:
    """Decide graphicality by Havel-Hakimi: run the realizer's kernel, whose
    steps all find their targets exactly when ``d`` is graphic."""
    try:
        _hh_rows(d.degrees)
    except InternalConsistencyError:
        return False
    return True


def realize_hh(d: DegreeSequence) -> Graph:
    """Build a labelled realization where vertex i has degree d_i.

    Deterministic rule: repeatedly take the vertex with the largest
    remaining demand (lowest id on ties) and connect it to the vertices
    with the next-largest demands (again lowest id on ties). The kernel,
    ``_hh_rows``, applies the rule to whole runs of ids with equal demand.
    """
    from .graphs import Graph

    require_graphic(d)
    rows = _hh_rows(d.degrees)
    # each pair is written once, as (lower, higher), so vertex i has degree d_i
    edges = frozenset((u, v) for u, row in enumerate(rows) for v in row)
    return Graph._trusted(d.n, edges)


def _hh_rows(degs: tuple[int, ...]) -> list[list[int]]:
    """Kernel of realize_hh and is_graphic_hh on an arranged ``degs``: row u
    lists the neighbours v > u of vertex u, ascending, so reading the rows
    in order gives the edges sorted. By Havel and Hakimi's theorem a step
    runs out of targets, raising InternalConsistencyError, exactly when
    ``degs`` is not graphic, odd sums and degrees >= n included.

    One min-heap holds runs: a run is an interval of ids s .. end[s] - 1
    that share one remaining demand r > 0, keyed by the integer s - r*n.

    Invariant: every vertex of positive demand lies in exactly one run on
    the heap, and ``end`` holds the end of each run at its start. The runs
    of one demand are then disjoint intervals of ids, so key order is the
    rule's order, largest demand first and then lowest id, and taking runs
    from the heap top in key order takes vertices in the order a heap of
    single vertices keyed i - r*n would pop them.

    A step pops the top run; its first id v, with demand k, is the vertex
    to connect, and the rest v + 1 .. end takes its place on the heap. Whole runs
    are then taken from the heap top until v has k targets; if only part of
    the last one is needed, its first ids are taken and the rest keeps its
    place through one heapreplace. Only after the k-th target is taken does
    each taken piece whose demand is still positive go back, at key + n, so
    no vertex is taken twice in a step. A step costs O(log n) per run it
    touches and O(1) per edge, so at worst O((n + m) log n); sorting the
    rows costs O(m log n) more.
    """
    n = len(degs)
    end = [0] * n
    heap = []  # arranged, so the keys ascend: the list is already a heap
    vals, ends, _ = _run_form(degs)
    s = 0
    for r, e in zip(vals, ends):
        if r:
            end[s] = e
            heap.append(s - r * n)
        s = e
    rows: list[list[int]] = [[] for _ in range(n)]
    while heap:
        key = heap[0]
        v = key % n
        k = (v - key) // n
        if end[v] > v + 1:
            end[v + 1] = end[v]
            heapreplace(heap, key + 1)
        else:
            heappop(heap)
        row = rows[v]
        taken = []
        while k:
            if not heap:
                raise InternalConsistencyError("realization ran out of targets: the sequence is not graphic")
            t = heap[0]
            a = t % n
            e = end[a]
            if e - a > k:  # split: a .. a + k - 1 is taken, the rest keeps its demand
                end[a + k] = e
                e = end[a] = a + k
                heapreplace(heap, t + k)
            else:
                heappop(heap)
            k -= e - a
            taken.append(t)
            if v < a:
                row.extend(range(a, e))
            else:
                for j in range(a, e):
                    rows[j].append(v)
        for t in taken:
            if t + n < 0:  # a key is negative exactly while its demand is positive
                heappush(heap, t + n)
    # the heap empties only when every demand is met, so there is no unmet demand to check
    for row in rows:
        row.sort()
    return rows


def extension_feasible(d: DegreeSequence, delta: int) -> bool:
    """Can a graphic ``d`` absorb a new vertex of even degree ``delta``?

    Equivalent to graphicality of the augmented sequence, decided on the
    reduced sequence (first delta entries decremented). This is the
    package's answer to the paper's first theorem (d extends by delta
    exactly when some realization has a matching of delta/2 edges covering
    the delta largest degrees); the tests and CI check it against that
    theorem's exhaustive split search on every pair (d, delta) with
    n <= 10.
    """
    _check_delta(delta, d.n)
    return _reduced_graphic(require_graphic(d), delta)


def _check_delta(delta: int, n: int) -> None:
    """Raise ValidationError unless ``delta`` is an even degree a new vertex
    could take next to n vertices: 1 <= delta <= n."""
    if delta % 2:
        raise _refused("delta={} must be even", delta)
    if not 1 <= delta <= n:
        raise _refused("delta={} out of range [1, {}]", delta, n)


def _reduced_graphic(runs: Runs, delta: int) -> bool:
    """Is the sequence with its first ``delta`` entries decremented graphic?
    The kernel of extension_feasible and of each delta_star probe. Input:
    the run form of an arranged graphic sequence, and an even ``delta`` in
    [1, n].

    With v = d_delta in the run [a, b), every run above v drops by one and
    stays >= v; the run of v splits into its b - delta entries that keep v
    and the delta - a entries that become v - 1, in that order; the runs
    below keep their values, all <= v - 1. So the reduced sequence is
    arranged in run form in O(r), with no sort, where two neighbouring runs
    may share a value, and ``_eg_first_violation`` decides it. Its sum is
    even: the input is graphic and delta is even.
    """
    vals, ends, sums = runs
    j = bisect_left(ends, delta)  # the run holding position delta - 1
    v = vals[j]
    if v < 1:
        # fewer than delta positive entries: the reduced sequence would go
        # negative, so the augmented sequence cannot be graphic
        return False
    a = ends[j - 1] if j else 0
    below = sums[j - 1] if j else 0
    r_vals = [x - 1 for x in vals[:j]]
    r_ends = ends[:j]
    r_sums = [x - e for x, e in zip(sums, r_ends)]
    b = ends[j]
    if b > delta:
        r_vals.append(v)
        r_ends.append(a + b - delta)
        r_sums.append(below - a + v * (b - delta))
    r_vals += [v - 1, *vals[j + 1 :]]
    r_ends += ends[j:]
    r_sums += [x - delta for x in sums[j:]]
    return _eg_first_violation((r_vals, r_ends, r_sums)) is None


def delta_star(d: DegreeSequence) -> int:
    """Largest even delta such that the augmented sequence stays graphic.

    Binary search over delta in [2, n]; valid because feasibility is
    monotone downward in delta.
    """
    runs = require_graphic(d)
    if d.max_degree == 0:
        raise ValidationError("delta_star undefined for an empty or all-zero sequence")
    return _delta_star_of_runs(runs)


def _delta_star_of_runs(runs: Runs) -> int:
    """Kernel of delta_star, on the run form the guard built: each probe
    costs O(r), and n is the last run end."""
    best = bisect_left(range(1, runs[1][-1] // 2 + 1), True, key=lambda mu: not _reduced_graphic(runs, 2 * mu))
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
    #{d_i >= k}; it moves by one bisect, across a whole run of equal
    degrees, so a check costs O(mu + r log n) for r distinct degrees.
    """
    delta = 2 * mu
    n = len(degs)
    w = n  # every entry is >= 1
    for k in range(1, mu):
        q = max(w, delta)  # entries of [delta, n) that are >= k end at q
        if w and degs[w - 1] <= k:
            w = bisect_right(degs, -(k + 1), 0, w, key=neg)
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
    arrangement: k = delta + t_d(delta) with delta = 2*mu, where t_d(delta)
    counts the entries equal to d_delta after position delta (1-based),
    minus those at or before it. Same input contract as _small_k_holds."""
    delta = 2 * mu
    n = len(degs)
    dd = degs[delta - 1]
    after = bisect_right(degs, -dd, delta, key=neg) - delta
    k = bisect_left(degs, -dd, 0, delta, key=neg) + after  # delta + (after - upto)
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

    ``_gallop`` finds top counting down from n // 2, as the first x at
    which the family holds at mu = n // 2 - x, in O(log n) family checks,
    each O(n); below top only the corrected inequality, O(log n) each, is
    left to test, from top down. That returns what a descending scan over
    every mu returns.
    """
    prefix = [0, *accumulate(degs)]
    h = len(degs) // 2
    # the family holds at mu = 1, so some x <= h - 1 holds
    top = h - _gallop(0, h - 1, lambda x: _small_k_holds(degs, prefix, h - x))
    for mu in range(top, 0, -1):
        if _corrected_holds(degs, prefix, mu):
            return mu
    return 0


def nu_star(d: DegreeSequence) -> int:
    """Maximum matching number over all realizations: delta_star / 2.

    The paper's first theorem: d extends by a new vertex of degree delta
    exactly when some realization has a matching of delta / 2 edges, so the
    extension search answers. The closed form ``nu_star_formula`` gives the
    same number (tested on every graphic sequence with n <= 10).
    """
    return delta_star(d) // 2
