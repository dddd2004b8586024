"""Graphicality decisions, realization construction, and the largest extension degree.

Two independent deciders (Erdos-Gallai inequalities and Havel-Hakimi
reduction) plus a deterministic realization builder. The extension
machinery answers "can this sequence absorb a new vertex of even degree
delta", culminating in delta_star and the closed-form evaluation of the
maximum matching number over all realizations, nu_star.

Validation contract: public functions validate their input once;
``require_graphic`` is the only place that raises NotGraphicError; the
``_``-prefixed kernels take an arranged graphic tuple and never re-validate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InternalConsistencyError, NotGraphicError, ValidationError
from .graphs import Graph
from .sequences import DegreeSequence

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
        for i in range(1, n + 1):
            if degs[i - 1] >= i:
                s = i
            else:
                break
        if s == 0:  # all entries zero
            return None
        ks = [k for k in range(1, s + 1) if k == s or degs[k - 1] > degs[k]]
    ki = 0
    running = 0
    for k in range(1, n + 1):
        running += degs[k - 1]
        if ki < len(ks) and ks[ki] == k:
            ki += 1
            rhs = k * (k - 1) + sum(min(x, k) for x in degs[k:])
            if running > rhs:
                return k
    return None


def _eg_graphic_list(degs_sorted_desc: list[int]) -> bool:
    """Fast yes/no Erdos-Gallai on a plain pre-sorted list (parity included)."""
    return sum(degs_sorted_desc) % 2 == 0 and _eg_first_violation(tuple(degs_sorted_desc)) is None


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
    """Decide graphicality by iterated Havel-Hakimi reduction."""
    lst = list(d.degrees)
    while lst and lst[0] > 0:
        k = lst[0]
        if k > len(lst) - 1:
            return False
        rest = lst[1:]
        for i in range(k):
            rest[i] -= 1
        if rest[k - 1] < 0:
            return False
        rest.sort(reverse=True)
        lst = rest
    return True


def realize_hh(d: DegreeSequence) -> Graph:
    """Build a labelled realization where vertex i has degree d_i.

    Deterministic rule: repeatedly take the vertex with the largest
    remaining demand (lowest id on ties) and connect it to the vertices
    with the next-largest demands (again lowest id on ties).
    """
    require_graphic(d)
    n = d.n
    residual = list(d.degrees)
    edges = []
    for _ in range(n):
        v = min(range(n), key=lambda i: (-residual[i], i))
        k = residual[v]
        if k == 0:
            break
        residual[v] = 0
        targets = sorted(
            (j for j in range(n) if j != v and residual[j] > 0),
            key=lambda j: (-residual[j], j),
        )
        if len(targets) < k:
            raise InternalConsistencyError("realization ran out of targets on a graphic sequence")
        for j in targets[:k]:
            residual[j] -= 1
            edges.append((v, j))
    if any(residual):
        raise InternalConsistencyError("realization left unmet degree demands")
    return Graph(n, frozenset((u, w) if u < w else (w, u) for u, w in edges))


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
    reduced = [x - 1 for x in degs[:delta]] + list(degs[delta:])
    return _eg_graphic_list(sorted(reduced, reverse=True))


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


def _closed_form_holds(degs: tuple[int, ...], mu: int) -> bool:
    """Check the inequality family certifying a matching of size ``mu``.

    ``degs`` must be arranged, positive, with 2*mu <= len(degs). Two parts:
    the small-k family for 1 <= k < mu, and a single corrected inequality
    at the index where reducing the top 2*mu entries can break the
    arrangement (k = 2*mu + t_d(2*mu)).
    """
    delta = 2 * mu
    n = len(degs)
    for k in range(1, mu):
        lhs = sum(degs[:k])
        rhs = k * k + sum(
            min(degs[i] - (1 if i < delta else 0), k) for i in range(k, n)
        )
        if lhs > rhs:
            return False
    dd = degs[delta - 1]
    after = sum(1 for i in range(delta, n) if degs[i] == dd)
    upto = sum(1 for i in range(delta) if degs[i] == dd)
    k = delta + (after - upto)
    if k < 0:
        raise InternalConsistencyError("negative corrected index in closed form")
    lhs = sum(degs[:k]) - k + after
    rhs = k * (k - 1) + sum(
        min(degs[i] - (1 if degs[i] == dd else 0), k) for i in range(k, n)
    )
    return lhs <= rhs


def nu_star_formula(d: DegreeSequence) -> int:
    """Closed-form maximum matching number over all realizations.

    Evaluated by a descending scan of candidate sizes; the first size whose
    inequality family holds wins.
    """
    require_graphic(d)
    if d.max_degree == 0:
        raise ValidationError("nu_star undefined for an empty or all-zero sequence")
    return _nu_star_formula(d.strip_zeros()[0].degrees)


def _nu_star_formula(degs: tuple[int, ...]) -> int:
    """Kernel of nu_star_formula; ``degs`` is non-empty with positive entries."""
    for mu in range(len(degs) // 2, 0, -1):
        if _closed_form_holds(degs, mu):
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
