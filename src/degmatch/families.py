"""Deterministic generators for the graph families used as fixtures.

Each builder checks its parameters, then computes the family's vertex
and edge counts from them and refuses a family with more than
``EDGE_LIST_CAP`` of either with ``CapExceededError``, before anything
is built: a family at the cap takes a few hundred MB. A builder makes
its edges normalized (u < v, each once) by the family's rule and builds
a trusted graph from them, so they are not normalized a second time.
"""

from __future__ import annotations

from itertools import combinations

from . import _EXPORTS
from .constants import FAMILY_KINDS
from .errors import CapExceededError, ValidationError, _refused
from .graphs import EDGE_LIST_CAP, Graph

__all__ = (*_EXPORTS["families"], "FAMILY_KINDS")


def _check_size(n: int, m: int) -> None:
    """Refuse a family of n vertices and m edges if either count is over
    ``EDGE_LIST_CAP``."""
    if n > EDGE_LIST_CAP or m > EDGE_LIST_CAP:
        raise _refused(
            "family of {} vertices and {} edges exceeds cap {}", n, m, EDGE_LIST_CAP, error=CapExceededError
        )


def half_graph(n: int) -> Graph:
    """Vertices 1..n (stored 0-based); edge ij iff i,j <= n/2 or i + n/2 <= j."""
    if n < 2 or n % 2:
        raise _refused("half graph needs an even n >= 2, got {}", n)
    half = n // 2
    _check_size(n, half * half)
    # 0-based: the clique on 0..half-1, and each i < half joined to every j >= i + half
    edges = [*combinations(range(half), 2), *((i, j) for i in range(half) for j in range(i + half, n))]
    return Graph._trusted(n, frozenset(edges))


def windmill(t: int, l: int) -> Graph:
    """t cliques on l vertices sharing one central vertex (id 0)."""
    if t < 1:
        raise _refused("windmill needs t >= 1 blades, got {}", t)
    if l < 2:
        raise _refused("windmill needs clique size l >= 2, got {}", l)
    n = t * (l - 1) + 1
    _check_size(n, t * (l * (l - 1) // 2))
    # blade b is the clique on 0 and the l - 1 vertices from b on
    return Graph._trusted(
        n, frozenset(e for b in range(1, n, l - 1) for e in combinations((0, *range(b, b + l - 1)), 2))
    )


def cycle(n: int) -> Graph:
    if n < 3:
        raise _refused("cycle needs n >= 3, got {}", n)
    _check_size(n, n)
    return Graph._trusted(n, frozenset([*((i, i + 1) for i in range(n - 1)), (0, n - 1)]))


def path(n: int) -> Graph:
    if n < 1:
        raise _refused("path needs n >= 1, got {}", n)
    _check_size(n, n - 1)
    return Graph._trusted(n, frozenset((i, i + 1) for i in range(n - 1)))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise _refused("complete bipartite needs both sides >= 1, got {}, {}", a, b)
    _check_size(a + b, a * b)
    return Graph._trusted(a + b, frozenset((i, a + j) for i in range(a) for j in range(b)))


def disjoint_cliques(count: int, size: int) -> Graph:
    if count < 1 or size < 1:
        raise _refused("need count >= 1 and size >= 1, got {}, {}", count, size)
    n = count * size
    _check_size(n, count * (size * (size - 1) // 2))
    return Graph._trusted(n, frozenset(e for b in range(0, n, size) for e in combinations(range(b, b + size), 2)))


def disjoint_triangles(count: int) -> Graph:
    return disjoint_cliques(count, 3)


def regular_circulant(n: int, r: int) -> Graph:
    """r-regular circulant: i joined to i +- 1 .. i +- r//2 (mod n), plus the
    antipode when r is odd (which forces n even)."""
    if n < 1 or r < 0 or r >= n:
        raise _refused("need 0 <= r < n, got n={}, r={}", n, r)
    if (n * r) % 2:
        raise _refused("n*r must be even, got n={}, r={}", n, r)
    _check_size(n, n * r // 2)
    # offset off joins i to (i + off) % n, normalized: (i, i + off) below
    # n - off, and (i, i + n - off) for the i < off it wraps to; r < n, so
    # off < n / 2 and no edge comes twice, antipodes included
    edges = []
    for off in range(1, r // 2 + 1):
        edges += [(i, i + off) for i in range(n - off)]
        edges += [(i, i + n - off) for i in range(off)]
    if r % 2:
        edges += [(i, i + n // 2) for i in range(n // 2)]
    return Graph._trusted(n, frozenset(edges))


# each kind's constructor and the names of its parameters, in call order;
# the keys are FAMILY_KINDS, in its order
_FAMILIES = {
    "half-graph": (half_graph, ("n",)),
    "windmill": (windmill, ("t", "l")),
    "cycle": (cycle, ("n",)),
    "path": (path, ("n",)),
    "complete-bipartite": (complete_bipartite, ("a", "b")),
    "disjoint-triangles": (disjoint_triangles, ("k",)),
    "disjoint-cliques": (disjoint_cliques, ("k", "l")),
    "regular-circulant": (regular_circulant, ("n", "r")),
}


def make_family(kind: str, **params: int) -> Graph:
    """Dispatch by family name; hyphens and underscores are interchangeable.
    A missing parameter, or one the kind does not take, is refused."""
    key = kind.replace("_", "-").lower()
    if key not in _FAMILIES:
        raise _refused("unknown family kind {}; known: " + ", ".join(FAMILY_KINDS), kind)
    build, names = _FAMILIES[key]
    missing = [name for name in names if params.get(name) is None]
    if missing:
        raise ValidationError(f"family {key!r} needs parameters: {', '.join(missing)}")
    extra = [name for name in params if name not in names]
    if extra:
        raise _refused("family {} takes no parameter {}", key, extra[0])
    return build(*(params[name] for name in names))
