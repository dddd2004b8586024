"""The choices and defaults the command-line parser shows.

Each is defined here once, in a module that imports nothing, so that
``degmatch.cli`` can build its parser without loading the kernels.
``dpg``, ``families`` and ``enumeration`` export them under the same names.
"""

__all__ = [
    "MATCHING_POLICIES",
    "FAMILY_KINDS",
    "DEFAULT_MAX_N",
    "DEFAULT_MAX_DEGREE_SUM",
]

# the matchings a growth step can remove; see ``dpg``
MATCHING_POLICIES = ("random", "first", "max-degree")

# the kinds ``families.make_family`` builds, in its table's order
FAMILY_KINDS = (
    "half-graph",
    "windmill",
    "cycle",
    "path",
    "complete-bipartite",
    "disjoint-triangles",
    "disjoint-cliques",
    "regular-circulant",
)

# the realization walk's caps; see ``enumeration``
DEFAULT_MAX_N = 8
DEFAULT_MAX_DEGREE_SUM = 24
