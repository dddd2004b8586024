"""Degree-sequence toolkit: graphicality, matchings over realizations,
sequence-level matching bounds, and degree-preserving growth.

``import degmatch`` loads no submodule. Each exported name is imported
from its home module the first time it is used (PEP 562), and then kept in
this namespace; so are the submodules, as in ``degmatch.graphs``. A
command-line call therefore loads only the modules its command runs.

``_EXPORTS`` is the one list of exported names. Each submodule builds its
``__all__`` from its entry there, plus the few names only it exports (such
as ``graphs.Edge`` and ``enumeration.SPLIT_MAX_N``); this module imports
no submodule, so reading ``_EXPORTS`` from one makes no import cycle.
"""

from importlib import import_module

__version__ = "0.1.0"

# the exported names of each submodule, in order: its __all__ is built from them
_EXPORTS = {
    "errors": (
        "DegmatchError",
        "ValidationError",
        "NotGraphicError",
        "InfeasibleDeltaError",
        "CapExceededError",
        "InternalConsistencyError",
    ),
    "sequences": (
        "DegreeSequence",
        "make_sequence",
        "parse_sequence",
    ),
    "graphs": (
        "Graph",
        "Matching",
        "max_matching",
        "greedy_maximal_matching",
        "min_maximal_matching",
        "pinch",
        "verify_matching",
    ),
    "graphicality": (
        "GraphicVerdict",
        "is_graphic_eg",
        "is_graphic_hh",
        "realize_hh",
        "extension_feasible",
        "delta_star",
        "nu_star_formula",
        "nu_star",
    ),
    "bounds": (
        "BoundReport",
        "maximality_bound",
        "vizing_bound",
        "posa_bound",
        "gale_ryser_bound",
        "matching_lower_bound",
        "bound_report",
    ),
    "families": (
        "half_graph",
        "windmill",
        "cycle",
        "path",
        "complete_bipartite",
        "disjoint_cliques",
        "disjoint_triangles",
        "regular_circulant",
        "make_family",
    ),
    "enumeration": (
        "ConjectureRow",
        "enumerate_realizations",
        "count_realizations",
        "nu_bar_sequence",
        "all_graphic_sequences",
        "conjecture_scan",
        "rows_to_csv",
    ),
    "dpg": (
        "DpStepRecord",
        "GrowthTrace",
        "feasible_deltas",
        "dp_step",
        "grow",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "constants"}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
