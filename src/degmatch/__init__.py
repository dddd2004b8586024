"""Degree-sequence toolkit: graphicality, matchings over realizations,
sequence-level matching bounds, and degree-preserving growth."""

__version__ = "0.1.0"

from .errors import (
    CapExceededError,
    DegmatchError,
    InfeasibleDeltaError,
    InternalConsistencyError,
    NotGraphicError,
    ValidationError,
)
from .sequences import (
    DegreeSequence,
    SupportSet,
    augment,
    left_shift_leq,
    make_sequence,
    parse_sequence,
    reduce_top,
    t_d,
)
from .graphs import (
    Graph,
    Matching,
    greedy_maximal_matching,
    hh_swap,
    max_matching,
    max_matching_exhaustive,
    min_maximal_matching,
    pinch,
    verify_matching,
)
from .graphicality import (
    GraphicVerdict,
    delta_star,
    extension_feasible,
    is_graphic_eg,
    is_graphic_hh,
    nu_star,
    nu_star_formula,
    realize_hh,
)
from .bounds import (
    BoundReport,
    bound_report,
    gale_ryser_bound,
    matching_lower_bound,
    maximality_bound,
    posa_bound,
    vizing_bound,
)
from .families import (
    complete_bipartite,
    cycle,
    disjoint_cliques,
    disjoint_triangles,
    half_graph,
    make_family,
    path,
    regular_circulant,
    windmill,
)
from .enumeration import (
    ConjectureRow,
    all_graphic_sequences,
    conjecture_scan,
    count_realizations,
    enumerate_realizations,
    nu_bar_sequence,
    nu_star_brute,
    rows_to_csv,
    strong_extension_check,
)
from .dpg import DpStepRecord, GrowthTrace, dp_step, feasible_deltas, grow

__all__ = [
    "__version__",
    # errors
    "DegmatchError",
    "ValidationError",
    "NotGraphicError",
    "InfeasibleDeltaError",
    "CapExceededError",
    "InternalConsistencyError",
    # sequences
    "DegreeSequence",
    "SupportSet",
    "make_sequence",
    "parse_sequence",
    "t_d",
    "left_shift_leq",
    "reduce_top",
    "augment",
    # graphs
    "Graph",
    "Matching",
    "max_matching",
    "max_matching_exhaustive",
    "greedy_maximal_matching",
    "min_maximal_matching",
    "pinch",
    "hh_swap",
    "verify_matching",
    # graphicality
    "GraphicVerdict",
    "is_graphic_eg",
    "is_graphic_hh",
    "realize_hh",
    "extension_feasible",
    "delta_star",
    "nu_star_formula",
    "nu_star",
    # bounds
    "BoundReport",
    "maximality_bound",
    "vizing_bound",
    "posa_bound",
    "gale_ryser_bound",
    "matching_lower_bound",
    "bound_report",
    # families
    "half_graph",
    "windmill",
    "cycle",
    "path",
    "complete_bipartite",
    "disjoint_cliques",
    "disjoint_triangles",
    "regular_circulant",
    "make_family",
    # enumeration
    "ConjectureRow",
    "enumerate_realizations",
    "count_realizations",
    "nu_star_brute",
    "nu_bar_sequence",
    "strong_extension_check",
    "all_graphic_sequences",
    "conjecture_scan",
    "rows_to_csv",
    # growth
    "DpStepRecord",
    "GrowthTrace",
    "feasible_deltas",
    "dp_step",
    "grow",
]
