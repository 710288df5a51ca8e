"""Verification lab for size and spectral-radius conditions for even factors."""

from .factor import (
    EXISTS,
    NOT_EXISTS,
    UNKNOWN,
    ConditionReport,
    EvenFactorResult,
    check_yan_kano_condition,
    cycle_space_basis,
    has_even_factor,
    has_even_factor_naive,
    verify_even_factor,
)
from .graph6 import (
    Graph6Error,
    GraphParseError,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from .graphs import (
    FamilySpec,
    Graph,
    build_family,
    complete,
    cycle,
    disjoint_union,
    extremal,
    join,
    merged_family,
    odd_components_minus,
    path,
)
from .harness import (
    SweepReport,
    lemma_merge_sweep,
    soundness_sweep,
    tightness_report,
)
from .identities import (
    IdentityCheck,
    grid_row,
    run_identity_grid,
)
from .rng import SplitMix64, random_connected_graph, random_graph_with_edges
from .spectral import (
    CubicPoly,
    PowerIterationError,
    RootFindingError,
    SpectralResult,
    char_poly,
    largest_real_root,
    spectral_radius,
    split_quotient,
)
from .thresholds import (
    Verdict,
    applicability,
    edge_threshold,
    recognize_extremal,
    spectral_threshold,
    verdict,
)

__version__ = "0.1.0"
