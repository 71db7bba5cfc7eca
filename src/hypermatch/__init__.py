"""Extremal hypergraph matching lab.

Constructions with known matching and cover numbers, exact and fractional
solvers with certificates, shift compression, closeness diagnostics, and a
fractional-to-integral rounding pipeline, all at desk scale.
"""

from .constructions import (
    BoundReport,
    augment_universal,
    bound_report,
    clique_family,
    cover_family,
    hilton_milner_family,
    prefix_overlap_family,
)
from .core import (
    BudgetExceeded,
    Hypergraph,
    complete_graph,
    random_hypergraph,
    read_hg,
    write_hg,
)
from .optimize import (
    FractionalAssignment,
    Matching,
    VertexCover,
    check_lp_duality,
    fractional_cover,
    fractional_matching,
    fractional_perfect_matching,
    greedy_rainbow_matching,
    max_independent_set,
    max_matching,
    min_vertex_cover,
    threshold_cover_graph,
)
from .rounding import (
    FPMFamily,
    extract_fpm_family,
    mix_and_halve,
    near_perfect_matching,
    pipeline,
    sample_binomial_subgraph,
)
from .shifting import is_downset, is_stable, shift_edge, shift_graph, stabilize
from .stability import (
    bound_table,
    closeness_to_clique,
    closeness_to_cover,
    crossover_gap,
    crossover_gap_derivative,
    crossover_root,
    crossover_root_closed_form,
    goodness_partition,
    missing_edges,
)
from .verify import VerifyResult, revalidate_witnesses, verify_extremal

__version__ = "0.1.0"
