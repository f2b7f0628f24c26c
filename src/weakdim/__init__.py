"""Exact computation of the weak k-metric dimension of graphs.

A vertex set S weakly k-resolves a graph when, for every vertex pair
x, y, the distance differences |d(x,s) - d(y,s)| summed over s in S
reach k. This package computes the smallest such set (and the largest
feasible k, kappa) exactly, by closed form on solved families and by
certified search elsewhere, including the edge and mixed variants.
"""

from .closedform import (
    GridBorderLabeling,
    KappaFormula,
    formula_basis,
    grid_basis,
    grid_border_labeling,
    kappa_formula,
    wdim_formula,
)
from .errors import (
    DuplicateEdge,
    EdgeListFormatError,
    FormulaNotCovered,
    InvalidFamilyParameters,
    KaboveKappa,
    NotATree,
    NotConnected,
    ParameterOutOfRange,
    SameVertex,
    SelfLoop,
    TooLarge,
    TrivialGraph,
    VertexOutOfRange,
    WeakDimError,
    WrongTreeClass,
)
from .families import (
    FamilySpec,
    complete,
    complete_bipartite,
    cycle,
    generate,
    grid,
    parse_family,
    path,
    spider,
    star,
)
from .graph import (
    Graph,
    TwinSummary,
    all_pairs_distances,
    build_graph,
    find_twins,
    format_edgelist,
    load_edgelist,
    parse_edgelist,
    parse_vertex_set,
    twin_summary,
)
from .resolve import (
    KappaClass,
    KappaReport,
    PairDifferenceProfile,
    compute_kappa,
    delta_over_set,
    delta_pair,
    weak3_structure_witness,
)
from .solver import (
    Certificate,
    DimensionResult,
    ItemPair,
    Variant,
    VerifyResult,
    certificate_for,
    certificates_for,
    pair_profiles,
    solve_bnb,
    solve_bruteforce,
    solve_kmetric_dim,
    variant_kappa,
    verify_k_resolving,
    verify_local_k_resolving,
    verify_set,
    verify_weak_k_resolving,
    write_lp,
)
from .trees import (
    Thread,
    TreeShape,
    decompose_tree,
    delta_tree_pair,
    root_basis_size,
    spider3_basis,
    tree_basis,
)

__version__ = "0.1.0"
