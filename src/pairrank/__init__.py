"""Rankings from pairwise comparison matrices, three ways.

The package computes and compares three scoring methods for pairwise
comparison matrices: least-squares row means, the Perron eigenvector, and
the max-plus (tropical) eigenvector. It also builds matrices on which chosen
methods disagree in prescribed ways, classifies 4-item matrices into the
regions where the tropical solution is a fixed linear formula, and runs
seeded Monte Carlo disagreement studies.
"""

from .core import (
    ComparisonMatrix,
    Ranking,
    Scale,
    ScoreVector,
    UpperTriangleVector,
    additive_matrix,
    is_strongly_transitive,
    load_matrix,
    matrix_from_upper_triangle,
    multiplicative_matrix,
    rank_of,
    relabel,
    relabel_ranking,
    save_matrix,
    strongly_transitive_from_scores,
    to_additive,
    to_multiplicative,
    upper_triangle,
)
from .methods import (
    PerronSolution,
    TropicalSolution,
    hadamard_power,
    hadamard_product,
    hodge_scores,
    principal_scores,
    tropical_eigenvalue,
    tropical_scores_multiplicative,
    tropical_solve,
)
from .geometry import (
    PermutahedronReport,
    RegionMatch,
    classify_region4,
    f_products4,
    m_minus_h_reduction,
    permutahedron_check4,
    project_components,
    threecycle_basis,
    tropical_closed_form4,
)
from .witness import (
    Pair,
    PerturbationSpec,
    WitnessRequest,
    WitnessResult,
    default_perturbation,
    generate_witness,
    perturbed_closed_form,
    perturbed_matrix,
    witness_hodge_principal,
    witness_hodge_tropical,
    witness_tropical_principal,
)
from .analysis import (
    DisagreementReport,
    GaussianUpperTriangle,
    SimulationConfig,
    TrajectoryPoint,
    UniformSTperp,
    consistency_index,
    hadamard_trajectory,
    kendall_tau,
    monte_carlo_disagreement,
)
from . import errors

__version__ = "0.1.0"
