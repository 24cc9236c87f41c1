"""Wasserstein barycenters with randomized dimensionality reduction and
sensitivity-sampling coresets."""

from .core import (
    BadParams,
    BadWeights,
    BaryError,
    CostReport,
    DiscreteDistribution,
    NumericalFailure,
    Solution,
    make_distribution,
    pool_batch,
)
from .transport import (
    TransportPlan,
    cost_matrix,
    solve_ot,
    wasserstein_p,
)
from .barycenter import (
    SolverOptions,
    reconstruct_barycenter,
    solution_cost,
    solve_barycenter,
    update_support_atom,
)
from .projection import (
    ProjectionMap,
    cost_ratio_sweep,
    jl_dimension,
    make_gaussian_map,
    make_srht_map,
    project_instance,
    reduce_solve_reconstruct,
)
from .coreset import (
    WeightedCoreset,
    build_coreset,
    coreset_size_bound,
    evaluate_coreset,
    sensitivity_upper_bounds,
)

__version__ = "0.1.0"
