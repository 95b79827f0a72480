"""Randomized diffusion load balancing: simulators, oracles, and bounds."""

from .analysis import (
    DivergenceReport,
    bound_theorem1,
    bound_theorem2,
    bound_theorem3,
    bound_theorem5,
    convergence_time,
    dirichlet_form,
    dirichlet_identity_check,
    discrepancy,
    local_p_divergence,
    psi2_bound_reversible,
    psi2_bound_symmetric,
)
from .continuous import continuous_run
from .discrete import (
    LoadConfig,
    StepTrace,
    config_from_preset,
    destination_distribution,
    point_config,
    random_config,
    run,
    step_batch,
    step_naive,
    uniform_config,
)
from .errors import (
    DiffusimError,
    GenerationError,
    NonConvergentError,
    NotConvergedError,
    NotIrreducibleError,
    SizeLimitError,
    UnsupportedMatrixError,
    ValidationError,
)
from .graphs import (
    Graph,
    gen_complete,
    gen_cycle,
    gen_hypercube,
    gen_random_regular,
    gen_star,
    gen_torus,
    load_edge_list,
)
from .matrices import (
    RoundMatrix,
    custom_matrix,
    lazy_rw_matrix,
    matrix_from_text,
    metropolis_matrix,
    power_apply,
    second_eigenvalue,
    stationary_distribution,
)

__version__ = "0.1.0"
