"""Randomized diffusion load balancing: simulators, oracles, and bounds."""

from .analysis import (
    DivergenceReport,
    bound_theorem1,
    bound_theorem2,
    bound_theorem3,
    bound_theorem5,
    dirichlet_form,
    dirichlet_identity_check,
    discrepancy,
    local_p_divergence,
    psi2_bound_reversible,
    psi2_bound_symmetric,
)
from .continuous import continuous_run, convergence_time
from .discrete import (
    LoadConfig,
    StepTrace,
    config_from_preset,
    destination_distribution,
    deterministic_token_mask,
    point_config,
    random_config,
    run,
    step_batch,
    step_naive,
    step_rsend,
    step_send_floor2d,
    step_send_partition,
    step_send_round3d,
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
