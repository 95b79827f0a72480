"""Randomized diffusion load balancing: simulators, oracles, and bounds."""

import gc as _gc

import numpy as _np

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

# Every process is set up here, once. Importing any submodule runs this first,
# so the CLI, a library session that never calls it and each --jobs worker (a
# forked one inherits the set-up, a spawned one imports the package again) all
# get it. It follows the imports above, or the freeze would hold nearly nothing.
#
# glibc's malloc serves a request above its mmap threshold (128 KiB at start)
# by mmap, and gives the heap top back to the system whenever more than its
# trim threshold (also 128 KiB) is free there. A round's temporaries are tens
# of KiB, up to harness.BLOCK_ENTRIES doubles, so unless something happened to
# free a large array first, every round they were trimmed off the heap top and
# faulted in again: 190-270 page faults a round on hypercube:9 with B = 3, at
# half the stepping speed, and 17,000-52,000 minor faults in one `diffusim
# verify`. Freeing an mmapped block raises the mmap threshold to its size and
# the trim threshold to twice that, and glibc never lowers them again, so this
# 1 MiB block, allocated and freed untouched, keeps the rounds' temporaries and
# the lockstep buffer (up to 128 KiB) on the heap for the life of the process:
# ~2,900 faults in `diffusim verify`. A 4 MiB block cut them to ~1,100 but
# left verify's peak RSS ~1 MB (~3 %) higher.
_np.empty(1 << 17)
# The ~21,000 objects that starting the interpreter and importing numpy and
# this package made live until exit. gc.freeze moves them into the permanent
# generation, so no collection, the ones interpreter shutdown runs included,
# walks or frees them: a process that imports diffusim.cli exits in ~6 ms, not
# ~22 ms (process_ms in scripts/bench_round.py). The freeze alone, without the
# block above, does not keep verify from faulting its heap in (12,000-36,000
# minor faults).
_gc.freeze()
