"""Continuous diffusion oracle.

The continuous process is the matrix power chi_t = chi_0 . P^t; it equals
the expected configuration of the randomized discrete process, which is why
it serves as the oracle the simulator is measured against. Its convergence
time is analysis.convergence_time.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .matrices import RoundMatrix, power_apply


def continuous_run(x0, P: RoundMatrix, T: int) -> np.ndarray:
    """chi_0 . P^T for a nonnegative real initial vector; T=0 returns a copy.
    power_apply refuses a vector of the wrong shape and a negative T."""
    arr = np.asarray(x0, dtype=np.float64)
    if np.any(arr < 0):
        raise ValidationError("continuous loads must be nonnegative")
    return power_apply(arr, P, T)
