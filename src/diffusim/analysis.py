"""Discrepancy, convergence time, local p-divergence, Dirichlet forms, and
bound calculators.

Conventions: "log N" means the natural log everywhere a bound is evaluated,
and the divergence sums run over ordered pairs (v, u) with P[v,u] > 0, so a
symmetric chain counts each edge twice. Every report echoes its inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonConvergentError,
    NotConvergedError,
    NotIrreducibleError,
    UnsupportedMatrixError,
    ValidationError,
)
from .matrices import RoundMatrix, cayley_spectrum, detailed_balance_pi, power_apply, second_eigenvalue

PSI_TOL_DEFAULT = 1e-12
PSI_T_MAX_FALLBACK = 10_000
DIRICHLET_TOL = 1e-10
UNIT_MODULUS_TOL = 1e-9  # a nontrivial eigenvalue this close to +-1 counts as modulus 1


def discrepancy(xi) -> float:
    """max minus min entry of a load vector."""
    arr = np.asarray(xi)
    if arr.size == 0:
        raise ValidationError("discrepancy of an empty vector")
    return float(arr.max() - arr.min())


def convergence_time(P: RoundMatrix, disc0: float, eps: float,
                     lam: float | None = None) -> int:
    """Steps after which the continuous diffusion is within eps of balanced.

    ceil( log(4 * disc0 * N / eps) / (1 - lambda) ) with the natural log;
    lambda is the second-largest eigenvalue magnitude, computed here when
    not supplied. Requires a symmetric irreducible chain.
    """
    if disc0 <= 0:
        raise ValidationError(f"initial discrepancy must be positive, got {disc0}")
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    if lam is None:
        lam = second_eigenvalue(P)
    if lam >= 1.0:
        raise NonConvergentError("second eigenvalue magnitude is 1; the chain does not converge")
    if lam < 0:
        raise ValidationError(f"lambda must be in [0, 1), got {lam}")
    threshold = math.log(4.0 * disc0 * P.n / eps) / (1.0 - lam)
    return max(0, math.ceil(threshold))


@dataclass(frozen=True)
class DivergenceReport:
    """Result of a local p-divergence summation."""

    p: int
    value: float
    argmax_vertex: int
    t_stop: int                # last t summed; 0 for the exact spectral sum
    residual: float            # last per-step inner sum (max over vertices)
    tail_bound: float | None   # what the sum leaves out: 0.0 when exact, None when truncated

    def to_lines(self) -> list[str]:
        lines = [
            f"p={self.p}",
            f"value={self.value:.12g}",
            f"argmax_vertex={self.argmax_vertex}",
            f"t_stop={self.t_stop}",
            f"residual={self.residual:.6g}",
        ]
        if self.tail_bound is not None:
            lines.append(f"tail_bound={self.tail_bound:.6g}")
        return lines


def local_p_divergence(P: RoundMatrix, p: int = 2, tol: float = PSI_TOL_DEFAULT,
                       t_max: int | None = None) -> DivergenceReport:
    """Worst-vertex accumulated p-th power column differences over all times.

    Sums |P^t[v,w] - P^t[u,w]|^p over ordered positive pairs (v, u) and all
    t >= 0 (t=0 is the identity term). For p=2 on a reversible chain whose
    only eigenvalue of modulus 1 is 1 itself, the sum over t is evaluated
    exactly in the chain's spectral basis (t_stop=0, residual and tail_bound
    0), and tol and t_max are unused; a chain that records a Cayley group
    gets it from cayley_spectrum at any n, other chains from a dense
    eigendecomposition. Otherwise (p=1, non-reversible or
    periodic chains) it is truncated once the per-step inner sum stays below
    tol for 3 consecutive steps, or fails with NotConvergedError after t_max.
    """
    if p not in (1, 2):
        raise ValidationError(f"p must be 1 or 2, got {p}")
    if not P.irreducible:
        raise NotIrreducibleError("local p-divergence requires an irreducible chain")
    if p == 2:
        report = _cayley_psi2(P)
        if report is None:
            report = _spectral_psi2(P)
        if report is not None:
            return report
    if t_max is None:
        if P.symmetric:
            t_max = 10 * max(1, convergence_time(P, 1.0, 1.0))
        else:
            t_max = PSI_T_MAX_FALLBACK
    return _divergence_series(P, p, tol, t_max)


def _cayley_psi2(P: RoundMatrix) -> DivergenceReport | None:
    """Exact psi2 of a chain that records a Cayley group, or None.

    In _spectral_psi2's terms pi is uniform, L = 2d (I - A/d) = 4d (I - P)
    and the characters are an eigenbasis with |chi_i(w)|^2 = 1/N at every w,
    so the double sum collapses to psi2^2 = (4d/N) sum_{i>=2} 1 / (1 + lam_i)
    at every vertex; vertex 0 is reported. Lazy chains have lam_i >= 0.
    """
    lam = cayley_spectrum(P)
    if lam is None:
        return None
    d = len(P.group.generators)
    value = math.sqrt(4.0 * d / P.n * float(np.sum(1.0 / (1.0 + lam[1:]))))
    return DivergenceReport(p=2, value=value, argmax_vertex=0, t_stop=0, residual=0.0,
                            tail_bound=0.0)


def _spectral_psi2(P: RoundMatrix) -> DivergenceReport | None:
    """Exact psi2 of an irreducible chain, or None when the chain is not
    reversible or has a nontrivial eigenvalue of modulus 1.

    With S = Pi^1/2 P Pi^-1/2 = V diag(lam) V^T and the eigenvalue 1 left
    out, P^t[v,w] - P^t[u,w] = sum_i (W_vi - W_ui) lam_i^t C_wi for W = V/sqrt(pi)
    and C = sqrt(pi) V. Squaring, summing the geometric series over t and
    then over the ordered off-diagonal pairs (whose Laplacian is L) gives
    psi2(w)^2 = sum_ij C_wi C_wj (W^T L W)_ij / (1 - lam_i lam_j).
    """
    dense = P.dense()
    pi = detailed_balance_pi(P)
    if pi is None:
        return None
    r = np.sqrt(pi)
    S = r[:, None] * dense / r
    lam, V = np.linalg.eigh(0.5 * (S + S.T))
    lam, V = lam[:-1], V[:, :-1]  # eigh sorts ascending: the eigenvalue 1 is last
    if lam.size and np.abs(lam).max() >= 1.0 - UNIT_MODULUS_TOL:
        return None
    A = (dense > 0.0).astype(np.float64)  # the ordered off-diagonal support pairs
    np.fill_diagonal(A, 0.0)
    L = np.diag(A.sum(axis=1) + A.sum(axis=0)) - A - A.T
    W = V / r[:, None]
    C = V * r[:, None]
    K = (W.T @ (L @ W)) / (1.0 - np.outer(lam, lam))
    sq = np.einsum("wi,wi->w", C @ K, C)
    w = int(np.argmax(sq))
    return DivergenceReport(p=2, value=float(np.sqrt(sq[w])), argmax_vertex=w,
                            t_stop=0, residual=0.0, tail_bound=0.0)


def _divergence_series(P: RoundMatrix, p: int, tol: float, t_max: int) -> DivergenceReport:
    """The sum of local_p_divergence over t = 0, 1, ..., truncated once the
    per-step inner sum stays below tol for 3 consecutive steps. Diagonal
    pairs contribute 0 and are skipped."""
    off = P.rows != P.targets
    vi, ui = P.rows[off], P.targets[off]

    dense = P.dense()
    M_t = np.eye(P.n)
    acc = np.zeros(P.n)
    below = 0
    residual = math.inf
    t = 0
    while True:
        diff = np.abs(M_t[vi, :] - M_t[ui, :])
        step_w = (diff if p == 1 else diff * diff).sum(axis=0)
        acc += step_w
        residual = float(step_w.max())
        below = below + 1 if residual < tol else 0
        if below >= 3:
            break
        if t >= t_max:
            w = int(np.argmax(acc))
            raise NotConvergedError(
                f"divergence sum not below tol={tol} after t_max={t_max} steps "
                f"(last per-step sum {residual:.3g})",
                partial_value=float(acc[w] ** (1.0 / p)),
                t_stop=t,
            )
        M_t = M_t @ dense
        t += 1

    w = int(np.argmax(acc))
    return DivergenceReport(
        p=p,
        value=float(acc[w] ** (1.0 / p)),
        argmax_vertex=w,
        t_stop=t,
        residual=residual,
        tail_bound=None,
    )


def dirichlet_form(f, P: RoundMatrix, pi: np.ndarray) -> float:
    """(1/2) sum over pairs of (f_v - f_u)^2 pi_v P[v,u]."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (P.n,) or np.asarray(pi).shape != (P.n,):
        raise ValidationError("vector/matrix dimension mismatch")
    diffs = f[P.rows] - f[P.targets]
    return float(0.5 * np.sum(diffs * diffs * (np.asarray(pi)[P.rows] * P.probs)))


def _min_flow(P: RoundMatrix, pi: np.ndarray) -> float:
    """Smallest positive edge flow pi_v P[v,u], self-loops included."""
    return float((pi[P.rows] * P.probs).min())


def dirichlet_identity_check(P: RoundMatrix, w: int, t: int) -> tuple[float, float, float]:
    """Both sides of E(P^t[., w]) = pi_w (P^{2t}[w,w] - P^{2t+1}[w,w]).

    The column P^t[., w] comes from the basis row e_w . P^t through the
    reversibility relation P^t[v,w] = pi_w P^t[w,v] / pi_v; this is an exact
    identity for reversible chains, so the gap is a strict numeric test.
    """
    pi = detailed_balance_pi(P)
    if pi is None:
        raise UnsupportedMatrixError("the Dirichlet identity requires a reversible chain")
    e_w = np.zeros(P.n)
    e_w[w] = 1.0
    row_t = power_apply(e_w, P, t)
    col = pi[w] * row_t / pi
    lhs = dirichlet_form(col, P, pi)
    row_2t = power_apply(row_t, P, t)
    row_2t1 = power_apply(row_2t, P, 1)
    rhs = float(pi[w] * (row_2t[w] - row_2t1[w]))
    return lhs, rhs, abs(lhs - rhs)


def psi2_bound_reversible(P: RoundMatrix) -> float:
    """sqrt(2 max_w pi_w / min over positive entries of pi_v P[v,u]);
    valid for reversible lazy chains."""
    if not P.lazy:  # the cheap hypothesis first
        raise UnsupportedMatrixError("bound requires a lazy chain (diagonal >= 1/2)")
    pi = detailed_balance_pi(P)
    if pi is None:
        raise UnsupportedMatrixError("bound requires a reversible chain")
    return math.sqrt(2.0 * float(pi.max()) / _min_flow(P, pi))


def psi2_bound_symmetric(P: RoundMatrix) -> float:
    """sqrt(2 / min positive entry); valid for symmetric lazy chains."""
    if not P.symmetric:
        raise UnsupportedMatrixError("bound requires a symmetric chain")
    if not P.lazy:
        raise UnsupportedMatrixError("bound requires a lazy chain (diagonal >= 1/2)")
    return math.sqrt(2.0 / P.min_positive_entry())


def _check_log_arg(N: int) -> float:
    if N < 2:
        raise ValidationError(f"vertex count must be >= 2 for a log N bound, got {N}")
    return math.log(N)


def bound_theorem1(d: int, N: int) -> float:
    """High-probability discrepancy bound 18 sqrt(d log N) for the lazy
    random walk sampler on d-regular graphs."""
    if d < 1:
        raise ValidationError(f"degree must be >= 1, got {d}")
    return 18.0 * math.sqrt(d * _check_log_arg(N))


def bound_theorem2(d_max: int, N: int) -> float:
    """High-probability discrepancy bound 16 sqrt(d_max log N) for the
    Metropolis sampler on arbitrary connected graphs."""
    if d_max < 1:
        raise ValidationError(f"max degree must be >= 1, got {d_max}")
    return 16.0 * math.sqrt(d_max * _check_log_arg(N))


def bound_theorem3(psi2: float, N: int) -> float:
    """High-probability bound 4 psi2 sqrt(log N) on the deviation of the
    discrete process from the continuous oracle, any round matrix."""
    if psi2 <= 0:
        raise ValidationError(f"psi2 must be positive, got {psi2}")
    return 4.0 * psi2 * math.sqrt(_check_log_arg(N))


def bound_theorem5(psi2: float, N: int) -> float:
    """High-probability discrepancy bound 9 psi2 sqrt(log N) for symmetric
    irreducible round matrices after the convergence time."""
    if psi2 <= 0:
        raise ValidationError(f"psi2 must be positive, got {psi2}")
    return 9.0 * psi2 * math.sqrt(_check_log_arg(N))
