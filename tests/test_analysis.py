import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusim import (
    NonConvergentError,
    NotConvergedError,
    NotIrreducibleError,
    UnsupportedMatrixError,
    ValidationError,
    bound_theorem1,
    bound_theorem2,
    bound_theorem3,
    bound_theorem5,
    custom_matrix,
    dirichlet_form,
    dirichlet_identity_check,
    discrepancy,
    gen_complete,
    gen_cycle,
    gen_hypercube,
    gen_star,
    lazy_rw_matrix,
    local_p_divergence,
    metropolis_matrix,
    power_apply,
    psi2_bound_reversible,
    psi2_bound_symmetric,
    stationary_distribution,
)
from diffusim import analysis
from diffusim.analysis import PSI_T_MAX_FALLBACK, PSI_TOL_DEFAULT, _divergence_series, _spectral_psi2
from diffusim.harness import build_graph
from diffusim.matrices import cayley_spectrum, second_eigenvalue
from diffusim.verify import (
    random_reversible_lazy_chain,
    random_symmetric_lazy_chain,
    seeded_irregular_graph,
)


def brute_force_psi(P_dense: np.ndarray, p: int, tol: float = 1e-14,
                    t_cap: int = 5000) -> float:
    """Independent oracle: literal triple-loop summation of Definition-style
    column differences over matrix powers."""
    n = P_dense.shape[0]
    positive = [(v, u) for v in range(n) for u in range(n) if P_dense[v, u] > 0]
    acc = [0.0] * n
    M = np.eye(n)
    quiet = 0
    for _ in range(t_cap):
        worst = 0.0
        for w in range(n):
            s = 0.0
            for v, u in positive:
                s += abs(M[v, w] - M[u, w]) ** p
            acc[w] += s
            worst = max(worst, s)
        quiet = quiet + 1 if worst < tol else 0
        if quiet >= 3:
            return max(acc) ** (1.0 / p)
        M = M @ P_dense
    raise AssertionError("oracle did not converge")


def non_reversible_chain():
    """Doubly stochastic but asymmetric 3-state lazy chain: pi is uniform,
    so detailed balance fails (0.4 vs 0.1 across each edge)."""
    entries = []
    for v in range(3):
        entries += [(v, (v + 1) % 3, 0.4), (v, (v + 2) % 3, 0.1), (v, v, 0.5)]
    return custom_matrix(entries, n=3)


# ---------------------------------------------------------------------------
# discrepancy
# ---------------------------------------------------------------------------


def test_discrepancy_basic():
    assert discrepancy([5, 1, 3]) == 4
    assert discrepancy([2, 2, 2]) == 0
    assert discrepancy([7]) == 0
    with pytest.raises(ValidationError):
        discrepancy([])


@settings(max_examples=50)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30), st.floats(-1e6, 1e6))
def test_discrepancy_translation_invariant(xs, c):
    arr = np.array(xs)
    assert discrepancy(arr + c) == pytest.approx(discrepancy(arr), abs=1e-6)


# ---------------------------------------------------------------------------
# local p-divergence
# ---------------------------------------------------------------------------


def test_psi2_k2_against_brute_force(lazy_k2):
    oracle = brute_force_psi(lazy_k2.dense(), p=2)
    assert oracle == pytest.approx(math.sqrt(2), abs=1e-12)
    rep = local_p_divergence(lazy_k2, p=2)
    assert rep.value == pytest.approx(oracle, abs=1e-9)
    assert rep.t_stop == 0
    assert rep.tail_bound == 0.0
    series = _divergence_series(lazy_k2, 2, PSI_TOL_DEFAULT, PSI_T_MAX_FALLBACK)
    assert series.t_stop >= 1
    assert series.residual < 1e-12


def test_psi1_k2_against_brute_force(lazy_k2):
    oracle = brute_force_psi(lazy_k2.dense(), p=1)
    assert oracle == pytest.approx(2.0, abs=1e-12)
    assert local_p_divergence(lazy_k2, p=1).value == pytest.approx(oracle, abs=1e-9)


def test_psi2_triangle_bracket_and_oracle(lazy_triangle):
    rep = local_p_divergence(lazy_triangle, p=2)
    oracle = brute_force_psi(lazy_triangle.dense(), p=2)
    assert rep.value == pytest.approx(oracle, abs=1e-9)
    assert math.sqrt(2) - 1e-12 <= rep.value <= 2 * math.sqrt(2) + 1e-12


def test_psi_reducible_rejected():
    P = custom_matrix([(0, 0, 1.0), (1, 1, 1.0)])
    with pytest.raises(NotIrreducibleError):
        local_p_divergence(P, p=2)


def test_psi_t_max_carries_partial(lazy_cycle16):
    with pytest.raises(NotConvergedError) as exc:
        _divergence_series(lazy_cycle16, 2, 1e-12, 3)
    assert exc.value.partial_value is not None
    assert 0 < exc.value.partial_value


def _spectral_matches_series(P):
    rep = local_p_divergence(P, p=2)
    series = _divergence_series(P, 2, PSI_TOL_DEFAULT, PSI_T_MAX_FALLBACK)
    assert (rep.t_stop, rep.residual, rep.tail_bound) == (0, 0.0, 0.0)
    assert rep.value == pytest.approx(series.value, rel=1e-9, abs=0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), symmetric=st.booleans())
def test_psi2_spectral_matches_series(seed, symmetric):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 17))
    P = random_symmetric_lazy_chain(n, rng) if symmetric else random_reversible_lazy_chain(n, rng)[0]
    _spectral_matches_series(P)


def test_psi2_spectral_matches_series_irregular_metropolis():
    _spectral_matches_series(metropolis_matrix(seeded_irregular_graph()))


def test_psi2_non_reversible_takes_series():
    rep = local_p_divergence(non_reversible_chain(), p=2)
    assert rep.t_stop >= 1 and rep.tail_bound is None
    assert rep.value == float.fromhex("0x1.1275f792c28ebp+1")  # the series' bits


@pytest.mark.parametrize("P, error", [
    (custom_matrix([(0, 1, 1.0), (1, 0, 1.0)]), NonConvergentError),  # symmetric swap
    # non-lazy walk on the 4-vertex star: reversible, not symmetric, period 2
    (custom_matrix([(0, u, 1 / 3) for u in (1, 2, 3)] + [(u, 0, 1.0) for u in (1, 2, 3)]),
     NotConvergedError),
])
def test_psi2_periodic_takes_series(P, error):
    # an eigenvalue -1 makes the spectral sum diverge, so the series runs and fails
    with pytest.raises(error):
        local_p_divergence(P, p=2)


def test_psi_invalid_p(lazy_k2):
    with pytest.raises(ValidationError):
        local_p_divergence(lazy_k2, p=3)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_psi2_floor_sqrt2(seed):
    # the identity term alone contributes sqrt(2) once any off-diagonal exists
    rng = np.random.default_rng(seed)
    P = random_symmetric_lazy_chain(int(rng.integers(2, 10)), rng)
    assert local_p_divergence(P, p=2).value >= math.sqrt(2) - 1e-12


def test_psi2_tail_certificate(lazy_cycle16):
    rep = local_p_divergence(lazy_cycle16, p=2)
    assert rep.tail_bound is not None
    assert 0 <= rep.tail_bound < 1e-10


# ---------------------------------------------------------------------------
# Dirichlet machinery
# ---------------------------------------------------------------------------


def test_dirichlet_form_constant_zero(lazy_triangle):
    pi = stationary_distribution(lazy_triangle)
    assert dirichlet_form([3.0, 3.0, 3.0], lazy_triangle, pi) == 0.0


def test_dirichlet_form_k2_direct(lazy_k2):
    # (1/2) * [ (1-0)^2 * (1/2)(1/2) + (0-1)^2 * (1/2)(1/2) ] = 1/4
    pi = stationary_distribution(lazy_k2)
    assert dirichlet_form([1.0, 0.0], lazy_k2, pi) == pytest.approx(0.25, abs=1e-15)


@settings(max_examples=30)
@given(c=st.floats(-30, 30))
def test_dirichlet_form_quadratic_scaling(c):
    P = lazy_rw_matrix(gen_complete(3))
    pi = stationary_distribution(P)
    f = np.array([1.0, -2.0, 0.5])
    base = dirichlet_form(f, P, pi)
    assert dirichlet_form(c * f, P, pi) == pytest.approx(c * c * base, rel=1e-9, abs=1e-12)


def test_dirichlet_identity_k2(lazy_k2):
    lhs, rhs, gap = dirichlet_identity_check(lazy_k2, w=0, t=0)
    assert lhs == pytest.approx(0.25, abs=1e-12)
    assert rhs == pytest.approx(0.25, abs=1e-12)
    assert gap <= 1e-12
    lhs, rhs, gap = dirichlet_identity_check(lazy_k2, w=0, t=1)
    assert lhs == pytest.approx(0.0, abs=1e-15)
    assert rhs == pytest.approx(0.0, abs=1e-15)


def test_dirichlet_identity_decays(lazy_triangle):
    lhs, rhs, _ = dirichlet_identity_check(lazy_triangle, w=1, t=64)
    assert abs(lhs) < 1e-15 and abs(rhs) < 1e-15


def test_dirichlet_identity_random_reversible():
    rng = np.random.default_rng(31)
    for _ in range(5):
        P, _ = random_reversible_lazy_chain(int(rng.integers(2, 13)), rng)
        for w in (0, P.n - 1):
            for t in (0, 1, 7):
                _, _, gap = dirichlet_identity_check(P, w, t)
                assert gap <= 1e-10


def test_dirichlet_identity_requires_reversible():
    with pytest.raises(UnsupportedMatrixError):
        dirichlet_identity_check(non_reversible_chain(), 0, 1)


def test_lazy_diagonal_powers_monotone():
    # laziness forces P^t[w,w] >= P^{t+1}[w,w]
    for P in (lazy_rw_matrix(gen_cycle(16)), metropolis_matrix(gen_star(8))):
        for w in range(0, P.n, 5):
            e_w = np.zeros(P.n)
            e_w[w] = 1.0
            row = e_w
            prev = 1.0
            for _ in range(64):
                row = power_apply(row, P, 1)
                assert row[w] <= prev + 1e-12
                prev = row[w]


def test_dirichlet_rhs_telescopes_below_pi(lazy_cycle16):
    pi = stationary_distribution(lazy_cycle16)
    for w in (0, 5):
        total = 0.0
        for t in range(64):
            _, rhs, _ = dirichlet_identity_check(lazy_cycle16, w, t)
            total += rhs
            assert total <= pi[w] + 1e-10


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


def test_psi2_bound_reversible_k2(lazy_k2):
    assert psi2_bound_reversible(lazy_k2) == pytest.approx(2.0, abs=1e-12)


def test_psi2_bound_symmetric_values():
    assert psi2_bound_symmetric(lazy_rw_matrix(gen_complete(2))) == pytest.approx(2.0)
    for g, d in ((gen_cycle(12), 2), (gen_hypercube(4), 4)):
        assert psi2_bound_symmetric(lazy_rw_matrix(g)) == pytest.approx(2 * math.sqrt(d), abs=1e-12)
    assert psi2_bound_symmetric(metropolis_matrix(gen_star(8))) == pytest.approx(
        2 * math.sqrt(7), abs=1e-12)


def test_psi2_bounds_reject_non_lazy():
    swap = custom_matrix([(0, 1, 1.0), (1, 0, 1.0)])
    with pytest.raises(UnsupportedMatrixError):
        psi2_bound_symmetric(swap)
    with pytest.raises(UnsupportedMatrixError):
        psi2_bound_reversible(swap)


def test_psi2_bound_reversible_checks_laziness_first(monkeypatch):
    # the bound needs a lazy chain, so a non-lazy one is refused before pi is computed
    def refuse(P):
        raise AssertionError("stationary distribution computed for a non-lazy chain")

    monkeypatch.setattr(analysis, "detailed_balance_pi", refuse)
    star = custom_matrix([(0, u, 1 / 3) for u in (1, 2, 3)] + [(u, 0, 1.0) for u in (1, 2, 3)])
    with pytest.raises(UnsupportedMatrixError, match="lazy chain"):
        psi2_bound_reversible(star)


def test_psi2_bound_reversible_rejects_non_reversible():
    with pytest.raises(UnsupportedMatrixError):
        psi2_bound_reversible(non_reversible_chain())


def test_theorem4_bracket_on_50_random_chains():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        P = random_symmetric_lazy_chain(int(rng.integers(2, 17)), rng)
        psi2 = local_p_divergence(P, p=2).value
        assert psi2 <= psi2_bound_reversible(P) + 1e-9
        assert psi2 <= psi2_bound_symmetric(P) + 1e-9


def test_bound_values_frozen():
    # formula evaluations under the natural-log convention
    assert bound_theorem3(math.sqrt(2), 2) == pytest.approx(4.709640090061899, abs=1e-12)
    assert bound_theorem1(4, 128) == pytest.approx(79.29836834412058, abs=1e-12)
    assert bound_theorem2(7, 128) == pytest.approx(16 * math.sqrt(7 * math.log(128)), abs=1e-12)


@settings(max_examples=30)
@given(psi2=st.floats(0.1, 50), n=st.integers(2, 10_000))
def test_theorem5_to_theorem3_ratio(psi2, n):
    assert bound_theorem5(psi2, n) / bound_theorem3(psi2, n) == pytest.approx(2.25)


def test_bounds_reject_degenerate():
    with pytest.raises(ValidationError):
        bound_theorem1(4, 1)
    with pytest.raises(ValidationError):
        bound_theorem3(0.0, 16)
    with pytest.raises(ValidationError):
        bound_theorem2(0, 16)



@pytest.mark.parametrize("make", [lazy_rw_matrix, metropolis_matrix])
@pytest.mark.parametrize("spec", ["cycle:3", "cycle:64", "cycle:101", "torus:3:3", "torus:5:7",
                                  "hypercube:1", "hypercube:4", "hypercube:9",
                                  "complete:2", "complete:3", "complete:30"])
def test_cayley_spectrum_matches_the_dense_path(spec, make):
    P = make(build_graph(spec))
    lam = cayley_spectrum(P)
    dense = np.linalg.eigvalsh(P.dense())
    assert lam[0] == 1.0
    # every eigenvalue lies in [0, 1], so 1e-13 absolute is 1e-13 of the spectral radius
    np.testing.assert_allclose(np.sort(lam), dense, rtol=0, atol=1e-13)
    assert second_eigenvalue(P) == pytest.approx(np.sort(np.abs(dense))[-2], rel=1e-13, abs=1e-16)
    rep, ref = local_p_divergence(P, p=2), _spectral_psi2(P)
    assert rep.value == pytest.approx(ref.value, rel=1e-13, abs=0)
    # every vertex attains the maximum of a vertex-transitive chain; vertex 0 is reported
    assert (rep.argmax_vertex, rep.t_stop, rep.residual, rep.tail_bound) == (0, 0, 0.0, 0.0)


def test_cayley_psi2_needs_no_dense_form():
    # n = 8192 is above DENSE_LIMIT; the hypercube's spectrum is 1 - k/d with
    # multiplicity C(d, k), which gives psi2 in closed form
    d = 13
    rep = local_p_divergence(lazy_rw_matrix(gen_hypercube(d)), p=2)
    exact = math.sqrt(4 * d / 2**d * sum(math.comb(d, k) / (2 - k / d) for k in range(1, d + 1)))
    assert rep.value == pytest.approx(exact, rel=1e-14)
    assert rep.t_stop == 0


def test_chains_without_a_group_keep_the_dense_path():
    assert cayley_spectrum(metropolis_matrix(gen_star(6))) is None
    P = metropolis_matrix(gen_star(6))
    assert local_p_divergence(P, p=2).value == _spectral_psi2(P).value
