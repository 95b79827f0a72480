import hashlib
import math
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import csgraph

from diffusim import (
    DiffusimError,
    Graph,
    LoadConfig,
    NotIrreducibleError,
    SizeLimitError,
    UnsupportedMatrixError,
    ValidationError,
    custom_matrix,
    gen_complete,
    gen_cycle,
    gen_hypercube,
    gen_star,
    lazy_rw_matrix,
    metropolis_matrix,
    power_apply,
    random_config,
    second_eigenvalue,
    stationary_distribution,
    step_batch,
    step_naive,
)
from diffusim import matrices
from diffusim.matrices import (
    CLASSIFY_TOL,
    DETAILED_BALANCE_TOL,
    RoundMatrix,
    detailed_balance_pi,
    is_reversible,
    matrix_from_text,
)
from diffusim.verify import (
    figure_row_matrix,
    random_connected_graph,
    random_reversible_lazy_chain,
    random_symmetric_lazy_chain,
    seeded_irregular_graph,
)

FIG1_ROW = [(0, 1 / 16), (1, 1 / 16), (2, 1 / 8), (3, 1 / 4), (4, 1 / 2)]
# the non-lazy walk on the 4-vertex star: reversible, not symmetric, period 2
NON_LAZY_STAR4 = [(0, u, 1 / 3) for u in (1, 2, 3)] + [(u, 0, 1.0) for u in (1, 2, 3)]


def fig1_matrix():
    entries = []
    for u, p in FIG1_ROW[:-1]:
        entries += [(4, u, p), (u, 4, p), (u, u, 1 - p)]
    entries.append((4, 4, 0.5))
    return custom_matrix(entries, n=5)


def check_matrix_invariants(P):
    for v in range(P.n):
        row = P.row(v)
        assert abs(row.probs.sum() - 1.0) <= 1e-12
        assert np.all(row.probs > 0)
        assert np.all(np.diff(row.prefix) > 0)
        assert row.prefix[0] == 0.0
        assert row.prefix[-1] == 1.0
        # canonical order: non-self ascending, self last
        non_self = [int(u) for u in row.targets if int(u) != v]
        assert non_self == sorted(non_self)
        if v in row.targets:
            assert int(row.targets[-1]) == v


def test_lazy_rw_triangle_rows(lazy_triangle):
    row = lazy_triangle.row(0)
    assert list(row.targets) == [1, 2, 0]
    assert np.allclose(row.probs, [0.25, 0.25, 0.5])
    check_matrix_invariants(lazy_triangle)


def test_lazy_rw_k2(lazy_k2):
    assert np.allclose(lazy_k2.dense(), [[0.5, 0.5], [0.5, 0.5]])


def test_lazy_rw_rejects_irregular():
    with pytest.raises(ValidationError):
        lazy_rw_matrix(gen_star(4))


def test_metropolis_path3(path3):
    P = metropolis_matrix(path3)
    D = P.dense()
    assert D[1, 0] == pytest.approx(0.25)
    assert D[1, 1] == pytest.approx(0.5)
    assert D[0, 1] == pytest.approx(0.25)
    assert D[0, 0] == pytest.approx(0.75)
    check_matrix_invariants(P)


def test_metropolis_equals_lazy_rw_on_regular():
    g = gen_hypercube(3)
    assert np.array_equal(metropolis_matrix(g).dense(), lazy_rw_matrix(g).dense())


def test_metropolis_star4():
    P = metropolis_matrix(gen_star(4))
    D = P.dense()
    assert D[1, 0] == pytest.approx(1 / 6)
    assert D[1, 1] == pytest.approx(5 / 6)
    assert D[0, 0] == pytest.approx(0.5)


def test_metropolis_symmetric_lazy_on_100_random_graphs():
    rng = np.random.default_rng(123)
    for _ in range(100):
        g = random_connected_graph(int(rng.integers(2, 30)), rng)
        P = metropolis_matrix(g)
        assert P.symmetric and P.lazy and P.irreducible
        check_matrix_invariants(P)


def test_custom_figure1_prefix():
    P = fig1_matrix()
    row = P.row(4)
    assert np.array_equal(row.prefix, [0, 5 / 80, 10 / 80, 20 / 80, 40 / 80, 1.0])
    check_matrix_invariants(P)
    assert P.symmetric and P.lazy and P.irreducible


def test_custom_identity_lazy_reducible():
    P = custom_matrix([(0, 0, 1.0), (1, 1, 1.0)])
    assert P.lazy
    assert not P.irreducible  # so no pi: test_stationary_reducible_raises


def test_custom_bad_row_sum():
    with pytest.raises(ValidationError, match="row 0"):
        custom_matrix([(0, 0, 0.5), (0, 1, 0.4), (1, 1, 1.0)])


def test_custom_negative_entry():
    with pytest.raises(ValidationError, match="negative"):
        custom_matrix([(0, 0, 1.2), (0, 1, -0.2), (1, 1, 1.0)])


def test_nan_entry_names_its_row():
    with pytest.raises(ValidationError, match="row 1: negative or NaN entry"):
        custom_matrix([(0, 0, 0.5), (0, 1, 0.5), (1, 1, 1.0), (1, 0, math.nan)])


def test_column_out_of_range_names_its_row():
    with pytest.raises(ValidationError, match="row 1: column 7 out of range"):
        custom_matrix([(0, 0, 1.0), (1, 1, 0.5), (1, 7, 0.5)], n=2)


def test_entries_canonicalised():
    # row 2 arrives unsorted, with a zero entry and P[2,3] split in two
    P = custom_matrix([(0, 0, 1.0), (1, 1, 1.0), (3, 3, 1.0),
                       (2, 3, 0.0625), (2, 2, 0.5), (2, 1, 0.0), (2, 3, 0.0625), (2, 0, 0.375)])
    row = P.row(2)
    assert row.targets.tolist() == [0, 3, 2]
    assert row.probs.tolist() == [0.375, 0.125, 0.5]
    assert row.ends.tolist() == [0.375, 0.5, 1.0]
    assert P.indptr.tolist() == [0, 1, 2, 5, 6]
    check_matrix_invariants(P)


def test_ends_clamped_below_a_slack_sized_last_entry():
    # row 0's last entry, 3e-13, is below its row-sum slack of 5e-13, so its running
    # sums pass 1.0 before the self entry: an end above 1.0 would make step_batch
    # route a phantom token k = x_v past the row's last end
    P = custom_matrix([(0, 1, 0.5 + 5e-13), (0, 2, 0.5), (0, 0, 3e-13), (1, 1, 1.0), (2, 2, 1.0)], n=3)
    assert P.ends.max() <= 1.0 and P.ends[P.indptr[1:] - 1].tolist() == [1.0] * 3
    for seed in range(20):
        assert step_batch(LoadConfig.from_loads([3, 0, 0]), P, np.random.default_rng(seed)).total == 3


def test_running_sums_add_each_row_left_to_right():
    # skewed lengths make both the per-position adds and the per-row cumsums run
    from itertools import accumulate

    from diffusim.matrices import _running_sums

    rng = np.random.default_rng(2)
    for lens in ([1], [3, 3, 3], [40, 2, 2, 1, 2], [50, 45, 44, 3, 9, 1, 7, 7, 30] * 3):
        indptr = np.concatenate(([0], np.cumsum(lens)))
        probs = rng.uniform(0.0, 1.0, size=indptr[-1])
        expect = [e for v in range(len(lens)) for e in accumulate(probs[indptr[v]:indptr[v + 1]].tolist())]
        assert _running_sums(indptr, probs).tolist() == expect


def test_k2_flags_reversible_uniform_pi(lazy_k2):
    assert lazy_k2.symmetric and lazy_k2.lazy and lazy_k2.irreducible
    pi = stationary_distribution(lazy_k2)
    assert pi.tolist() == [0.5, 0.5]
    assert is_reversible(lazy_k2, pi)


def test_star4_metropolis_flags_uniform_pi():
    P = metropolis_matrix(gen_star(4))
    assert P.symmetric and P.lazy and P.irreducible
    pi = stationary_distribution(P)
    assert pi.tolist() == [0.25] * 4
    assert is_reversible(P, pi)


def test_stationary_reducible_raises():
    P = custom_matrix([(0, 0, 1.0), (1, 1, 1.0)])
    with pytest.raises(NotIrreducibleError):
        stationary_distribution(P)


def test_stationary_matches_weighted_degree_oracle():
    # the weighted lazy walk's stationary law is known in closed form
    rng = np.random.default_rng(7)
    for _ in range(10):
        P, pi_exact = random_reversible_lazy_chain(int(rng.integers(2, 17)), rng)
        pi = stationary_distribution(P)
        assert np.max(np.abs(pi - pi_exact)) <= 1e-12
        assert np.max(np.abs(power_apply(pi, P, 1) - pi)) <= 1e-12
        assert is_reversible(P, pi)


def _reference_detailed_balance_pi(P):
    """detailed_balance_pi with its breadth-first tree and its tree entries
    taken from scipy's csgraph.breadth_first_order and sparse indexing."""
    if not P.irreducible:
        raise NotIrreducibleError("detailed balance requested for a reducible chain")
    if P.symmetric:
        pi = np.full(P.n, 1.0 / P.n)
    else:
        S = sparse.csr_matrix((P.probs, P.targets, P.indptr), shape=(P.n, P.n))
        order, pred = csgraph.breadth_first_order(S, 0, return_predecessors=True)
        child = order[1:]
        back = np.asarray(S[child, pred[child]]).ravel()
        if np.any(back == 0.0):
            return None
        step = np.log(np.asarray(S[pred[child], child]).ravel() / back)
        log_pi = np.zeros(P.n)
        for u, s in zip(child.tolist(), step.tolist()):  # parents come first
            log_pi[u] = log_pi[pred[u]] + s
        pi = np.exp(log_pi - log_pi.max())
        pi /= pi.sum()
    return pi if is_reversible(P, pi) else None


def _assert_detailed_balance_pi_is_reference(P):
    pi, ref = detailed_balance_pi(P), _reference_detailed_balance_pi(P)
    assert (pi is None) == (ref is None)
    assert ref is None or np.array_equal(pi, ref)
    return pi


def _birth_death_path(n, rng):
    """Lazy weighted walk on a path with randomly numbered vertices, so the
    tree from vertex 0 has two branches of random lengths."""
    w = rng.uniform(0.5, 2.0, n - 1)
    W = np.zeros(n)
    W[:-1] += w
    W[1:] += w
    v, perm = np.arange(n), rng.permutation(n)
    a, b = perm[v[:-1]], perm[v[1:]]
    return RoundMatrix.from_entries(n, np.concatenate((a, b, perm)), np.concatenate((b, a, perm)),
                                    np.concatenate((w / (2 * W[:-1]), w / (2 * W[1:]), np.full(n, 0.5))))


def test_detailed_balance_pi():
    rng = np.random.default_rng(8)
    for _ in range(10):
        P, pi_exact = random_reversible_lazy_chain(int(rng.integers(2, 17)), rng)
        assert np.max(np.abs(_assert_detailed_balance_pi_is_reference(P) - pi_exact)) <= 1e-12
    assert _assert_detailed_balance_pi_is_reference(_birth_death_path(1000, rng)) is not None
    # periodic and not symmetric: power iteration would oscillate forever
    star = custom_matrix(NON_LAZY_STAR4)
    assert np.allclose(_assert_detailed_balance_pi_is_reference(star), [1 / 2, 1 / 6, 1 / 6, 1 / 6],
                       rtol=0, atol=1e-15)
    cyclic = custom_matrix([(v, (v + 1) % 3, 0.4) for v in range(3)] + [(v, (v + 2) % 3, 0.1) for v in range(3)]
                           + [(v, v, 0.5) for v in range(3)])
    assert _assert_detailed_balance_pi_is_reference(cyclic) is None  # doubly stochastic, not reversible
    one_way = custom_matrix([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 0.5), (2, 1, 0.5)])
    assert _assert_detailed_balance_pi_is_reference(one_way) is None  # P[0,1] > 0 but P[1,0] = 0
    # the tree 0 -> 1 -> 2 balances, but the entry (2, 0) has no reverse entry
    off_tree = custom_matrix([(0, 1, 0.5), (0, 0, 0.5), (1, 0, 0.25), (1, 2, 0.25), (1, 1, 0.5),
                              (2, 1, 0.25), (2, 0, 0.25), (2, 2, 0.5)])
    assert _assert_detailed_balance_pi_is_reference(off_tree) is None
    with pytest.raises(NotIrreducibleError):
        detailed_balance_pi(custom_matrix([(0, 0, 1.0), (1, 1, 1.0)]))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["weighted", "birth-death"]), n=st.integers(2, 40),
       seed=st.integers(0, 2**32 - 1), drop=st.booleans())
def test_detailed_balance_pi_equals_scipy_tree_reference(kind, n, seed, drop):
    rng = np.random.default_rng(seed)
    P = random_reversible_lazy_chain(n, rng)[0] if kind == "weighted" else _birth_death_path(n, rng)
    if drop:  # one entry moved onto its row's self-loop, so its reverse entry has none
        i = rng.choice(np.flatnonzero(P.rows != P.targets))
        probs = P.probs.copy()
        probs[P.indptr[P.rows[i] + 1] - 1] += probs[i]
        probs[i] = 0.0
        P = RoundMatrix.from_entries(n, P.rows, P.targets, probs)
        if not P.irreducible:
            for f in (detailed_balance_pi, _reference_detailed_balance_pi):
                with pytest.raises(NotIrreducibleError):
                    f(P)
            return
    assert (_assert_detailed_balance_pi_is_reference(P) is None) == drop


def test_stationary_non_lazy_star4_exact_and_fast():
    # reversible and periodic, so pi must come from detailed balance, not from iterating P
    start = time.perf_counter()
    pi = stationary_distribution(custom_matrix(NON_LAZY_STAR4))
    assert time.perf_counter() - start < 0.5
    assert np.max(np.abs(pi - [1 / 2, 1 / 6, 1 / 6, 1 / 6])) <= 1e-15


def test_stationary_periodic_non_reversible():
    # bipartite {0, 1} | {2, 3, 4}, so period 2; P[0,3] > 0 but P[3,0] = 0
    P = custom_matrix([(0, 2, 0.5), (0, 3, 0.5), (1, 3, 0.5), (1, 4, 0.5),
                       (2, 0, 0.5), (2, 1, 0.5), (3, 1, 1.0), (4, 0, 1.0)])
    assert detailed_balance_pi(P) is None
    pi = stationary_distribution(P)
    assert np.max(np.abs(pi - [1 / 5, 3 / 10, 1 / 10, 1 / 4, 3 / 20])) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(3, 24), density=st.floats(0.0, 1.0))
def test_stationary_solve_random_non_reversible(seed, n, density):
    # a directed cycle 0 -> 1 -> ... -> 0 makes the chain irreducible, and
    # P[0,1] > 0 = P[1,0] makes it non-reversible, so the direct solve runs
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.01, 1.0, size=(n, n)) * (rng.random((n, n)) < density)
    v = np.arange(n)
    w[v, (v + 1) % n] += rng.uniform(0.01, 1.0, size=n)
    w[1, 0] = 0.0
    rows, targets = np.nonzero(w)
    P = RoundMatrix.from_entries(n, rows, targets, (w / w.sum(axis=1, keepdims=True))[rows, targets])
    assert detailed_balance_pi(P) is None
    pi = stationary_distribution(P)
    assert np.max(np.abs(power_apply(pi, P, 1) - pi)) <= 1e-12
    assert abs(pi.sum() - 1.0) <= 1e-12


def test_stationary_solve_rejects_non_finite(monkeypatch):
    import scipy.sparse.linalg

    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", lambda A, b: np.full(b.size, np.nan))
    one_way = custom_matrix([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 0.5), (2, 1, 0.5)])
    with pytest.raises(DiffusimError, match="non-finite"):
        stationary_distribution(one_way)


def test_power_apply_t0_and_k2(lazy_k2):
    x = np.array([1.0, 0.0])
    assert np.array_equal(power_apply(x, lazy_k2, 0), x)
    assert np.allclose(power_apply(x, lazy_k2, 1), [0.5, 0.5])


def test_power_apply_triangle(lazy_triangle):
    assert np.allclose(power_apply([4, 0, 0], lazy_triangle, 1), [2, 1, 1])


def test_power_apply_dimension_mismatch(lazy_k2):
    with pytest.raises(ValidationError):
        power_apply([1.0, 0.0, 0.0], lazy_k2, 1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), t=st.integers(0, 12))
def test_power_apply_conserves_sum(seed, t):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(int(rng.integers(2, 20)), rng)
    P = metropolis_matrix(g)
    x = rng.uniform(0, 100, size=P.n)
    y = power_apply(x, P, t)
    assert abs(y.sum() - x.sum()) <= 1e-9 * max(1.0, x.sum())


def test_second_eigenvalue_k2(lazy_k2):
    assert second_eigenvalue(lazy_k2) == pytest.approx(0.0, abs=1e-12)


def test_second_eigenvalue_cycle4_circulant_oracle():
    # lazy RW on the n-cycle has eigenvalues 1/2 + cos(2 pi k / n)/2
    n = 4
    oracle = sorted(
        (abs(0.5 + 0.5 * math.cos(2 * math.pi * k / n)) for k in range(n)), reverse=True
    )[1]
    got = second_eigenvalue(lazy_rw_matrix(gen_cycle(n)))
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(0.5, abs=1e-12)


def test_second_eigenvalue_requires_symmetric():
    P = custom_matrix([(0, 0, 0.5), (0, 1, 0.5), (1, 0, 0.25), (1, 1, 0.75)])
    assert not P.symmetric
    with pytest.raises(UnsupportedMatrixError):
        second_eigenvalue(P)


def test_second_eigenvalue_rejects_reducible():
    P = custom_matrix([(0, 0, 1.0), (1, 1, 1.0)])
    with pytest.raises(NotIrreducibleError):
        second_eigenvalue(P)


def test_second_eigenvalue_size_limit(monkeypatch):
    # the dense path's cap: a triangle built from its edges records no group
    P = lazy_rw_matrix(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    assert P.group is None
    monkeypatch.setattr(matrices, "DENSE_LIMIT", 2)
    with pytest.raises(SizeLimitError, match="above dense eigensolver limit 2"):
        second_eigenvalue(P)


def test_second_eigenvalue_of_a_cayley_chain_has_no_size_limit(lazy_triangle, monkeypatch):
    assert lazy_triangle.group is not None
    monkeypatch.setattr(matrices, "DENSE_LIMIT", 2)
    assert second_eigenvalue(lazy_triangle) == pytest.approx(0.25, abs=1e-15)
    P = lazy_rw_matrix(gen_hypercube(13))   # n = 8192, above DENSE_LIMIT
    assert second_eigenvalue(P) == 1 - 1 / 13


def test_uniform_pi_for_symmetric_irreducible():
    for g in (gen_cycle(9), gen_hypercube(3), gen_star(6)):
        P = metropolis_matrix(g)
        pi = stationary_distribution(P)
        assert np.max(np.abs(pi - 1.0 / g.n)) <= 1e-10


def test_layout_is_linear_in_entries():
    # a star's hub row holds n entries and every leaf row 2; a layout padded
    # to the widest row would hold n * (n + 1) entries
    P = metropolis_matrix(gen_star(3000))
    nnz = 3 * 3000 - 2
    assert P.targets.size == nnz
    layout = sum(v.nbytes for v in vars(P).values() if isinstance(v, np.ndarray))
    assert layout <= 64 * (P.n + nnz)


def test_matrix_text_round_trip(lazy_triangle):
    P2 = matrix_from_text(lazy_triangle.to_text())
    assert np.array_equal(P2.dense(), lazy_triangle.dense())


def test_matrix_text_validates():
    with pytest.raises(ValidationError):
        matrix_from_text("2\n0 0 0.5\n0 1 0.4\n1 1 1.0")
    # errors number the file's own lines, comment and blank lines included
    with pytest.raises(ValidationError, match=r"^line 6: non-numeric token in '2 2 x'$"):
        matrix_from_text("# a comment\n\n3\n0 0 1.0\n1 1 1.0\n2 2 x\n")


def _construction_digest(P, *extra) -> str:
    h = hashlib.sha256()
    for a in (P.indptr, P.rows, P.targets, P.probs, P.ends, *extra):
        h.update(a.dtype.str.encode() + a.tobytes())
    h.update(bytes([bool(P.symmetric), bool(P.lazy), bool(P.irreducible)]))
    return h.hexdigest()


def test_construction_golden_digests():
    # pins every builder's arrays and flags bit for bit, pi included
    P, pi = random_reversible_lazy_chain(12, np.random.default_rng(3))
    got = {
        "lazy-hypercube5": _construction_digest(lazy_rw_matrix(gen_hypercube(5))),
        "metropolis-star64": _construction_digest(metropolis_matrix(gen_star(64))),
        "metropolis-irregular": _construction_digest(metropolis_matrix(seeded_irregular_graph())),
        "figure-row": _construction_digest(figure_row_matrix()),
        "reversible-12": _construction_digest(P, pi),
        "symmetric-12": _construction_digest(
            random_symmetric_lazy_chain(12, np.random.default_rng(4))),
    }
    assert got == {
        "lazy-hypercube5": "802c2a6605c5f95ded629c7d3165aa1213bd04a065a08cd1ea96b09e87224fb3",
        "metropolis-star64": "69f3e1c4bcf63b6a3cfc18b0a62526ae56d7a7a186227b2bd1aa80a6f0a68a14",
        "metropolis-irregular": "887ea513eca5d98d80b5370fb9d27196831b70f93b530a2a2af8206af1f6d912",
        "figure-row": "c64b53958d154aee8aaa5d15a743f7c83a0c7884cc03a021934b18e03a23e673",
        "reversible-12": "b70470008cd9fa65a87f51fdd8e1fe24e64f371d71a14302c930b2180496db40",
        "symmetric-12": "dbf65c39e231634af55c117e47cb211cc4a596111be9d3c58520549bf1114c75",
    }


CHAIN_KINDS = ("symmetric", "near-symmetric", "reducible", "directed-cycle", "one-way", "reversible")


def _random_chain(kind, n, gap, rng):
    """(rows, targets, probs, pi) of a random row-stochastic chain of one
    kind, with distinct positive entries and randomly numbered vertices.
    pi is the stationary distribution of a reversible chain, else uniform.
    gap is added to one entry of an edge, or is the unpaired entry of a
    near-symmetric chain, to probe the symmetric flag's tolerance."""
    v = np.arange(n)
    pi = np.full(n, 1.0 / n)
    if kind in ("directed-cycle", "one-way"):
        a = v if kind == "directed-cycle" else v[:-1]
        b = (a + 1) % n
        off = np.full(a.size, rng.choice([0.5, 1.0]))
    else:
        a, b = np.triu_indices(n, 1)
        pick = rng.random(a.size) < rng.uniform(0.1, 0.9)
        if kind == "reducible":
            pick &= (a < n // 2) == (b < n // 2)
        pick[:1] = True  # at least one edge
        a, b = a[pick], b[pick]
        w = rng.uniform(0.1, 1.0, a.size)
        m = a.size
        a, b, w = np.concatenate((a, b)), np.concatenate((b, a)), np.concatenate((w, w))
        if kind == "reversible":
            W = np.bincount(a, w, minlength=n) + rng.uniform(0.0, 1.0, n)
            off, pi = w / W[a], W / W.sum()
        else:  # entry i and entry i + m are the two directions of one edge
            off = w / (np.bincount(a, w, minlength=n).max() + 1.0)
            off[0] += gap
        if kind == "near-symmetric":  # one unpaired entry, at most the tolerance
            off[0], off[m] = gap if 0 < gap <= CLASSIFY_TOL else rng.uniform(1e-15, CLASSIFY_TOL), 0.0
    keep = off > 0
    a, b, off = a[keep], b[keep], off[keep]
    self_p = 1.0 - np.bincount(a, off, minlength=n)
    has_self = self_p > 0
    rows, targets = np.concatenate((a, v[has_self])), np.concatenate((b, v[has_self]))
    probs = np.concatenate((off, self_p[has_self]))
    perm = rng.permutation(n)
    pi_perm = np.empty(n)
    pi_perm[perm] = pi
    return perm[rows], perm[targets], probs, pi_perm


def _reference_flags(n, rows, targets, probs, pi):
    """symmetric, irreducible and reversible flags computed with scipy.sparse."""

    def max_abs(A):
        return float(abs(A).max()) if A.nnz else 0.0

    S = sparse.csr_matrix((probs, (rows, targets)), shape=(n, n))
    F = sparse.csr_matrix((pi[rows] * probs, (rows, targets)), shape=(n, n))
    return (max_abs(S - S.T) <= CLASSIFY_TOL,
            bool(csgraph.connected_components(S, connection="strong")[0] == 1),
            max_abs(F - F.T) <= DETAILED_BALANCE_TOL)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(CHAIN_KINDS), n=st.integers(2, 24), seed=st.integers(0, 2**32 - 1),
       gap=st.sampled_from([0.0, 5e-13, 1e-12, 2e-12]))
def test_flags_equal_scipy_reference(kind, n, seed, gap):
    rng = np.random.default_rng(seed)
    rows, targets, probs, pi = _random_chain(kind, n, gap, rng)
    P = RoundMatrix.from_entries(n, rows, targets, probs)
    for weights in (pi, rng.dirichlet(np.ones(n))):
        symmetric, irreducible, reversible = _reference_flags(n, rows, targets, probs, weights)
        assert (P.symmetric, P.irreducible, is_reversible(P, weights)) == (symmetric, irreducible, reversible)
    if kind == "near-symmetric":
        assert P.symmetric and np.any(P.transpose < 0)
    if kind == "reversible":
        assert is_reversible(P, pi)


def test_irreducible_on_randomly_numbered_cycles():
    # vertex numbers in no relation to the cycle, so hooking takes many rounds
    n, half = 5000, 2500
    perm = np.random.default_rng(5).permutation(n)
    v = np.arange(n)
    one_cycle = (v + 1) % n
    two_cycles = v - v % half + (v + 1) % half
    for nxt, expected in ((one_cycle, True), (two_cycles, False)):
        a, b = perm[v], perm[nxt]
        P = RoundMatrix.from_entries(n, np.concatenate((a, b, v)), np.concatenate((b, a, v)),
                                     np.concatenate((np.full(2 * n, 0.25), np.full(n, 0.5))))
        assert P.symmetric and np.all(P.transpose >= 0)
        assert P.irreducible == expected


def test_pickle_round_trip_keeps_arrays_read_only():
    # --jobs workers receive graphs, matrices and load configs by pickle
    g = gen_hypercube(3)
    g.regular_degree()    # cached in the instance, so pickled with it
    assert "_common_degree" in vars(g)
    P = metropolis_matrix(random_connected_graph(9, np.random.default_rng(4)))
    for obj in (g, P, random_config(9, 50, 2), lazy_rw_matrix(g).group):
        back = pickle.loads(pickle.dumps(obj))
        arrays = {k: v for k, v in vars(obj).items() if isinstance(v, np.ndarray)}
        assert set(arrays) == {k for k, v in vars(back).items() if isinstance(v, np.ndarray)}
        for name, arr in arrays.items():
            assert not vars(back)[name].flags.writeable, name
            assert np.array_equal(vars(back)[name], arr), name
        assert {k: v for k, v in vars(back).items() if k not in arrays} == \
            {k: v for k, v in vars(obj).items() if k not in arrays}


def test_pickled_matrix_keeps_its_cached_routing_arrays_read_only():
    # a --jobs worker gets P by pickle after the parent has stepped it once
    P = lazy_rw_matrix(gen_cycle(8))
    step_batch(random_config(8, 40, 1), P, np.random.default_rng(0))
    step_naive(random_config(8, 40, 1), P, np.random.default_rng(0))
    assert {"_heads", "_last"} <= set(vars(P))
    back = pickle.loads(pickle.dumps(P))
    for name in ("_heads", "_last"):
        assert np.array_equal(vars(back)[name], vars(P)[name])
        assert not vars(back)[name].flags.writeable, name


def test_chains_carry_the_graph_group():
    g = gen_cycle(12)
    for make in (lazy_rw_matrix, metropolis_matrix):
        assert make(g).group is g.group
    assert metropolis_matrix(gen_star(6)).group is None
    for P in (lazy_rw_matrix(g), metropolis_matrix(gen_hypercube(3))):
        back = pickle.loads(pickle.dumps(P))
        assert back.group == P.group and not back.group.generators.flags.writeable
