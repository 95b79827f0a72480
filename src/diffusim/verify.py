"""Invariant-verification suites wiring the structural lemmas to fuzz runs.

Each suite replays a batch of seeded simulations or numeric identities and
reports pass/fail with a one-line detail. The CLI `verify` subcommand and
the acceptance tests both run these, so the checks live here rather than in
the test tree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, continuous, discrete, graphs, matrices

CHI2_P_FLOOR = 0.001
LEMMA_SUM_TOL = 1e-9
PSI2_REL_TOL = 1e-9


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    detail: str


# ---------------------------------------------------------------------------
# Seeded random fixtures.
# ---------------------------------------------------------------------------


def random_connected_graph(n: int, rng, extra_edges: int | None = None) -> graphs.Graph:
    """Random spanning tree plus extra random edges; always simple+connected."""
    if n < 2:
        raise ValueError("need n >= 2")
    edges = set()
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        edges.add((parent, v))
    if extra_edges is None:
        extra_edges = n // 2
    tries = 0
    while extra_edges > 0 and tries < 20 * n:
        tries += 1
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e not in edges:
            edges.add(e)
            extra_edges -= 1
    return graphs.Graph.from_edges(n, edges)


def seeded_irregular_graph(n: int = 128, chords: int = 64, seed: int = 5) -> graphs.Graph:
    """Cycle backbone plus seeded random chords: connected, degrees 2..~6."""
    rng = np.random.default_rng(seed)
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    added = 0
    while added < chords:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v and (min(u, v), max(u, v)) not in edges:
            edges.add((min(u, v), max(u, v)))
            added += 1
    return graphs.Graph.from_edges(n, edges)


def _weighted_edges(n: int, rng):
    """Random connected graph with symmetric edge weights from U(0.5, 2).

    Returns (rows, targets, w, W): one entry per ordered neighbor pair, row
    by row with neighbors ascending, its weight w, and the weighted degrees
    W, each summed left to right. One rng.uniform call draws the weights in
    g.edges() order.
    """
    g = random_connected_graph(n, rng)
    rows = np.repeat(np.arange(n), g.degrees())
    targets = g.targets
    pair = np.minimum(rows, targets) * n + np.maximum(rows, targets)
    edges = pair[rows < targets]   # g.edges() order, ascending
    w = rng.uniform(0.5, 2.0, size=edges.size)[np.searchsorted(edges, pair)]
    return rows, targets, w, np.bincount(rows, w, minlength=n)


def random_reversible_lazy_chain(n: int, rng):
    """Random edge-weighted lazy walk: P[v,u] = w_vu / (2 W_v), self 1/2.

    Reversible with stationary distribution proportional to the weighted
    degrees W_v; generally not symmetric. Returns (matrix, exact_pi).
    """
    rows, targets, w, W = _weighted_edges(n, rng)
    P = matrices._with_self_loops(rows, targets, w / (2.0 * W[rows]), np.full(n, 0.5))
    return P, W / W.sum()


def random_symmetric_lazy_chain(n: int, rng) -> matrices.RoundMatrix:
    """Random symmetric edge probabilities scaled so every diagonal is >= 1/2."""
    rows, targets, w, W = _weighted_edges(n, rng)
    probs = w / (2.0 * W.max())
    return matrices._with_self_loops(rows, targets, probs, 1.0 - np.bincount(rows, probs, minlength=n))


def figure_row_matrix() -> matrices.RoundMatrix:
    """5-vertex symmetric chain whose last row has interval layout
    (1/16, 1/16, 1/8, 1/4) over neighbors plus a 1/2 self-loop."""
    hub_probs = [1.0 / 16, 1.0 / 16, 1.0 / 8, 1.0 / 4]
    entries = []
    for u, p in enumerate(hub_probs):
        entries.append((4, u, p))
        entries.append((u, 4, p))
        entries.append((u, u, 1.0 - p))
    entries.append((4, 4, 0.5))
    return matrices.custom_matrix(entries, n=5)


def _dirichlet_chain_set(seed: int, count: int = 25):
    """Fixture chains plus `count` seeded random reversible lazy chains."""
    chains = [
        ("K2-lazy", matrices.lazy_rw_matrix(graphs.gen_complete(2))),
        ("triangle-lazy", matrices.lazy_rw_matrix(graphs.gen_complete(3))),
        ("cycle16-lazy", matrices.lazy_rw_matrix(graphs.gen_cycle(16))),
        ("star8-metropolis", matrices.metropolis_matrix(graphs.gen_star(8))),
    ]
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 17))
        P, _ = random_reversible_lazy_chain(n, rng)
        chains.append((f"random-reversible-{i}-n{n}", P))
    return chains


# ---------------------------------------------------------------------------
# Trace checking: structural lemmas as assertions.
# ---------------------------------------------------------------------------


def check_step_trace(P: matrices.RoundMatrix, trace: discrete.StepTrace) -> list[str]:
    """Violations of outflow, support, and the two <=2 discrepancy lemmas.

    One flat pass over every (token, row entry) pair of the step: a vertex
    whose outflow differs from its load, or that has a token outside its
    row's support, gets that one message and no further check. Messages come
    in vertex order, and a vertex's in the order of the lemmas.
    """
    x = trace.loads_before
    sizes = np.array([d.size for d in trace.destinations])
    outflow = sizes != x
    loads = np.where(outflow, 0, x)
    dest = np.concatenate(trace.destinations)[np.repeat(~outflow, sizes)]
    v, k, starts = discrete._tokens(loads)
    # the pairs of token i are the entries of its vertex's row, in row order
    first = P.indptr[v]
    deg = P.indptr[v + 1] - first
    tok = np.repeat(np.arange(v.size), deg)
    e = np.arange(tok.size) - np.repeat(np.cumsum(deg) - deg - first, deg)
    lo, hi = discrete._token_intervals(P, loads)
    p = discrete._overlap(k.astype(np.float64)[tok], lo[e], hi[e])
    hit = dest[tok] == P.targets[e]   # a row's targets are distinct: at most one per token
    gap = np.abs(hit - p)
    # per token
    missed = np.bincount(tok[hit], minlength=v.size) == 0
    zero = np.bincount(tok[hit & (p <= 0.0)], minlength=v.size) > 0
    over_token = np.bincount(tok, gap, minlength=v.size) > 2.0 + LEMMA_SUM_TOL
    # per row entry
    over_nbr = np.bincount(e, gap, minlength=P.rows.size) > 2.0 + LEMMA_SUM_TOL
    nondet = np.bincount(e, (p > 0.0) & (p < 1.0), minlength=P.rows.size) > 2

    flagged = outflow.copy()
    flagged[v[missed | zero | over_token]] = True
    flagged[P.rows[over_nbr | nondet]] = True
    violations = []
    for w in np.flatnonzero(flagged).tolist():
        toks = slice(starts[w], starts[w] + loads[w])
        row = slice(P.indptr[w], P.indptr[w + 1])
        if outflow[w]:
            violations.append(f"v={w}: outflow {sizes[w]} != load {x[w]}")
            continue
        if missed[toks].any():
            i = int(np.argmax(missed[toks]))
            violations.append(f"v={w} token {i}: destination {dest[toks][i]} outside row support")
            continue
        if zero[toks].any():
            violations.append(f"v={w}: tokens {np.flatnonzero(zero[toks]).tolist()} "
                              f"routed to zero-probability targets")
        if over_token[toks].any():
            violations.append(f"v={w}: per-token discrepancy sum exceeds 2")
        if over_nbr[row].any():
            violations.append(f"v={w}: per-neighbor discrepancy sum exceeds 2")
        if nondet[row].any():
            violations.append(f"v={w}: more than 2 non-deterministic tokens for one neighbor")
    return violations


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------


def suite_dirichlet(seed: int = 0) -> SuiteResult:
    """|E(P^t[.,w]) - pi_w (P^{2t}[w,w] - P^{2t+1}[w,w])| <= 1e-10 for all
    chains in the fixture+random set, all w, t <= 64."""
    t_top = 64
    checks = 0
    worst = 0.0
    worst_at = ""
    for name, P in _dirichlet_chain_set(seed):
        pi = matrices.stationary_distribution(P)
        for w in range(P.n):
            e_w = np.zeros(P.n)
            e_w[w] = 1.0
            rows = [e_w]
            for _ in range(2 * t_top + 1):
                rows.append(matrices.power_apply(rows[-1], P, 1))
            for t in range(t_top + 1):
                lhs = analysis.dirichlet_form(pi[w] * rows[t] / pi, P, pi)
                rhs = float(pi[w] * (rows[2 * t][w] - rows[2 * t + 1][w]))
                gap = abs(lhs - rhs)
                checks += 1
                if gap > worst:
                    worst, worst_at = gap, f"{name} w={w} t={t}"
        # spot-check the single-shot operation agrees with the loop
        lhs, rhs, gap = analysis.dirichlet_identity_check(P, 0, 1)
        checks += 1
        if gap > worst:
            worst, worst_at = gap, f"{name} single-shot"
    passed = worst <= analysis.DIRICHLET_TOL
    return SuiteResult("dirichlet", passed, checks,
                       f"worst gap {worst:.3g} at {worst_at} (tol {analysis.DIRICHLET_TOL})")


def suite_psi2(seed: int = 0) -> SuiteResult:
    """The exact spectral psi2 matches the truncated series within 1e-9
    relative and sits under both closed-form bounds; plus the exact fixture
    values the bounds must reproduce."""
    failures = []
    checks = 0
    worst = 0.0
    for name, P in _dirichlet_chain_set(seed):
        report = analysis.local_p_divergence(P, p=2)
        series = analysis._divergence_series(P, 2, analysis.PSI_TOL_DEFAULT,
                                             analysis.PSI_T_MAX_FALLBACK)
        gap = abs(report.value - series.value) / series.value
        worst = max(worst, gap)
        checks += 1
        if report.t_stop != 0 or gap > PSI2_REL_TOL:
            failures.append(f"{name}: spectral psi2 {report.value!r} (t_stop {report.t_stop}) "
                            f"!= series {series.value!r}")
        bound_rev = analysis.psi2_bound_reversible(P)
        checks += 1
        if report.value > bound_rev + 1e-9:
            failures.append(f"{name}: psi2 {report.value:.6g} > reversible bound {bound_rev:.6g}")
        if P.symmetric:
            bound_sym = analysis.psi2_bound_symmetric(P)
            checks += 1
            if report.value > bound_sym + 1e-9:
                failures.append(f"{name}: psi2 {report.value:.6g} > symmetric bound {bound_sym:.6g}")
    k2 = matrices.lazy_rw_matrix(graphs.gen_complete(2))
    val = analysis.local_p_divergence(k2, p=2).value
    checks += 1
    if abs(val - math.sqrt(2.0)) > 1e-9:
        failures.append(f"K2 psi2 {val!r} != sqrt(2)")
    for g, d in [(graphs.gen_complete(3), 2), (graphs.gen_cycle(16), 2), (graphs.gen_hypercube(4), 4)]:
        checks += 1
        got = analysis.psi2_bound_symmetric(matrices.lazy_rw_matrix(g))
        if abs(got - 2.0 * math.sqrt(d)) > 1e-12:
            failures.append(f"lazy-rw d={d}: symmetric bound {got!r} != 2 sqrt(d)")
    checks += 1
    got = analysis.psi2_bound_symmetric(matrices.metropolis_matrix(graphs.gen_star(8)))
    if abs(got - 2.0 * math.sqrt(7)) > 1e-12:
        failures.append(f"metropolis star8 bound {got!r} != 2 sqrt(7)")
    return SuiteResult("psi2", not failures, checks,
                       failures[0] if failures else
                       f"all psi2 values within bounds; spectral vs series worst "
                       f"relative gap {worst:.3g} (tol {PSI2_REL_TOL})")


def _fuzz_cases(seed: int):
    """Mixed fixtures for the conservation and lemma fuzz suites."""
    fig = figure_row_matrix()
    cyc = graphs.gen_cycle(16)
    torus = graphs.gen_torus(4, 4)
    star = graphs.gen_star(8)
    hyper = graphs.gen_hypercube(3)
    return [
        # (matrix, initial config, steps, sampler)
        (matrices.lazy_rw_matrix(cyc), discrete.point_config(16, 160), 1200, "batch"),
        (matrices.lazy_rw_matrix(cyc), discrete.random_config(16, 160, seed + 1), 1200, "naive"),
        (matrices.metropolis_matrix(torus), discrete.random_config(16, 200, seed + 2), 1200, "batch"),
        (matrices.metropolis_matrix(star), discrete.point_config(8, 56), 1500, "naive"),
        (matrices.lazy_rw_matrix(hyper), discrete.random_config(8, 64, seed + 3), 1200, "batch"),
        (fig, discrete.point_config(5, 5), 1500, "naive"),
        (fig, discrete.uniform_config(5, 23), 1500, "batch"),
    ]


def suite_lemmas(seed: int = 0, min_vertex_steps: int = 100_000) -> SuiteResult:
    """Traced fuzz: conservation, non-negativity, outflow, and the per-load /
    per-neighbor discrepancy lemmas over >= 1e5 vertex-steps."""
    rng = np.random.default_rng(seed)
    vertex_steps = 0
    violations: list[str] = []
    cases = _fuzz_cases(seed)
    ci = 0
    while vertex_steps < min_vertex_steps:
        P, x0, steps, sampler = cases[ci % len(cases)]
        ci += 1
        step = discrete.SAMPLERS[sampler]
        cfg = x0
        for _ in range(steps):
            nxt, tr = step(cfg, P, rng, trace=True)
            vertex_steps += P.n
            if nxt.total != cfg.total:
                violations.append("conservation violated")
            if np.any(nxt.loads < 0):
                violations.append("negative load")
            violations.extend(check_step_trace(P, tr))
            cfg = nxt
            if violations:
                break
        if violations:
            break
    return SuiteResult("lemmas", not violations, vertex_steps,
                       violations[0] if violations else
                       f"zero violations over {vertex_steps} vertex-steps")


def suite_conservation(seed: int = 0) -> SuiteResult:
    """Fast-path fuzz of every step operation: totals conserved exactly and
    no negative entries, across random graphs, matrices and configs."""
    rng = np.random.default_rng(seed)
    checks = 0
    failures = []
    for case in range(30):
        n = int(rng.integers(2, 33))
        g = random_connected_graph(n, rng)
        P = matrices.metropolis_matrix(g)
        total = int(rng.integers(0, 50 * n))
        cfg = discrete.random_config(n, total, int(rng.integers(0, 2**31)))
        for sampler in ("naive", "batch"):
            c = cfg
            for _ in range(40):
                c = discrete.SAMPLERS[sampler](c, P, rng)
                checks += 1
                if c.total != total or np.any(c.loads < 0):
                    failures.append(f"case {case} sampler {sampler}: conservation broke")
                    break
    for case in range(15):
        d = int(rng.integers(2, 6))  # d=1 is only connected at n=2
        n = int(rng.integers(d + 2, 24))
        if (n * d) % 2:
            n += 1
        g = graphs.gen_random_regular(n, d, int(rng.integers(0, 2**31)))
        total = int(rng.integers(0, 40 * n))
        c0 = discrete.random_config(n, total, int(rng.integers(0, 2**31)))
        for name, stepper in (
            ("floor2d", lambda c: discrete.step_send_floor2d(c, g)),
            ("round3d", lambda c: discrete.step_send_round3d(c, g)),
            ("partition", lambda c: discrete.step_send_partition(c, g)),
            ("rsend", lambda c: discrete.step_rsend(c, g, rng)),
        ):
            c = c0
            for _ in range(25):
                c = stepper(c)
                checks += 1
                if c.total != total or np.any(c.loads < 0):
                    failures.append(f"case {case} baseline {name}: conservation broke")
                    break
    return SuiteResult("conservation", not failures, checks,
                       failures[0] if failures else f"{checks} steps conserved totals")


def sampler_equivalence_stats(seed: int = 0, samples: int = 10_000):
    """Shared machinery for the naive-vs-batch comparison on the 5-load row.

    Returns (deterministic sets equal, support sets equal, chi2 p-value,
    contingency table).
    """
    P = figure_row_matrix()
    x0 = discrete.LoadConfig.from_loads([0, 0, 0, 0, 5])
    hub, x_hub = 4, 5
    det_mask = discrete.deterministic_token_mask(P, hub, x_hub)
    row = P.row(hub)
    support = discrete.destination_distribution(row, x_hub, np.arange(x_hub)) > 0

    counts = {}
    det_sets_equal = True
    support_sets_equal = True
    col = np.zeros(P.n, dtype=np.int64)   # the table column of each row target
    col[row.targets] = np.arange(row.targets.size)
    tokens = np.arange(x_hub)
    for si, sampler in enumerate(("naive", "batch")):
        rng = np.random.default_rng(seed + si)
        table = np.zeros((x_hub, row.targets.size), dtype=np.int64)
        for _ in range(samples):
            _, tr = discrete.SAMPLERS[sampler](x0, P, rng, trace=True)
            table[tokens, col[tr.destinations[hub]]] += 1
            if sampler == "batch" and not np.array_equal(~tr.sampled[hub], det_mask):
                det_sets_equal = False
        counts[sampler] = table
        seen = table > 0
        if np.any(seen & ~support):
            support_sets_equal = False
        if np.any(seen[det_mask].sum(axis=1) != 1):
            det_sets_equal = False

    # chi-square homogeneity over the non-deterministic (token, target) cells
    cells = support & ~det_mask[:, None]
    table = np.array([counts[s][cells] for s in ("naive", "batch")])
    from scipy.special import chdtrc  # here, not at the top: only this suite needs it
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    p_value = chdtrc(table.shape[1] - 1, np.sum((table - expected) ** 2 / expected))
    return det_sets_equal, support_sets_equal, float(p_value), table


def suite_sampler_equivalence(seed: int = 0) -> SuiteResult:
    det_ok, support_ok, p_value, table = sampler_equivalence_stats(seed)
    passed = det_ok and support_ok and p_value > CHI2_P_FLOOR
    return SuiteResult(
        "sampler-equivalence", passed, int(table.sum()),
        f"deterministic sets {'match' if det_ok else 'DIFFER'}, "
        f"supports {'match' if support_ok else 'DIFFER'}, chi2 p={p_value:.4f}",
    )


def expectation_stats(seed: int = 0, trials: int = 10_000, T: int = 3,
                      sampler: str = "naive"):
    """Monte-Carlo mean/std of x_T on the triangle against the matrix-power
    oracle. Returns (mean, std, oracle, max deviation in standard errors)."""
    P = matrices.lazy_rw_matrix(graphs.gen_complete(3))
    x0 = discrete.LoadConfig.from_loads([30, 0, 0])
    rng = np.random.default_rng(seed)
    acc = np.zeros(3)
    acc2 = np.zeros(3)
    step = discrete.SAMPLERS[sampler]
    for _ in range(trials):
        cfg = x0
        for _ in range(T):
            cfg = step(cfg, P, rng)
        f = cfg.loads.astype(np.float64)
        acc += f
        acc2 += f * f
    mean = acc / trials
    std = np.sqrt(np.maximum(acc2 / trials - mean * mean, 0.0))
    oracle = matrices.power_apply(x0.loads.astype(np.float64), P, T)
    se = std / math.sqrt(trials)
    z = np.abs(mean - oracle) / se
    return mean, std, oracle, float(z.max())


def suite_expectation(seed: int = 0) -> SuiteResult:
    mean, _, oracle, z_max = expectation_stats(seed)
    passed = z_max <= 5.0
    return SuiteResult("expectation", passed, 10_000,
                       f"max |MC mean - x0 P^3| = {z_max:.2f} standard errors "
                       f"(mean {np.round(mean, 3).tolist()} vs oracle {np.round(oracle, 3).tolist()})")


def suite_prop1(seed: int = 0) -> SuiteResult:
    """Continuous diffusion is eps-balanced at the computed convergence time."""
    fixtures = [
        ("K2", matrices.lazy_rw_matrix(graphs.gen_complete(2))),
        ("cycle16", matrices.lazy_rw_matrix(graphs.gen_cycle(16))),
        ("hypercube4", matrices.lazy_rw_matrix(graphs.gen_hypercube(4))),
        ("torus4x4", matrices.lazy_rw_matrix(graphs.gen_torus(4, 4))),
    ]
    total = 1000
    failures = []
    checks = 0
    for name, P in fixtures:
        x0 = np.zeros(P.n)
        x0[0] = total
        disc0 = analysis.discrepancy(x0)
        for eps in (1.0, 0.1):
            T = continuous.convergence_time(P, disc0, eps)
            disc_T = analysis.discrepancy(continuous.continuous_run(x0, P, T))
            checks += 1
            if disc_T > eps:
                failures.append(f"{name} eps={eps}: disc {disc_T:.3g} after T={T}")
    return SuiteResult("prop1", not failures, checks,
                       failures[0] if failures else "all fixtures eps-balanced at T")


SUITES = {
    "dirichlet": suite_dirichlet,
    "psi2": suite_psi2,
    "conservation": suite_conservation,
    "lemmas": suite_lemmas,
    "sampler-equivalence": suite_sampler_equivalence,
    "expectation": suite_expectation,
    "prop1": suite_prop1,
}


def run_suites(names: list[str] | None = None, seed: int = 0) -> list[SuiteResult]:
    if names is None:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        results.append(SUITES[name](seed=seed))
    return results
