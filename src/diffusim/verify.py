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

from . import analysis, discrete, graphs, harness, matrices
from .errors import ValidationError

CHI2_P_FLOOR = 0.001
LEMMA_SUM_TOL = 1e-9
# tokens plus row entries at most in one side-by-side lemma pass: it bounds a
# pass's memory, each temporary (one value per token, per entry or per
# vertex, 8 bytes each) staying within 64 KiB, far below the 1 MiB mmap
# threshold that importing the package sets, so the temporaries come from the
# heap and are not mapped and faulted in again every pass. Nearly twice this
# bound (2**14 - 512) raised the peak RSS of `diffusim verify` by ~0.6 MB
# (the traces a chunk buffers grow with it) for ~1 % of the lemma suite's time.
LEMMA_ITEMS = 2**13
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


def random_connected_graph(n: int, rng) -> graphs.Graph:
    """Random spanning tree plus up to n // 2 extra random edges; simple and connected."""
    if n < 2:
        raise ValueError("need n >= 2")
    edges = set()
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        edges.add((parent, v))
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


def seeded_irregular_graph() -> graphs.Graph:
    """128-cycle backbone plus 64 seeded random chords: connected, degrees 2..~6."""
    n, chords = 128, 64
    rng = np.random.default_rng(5)
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


def _dirichlet_chain_set(seed: int):
    """Fixture chains plus 25 seeded random reversible lazy chains."""
    chains = [
        ("K2-lazy", matrices.lazy_rw_matrix(graphs.gen_complete(2))),
        ("triangle-lazy", matrices.lazy_rw_matrix(graphs.gen_complete(3))),
        ("cycle16-lazy", matrices.lazy_rw_matrix(graphs.gen_cycle(16))),
        ("star8-metropolis", matrices.metropolis_matrix(graphs.gen_star(8))),
    ]
    rng = np.random.default_rng(seed)
    for i in range(25):
        n = int(rng.integers(2, 17))
        P, _ = random_reversible_lazy_chain(n, rng)
        chains.append((f"random-reversible-{i}-n{n}", P))
    return chains


# ---------------------------------------------------------------------------
# Trace checking: structural lemmas as assertions.
# ---------------------------------------------------------------------------


def check_step_trace(P: matrices.RoundMatrix, trace: discrete.StepTrace) -> list[str]:
    """Violations of outflow, support, zero-probability routing and the
    per-neighbor <=2 discrepancy lemma in one traced step on P.

    A vertex whose outflow differs from its load, or that has a token
    outside its row's support, gets that one message and no further check.
    Messages come in vertex order, and a vertex's in the order of the
    lemmas. The per-token <=2 lemma and the bound of 2 non-deterministic
    tokens per neighbor depend only on destination_distribution, not on
    where tokens went, so the tests check them there. This is the one-step
    case of _trace_violations.
    """
    return [message for _, message in _trace_violations(P, [trace])]


def _trace_violations(P: matrices.RoundMatrix, traces: list) -> list[tuple[int, str]]:
    """(step, message) of every violation in consecutive traced steps on P,
    in step order, each step's messages those check_step_trace gives it.

    One flat pass over every token of the K steps, step j on vertices
    j*n..j*n+n-1 of I_K (x) P: every check is per vertex, so vertex w of the
    pass is vertex w % n of step w // n. A token of vertex v that went to u
    hits the entry of P whose key row*(n+1) + (n if a self-loop else target)
    is v*(n+1) + (n if u == v else u), found in one search, since a row's
    keys ascend in entry order; a token with no such entry is outside its
    row's support. Entry i of a row with x tokens sums |hit - p| over them:
    their p add up to the width of its interval times x, and a hit adds
    1 - 2p.
    """
    if not traces:
        return []
    n, K = P.n, len(traces)
    M = discrete._tile(P, K)
    x, sizes, dest = (np.concatenate([getattr(tr, a) for tr in traces])
                      for a in ("loads_before", "counts", "destinations"))
    outflow = sizes != x
    loads = np.where(outflow, 0, x)
    dest = dest[np.repeat(~outflow, sizes)]
    v, k, starts = discrete._tokens(M, loads)
    home = np.tile(P._vertices, K)[v]   # each token's vertex in its own step
    keys = P.rows * (n + 1)
    keys += np.where(P.targets == P.rows, n, P.targets)
    query = home * (n + 1)
    query += np.where(dest == home, n, dest)
    at = np.minimum(keys.searchsorted(query), keys.size - 1)
    hit = (P.rows[at] == home) & (P.targets[at] == dest)
    entry = at + (M._heads - np.tile(P._heads, K))[v]   # step j's entries come j*nnz later
    load = loads[M.rows]  # scales each entry's interval into token units
    lo, hi = M.starts * load, M.ends * load
    p = discrete._overlap(k.astype(np.float64), lo[entry], hi[entry])
    missed = ~hit
    zero = hit & (p <= 0.0)
    gap = hi - lo
    gap += np.bincount(entry, (1.0 - 2.0 * p) * hit, minlength=gap.size)
    over_nbr = gap > 2.0 + LEMMA_SUM_TOL

    flagged = outflow.copy()
    flagged[v[missed | zero]] = True
    flagged[M.rows[over_nbr]] = True
    violations = []
    for w in np.flatnonzero(flagged).tolist():
        step, u = divmod(w, P.n)
        toks = slice(starts[w], starts[w] + loads[w])
        row = slice(M.indptr[w], M.indptr[w + 1])
        if outflow[w]:
            violations.append((step, f"v={u}: outflow {sizes[w]} != load {x[w]}"))
            continue
        if missed[toks].any():
            i = int(np.argmax(missed[toks]))
            violations.append((step, f"v={u} token {i}: destination {dest[toks][i]} outside row support"))
            continue
        if zero[toks].any():
            violations.append((step, f"v={u}: tokens {np.flatnonzero(zero[toks]).tolist()} "
                                     f"routed to zero-probability targets"))
        if over_nbr[row].any():
            violations.append((step, f"v={u}: per-neighbor discrepancy sum exceeds 2"))
    return violations


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------


def suite_dirichlet(seed: int = 0) -> SuiteResult:
    """|E(P^t[.,w]) - pi_w (P^{2t}[w,w] - P^{2t+1}[w,w])| <= 1e-10 for all
    chains in the fixture+random set, all w, t <= 64. All basis rows e_w
    step at once with power_apply's sums, and each (w, t) form is its own
    1-d sum as in dirichlet_form, so every gap has a loop's bits."""
    t_top = 64
    checks = 0
    worst = 0.0
    worst_at = ""
    for name, P in _dirichlet_chain_set(seed):
        n = P.n
        pi = matrices.stationary_distribution(P)
        shifted = (P.targets + n * np.arange(n)[:, None]).ravel()
        powers = [np.eye(n)]
        for _ in range(2 * t_top + 1):
            flows = powers[-1][:, P.rows] * P.probs
            powers.append(np.bincount(shifted, flows.ravel(), minlength=n * n).reshape(n, n))
        Y = np.stack(powers, axis=1)                   # Y[w, t] = e_w P^t
        f = pi[:, None, None] * Y[:, :t_top + 1] / pi  # f[w, t] = P^t[., w] by reversibility
        diffs = f[..., P.rows] - f[..., P.targets]
        terms = diffs * diffs * (pi[P.rows] * P.probs)
        lhs = 0.5 * np.array([np.add.reduce(row) for row in terms.reshape(-1, P.rows.size)])
        diag = Y[np.arange(n), :, np.arange(n)]        # diag[w, t] = P^t[w, w]
        rhs = pi[:, None] * (diag[:, :2 * t_top + 1:2] - diag[:, 1::2])
        gap = np.abs(lhs.reshape(rhs.shape) - rhs)
        checks += gap.size
        if gap.max() > worst:
            w, t = np.unravel_index(np.argmax(gap), gap.shape)
            worst, worst_at = float(gap[w, t]), f"{name} w={w} t={t}"
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
    values the bounds must reproduce. The spectral value is the dense one,
    also on the chains that local_p_divergence takes from their Cayley
    group, so the dense path stays checked against the series."""
    failures = []
    checks = 0
    worst = 0.0
    for name, P in _dirichlet_chain_set(seed):
        report = analysis._spectral_psi2(P)
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
    """Traced fuzz: conservation, non-negativity, outflow, support and the
    per-neighbor discrepancy lemma over >= 1e5 vertex-steps.

    Conservation and signs are checked every step; the traces are checked
    in chunks of at most LEMMA_ITEMS tokens plus row entries. The first
    violation and the vertex-steps up to its step are the same as checking
    every step in turn.
    """
    rng = np.random.default_rng(seed)
    vertex_steps = 0   # of the steps that passed every check
    found = None       # (step in the buffer, message) of the first violation
    cases = _fuzz_cases(seed)
    ci = 0
    while found is None and vertex_steps < min_vertex_steps:
        P, x0, steps, sampler = cases[ci % len(cases)]
        ci += 1
        step = discrete.SAMPLERS[sampler]
        chunk = max(1, LEMMA_ITEMS // (x0.total + P.ends.size))
        traces = []
        cfg = x0
        for i in range(steps):
            nxt, tr = step(cfg, P, rng, trace=True)
            if nxt.total != cfg.total or np.minimum.reduce(nxt.loads) < 0:
                # the buffered steps came first, and so do their messages
                found = (_trace_violations(P, traces) or [(len(traces), (
                    "conservation violated" if nxt.total != cfg.total else "negative load"))])[0]
                break
            traces.append(tr)
            cfg = nxt
            if len(traces) == chunk or i == steps - 1:
                found = (_trace_violations(P, traces) or [None])[0]
                if found:
                    break
                vertex_steps += len(traces) * P.n
                traces = []
        if found:
            vertex_steps += (found[0] + 1) * P.n
    return SuiteResult("lemmas", found is None, vertex_steps,
                       found[1] if found else
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
                if c.total != total or np.minimum.reduce(c.loads) < 0:
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
        for name, make in discrete.ALGORITHMS.items():
            if not isinstance(make, discrete.Baseline):
                continue
            step, loads = make(None, g, (rng,)), c0.loads
            for _ in range(25):
                loads = step(loads)
                checks += 1
                if np.add.reduce(loads) != total or np.minimum.reduce(loads) < 0:
                    failures.append(f"case {case} baseline {name}: conservation broke")
                    break
    return SuiteResult("conservation", not failures, checks,
                       failures[0] if failures else f"{checks} steps conserved totals")


def sampler_equivalence_stats(seed: int = 0, samples: int = 10_000):
    """Shared machinery for the naive-vs-batch comparison on the 5-load row.

    Each sampler takes `samples` one-round samples from x0 = [0,0,0,0,5],
    drawing from default_rng(seed + i) (naive i = 0, batch i = 1) exactly the
    uniforms that one traced SAMPLERS call per sample would (see
    _sampler_counts). Returns (deterministic sets equal, support sets equal,
    chi2 p-value over the cells that either sampler hit, contingency table).
    """
    P = figure_row_matrix()
    x0 = discrete.LoadConfig.from_loads([0, 0, 0, 0, 5])
    hub, x_hub = 4, 5
    row = P.row(hub)
    support = discrete.destination_distribution(row, x_hub, np.arange(x_hub)) > 0
    det_mask = support.sum(axis=1) == 1   # one target overlaps the token's whole window

    counts = {}
    det_sets_equal = True
    support_sets_equal = True
    col = np.zeros(P.n, dtype=np.int64)   # the table column of each row target
    col[row.targets] = np.arange(row.targets.size)
    for si, sampler in enumerate(("naive", "batch")):
        table, draws = _sampler_counts(sampler, P, x0, np.random.default_rng(seed + si),
                                       samples, col)
        # every sample draws for exactly the tokens that are not deterministic
        if sampler == "batch" and np.any(draws != np.where(det_mask, 0, samples)):
            det_sets_equal = False
        counts[sampler] = table
        seen = table > 0
        if np.any(seen & ~support):
            support_sets_equal = False
        if np.any(seen[det_mask].sum(axis=1) != 1):
            det_sets_equal = False

    # chi-square homogeneity over the non-deterministic (token, target) cells;
    # a cell that neither sampler hit has no expected count and adds no
    # degree of freedom, and with fewer than two hit cells there is no test
    cells = support & ~det_mask[:, None]
    table = np.array([counts[s][cells] for s in ("naive", "batch")])
    observed = table[:, table.sum(axis=0) > 0]
    if observed.shape[1] < 2:
        return det_sets_equal, support_sets_equal, 1.0, table
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / observed.sum()
    p_value = _chi2_sf(observed.shape[1] - 1, float(np.sum((observed - expected) ** 2 / expected)))
    return det_sets_equal, support_sets_equal, p_value, table


def _sampler_counts(sampler: str, P: matrices.RoundMatrix, x0: discrete.LoadConfig, rng,
                    samples: int, col: np.ndarray):
    """(table, draws) of `samples` one-round samples of a sampler from x0,
    whose tokens all sit on one vertex: table[k, col[u]] counts the samples
    that sent token k to u, and draws[k] those that drew for token k.

    The samples step in blocks of B = max(1, BLOCK_ENTRIES // nnz) copies of
    P, side by side as I_B (x) P, and draw from rng in copy order: "naive" one
    uniform per token, "batch" through _route. PCG64 spends one output per
    double, so a block draws the uniforms that B traced SAMPLERS[sampler]
    calls would, and each copy lands where its call's trace would. A copy
    whose total or least load is off raises ValidationError naming its sample.
    """
    n, m = P.n, x0.total
    width = int(col.max()) + 1
    table = np.zeros(m * width, dtype=np.int64)
    draws = np.zeros(m, dtype=np.int64)
    B = max(1, harness.BLOCK_ENTRIES // P.ends.size)
    for first in range(0, samples, B):
        b = min(B, samples - first)
        M, loads = discrete._tile(P, b), np.tile(x0.loads, b)
        if sampler == "naive":
            dests = discrete._naive_route(M, loads, rng)[0]
            new = np.bincount(dests, minlength=b * n)
            draws += b
        else:
            counts, u, e = discrete._route(loads, M, (rng,))
            new = discrete._scatter(M.targets, counts, b * n)
            dests = M.targets.repeat(counts.astype(np.int64))
            # the drawn token of e: floor of the product _route formed there
            draws += np.bincount(np.floor(M.ends[e] * m).astype(np.int64), minlength=m)
        new = new.reshape(b, n)
        got, least = new.sum(axis=1), new.min(axis=1)
        bad = ((got != m) | (least < 0)).nonzero()[0]
        if bad.size:
            i = int(bad[0])
            raise ValidationError(f"{sampler} sample {first + i}: step produced total {got[i]} "
                                  f"and least load {least[i]}, expected total {m}")
        cell = np.arange(m) * width + col[dests % n].reshape(b, m)  # (token, column) of each sample
        table += np.bincount(cell.ravel(), minlength=m * width)
    return table.reshape(m, width), draws


def _chi2_sf(df: int, x: float) -> float:
    """P(chi-square with df degrees of freedom > x) for integer df >= 1.

    This is Q(df/2, h) at h = x/2, a finite sum for integer df:
      even df: e^-h sum_{j < df/2} h^j / j!
      odd df:  erfc(sqrt h) + e^-h sum_{j < (df-1)/2} h^(j+1/2) / Gamma(j + 3/2)
    The sum is scaled as exp(log(sum) - h), not e^-h * sum: past h = 708 e^-h
    is subnormal and short of bits while the tail itself can still be normal.
    The sum is for a contingency table's small df: it overflows once a term
    passes 1e308 (df = 2000 at x = 3000 returns inf).
    """
    if df < 1:
        raise ValueError(f"chi-square needs df >= 1, got {df}")
    h = x / 2
    odd = df % 2
    a = 1.5 if odd else 1.0   # term 0 is h^(a-1) / Gamma(a); term j+1 is term j * h / (a + j)
    term = math.sqrt(h) / math.gamma(a) if odd else 1.0
    total = 0.0
    for _ in range(df // 2):
        total += term
        term *= h / a
        a += 1
    tail = math.exp(math.log(total) - h) if total > 0 else 0.0
    return (math.erfc(math.sqrt(h)) if odd else 0.0) + tail


def suite_sampler_equivalence(seed: int = 0) -> SuiteResult:
    det_ok, support_ok, p_value, table = sampler_equivalence_stats(seed)
    passed = det_ok and support_ok and p_value > CHI2_P_FLOOR
    return SuiteResult(
        "sampler-equivalence", passed, int(table.sum()),
        f"deterministic sets {'match' if det_ok else 'DIFFER'}, "
        f"supports {'match' if support_ok else 'DIFFER'}, chi2 p={p_value:.4f}",
    )


def expectation_stats(seed: int = 0, trials: int = 10_000):
    """Monte-Carlo mean/std of x_3 under step_naive on the triangle against x0 P^3.
    Returns (mean, std, oracle, max deviation in standard errors)."""
    T = 3
    P = matrices.lazy_rw_matrix(graphs.gen_complete(3))
    x0 = discrete.LoadConfig.from_loads([30, 0, 0])
    rng = np.random.default_rng(seed)
    step = discrete.SAMPLERS["naive"]
    finals = np.empty((trials, P.n), dtype=np.int64)
    for i in range(trials):
        cfg = x0
        for _ in range(T):
            cfg = step(cfg, P, rng)
        finals[i] = cfg.loads
    # exact integer sums; below 2**53, so their float64 values are exact too
    mean = finals.sum(axis=0).astype(np.float64) / trials
    std = np.sqrt(np.maximum((finals * finals).sum(axis=0).astype(np.float64) / trials
                             - mean * mean, 0.0))
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
            T = analysis.convergence_time(P, disc0, eps)
            disc_T = analysis.discrepancy(matrices.power_apply(x0, P, T))
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
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if names is None:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        results.append(SUITES[name](seed=seed))
    return results
