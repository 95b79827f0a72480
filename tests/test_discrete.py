import hashlib
import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from diffusim import (
    LoadConfig,
    RoundMatrix,
    ValidationError,
    config_from_preset,
    custom_matrix,
    destination_distribution,
    gen_complete,
    gen_cycle,
    gen_hypercube,
    gen_star,
    gen_torus,
    lazy_rw_matrix,
    matrix_from_text,
    metropolis_matrix,
    point_config,
    power_apply,
    random_config,
    run,
    step_batch,
    step_naive,
    uniform_config,
)
from diffusim.discrete import (
    ALGORITHMS,
    MAX_TOTAL,
    SAMPLERS,
    _route,
    _scatter,
    _tile,
    _token_dests,
    _token_draws,
    _tokens,
    loads_text,
    parse_loads_text,
)
from diffusim.verify import (
    LEMMA_SUM_TOL,
    _trace_violations,
    check_step_trace,
    figure_row_matrix,
    random_connected_graph,
    random_reversible_lazy_chain,
    random_symmetric_lazy_chain,
    sampler_equivalence_stats,
)


# ---------------------------------------------------------------------------
# destination_distribution
# ---------------------------------------------------------------------------


def test_destination_distribution_figure1():
    row = figure_row_matrix().row(4)
    p0 = destination_distribution(row, 5, 0)
    assert np.allclose(p0, [25 / 80, 25 / 80, 30 / 80, 0, 0], atol=1e-15)
    p1 = destination_distribution(row, 5, 1)
    assert np.allclose(p1, [0, 0, 1 / 4, 3 / 4, 0], atol=1e-15)
    p2 = destination_distribution(row, 5, 2)
    assert np.allclose(p2, [0, 0, 0, 0.5, 0.5], atol=1e-15)
    for k in (3, 4):
        assert np.allclose(destination_distribution(row, 5, k), [0, 0, 0, 0, 1], atol=1e-15)
    # an array of token indices gives the same rows, bit for bit
    assert np.array_equal(destination_distribution(row, 5, np.arange(5)),
                          [destination_distribution(row, 5, k) for k in range(5)])


def test_destination_distribution_single_load_is_row(lazy_triangle):
    row = lazy_triangle.row(0)
    assert np.allclose(destination_distribution(row, 1, 0), row.probs, atol=1e-15)


def test_destination_distribution_exact_overlap(lazy_triangle):
    # with 2 loads, token 1 occupies [1/2, 1) = exactly the self interval
    p = destination_distribution(lazy_triangle.row(0), 2, 1)
    assert np.array_equal(p, [0.0, 0.0, 1.0])


def test_destination_distribution_out_of_range(lazy_triangle):
    with pytest.raises(ValidationError):
        destination_distribution(lazy_triangle.row(0), 2, 2)


def test_destination_distribution_out_of_range_names_first_index():
    row = figure_row_matrix().row(4)
    with pytest.raises(ValidationError, match=r"^token index 5 out of range for 5 loads$"):
        destination_distribution(row, 5, np.arange(7))
    with pytest.raises(ValidationError, match=r"^token index -1 out of range for 5 loads$"):
        destination_distribution(row, 5, [2, -1, 9])


def test_destination_distribution_empty_index():
    row = figure_row_matrix().row(4)
    p = destination_distribution(row, 5, np.arange(0))
    assert p.shape == (0, row.targets.size)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), x_v=st.integers(1, 40))
def test_destination_distribution_sums_to_one(seed, x_v):
    rng = np.random.default_rng(seed)
    P = metropolis_matrix(random_connected_graph(int(rng.integers(2, 12)), rng))
    v = int(rng.integers(0, P.n))
    row = P.row(v)
    for k in range(x_v):
        p = destination_distribution(row, x_v, k)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p >= 0)


def _deterministic(row, x_v: int) -> np.ndarray:
    """True for the tokens of a vertex with x_v loads whose window overlaps
    exactly one row target, so that no draw decides them."""
    return (destination_distribution(row, x_v, np.arange(x_v)) > 0).sum(axis=1) == 1


def _cut_mask(row, x_v: int) -> np.ndarray:
    """The same tokens from the row's internal cuts: token k is drawn for
    exactly when a cut falls strictly inside its window [k, k+1)."""
    cuts = row.ends[:-1] * float(x_v)  # internal boundaries in token units
    kb = np.floor(cuts)
    mask = np.ones(x_v, dtype=bool)
    mask[kb[cuts != kb].astype(np.int64)] = False
    return mask


def test_deterministic_mask_figure1():
    row = figure_row_matrix().row(4)
    assert np.array_equal(_deterministic(row, 5), [False, False, False, True, True])


def test_all_single_loads_are_boundary(lazy_cycle16):
    # one load per vertex: every token samples the full row = a walk step
    for v in range(16):
        assert np.array_equal(_deterministic(lazy_cycle16.row(v), 1), [False])


# probabilities below a row sum's ulp, tiny ones, and repeats
TINY_PROBS = (1e-300, 1e-17, 1e-12, 1e-6, 0.1, 0.25, 0.25, 0.5, 1.0, 3.0)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_deterministic_tokens_are_the_undrawn_ones(seed):
    # one overlapping target <=> no internal cut inside the window <=> no draw
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    entries = []
    for v in range(n):
        targets = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        w = rng.choice(TINY_PROBS, size=targets.size)
        entries += [(v, int(u), p) for u, p in zip(targets, w / w.sum())]
    P = custom_matrix(entries, n=n)
    loads = rng.choice([0, 1, int(rng.integers(2, 3000))], size=n)
    _, tr = step_batch(LoadConfig.from_loads(loads), P, rng, trace=True)
    for v, drawn, dest in zip(range(n), _per_vertex(tr, tr.sampled), _per_vertex(tr, tr.destinations)):
        row, x_v = P.row(v), int(loads[v])
        det = _deterministic(row, x_v)
        assert np.array_equal(det, _cut_mask(row, x_v))
        assert np.array_equal(det, ~drawn)
        # an undrawn token goes to its one overlapping target
        probs = destination_distribution(row, x_v, np.flatnonzero(det))
        assert np.array_equal(dest[det], row.targets[np.argmax(probs, axis=1)])


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_step_zero_loads_consumes_no_randomness(lazy_triangle):
    x = LoadConfig.from_loads([0, 0, 0])
    for step in (step_naive, step_batch):
        rng = np.random.default_rng(99)
        out = step(x, lazy_triangle, rng)
        assert np.array_equal(out.loads, [0, 0, 0])
        assert rng.random() == np.random.default_rng(99).random()


def test_naive_k2_single_token_frequency(lazy_k2):
    # brute-force frequency of the lazy step on one token
    rng = np.random.default_rng(7)
    x = LoadConfig.from_loads([1, 0])
    moved = sum(int(step_naive(x, lazy_k2, rng).loads[1]) for _ in range(10_000))
    assert abs(moved / 10_000 - 0.5) <= 0.02


def test_triangle_two_tokens_enumeration(lazy_triangle):
    # interval overlaps: token 0 -> v1 or v2 each w.p. 1/2, token 1 stays
    x = LoadConfig.from_loads([2, 0, 0])
    for step in (step_naive, step_batch):
        rng = np.random.default_rng(13)
        counts = Counter(tuple(step(x, lazy_triangle, rng).loads) for _ in range(10_000))
        assert set(counts) == {(1, 1, 0), (1, 0, 1)}
        assert abs(counts[(1, 1, 0)] / 10_000 - 0.5) <= 0.02


def test_batch_triangle_token1_deterministic(lazy_triangle):
    x = LoadConfig.from_loads([2, 0, 0])
    _, tr = step_batch(x, lazy_triangle, np.random.default_rng(0), trace=True)
    # vertex 0 holds both tokens, so they are the whole flat trace
    assert not tr.sampled[1]       # token 1 routed without a draw
    assert tr.destinations[1] == 0  # to self
    assert tr.sampled[0]


def test_batch_figure1_deterministic_tokens():
    P = figure_row_matrix()
    x = LoadConfig.from_loads([0, 0, 0, 0, 5])
    rng = np.random.default_rng(3)
    for _ in range(50):
        _, tr = step_batch(x, P, rng, trace=True)
        assert list(tr.counts) == [0, 0, 0, 0, 5]  # the hub's tokens are the whole trace
        assert tr.destinations[3] == 4 and tr.destinations[4] == 4
        assert not tr.sampled[3] and not tr.sampled[4]
        assert list(tr.sampled[:3]) == [True, True, True]


def test_exact_split_matches_between_samplers():
    # point mass 1000 on a cycle: every interval boundary is integral in
    # token units, so both samplers are fully deterministic and equal
    P = lazy_rw_matrix(gen_cycle(8))
    x = point_config(8, 1000)
    a = step_batch(x, P, np.random.default_rng(1)).loads
    b = step_naive(x, P, np.random.default_rng(2)).loads
    assert np.array_equal(a, b)
    assert np.array_equal(a, [500, 250, 0, 0, 0, 0, 0, 250])


def test_batch_multi_straddle_token_matches_row():
    # one token on K5's lazy walk straddles all four edge intervals at once,
    # forcing the grouped multi-boundary path; frequencies must match the row
    P = lazy_rw_matrix(gen_complete(5))
    x = LoadConfig.from_loads([1, 0, 0, 0, 0])
    rng = np.random.default_rng(29)
    trials = 20_000
    counts = np.zeros(5)
    for _ in range(trials):
        counts += step_batch(x, P, rng).loads
    probs = np.array([0.5, 0.125, 0.125, 0.125, 0.125])
    sigma = np.sqrt(probs * (1 - probs) * trials)
    assert np.all(np.abs(counts - probs * trials) <= 4 * sigma)


def test_naive_single_walk_matches_row(lazy_triangle):
    # x_v=1 at one vertex reproduces one lazy random walk step within 3 sigma
    rng = np.random.default_rng(21)
    x = LoadConfig.from_loads([1, 0, 0])
    counts = np.zeros(3)
    trials = 10_000
    for _ in range(trials):
        counts += step_naive(x, lazy_triangle, rng).loads
    probs = np.array([0.5, 0.25, 0.25])  # row of vertex 0 keyed by vertex
    sigma = np.sqrt(probs * (1 - probs) * trials)
    assert np.all(np.abs(counts - probs * trials) <= 3 * sigma + 1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), steps=st.integers(1, 8),
       sampler=st.sampled_from(["naive", "batch"]))
def test_sampler_conservation_and_nonnegativity(seed, steps, sampler):
    rng = np.random.default_rng(seed)
    P = metropolis_matrix(random_connected_graph(int(rng.integers(2, 14)), rng))
    total = int(rng.integers(0, 300))
    cfg = random_config(P.n, total, seed)
    for _ in range(steps):
        cfg = SAMPLERS[sampler](cfg, P, rng)
        assert cfg.total == total
        assert np.all(cfg.loads >= 0)


def test_traced_steps_match_invariants(lazy_cycle16):
    rng = np.random.default_rng(8)
    cfg = random_config(16, 120, 44)
    for sampler in ("naive", "batch"):
        nxt, tr = SAMPLERS[sampler](cfg, lazy_cycle16, rng, trace=True)
        assert check_step_trace(lazy_cycle16, tr) == []
        recount = np.bincount(tr.destinations, minlength=16)
        assert np.array_equal(recount, nxt.loads)


def test_check_step_trace_reports_bad_destinations(lazy_cycle16):
    _, tr = step_batch(point_config(16, 32), lazy_cycle16, np.random.default_rng(0), trace=True)
    tr.destinations = tr.destinations.copy()  # vertex 0 holds every token
    tr.destinations[5] = 8          # not a neighbor of vertex 0
    assert check_step_trace(lazy_cycle16, tr) == ["v=0 token 5: destination 8 outside row support"]
    tr.destinations[5] = 15         # token 5 of 32 lies inside the interval of neighbor 1
    assert check_step_trace(lazy_cycle16, tr)[0] == (
        "v=0: tokens [5] routed to zero-probability targets")



def test_token_moved_off_a_window_it_fills_breaks_both_lemmas():
    # row 0 of 4 tokens: target 1 on [0, 0.4), target 2 on [0.4, 2.6) and
    # itself on [2.6, 4) in token units, so token 3's window lies inside the
    # self-loop's interval. Sending it to 2 is zero-probability routing, and
    # entry (0, 2) then sums 0.6 + 0 + 0.6 + 1 > 2 over tokens 0 to 3
    P = custom_matrix([(0, 1, 0.1), (0, 2, 0.55), (0, 0, 0.35), (1, 0, 0.1), (1, 1, 0.9),
                       (2, 0, 0.55), (2, 2, 0.45)], n=3)
    _, tr = step_batch(LoadConfig.from_loads([4, 0, 0]), P, np.random.default_rng(0), trace=True)
    tr.destinations = np.array([1, 2, 0, 2])
    want = ["v=0: tokens [3] routed to zero-probability targets",
            "v=0: per-neighbor discrepancy sum exceeds 2"]
    assert check_step_trace(P, tr) == _reference_check_step_trace(P, tr) == want
    tr.destinations = np.array([1, 2, 0, 0])   # the round's legal routing, token 2 to itself
    assert check_step_trace(P, tr) == _reference_check_step_trace(P, tr) == []

def _per_vertex(trace, flat):
    """A flat per-token trace array cut into one slice per vertex."""
    return np.split(flat, np.cumsum(trace.counts)[:-1])


def _set_destinations(trace, v, dest):
    """Replace the destinations of vertex v's tokens, and its count, by dest."""
    per_vertex = _per_vertex(trace, trace.destinations)
    per_vertex[v] = dest
    trace.destinations = np.concatenate(per_vertex)
    trace.counts = np.array([d.size for d in per_vertex])


def _reference_check_step_trace(P, trace):
    """check_step_trace as a loop over vertices, one destination_distribution
    call per loaded vertex."""
    violations = []
    x = trace.loads_before
    for v, dest in enumerate(_per_vertex(trace, trace.destinations)):
        x_v = int(x[v])
        if dest.size != x_v:
            violations.append(f"v={v}: outflow {dest.size} != load {x_v}")
            continue
        if x_v == 0:
            continue
        row = P.row(v)
        probs = destination_distribution(row, x_v, np.arange(x_v))
        onehot = dest[:, None] == row.targets  # a row's targets are distinct
        hit = onehot.any(axis=1)
        if not hit.all():
            i = int(np.argmin(hit))
            violations.append(f"v={v} token {i}: destination {int(dest[i])} outside row support")
            continue
        chosen = probs[onehot]
        if np.any(chosen <= 0.0):
            ks = np.nonzero(chosen <= 0.0)[0]
            violations.append(f"v={v}: tokens {ks.tolist()} routed to zero-probability targets")
        if np.any(np.abs(onehot - probs).sum(axis=0) > 2.0 + LEMMA_SUM_TOL):
            violations.append(f"v={v}: per-neighbor discrepancy sum exceeds 2")
    return violations


TRACE_CHAINS = {
    "metropolis": lambda n, rng: metropolis_matrix(random_connected_graph(n, rng)),
    "reversible-lazy": lambda n, rng: random_reversible_lazy_chain(n, rng)[0],
    "symmetric-lazy": random_symmetric_lazy_chain,
}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), chain=st.sampled_from(sorted(TRACE_CHAINS)),
       x_v=st.integers(1, 200))
def test_destination_distribution_token_lemmas(seed, chain, x_v):
    # the two lemmas that hold whatever target a token draws: a token that
    # lands on a target of probability p has per-token gap sum 2(1 - p) <= 2,
    # and at most 2 tokens per row entry are non-deterministic
    rng = np.random.default_rng(seed)
    P = TRACE_CHAINS[chain](int(rng.integers(2, 12)), rng)
    for v in range(P.n):
        row = P.row(v)
        probs = destination_distribution(row, x_v, np.arange(x_v))
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(probs >= 0.0)
        # target u expects x_v P[v, u] of the tokens
        assert np.allclose(probs.sum(axis=0), x_v * row.probs, rtol=0.0, atol=1e-9 * x_v)
        # gap[k, j]: sum over targets i of |[i == j] - probs[k, i]|
        gap = np.abs(np.eye(probs.shape[1]) - probs[:, None, :]).sum(axis=2)
        assert np.all(gap[probs > 0.0] <= 2.0 + LEMMA_SUM_TOL)
        assert np.all(((probs > 0.0) & (probs < 1.0)).sum(axis=0) <= 2)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), chain=st.sampled_from(sorted(TRACE_CHAINS)),
       sampler=st.sampled_from(["naive", "batch"]), corruptions=st.integers(0, 3))
def test_check_step_trace_matches_reference_loop(seed, chain, sampler, corruptions):
    rng = np.random.default_rng(seed)
    P = TRACE_CHAINS[chain](int(rng.integers(2, 12)), rng)
    cfg = random_config(P.n, int(rng.integers(0, 20 * P.n)), seed)
    _, tr = SAMPLERS[sampler](cfg, P, rng, trace=True)
    assert check_step_trace(P, tr) == _reference_check_step_trace(P, tr) == []
    loaded = np.flatnonzero(tr.loads_before)
    for v in rng.choice(loaded, size=min(corruptions, loaded.size), replace=False):
        d = _per_vertex(tr, tr.destinations)[v].copy()
        i, j = rng.integers(0, d.size, size=2)
        kind = int(rng.integers(0, 3))
        if kind == 0:    # moved to a random vertex, mostly off the row's support
            d[i] = rng.integers(0, P.n)
        elif kind == 1:  # two tokens swapped, often onto a zero-probability target
            d[[i, j]] = d[[j, i]]
        else:            # a token dropped or duplicated: outflow != load
            d = np.delete(d, i) if rng.random() < 0.5 else np.insert(d, i, d[i])
        _set_destinations(tr, v, d)
    assert check_step_trace(P, tr) == _reference_check_step_trace(P, tr)


def _corrupted(P, tr, rng, corruptions: int):
    """tr with the destinations of up to `corruptions` loaded vertices
    broken in one of the ways test_check_step_trace_matches_reference_loop
    breaks them."""
    loaded = np.flatnonzero(tr.loads_before)
    for v in rng.choice(loaded, size=min(corruptions, loaded.size), replace=False):
        d = _per_vertex(tr, tr.destinations)[v].copy()
        i, j = rng.integers(0, d.size, size=2)
        kind = int(rng.integers(0, 3))
        if kind == 0:    # moved to a random vertex, mostly off the row's support
            d[i] = rng.integers(0, P.n)
        elif kind == 1:  # two tokens swapped, often onto a zero-probability target
            d[[i, j]] = d[[j, i]]
        else:            # a token dropped or duplicated: outflow != load
            d = np.delete(d, i) if rng.random() < 0.5 else np.insert(d, i, d[i])
        _set_destinations(tr, v, d)
    return tr


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), chain=st.sampled_from(sorted(TRACE_CHAINS)),
       sampler=st.sampled_from(["naive", "batch"]), steps=st.sampled_from([1, 2, 5]),
       corruptions=st.integers(0, 3))
def test_trace_violations_side_by_side_match_step_by_step(seed, chain, sampler, steps, corruptions):
    # K steps checked in one pass give each step's own messages, in step order
    rng = np.random.default_rng(seed)
    P = TRACE_CHAINS[chain](int(rng.integers(2, 12)), rng)
    cfg = random_config(P.n, int(rng.integers(0, 20 * P.n)), seed)
    traces = []
    for _ in range(steps):
        cfg, tr = SAMPLERS[sampler](cfg, P, rng, trace=True)
        traces.append(_corrupted(P, tr, rng, int(rng.integers(0, corruptions + 1))))
    got = _trace_violations(P, traces)
    assert got == [(j, m) for j, tr in enumerate(traces) for m in check_step_trace(P, tr)]
    assert got == [(j, m) for j, tr in enumerate(traces) for m in _reference_check_step_trace(P, tr)]
    assert _trace_violations(P, []) == []


ROUTER_CHAINS = {
    **TRACE_CHAINS,
    "metropolis-star50": lambda n, rng: metropolis_matrix(gen_star(50)),
    "figure-row": lambda n, rng: figure_row_matrix(),
}


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), chain=st.sampled_from(sorted(ROUTER_CHAINS)))
def test_naive_router_matches_per_row_search(seed, chain):
    # the one lexicographic search against a search of each token's own row
    # intervals in token units, with samples forced onto a window start k,
    # onto an interval end and onto the row's top end x_v
    rng = np.random.default_rng(seed)
    P = ROUTER_CHAINS[chain](int(rng.integers(2, 12)), rng)
    loads = random_config(P.n, int(rng.integers(0, 20 * P.n)), seed).loads
    v, k, _ = _tokens(P, loads)
    x = loads[v]
    r = k + rng.random(v.size)
    mode = rng.integers(0, 4, size=v.size)
    r[mode == 1] = k[mode == 1]
    r[mode == 3] = x[mode == 3]
    for i in np.flatnonzero(mode == 2):
        ends = P.row(v[i]).ends * x[i]
        ends = ends[(ends >= k[i]) & (ends <= k[i] + 1)]
        if ends.size:
            r[i] = ends[rng.integers(ends.size)]
    want = np.empty(v.size, dtype=np.int64)
    for i in range(v.size):
        row = P.row(v[i])
        col = np.searchsorted(row.ends * x[i], r[i], side="right")
        want[i] = row.targets[min(col, row.targets.size - 1)]
    assert np.array_equal(_token_dests(P, loads, v, r), want)


def test_batch_trace_consumes_the_same_draws(lazy_triangle):
    # on [1, 3, 3] the single token of vertex 0 straddles two cuts and the
    # others one each, so both routing branches run with and without trace
    x = LoadConfig.from_loads([1, 3, 3])
    for seed in range(200):
        plain = step_batch(x, lazy_triangle, np.random.default_rng(seed))
        traced, _ = step_batch(x, lazy_triangle, np.random.default_rng(seed), trace=True)
        assert np.array_equal(plain.loads, traced.loads), seed



def _eager_draw_record(loads, P, u, e):
    """(sampled, r_values) as a traced step_batch once built them with the
    round: each draw's token is floor(ends[e] * x_v) of vertex rows[e]."""
    k = np.floor(P.ends[e] * loads[P.rows[e]])
    at = (np.cumsum(loads) - loads)[P.rows[e]] + k.astype(np.int64)
    sampled = np.zeros(int(loads.sum()), dtype=bool)
    sampled[at] = True
    r = np.full(sampled.size, np.nan)
    r[at] = k + u
    return sampled, r


@pytest.mark.parametrize("graph, preset", [(gen_cycle(16), "point:160"), (gen_star(8), "random:70:2"),
                                           (gen_complete(3), "uniform:1")])
def test_draw_record_read_after_the_round_equals_the_eager_formula(graph, preset):
    # the traces keep the round's draws and build sampled and r_values on
    # first read, after later rounds have moved the generator on
    P = metropolis_matrix(graph)
    cfg, rng = config_from_preset(preset, P.n), np.random.default_rng(9)
    traces, want = [], []
    for sampler in ("batch", "naive") * 4:
        twin = np.random.default_rng(9)
        twin.bit_generator.state = rng.bit_generator.state
        if sampler == "batch":
            _, u, e = _route(cfg.loads, P, (twin,))
            want.append(_eager_draw_record(cfg.loads, P, u, e))
        else:
            v, k, _ = _tokens(P, cfg.loads)
            want.append((np.ones(v.size, dtype=bool), k + twin.random(v.size)))
        cfg, tr = SAMPLERS[sampler](cfg, P, rng, trace=True)
        traces.append(tr)
    for tr, (sampled, r) in zip(traces, want):
        assert tr.sampled is tr.sampled and tr.r_values is tr.r_values   # built once
        assert tr.sampled.dtype == bool and np.array_equal(tr.sampled, sampled)
        assert np.array_equal(tr.r_values, r, equal_nan=True)

def test_batch_trace_stream_pinned(lazy_cycle16):
    # golden digest of every traced destination, draw flag and sample;
    # a change means seeded runs route tokens differently
    cfg = point_config(16, 160)
    rng = np.random.default_rng(5)
    h = hashlib.sha256()
    for _ in range(300):
        cfg, tr = step_batch(cfg, lazy_cycle16, rng, trace=True)
        _trace_digest(h, tr)
    assert h.hexdigest() == "36b7d4e6e984183bb36f018688fac28b6886289f73fca17da6eb36cd0cd075b2"


def _trace_digest(h, tr):
    for dest, sampled, r in zip(*(_per_vertex(tr, a) for a in (tr.destinations, tr.sampled, tr.r_values))):
        h.update(dest.astype(np.int64).tobytes())
        h.update(sampled.astype(bool).tobytes())
        h.update(np.where(np.isnan(r), -1.0, r).tobytes())


@pytest.mark.parametrize("graph, matrix, preset, steps, digest", [
    (gen_cycle(16), lazy_rw_matrix, "point:160", 200, "8d730c9f11de6e2be9f3a52f8804ef0b8763a47f6bd6f30933271a4748df1f9f"),
    (gen_star(64), metropolis_matrix, "random:2048:3", 20, "d9658d817d6c181319f8ffa0c2b1ef8a191a395e7b6fc574d29742ecee5f3dbd"),
])
def test_naive_stream_pinned(graph, matrix, preset, steps, digest):
    # golden digest of every untraced naive configuration: one uniform per
    # token, by vertex then token, looked up in that vertex's row intervals
    P = matrix(graph)
    cfg = config_from_preset(preset, P.n)
    rng = np.random.default_rng(5)
    h = hashlib.sha256()
    for _ in range(steps):
        cfg = step_naive(cfg, P, rng)
        h.update(cfg.loads.tobytes())
    assert h.hexdigest() == digest


def test_naive_trace_stream_pinned(lazy_cycle16):
    cfg = point_config(16, 160)
    rng = np.random.default_rng(5)
    h = hashlib.sha256()
    for _ in range(50):
        cfg, tr = step_naive(cfg, lazy_cycle16, rng, trace=True)
        _trace_digest(h, tr)
    assert h.hexdigest() == "3c02f5c0af4df339c89902d802b6e732b1d3211a75f005c758905f94f2d4d3e2"


@pytest.mark.parametrize("P, cfg, digest", [
    # about 64 tokens per vertex on a 10-entry row: no window holds two cuts
    (lazy_rw_matrix(gen_hypercube(9)), random_config(512, 32768, 7),
     "67dfe3b706967c346adc65f144d9d3e6e605165c567449c4271aec0a8c74f0a2"),
    # the hub's 64-entry row: every round some window holds several cuts
    (metropolis_matrix(gen_star(64)), random_config(64, 2048, 3),
     "61ffba187638317edcbc805dce67be8545defe3df1f340674aa071a001222e9b"),
], ids=["hypercube:9", "star:64"])
def test_batch_stream_pinned(P, cfg, digest):
    # golden digest of the untraced stream after 200 rounds, with and
    # without windows that group several cuts under one draw
    rng = np.random.default_rng(1)
    for _ in range(200):
        cfg = step_batch(cfg, P, rng)
    assert hashlib.sha256(cfg.loads.tobytes()).hexdigest() == digest


def _reference_route(loads, P, rngs, n):
    """The round's routing by the direct formula, kept as the reference:
    shifted interval ends, pairwise (vertex, token) comparisons of the cuts,
    and each trial's uniforms drawn apart and concatenated. Returns
    (interior, v, k, u, e)."""
    hi = P.ends * loads[P.rows].astype(np.float64)
    lo = np.empty_like(hi)
    lo[1:] = hi[:-1]
    lo[P.indptr[:-1]] = 0.0
    flo = np.floor(hi)
    interior = np.maximum(flo - np.ceil(lo), 0.0)
    e = np.flatnonzero(hi != flo)
    v, k = P.rows[e], flo[e]
    cut = hi[e] - k
    shared = (v[1:] == v[:-1]) & (k[1:] == k[:-1])

    def draws(w):
        counts = np.bincount(w // n, minlength=len(rngs)).tolist()
        return np.concatenate([rng.random(c) for rng, c in zip(rngs, counts)])

    if not shared.any():
        u = draws(v)
        return interior, v, k, u, e + (u >= cut)
    start = np.concatenate(([True], ~shared))
    first = np.flatnonzero(start)
    u = draws(v[first])
    below = cut <= u[np.cumsum(start) - 1]
    return interior, v[first], k[first], u, e[first] + np.add.reduceat(below, first)


def _reference_scatter(targets, interior, dest, size):
    new = np.bincount(targets, weights=interior, minlength=size)
    return np.rint(new).astype(np.int64) + np.bincount(dest, minlength=size)


def _edge_case_matrix(n, rng):
    """A random RoundMatrix whose rows mix ordinary, tiny and repeated
    probabilities: a tiny entry leaves two interval ends equal, or nearly,
    so windows often hold several cuts."""
    rows, targets, probs = [], [], []
    for v in range(n):
        d = int(rng.integers(1, 7))
        p = rng.choice([0.5, 0.25, 1 / 3, 1e-17, 1e-9, 1e-3], size=d) * rng.choice([1.0, 1.0, 0.7], size=d)
        rows += [v] * d
        targets += rng.integers(0, n, size=d).tolist()  # repeats are summed
        probs += (p / p.sum()).tolist()
    return RoundMatrix.from_entries(n, rows, targets, probs)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), B=st.sampled_from([1, 3]))
def test_route_and_scatter_match_the_reference_formula(seed, B):
    # the same uniforms, destination entries and new loads as the direct
    # formula, trial by trial, on loads of 0, 1 and more
    rng = np.random.default_rng(seed)
    P = _edge_case_matrix(int(rng.integers(1, 9)), rng)
    loads = rng.choice([0, 1, 2, 3, 7, 40, 1000], size=B * P.n)
    M = _tile(P, B)
    mine = [np.random.default_rng([seed, b]) for b in range(B)]
    ref = [np.random.default_rng([seed, b]) for b in range(B)]
    counts, u, e = _route(loads, M, mine)
    k = np.floor(loads[M.rows[e]] * M.ends[e])  # drawn token k, as traced callers read it
    r_interior, r_v, r_k, r_u, r_e = _reference_route(loads, M, ref, P.n)
    assert np.array_equal(counts, r_interior + np.bincount(r_e, minlength=M.rows.size))
    for got, want in ((M.rows[e], r_v), (k, r_k), (u, r_u)):
        assert np.array_equal(got, want)
    assert np.array_equal(_scatter(M.targets, counts, loads.size),
                          _reference_scatter(M.targets, r_interior, M.targets[r_e], loads.size))
    assert [g.random() for g in mine] == [g.random() for g in ref]
    # per token: drawn tokens go to r_e, the others fill each entry's whole
    # windows in row order
    dests = M.targets.repeat(counts.astype(np.int64))
    sampled, _ = _token_draws(loads, M, u, e)
    r_sampled = np.zeros(dests.size, dtype=bool)
    r_sampled[(np.cumsum(loads) - loads)[r_v] + r_k.astype(np.int64)] = True
    r_dests = np.empty(dests.size, dtype=np.int64)
    r_dests[r_sampled] = M.targets[r_e]
    r_dests[~r_sampled] = M.targets.repeat(r_interior.astype(np.int64))
    assert np.array_equal(sampled, r_sampled)
    assert np.array_equal(dests, r_dests)


@pytest.mark.parametrize("make", [
    lambda: lazy_rw_matrix(gen_cycle(7)),
    lambda: metropolis_matrix(gen_star(6)),
    lambda: matrix_from_text("3\n0 1 0.4\n0 0 0.6\n1 2 0.4\n1 0 0.1\n1 1 0.5\n2 2 1\n"),
], ids=["lazy-rw", "metropolis", "file"])
def test_row_heads_and_lasts_are_read_only_formulas(make):
    # the cached per-matrix and per-block routing constants
    P = make()
    assert P._heads is P._heads and P._last is P._last  # built once per matrix
    for B in (1, 2, 5):
        M = _tile(P, B)
        for name, want in (("_heads", M.indptr[:-1]), ("_last", M.indptr[1:] - 1)):
            got = getattr(M, name)
            assert got.dtype == np.int64 and np.array_equal(got, want), (name, B)
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 0
        if B > 1:
            assert np.array_equal(M.edges, P.ends.size * np.arange(B + 1))



@pytest.mark.parametrize("make", [
    lambda: lazy_rw_matrix(gen_cycle(7)),
    lambda: metropolis_matrix(gen_star(6)),
    lambda: matrix_from_text("3\n0 1 0.4\n0 0 0.6\n1 2 0.4\n1 0 0.1\n1 1 0.5\n2 2 1\n"),
], ids=["lazy-rw", "metropolis", "file"])
def test_token_vertices_and_key_templates_are_read_only_formulas(make):
    # the naive round's cached arrays, per matrix, per block and after a pickle
    P = make()
    assert P._vertices is P._vertices and P._keys is P._keys  # built once per matrix
    back = pickle.loads(pickle.dumps(P))
    assert {"_vertices", "_keys"} <= set(vars(back))
    for M in (back, *(_tile(P, B) for B in (1, 2, 5))):
        want = {"_vertices": (np.int64, np.arange(M.indptr.size - 1)),
                "_keys": (np.complex128, M.rows.astype(np.complex128))}
        for name, (dtype, value) in want.items():
            got = getattr(M, name)
            assert got.dtype == dtype and np.array_equal(got, value), name
            assert np.array_equal(got.real, value.real) and not got.imag.any(), name
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 1

def test_samplers_refuse_a_config_of_another_size(lazy_triangle):
    x = LoadConfig.from_loads([4, 0])
    for step in (step_naive, step_batch):
        with pytest.raises(ValidationError, match=r"^config has 2 vertices, matrix has 3$"):
            step(x, lazy_triangle, np.random.default_rng(0))


def test_edge_case_matrices_reach_the_straddle_branch():
    # the edge-case rows do reach the grouping branch: some window holds
    # more cuts than there are boundary tokens in it
    grouped = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        P = _edge_case_matrix(6, rng)
        loads = rng.choice([0, 1, 2, 3, 7, 40], size=P.n)
        cuts = np.count_nonzero(np.floor(P.ends * loads[P.rows]) != P.ends * loads[P.rows])
        grouped += _route(loads, P, (rng,))[1].size < cuts
    assert grouped > 5


class _ChosenDraws:
    """A generator stub that hands out chosen doubles in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None, out=None):
        size = size if out is None else out.size
        got, self.values = np.array(self.values[:size], dtype=np.float64), self.values[size:]
        if got.size < size:
            raise AssertionError("stub ran out of chosen draws")
        if out is None:
            return got
        out[...] = got
        return out


def _chosen_matrix():
    # row 0 ends at 0.25, 0.75, 1; row 1's middle entry has zero width (ends
    # 0.5, 0.5, 1); row 2's first entry has probability 1e-17 (ends 1e-17,
    # 0.25, 1). A row runs over its neighbours ascending, then itself.
    probs = [[0.25, 0.5, 0.25], [0.5, 1e-17, 0.5], [1e-17, 0.25, 0.75]]
    targets = [[u for u in range(3) if u != v] + [v] for v in range(3)]
    P = RoundMatrix.from_entries(3, np.arange(3).repeat(3), np.ravel(targets), np.ravel(probs))
    assert P.ends.tolist() == [0.25, 0.75, 1.0, 0.5, 0.5, 1.0, 1e-17, 0.25, 1.0]
    return P


@pytest.mark.parametrize("loads, draws", [
    ([[3, 0, 0]], [[0.75, 0.25]]),   # each draw equals its cut's fraction
    ([[1, 0, 0]], [[0.25]]),         # one window, two cuts: the draw equals the first's fraction
    ([[1, 0, 0]], [[0.75]]),         # ... and the later cut's
    ([[3, 2, 5]], [[0.0] * 4]),      # draws of 0.0, one below a fraction of 5e-17
    ([[0, 3, 1]], [[0.5, 5e-18]]),   # cuts in a zero-width entry and in a 1e-17 entry
    ([[1, 3, 0], [3, 0, 5]], [[0.3, 0.6], [0.75, 0.1, 0.0, 0.9]]),  # grouped trial, ungrouped trial
], ids=["equal", "equal-first-of-two", "equal-later-of-two", "zero", "zero-width", "mixed-block"])
def test_route_matches_the_reference_formula_on_chosen_draws(loads, draws):
    # the edges random uniforms never hit: the same counts and draws as the
    # direct formula, each trial using up exactly its chosen draws
    P = _chosen_matrix()
    M, flat = _tile(P, len(loads)), np.concatenate(loads)
    mine, ref = [_ChosenDraws(d) for d in draws], [_ChosenDraws(d) for d in draws]
    counts, u, e = _route(flat, M, mine)
    r_interior, r_v, r_k, r_u, r_e = _reference_route(flat, M, ref, P.n)
    assert np.array_equal(counts, r_interior + np.bincount(r_e, minlength=M.rows.size))
    assert np.array_equal(M.rows[e], r_v)
    assert np.array_equal(u, r_u)
    assert [g.values for g in mine] == [g.values for g in ref] == [[]] * len(loads)


def test_independence_of_token_destinations():
    # given the configuration, distinct tokens draw independently, so
    # pairwise indicator covariance vanishes
    P = figure_row_matrix()
    row = P.row(4)
    x = LoadConfig.from_loads([0, 0, 0, 0, 5])
    rng = np.random.default_rng(17)
    trials = 10_000
    hits = np.zeros((trials, 3))
    targets = [2, 3, 4]  # watch token k landing on row position targets[k]
    for i in range(trials):
        _, tr = step_naive(x, P, rng, trace=True)
        dest = tr.destinations  # the hub holds every token
        for k in range(3):
            hits[i, k] = dest[k] == targets[k]
    for a in range(3):
        for b in range(a + 1, 3):
            pa, pb = hits[:, a].mean(), hits[:, b].mean()
            cov = (hits[:, a] * hits[:, b]).mean() - pa * pb
            se = math.sqrt(pa * (1 - pa) * pb * (1 - pb) / trials)
            assert abs(cov) <= 4 * se + 1e-12


def test_run_t0_and_totals(lazy_cycle16):
    x0 = point_config(16, 160)
    traj = run(x0, lazy_cycle16, 0, np.random.default_rng(0))
    assert traj == [x0]
    traj = run(x0, lazy_cycle16, 12, np.random.default_rng(0))
    assert len(traj) == 13
    assert all(c.total == 160 for c in traj)


def test_run_monte_carlo_mean(lazy_triangle):
    # E[x_T] = x_0 P^T; 2000 batches at T=2, checked within 5 SE
    x0 = LoadConfig.from_loads([12, 0, 0])
    oracle = power_apply(x0.loads.astype(float), lazy_triangle, 2)
    rng = np.random.default_rng(5)
    acc = np.zeros(3)
    acc2 = np.zeros(3)
    trials = 2000
    for _ in range(trials):
        f = run(x0, lazy_triangle, 2, rng)[-1].loads.astype(float)
        acc += f
        acc2 += f * f
    mean = acc / trials
    se = np.sqrt(np.maximum(acc2 / trials - mean**2, 0)) / math.sqrt(trials)
    assert np.all(np.abs(mean - oracle) <= 5 * se)


# ---------------------------------------------------------------------------
# deterministic baselines and RSend, each the registry's block stepper at B = 1
# ---------------------------------------------------------------------------


def _one_trial(name, x, g, rng=None):
    # a baseline does not read P
    return LoadConfig.from_loads(ALGORITHMS[name](None, g, (rng,))(x.loads))


def step_send_floor2d(x, g):
    return _one_trial("send-floor2d", x, g)


def step_send_round3d(x, g):
    return _one_trial("send-round3d", x, g)


def step_send_partition(x, g):
    return _one_trial("send-partition", x, g)


def step_rsend(x, g, rng):
    return _one_trial("rsend", x, g, rng)


def test_floor2d_examples(triangle):
    out = step_send_floor2d(LoadConfig.from_loads([5, 0, 0]), triangle)
    assert np.array_equal(out.loads, [3, 1, 1])  # sends floor(5/4)=1 each
    out = step_send_floor2d(LoadConfig.from_loads([3, 0, 0]), triangle)
    assert np.array_equal(out.loads, [3, 0, 0])  # x < 2d sends nothing
    out = step_send_floor2d(LoadConfig.from_loads([4, 0, 0]), triangle)
    assert np.array_equal(out.loads, [2, 1, 1])


def test_round3d_examples(triangle):
    out = step_send_round3d(LoadConfig.from_loads([4, 0, 0]), triangle)
    assert np.array_equal(out.loads, [2, 1, 1])  # [4/6] = 1
    out = step_send_round3d(LoadConfig.from_loads([2, 0, 0]), triangle)
    assert np.array_equal(out.loads, [2, 0, 0])  # [2/6] = 0
    out = step_send_round3d(LoadConfig.from_loads([9, 0, 0]), triangle)
    assert np.array_equal(out.loads, [5, 2, 2])  # [9/6] = 2 half-up


def test_partition_examples(triangle):
    out = step_send_partition(LoadConfig.from_loads([5, 0, 0]), triangle)
    assert np.array_equal(out.loads, [1, 2, 2])  # ceilings to v1, v2; floor stays
    out = step_send_partition(LoadConfig.from_loads([6, 0, 0]), triangle)
    assert np.array_equal(out.loads, [2, 2, 2])  # divisible: equal parts
    out = step_send_partition(LoadConfig.from_loads([1, 0, 0]), triangle)
    assert np.array_equal(out.loads, [0, 1, 0])  # lone ceiling to first neighbor


def test_rsend_deterministic_when_divisible(triangle):
    x = LoadConfig.from_loads([6, 3, 0])
    out = step_rsend(x, triangle, np.random.default_rng(0))
    # every vertex splits evenly; no remainder randomness
    assert np.array_equal(out.loads, step_rsend(x, triangle, np.random.default_rng(99)).loads)
    assert out.total == 9


def test_rsend_single_token_uniform(triangle):
    x = LoadConfig.from_loads([1, 0, 0])
    rng = np.random.default_rng(11)
    counts = Counter(int(np.flatnonzero(step_rsend(x, triangle, rng).loads)[0])
                     for _ in range(9000))
    for v in range(3):
        assert abs(counts[v] / 9000 - 1 / 3) <= 0.02


def test_rsend_remainder_pairs_uniform(triangle):
    # x=5, d=2: base 1 each; the 2 extras land on one of C(3,2)=3 pairs
    x = LoadConfig.from_loads([5, 0, 0])
    rng = np.random.default_rng(23)
    counts = Counter()
    for _ in range(9000):
        out = step_rsend(x, triangle, rng).loads
        extras = tuple(sorted(np.flatnonzero(out - np.array([1, 1, 1]))))
        counts[extras] += 1
    assert set(counts) == {(0, 1), (0, 2), (1, 2)}
    for pair in counts:
        assert abs(counts[pair] / 9000 - 1 / 3) <= 0.02


@pytest.mark.parametrize("stepper, digest", [
    (lambda x, g, rng: step_send_floor2d(x, g),
     "757e624c7cf9bc2e7b81d5fc6ada5609199ca502974a64fc70140081dfac825c"),
    (lambda x, g, rng: step_send_round3d(x, g),
     "82d34f11c01177911babd7f7b8aa3d3209057d7a8a0638b33e59e0820bc2fd7a"),
    (lambda x, g, rng: step_send_partition(x, g),
     "149ded675a3526eaae0ef3244a5873a89cd2a2b9b7f50fc0c576e1d299395ca9"),
    (step_rsend, "e1fff223f4557e602a6b1819285edcb66908a4e46d9b14181e6e7165550a6ef5"),
])
def test_baselines_golden_digests(stepper, digest):
    # golden digest of 20 steps of each baseline on the 5x7 torus, so that
    # reusing the graph's neighbor array cannot change what a step sends;
    # rsend's entry also pins how its remainder draw consumes the generator
    g = gen_torus(5, 7)
    rng = np.random.default_rng(5)
    cfg = random_config(35, 3500, 9)
    h = hashlib.sha256()
    for _ in range(20):
        cfg = stepper(cfg, g, rng)
        h.update(cfg.loads.tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("stepper", [
    step_send_floor2d,
    step_send_round3d,
    step_send_partition,
    lambda x, g: step_rsend(x, g, np.random.default_rng(0)),
])
def test_baselines_reject_irregular(stepper):
    with pytest.raises(ValidationError):
        stepper(LoadConfig.from_loads([3, 0, 0, 0]), gen_star(4))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_baseline_conservation(seed):
    rng = np.random.default_rng(seed)
    g = gen_cycle(int(rng.integers(3, 12)))
    total = int(rng.integers(0, 200))
    cfg = random_config(g.n, total, seed)
    for stepper in (step_send_floor2d, step_send_round3d, step_send_partition):
        out = stepper(cfg, g)
        assert out.total == total and np.all(out.loads >= 0)
    out = step_rsend(cfg, g, rng)
    assert out.total == total and np.all(out.loads >= 0)


# ---------------------------------------------------------------------------
# configs and files
# ---------------------------------------------------------------------------


def test_presets():
    assert np.array_equal(point_config(4, 9).loads, [9, 0, 0, 0])
    assert np.array_equal(uniform_config(4, 9).loads, [3, 2, 2, 2])
    assert np.array_equal(uniform_config(16, 160).loads, np.full(16, 10))
    rc = random_config(5, 50, 3)
    assert rc.total == 50
    assert np.array_equal(rc.loads, random_config(5, 50, 3).loads)
    assert np.array_equal(config_from_preset("point:7", 3).loads, [7, 0, 0])
    with pytest.raises(ValidationError):
        config_from_preset("bogus:3", 3)


def test_load_config_validation():
    with pytest.raises(ValidationError):
        LoadConfig.from_loads([1, -2])
    with pytest.raises(ValidationError):
        LoadConfig.from_loads([1.5, 2.0])
    assert LoadConfig.from_loads([1.0, 2.0]).total == 3


def test_totals_capped_at_2_pow_53():
    P = lazy_rw_matrix(gen_cycle(8))
    rng = np.random.default_rng(0)
    cfg = point_config(8, MAX_TOTAL)
    for _ in range(3):
        cfg = step_batch(cfg, P, rng)
        assert cfg.total == MAX_TOTAL
    for make in (point_config, uniform_config, lambda n, t: random_config(n, t, 0)):
        with pytest.raises(ValidationError, match="exceeds"):
            make(8, MAX_TOTAL + 1)
    with pytest.raises(ValidationError, match="exceeds"):
        LoadConfig.from_loads([MAX_TOTAL, 1])
    with pytest.raises(ValidationError, match="exceeds"):
        LoadConfig.from_loads([2**62, 2**62])  # an int64 sum would wrap


EDGE_CHAINS = {
    # the centre row's 50 entries are 1/50 wide: narrower than a token at x_v = 1 or 2
    "star-metropolis": metropolis_matrix(gen_star(50)),
    "cycle-lazy": lazy_rw_matrix(gen_cycle(8)),
}


@pytest.mark.parametrize("hub", ["1", "2", "max-k", "max"])
@pytest.mark.parametrize("chain", sorted(EDGE_CHAINS))
@settings(max_examples=6, deadline=None)
@given(k=st.integers(1, 16), rounds=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
def test_exactness_edge_loads(chain, hub, k, rounds, seed):
    # hub 0 holds 1, 2 or up to 2**53 tokens, its neighbour 1 the rest (at most k)
    P = EDGE_CHAINS[chain]
    x_v = {"1": 1, "2": 2, "max-k": MAX_TOTAL - k, "max": MAX_TOTAL}[hub]
    loads = np.zeros(P.n, dtype=np.int64)
    loads[0], loads[1] = x_v, min(k, MAX_TOTAL - x_v)
    total = int(loads.sum())
    reach = loads > 0
    rng = np.random.default_rng(seed)
    cfg = LoadConfig.from_loads(loads)
    step = ALGORITHMS["alg2-batch"](P, None, [np.random.default_rng([seed, b]) for b in range(3)])
    block = np.tile(loads, 3)
    for _ in range(rounds):
        reach[P.targets[reach[P.rows]]] = True
        cfg = step_batch(cfg, P, rng)
        block = step(block)
        for trial in (cfg.loads, *block.reshape(3, P.n)):
            assert int(trial.sum()) == total
            assert trial.min() >= 0
            assert not trial[~reach].any()


@pytest.mark.parametrize("name, sampler", [("alg2-naive", "naive"), ("alg2-batch", "batch")])
def test_registry_samplers_step_each_trial_like_one_trial_rounds(name, sampler):
    # trial b of a block gets the loads its sampler gives from rngs[b] alone
    P = metropolis_matrix(gen_star(12))
    cfgs = [point_config(P.n, 30)] * 3
    rngs = [np.random.default_rng([7, b]) for b in range(3)]
    step = ALGORITHMS[name](P, None, [np.random.default_rng([7, b]) for b in range(3)])
    block = np.tile(cfgs[0].loads, 3)
    for _ in range(10):
        block = step(block)
        cfgs = [SAMPLERS[sampler](cfg, P, rng) for cfg, rng in zip(cfgs, rngs)]
        assert np.array_equal(block, np.concatenate([cfg.loads for cfg in cfgs]))


@pytest.mark.parametrize("seed, p_value", [
    (0, 0.6632504753504237), (101, 0.8504277877279925), (102, 0.9264358841755408),
])
def test_sampler_equivalence_p_value_is_chi2_contingency(seed, p_value):
    _, _, p, table = sampler_equivalence_stats(seed)
    assert table.shape[0] == 2 and table.shape[1] >= 3  # dof >= 2: no Yates correction
    # verify's own chi-square tail and scipy's round differently in the last bits
    assert p == pytest.approx(chi2_contingency(table)[1], rel=1e-13)
    assert p == p_value


def test_loads_text_round_trip():
    cfg = LoadConfig.from_loads([3, 0, 7])
    assert np.array_equal(parse_loads_text(loads_text(cfg)).loads, cfg.loads)
    with pytest.raises(ValidationError, match="line 2"):
        parse_loads_text("3\nxyz\n")
