"""Suite-level tests of diffusim.verify: the sampler calls each suite makes,
the first violation the chunked lemma check reports, the blocks of the
sampler-equivalence suite, the chi-square tail and the bytes `verify` prints."""
import hashlib
import math

import numpy as np
import pytest
from scipy.special import chdtrc

from diffusim import LoadConfig, discrete, harness, verify
from diffusim.cli import main
from diffusim.errors import ValidationError

from conftest import draw_record

LEMMA_STEPS = 1200  # steps of the first lemma case: lazy walk on cycle:16 from point:160
CHUNK = verify.LEMMA_ITEMS // (160 + 16 * 3)  # that case's steps per check: 160 tokens, 48 row entries


@pytest.fixture
def sampler_calls(monkeypatch):
    """Count the calls of discrete.step_naive and step_batch by rebinding the
    module attributes, as the benchmark does: a sampler that a suite bound
    before the rebinding escapes the count."""
    calls = {"naive": 0, "batch": 0}
    for name in calls:
        def counted(*args, _fn=getattr(discrete, f"step_{name}"), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(discrete, f"step_{name}", counted)
    return calls


def test_sampler_calls_per_suite(sampler_calls):
    # the benchmark counts these calls as rounds, so a change that steps
    # several of them at once moves its round count and has to say so
    verify.expectation_stats(trials=100)
    assert sampler_calls == {"naive": 100 * 3, "batch": 0}
    verify.sampler_equivalence_stats(samples=100)   # steps its samples in blocks
    assert sampler_calls == {"naive": 300, "batch": 0}
    res = verify.suite_lemmas(min_vertex_steps=2000)
    assert (res.passed, res.checks) == (True, LEMMA_STEPS * 16)
    assert sampler_calls == {"naive": 300, "batch": LEMMA_STEPS}
    verify.suite_conservation()   # 30 cases of 40 rounds per sampler
    assert sampler_calls == {"naive": 300 + 1200, "batch": LEMMA_STEPS + 1200}


FIG = verify.figure_row_matrix()
FIG_X0 = LoadConfig.from_loads([0, 0, 0, 0, 5])
FIG_BLOCK = max(1, harness.BLOCK_ENTRIES // FIG.ends.size)   # copies per sampler-equivalence block
FIG_COL = np.zeros(FIG.n, dtype=np.int64)
FIG_COL[FIG.row(4).targets] = np.arange(FIG.row(4).targets.size)
FIG_SUPPORT = discrete.destination_distribution(FIG.row(4), 5, np.arange(5)) > 0
FIG_DET = FIG_SUPPORT.sum(axis=1) == 1   # tokens 3 and 4: one target each


def _per_call_equivalence(seed: int, checkpoints):
    """For each number of samples in checkpoints, sampler_equivalence_stats'
    flags and counts from one traced step_naive or step_batch call per
    sample, its draws read off a twin generator: {samples:
    (det sets equal, supports equal, {sampler: (table, draws, generator
    state)})}, from one run of max(checkpoints) samples per sampler."""
    out = {c: [True, True, {}] for c in checkpoints}
    for si, sampler in enumerate(("naive", "batch")):
        rng = np.random.default_rng(seed + si)
        table, draws = np.zeros((5, 5), dtype=np.int64), np.zeros(5, dtype=np.int64)
        drew_wrong = False
        step = getattr(discrete, f"step_{sampler}")
        for i in range(1, max(checkpoints) + 1):
            sampled, _ = draw_record(sampler, FIG_X0.loads, FIG, rng)
            _, tr = step(FIG_X0, FIG, rng, trace=True)
            table[np.arange(5), FIG_COL[tr.destinations]] += 1
            draws += sampled
            drew_wrong |= sampler == "batch" and bool(np.any(sampled == FIG_DET))
            if i in out:
                seen = table > 0
                out[i][0] &= not (drew_wrong or np.any(seen[FIG_DET].sum(axis=1) != 1))
                out[i][1] &= not np.any(seen & ~FIG_SUPPORT)
                out[i][2][sampler] = (table.copy(), draws.copy(), rng.bit_generator.state)
    return out


@pytest.mark.parametrize("seed", [0, 101, 102])
def test_sampler_equivalence_blocks_match_per_call_loop(seed):
    assert FIG_BLOCK == 1260   # 13 entries
    cells = FIG_SUPPORT & ~FIG_DET[:, None]
    per_call = _per_call_equivalence(seed, (1, FIG_BLOCK - 1, FIG_BLOCK, FIG_BLOCK + 1, 2500))
    for samples, (det_ok, support_ok, ref) in per_call.items():
        for si, sampler in enumerate(("naive", "batch")):
            rng = np.random.default_rng(seed + si)
            table, draws = verify._sampler_counts(sampler, FIG, FIG_X0, rng, samples, FIG_COL)
            assert np.array_equal(table, ref[sampler][0])
            assert np.array_equal(draws, ref[sampler][1])
            assert rng.bit_generator.state == ref[sampler][2]
        got = verify.sampler_equivalence_stats(seed, samples)
        assert got[:2] == (det_ok, support_ok) == (True, True)
        assert np.array_equal(got[3], [ref[s][0][cells] for s in ("naive", "batch")])


@pytest.mark.parametrize("kind, message", [
    ("lose", "step produced total 4 and least load 0, expected total 5"),
    ("negative", "step produced total 5 and least load -1, expected total 5"),
])
@pytest.mark.parametrize("block, copy", [(0, 7), (1, 3)])
def test_sampler_equivalence_block_that_breaks_a_copy_raises(monkeypatch, kind, message, block, copy):
    real, calls = discrete._scatter, [0]

    def faulty(targets, counts, size):
        new = real(targets, counts, size)
        if calls[0] == block:
            loads = new[copy * FIG.n:(copy + 1) * FIG.n]
            if kind == "lose":
                loads[4] -= 1   # the hub keeps its tokens 3 and 4
            else:
                loads[4] += loads[0] + 1
                loads[0] = -1
        calls[0] += 1
        return new

    monkeypatch.setattr(discrete, "_scatter", faulty)
    with pytest.raises(ValidationError, match=f"^batch sample {block * FIG_BLOCK + copy}: {message}$"):
        verify.sampler_equivalence_stats(samples=FIG_BLOCK + 10)


@pytest.mark.parametrize("samples, p_value", [(1, None), (2, None), (5, 0.3494840222870426)])
def test_sampler_equivalence_few_samples(samples, p_value):
    # cells that neither sampler hit take no part in the chi-square test,
    # so a few samples give a p-value, not 0/0 (RuntimeWarnings are errors here)
    det_ok, support_ok, p, table = verify.sampler_equivalence_stats(0, samples)
    assert (det_ok, support_ok) == (True, True)
    assert table.sum() == 2 * 3 * samples   # 3 non-deterministic tokens a sample
    assert 0.0 <= p <= 1.0
    if p_value is not None:
        assert p == p_value


def test_lemma_suite_checks_whole_chunks(monkeypatch):
    passes = []   # steps per side-by-side pass
    real = verify._trace_violations

    def counted(P, traces):
        passes.append(len(traces))
        return real(P, traces)

    monkeypatch.setattr(verify, "_trace_violations", counted)
    assert verify.suite_lemmas(min_vertex_steps=2000).passed
    assert passes == [CHUNK] * (LEMMA_STEPS // CHUNK) + [LEMMA_STEPS % CHUNK]


def _faulty(real, faults: dict):
    """real sampler, except that call j of faults[j] == "misroute" sends one
    token off its row's support, and "lose" (one token short) and "negative"
    (tokens moved to leave a load of -1) hand their loads to
    discrete._conserved, which raises as a real step's check does."""
    calls = [0]

    def step(x, P, rng, trace=False):
        nxt, tr = real(x, P, rng, trace=True)
        kind = faults.get(calls[0])
        calls[0] += 1
        if kind == "misroute":
            v = int(np.flatnonzero(tr.loads_before)[-1])
            d = tr.destinations.copy()     # v's tokens are the last ones
            d[d.size - tr.counts[v]] = (v + P.n // 2) % P.n  # neither v nor a neighbour on a cycle
            tr.destinations = d
        elif kind in ("lose", "negative"):
            loads = nxt.loads.copy()
            if kind == "lose":
                loads[np.argmax(loads)] -= 1
            else:
                moved = loads.min() + 1
                loads[np.argmin(loads)] -= moved
                loads[np.argmax(loads)] += moved
            nxt = discrete._conserved(loads, nxt.total)
        return (nxt, tr) if trace else nxt

    return step


def _per_step_lemmas(seed: int, min_vertex_steps: int):
    """suite_lemmas' (message, vertex-steps) with every step checked on its
    own, right after it is taken: a step's own ValidationError first, then
    its trace."""
    rng = np.random.default_rng(seed)
    vertex_steps = 0
    cases = verify._fuzz_cases(seed)
    ci = 0
    while vertex_steps < min_vertex_steps:
        P, x0, steps, step = cases[ci % len(cases)]
        ci += 1
        cfg = x0
        for _ in range(steps):
            vertex_steps += P.n
            try:
                cfg, tr = step(cfg, P, rng, trace=True)
            except ValidationError as exc:
                return str(exc), vertex_steps
            violations = verify.check_step_trace(P, tr)
            if violations:
                return violations[0], vertex_steps
    return f"zero violations over {vertex_steps} vertex-steps", vertex_steps


@pytest.mark.parametrize("faults", [
    {0: "misroute"},                                  # first step of the first chunk
    {CHUNK: "misroute"},                              # first, middle and last of the second
    {CHUNK + CHUNK // 2: "misroute"},
    {2 * CHUNK - 1: "misroute"},
    {LEMMA_STEPS - 1: "misroute"},                    # last step of the short last chunk
    {CHUNK: "lose"},                                  # nothing buffered yet
    {2 * CHUNK - 1: "lose"},
    {CHUNK + 3: "misroute", CHUNK + 5: "lose"},       # the buffered misroute comes first
    {CHUNK + 5: "negative"},
    # fixed steps that do not follow LEMMA_ITEMS: the boundaries of the 33-step
    # chunks that a bound of 2**14 - 512 (token, row entry) pairs gave, 33, 49
    # and 65 the first, middle and last step of the second, 34 and 67 the
    # second step of the second and third, with one step buffered before
    # them, and 36 to 51 inside the second
    {33: "misroute"},
    {49: "misroute"},
    {65: "misroute"},
    {33: "lose"},
    {65: "lose"},
    {36: "misroute", 38: "lose"},
    {38: "negative"},
    {34: "misroute"},
    {51: "misroute"},
    {67: "misroute"},
    {34: "lose"},
    {67: "lose"},
    {37: "misroute", 39: "lose"},
    {39: "negative"},
], ids=str)
def test_lemma_suite_first_violation_matches_per_step_loop(monkeypatch, faults):
    real = discrete.step_batch
    monkeypatch.setattr(discrete, "step_batch", _faulty(real, faults))
    res = verify.suite_lemmas(seed=0, min_vertex_steps=2000)
    monkeypatch.setattr(discrete, "step_batch", _faulty(real, faults))
    message, vertex_steps = _per_step_lemmas(seed=0, min_vertex_steps=2000)
    assert not res.passed
    assert (res.detail, res.checks) == (message, vertex_steps)
    assert vertex_steps == 16 * (min(faults) + 1)
    assert message.startswith({"misroute": "v=", "lose": "step produced total 159, expected 160",
                               "negative": "loads must be nonnegative"}[faults[min(faults)]])


def test_run_suites_refuses_an_unknown_name_before_any_suite_runs(monkeypatch):
    ran = []
    monkeypatch.setitem(verify.SUITES, "prop1", lambda seed=0: ran.append(seed))
    with pytest.raises(ValidationError, match="^unknown suite 'bogus'"):
        verify.run_suites(["prop1", "bogus"])
    assert ran == []


def test_cli_verify_step_that_loses_a_token_exit_3(monkeypatch, capsys):
    # a step's own conservation check fails its suite, and the other suites still run
    real = discrete._scatter

    def lose_one(targets, counts, size):
        new = real(targets, counts, size)
        new[np.argmax(new)] -= 1
        return new

    monkeypatch.setattr(discrete, "_scatter", lose_one)
    assert main(["verify"]) == 3
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == [
        "[PASS] dirichlet", "[PASS] psi2", "[FAIL] conservation", "[FAIL] lemmas",
        "[FAIL] sampler-equivalence", "[PASS] expectation", "[PASS] prop1"]
    assert out[2].startswith("[FAIL] conservation: case 0 sampler batch: step produced total ")
    assert out[3] == "[FAIL] lemmas: step produced total 159, expected 160 (16 checks)"
    assert out[4].startswith("[FAIL] sampler-equivalence: batch sample ")


@pytest.mark.parametrize("seed, detail, checks", [
    (0, "worst gap 2.78e-17 at random-reversible-1-n4 w=0 t=0 (tol 1e-10)", 17839),
    (101, "worst gap 2.78e-17 at random-reversible-2-n8 w=5 t=0 (tol 1e-10)", 18554),
])
def test_dirichlet_suite_pinned(seed, detail, checks):
    # the worst gap is at rounding level, so a change in the order of any
    # sum moves the reported (chain, w, t) even when every check passes
    res = verify.suite_dirichlet(seed)
    assert (res.passed, res.detail, res.checks) == (True, detail, checks)


@pytest.mark.parametrize("x", [0.0, 1e-8, 0.5, 3.0, 40.0, 1000.0, 1500.0])
def test_chi2_sf_closed_form_identities(x):
    assert verify._chi2_sf(2, x) == math.exp(-x / 2)
    assert verify._chi2_sf(1, x) == math.erfc(math.sqrt(x / 2))


@pytest.mark.parametrize("df", range(1, 13))
def test_chi2_sf_matches_scipy(df):
    assert verify._chi2_sf(df, 0.0) == 1.0
    xs = np.concatenate([[0.0, 1e-8], np.arange(0.5, 1500.25, 0.5)])
    ref = chdtrc(df, xs)
    for x, q in zip(xs.tolist(), ref.tolist()):
        # past x ≈ 225 both tails exponentiate an exponent near -x/2 rounded to
        # its ulp, so each carries a relative error up to ~(x/2) 2**-52; below
        # 1e-300 the tail has underflowed
        assert verify._chi2_sf(df, x) == pytest.approx(q, rel=max(1e-13, x * 2**-51), abs=1e-300)


def test_chi2_sf_rejects_df_below_one():
    with pytest.raises(ValueError, match="df >= 1"):
        verify._chi2_sf(0, 1.0)


@pytest.mark.parametrize("seed, digest", [
    (0, "baf01c89adab372689148d09b43b0443104d4e125cebbc89f6c4368b94bca6fe"),
    (101, "3b5204a51869df287937a17bade43d7e1e72163478c52417450857fffd12122a"),
    (102, "5752a6c9faa7add2ff652907c5bd5deb2be67193bc20c5cf81fcdd7df26acbc4"),
])
def test_cli_verify_stdout_pinned(capsys, seed, digest):
    assert main(["verify", "--seed", str(seed)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
