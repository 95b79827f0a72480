import concurrent.futures
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diffusim
from diffusim import ValidationError, convergence_time, discrete, harness, lazy_rw_matrix, gen_cycle
from diffusim.cli import main
from diffusim.harness import (
    CSV_HEADER,
    ExperimentSpec,
    build_graph,
    build_loads,
    build_matrix,
    resolve,
    run_experiment,
    simulate_to_csv,
    trial_rng,
)
from diffusim.verify import SUITES, SuiteResult


def test_build_graph_specs():
    assert build_graph("cycle:5").n == 5
    assert build_graph("hypercube:3").n == 8
    assert build_graph("star:4").d_max == 3
    assert build_graph("complete:3").n == 3
    assert build_graph("torus:3:4").n == 12
    g = build_graph("random-regular:10:3:7")
    assert np.all(g.degrees() == 3)
    with pytest.raises(ValidationError):
        build_graph("blob:3")
    with pytest.raises(ValidationError):
        build_graph("cycle:x")


def test_build_graph_file(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# tri\n0 1\n1 2\n2 0\n")
    assert build_graph(f"file:{path}").n == 3


def test_build_matrix_kinds(tmp_path):
    g = gen_cycle(4)
    assert build_matrix("lazy-rw", g).symmetric
    assert build_matrix("metropolis", g).lazy
    path = tmp_path / "m.txt"
    path.write_text(lazy_rw_matrix(g).to_text())
    assert np.array_equal(build_matrix(f"file:{path}", None).dense(),
                          lazy_rw_matrix(g).dense())
    with pytest.raises(ValidationError):
        build_matrix("bogus", g)


def test_build_loads(tmp_path):
    assert build_loads("point:10", 4).loads[0] == 10
    path = tmp_path / "loads.txt"
    path.write_text("1\n2\n3\n4\n")
    assert build_loads(f"file:{path}", 4).total == 10
    with pytest.raises(ValidationError):
        build_loads(f"file:{path}", 5)


def test_resolve_steps_auto():
    spec = ExperimentSpec(graph="cycle:16", loads="point:100", steps="auto")
    res = resolve(spec)
    P = lazy_rw_matrix(gen_cycle(16))
    assert res.T == convergence_time(P, 100, 1.0)
    assert res.record_ts[0] == 0 and res.record_ts[-1] == res.T


def test_resolve_steps_auto_zero_discrepancy():
    spec = ExperimentSpec(graph="cycle:16", loads="uniform:160", steps="auto")
    assert resolve(spec).T == 0


def test_resolve_rejects_bad_steps():
    with pytest.raises(ValidationError):
        resolve(ExperimentSpec(graph="cycle:16", steps="later"))
    with pytest.raises(ValidationError):
        resolve(ExperimentSpec(graph="cycle:16", steps="-3"))


def test_uniform_start_has_zero_discrepancy_row():
    spec = ExperimentSpec(graph="cycle:16", loads="uniform:160", steps="0", trials=1)
    _, rows = run_experiment(spec)
    assert len(rows) == 1
    trial, t, disc = rows[0].split(",")[:3]
    assert (trial, t, disc) == ("0", "0", "0")


def test_csv_header_and_determinism(tmp_path):
    spec = ExperimentSpec(graph="cycle:16", matrix="lazy-rw", algorithm="alg2-batch",
                          loads="point:160", steps="25", trials=3, seed=11, stride=5)
    h1, r1 = run_experiment(spec)
    h2, r2 = run_experiment(spec)
    assert h1 == h2 and r1 == r2
    assert h1[-1] == CSV_HEADER
    assert any("log_convention=natural" in line for line in h1)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    simulate_to_csv(spec, out1)
    simulate_to_csv(spec, out2)
    assert out1.read_bytes() == out2.read_bytes()
    # golden digest: pins how alg2-batch consumes each trial's generator
    digest = hashlib.sha256(out1.read_bytes()).hexdigest()
    assert digest == "ac96e1e43426861f597b2eed7153eace5a382cc642bc4814d866206efff86e27"


def test_rows_cover_stride_and_endpoints():
    spec = ExperimentSpec(graph="cycle:16", loads="point:160", steps="13",
                          trials=1, stride=5)
    _, rows = run_experiment(spec)
    ts = [int(r.split(",")[1]) for r in rows]
    assert ts == [0, 5, 10, 13]
    spec0 = ExperimentSpec(graph="cycle:16", loads="point:160", steps="13",
                           trials=1, stride=0)
    _, rows0 = run_experiment(spec0)
    assert [int(r.split(",")[1]) for r in rows0] == [0, 13]


def test_trial_rows_stable_under_trial_count_growth():
    base = dict(graph="cycle:16", loads="point:160", steps="10", stride=0, seed=3)
    _, rows1 = run_experiment(ExperimentSpec(trials=1, **base))
    _, rows3 = run_experiment(ExperimentSpec(trials=3, **base))
    assert rows3[: len(rows1)] == rows1


def test_jobs_do_not_change_bytes(monkeypatch):
    # 4 trials are one block: jobs=2 runs it here, with no process pool
    # (test_lockstep_jobs_over_blocks_same_bytes covers the pool)
    def no_pool(*args, **kwargs):
        raise AssertionError("a single block must not start a process pool")

    base = dict(graph="cycle:16", loads="point:160", steps="12", stride=0,
                seed=5, trials=4)
    h1, r1 = run_experiment(ExperimentSpec(jobs=1, **base))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    h2, r2 = run_experiment(ExperimentSpec(jobs=2, **base))
    assert (h1, r1) == (h2, r2)


def _reference_rows(spec: ExperimentSpec) -> list[str]:
    """CSV rows from a plain loop that steps one trial at a time."""
    res = resolve(spec)
    if spec.algorithm == "alg2-batch":
        step = lambda cfg, rng: discrete.step_batch(cfg, res.matrix, rng)  # noqa: E731
    else:
        step = harness._make_stepper(spec.algorithm, res.matrix, res.graph)
    fmt = lambda x: "" if x is None else f"{x:.10g}"  # noqa: E731
    rows = []
    for trial in range(spec.trials):
        rng = trial_rng(spec.seed, trial)
        cfg = res.x0
        for t in range(res.T + 1):
            if t:
                cfg = step(cfg, rng)
            if t in res.record_ts:
                disc = int(cfg.loads.max() - cfg.loads.min())
                dev = float(np.abs(cfg.loads - res.oracle[t]).max())
                viol3 = "" if res.bound3 is None else str(int(dev > res.bound3))
                viol_disc = "" if res.bound12 is None else str(int(disc > res.bound12))
                rows.append(f"{trial},{t},{disc},{dev:.10g},{fmt(res.bound3)},"
                            f"{fmt(res.bound12)},{viol3},{viol_disc}")
    return rows


LOCKSTEP_SPECS = {
    # 4 tokens per vertex: every window sits inside one interval, nothing is drawn
    "no-cuts": ExperimentSpec(graph="cycle:16", loads="uniform:64", steps="12", trials=5, seed=1),
    # the star's centre row has 49 intervals of width 1/98: tokens straddle several cuts
    "multi-straddle": ExperimentSpec(graph="star:50", matrix="metropolis", loads="point:40",
                                     steps="30", trials=5, seed=2),
    # nnz = 5120, so blocks of 3 trials: 7 trials span 3 blocks
    "multi-block": ExperimentSpec(graph="hypercube:9", loads="random:5000:4", steps="6",
                                  trials=7, seed=3),
    "naive": ExperimentSpec(graph="star:12", matrix="metropolis", algorithm="alg2-naive",
                            loads="point:30", steps="8", trials=5, seed=4),
    "rsend": ExperimentSpec(graph="torus:3:4", algorithm="rsend", loads="point:100",
                            steps="8", trials=5, seed=5),
}


@pytest.mark.parametrize("block_entries", [harness.BLOCK_ENTRIES, 100, 1])
@pytest.mark.parametrize("name", list(LOCKSTEP_SPECS))
def test_lockstep_rows_match_one_trial_at_a_time(monkeypatch, name, block_entries):
    # any block size gives the rows of stepping each trial on its own
    monkeypatch.setattr(harness, "BLOCK_ENTRIES", block_entries)
    spec = LOCKSTEP_SPECS[name]
    _, rows = run_experiment(spec)
    assert rows == _reference_rows(spec)
    if name == "no-cuts":
        assert {row.split(",")[2] for row in rows} == {"0"}


def test_lockstep_multi_straddle_happens():
    # all 40 tokens sit on the centre, so its row holds every cut of round 1;
    # fewer boundary tokens than cuts means some token straddles several
    P = build_matrix("metropolis", build_graph("star:50"))
    _, v, _, _, _ = discrete._route(build_loads("point:40", 50).loads, P,
                                    (np.random.default_rng(0),), P.n)
    cuts = np.flatnonzero(P.ends[P.indptr[0]:P.indptr[1]] * 40 % 1)
    assert 0 < v.size < cuts.size


def test_lockstep_jobs_over_blocks_same_bytes():
    spec = LOCKSTEP_SPECS["multi-block"]
    assert max(1, harness.BLOCK_ENTRIES // resolve(spec).matrix.ends.size) < spec.trials
    h1, r1 = run_experiment(spec)
    h2, r2 = run_experiment(ExperimentSpec(**{**vars(spec), "jobs": 2}))
    assert (h1, r1) == (h2, r2)


def test_lockstep_names_the_trial_that_lost_a_token(monkeypatch):
    real = discrete.block_stepper
    blocks = []

    def lossy(P, rngs):  # the second trial of the second block loses a token
        step = real(P, rngs)
        blocks.append(len(rngs))
        block = len(blocks)

        def lossy_step(loads):
            new = step(loads)
            if block == 2:
                new[P.n + int(np.argmax(new[P.n:2 * P.n]))] -= 1
            return new

        return lossy_step

    monkeypatch.setattr(discrete, "block_stepper", lossy)
    monkeypatch.setattr(harness, "BLOCK_ENTRIES", 100)  # cycle:16 has 48 entries: blocks of 2
    spec = ExperimentSpec(graph="cycle:16", loads="point:160", steps="5", trials=4, seed=1)
    with pytest.raises(ValidationError, match=r"^trial 3, step 1: total 159 \(expected 160\)"):
        run_experiment(spec)
    assert blocks == [2, 2]


def test_trial_rng_is_stable():
    a = trial_rng(42, 3).random(4)
    b = trial_rng(42, 3).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(trial_rng(42, 3).random(4), trial_rng(42, 4).random(4))


def test_baseline_algorithms_run():
    for alg in ("send-floor2d", "send-round3d", "send-partition", "rsend"):
        spec = ExperimentSpec(graph="cycle:8", algorithm=alg, loads="point:64",
                              steps="6", trials=1)
        _, rows = run_experiment(spec)
        assert len(rows) == 7


def test_baseline_rejects_irregular_graph():
    spec = ExperimentSpec(graph="star:8", matrix="metropolis",
                          algorithm="send-floor2d", loads="point:8", steps="2")
    with pytest.raises(ValidationError):
        run_experiment(spec)


@pytest.mark.parametrize("graph, algorithm, message", [
    ("cycle:8", "alg3", r"^unknown algorithm 'alg3'; choose from \('alg2-naive', "),
    ("", "rsend", r"^algorithm rsend needs a graph$"),
    ("star:2048", "send-floor2d", r"^graph is not regular$"),
])
def test_bad_algorithm_rejected_before_set_up(tmp_path, monkeypatch, graph, algorithm, message):
    def refuse(*args, **kwargs):
        raise AssertionError("set-up ran for an algorithm that cannot run")

    monkeypatch.setattr(diffusim.matrices, "second_eigenvalue", refuse)
    monkeypatch.setattr(diffusim.analysis, "local_p_divergence", refuse)
    matrix = "metropolis"
    if not graph:
        path = tmp_path / "m.txt"
        path.write_text(lazy_rw_matrix(gen_cycle(8)).to_text())
        matrix = f"file:{path}"
    with pytest.raises(ValidationError, match=message):
        resolve(ExperimentSpec(graph=graph, matrix=matrix, algorithm=algorithm, steps="5"))
    assert main(["simulate", "--graph", graph, "--matrix", matrix, "--algorithm", algorithm,
                 "--steps", "5", "--out", str(tmp_path / "o.csv")]) == 2
    assert not (tmp_path / "o.csv").exists()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_simulate_and_bounds(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--graph", "cycle:16", "--loads", "point:160",
                 "--steps", "10", "--trials", "2", "--seed", "1", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[-1].count(",") == 7
    assert CSV_HEADER in text

    code = main(["bounds", "--graph", "hypercube:4", "--matrix", "lazy-rw"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    sym = [ln for ln in lines if ln.startswith("psi2_bound_symmetric=")]
    assert sym and float(sym[0].split("=")[1]) == pytest.approx(4.0)  # 2 sqrt(4)


def test_cli_bounds_star_metropolis(capsys):
    assert main(["bounds", "--graph", "star:8", "--matrix", "metropolis"]) == 0
    out = capsys.readouterr().out
    assert "d_max=7" in out
    sym = [ln for ln in out.splitlines() if ln.startswith("psi2_bound_symmetric=")]
    assert float(sym[0].split("=")[1]) == pytest.approx(2 * np.sqrt(7))


def test_cli_lazy_rw_on_irregular_is_validation_error(capsys):
    assert main(["bounds", "--graph", "star:8", "--matrix", "lazy-rw"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--graph", "cycle:5000", "--steps", "10"],
    ["--graph", "star:5000", "--matrix", "metropolis", "--steps", "3"],
])
def test_cli_simulate_above_dense_limit(tmp_path, args):
    # only --steps auto needs lambda; the dense cap leaves lambda= and psi2= blank
    out = tmp_path / "big.csv"
    assert main(["simulate", *args, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert any(ln.startswith("# lambda= psi2= bound_thm3= ") for ln in lines)
    assert lines[-1].startswith(f"0,{args[-1]},")


def test_cli_simulate_reports_why_header_quantities_are_blank(tmp_path, capsys):
    out = tmp_path / "big.csv"
    assert main(["simulate", "--graph", "cycle:5000", "--steps", "10", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "diffusim: lambda unavailable: n=5000 above dense eigensolver limit 4096",
        "diffusim: psi2 unavailable: dense form refused for n=5000 > 4096",
    ]
    assert captured.out == f"wrote 11 rows to {out}\n"


def test_cli_simulate_non_reversible_matrix_file(tmp_path, capsys):
    # lambda needs a symmetric chain; psi2 falls back to the truncated series
    path = tmp_path / "m.txt"
    path.write_text("3\n" + "".join(f"{v} {(v + 1) % 3} 0.4\n{v} {(v + 2) % 3} 0.1\n{v} {v} 0.5\n"
                                    for v in range(3)))
    out = tmp_path / "o.csv"
    assert main(["simulate", "--graph", "complete:3", "--matrix", f"file:{path}",
                 "--steps", "5", "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "diffusim: lambda unavailable: second_eigenvalue requires a symmetric matrix",
    ]
    assert "# lambda= psi2=2.14422507 bound_thm3=8.989852931 bound_thm1_or_2=" in out.read_text()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_jobs_below_one_exit_2(tmp_path, capsys, jobs):
    assert main(["simulate", "--graph", "cycle:8", "--steps", "3", "--jobs", jobs,
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err


def test_cli_steps_auto_above_dense_limit_exit_2(tmp_path, capsys):
    assert main(["simulate", "--graph", "cycle:5000", "--out", str(tmp_path / "o.csv")]) == 2
    assert "above dense eigensolver limit" in capsys.readouterr().err


@pytest.mark.parametrize("graph, loads", [
    ("cycle:8", "point:9007199254740999"),      # 2**53 + 7
    ("cycle:8", "point:99999999999999999999"),  # beyond int64
    ("complete:2", "file"),                      # two lines of 2**62: the int64 sum wraps
])
def test_cli_oversize_total_exit_2(tmp_path, capsys, graph, loads):
    if loads == "file":
        path = tmp_path / "loads.txt"
        path.write_text(f"{2**62}\n{2**62}\n")
        loads = f"file:{path}"
    assert main(["simulate", "--graph", graph, "--loads", loads, "--steps", "3",
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert "exceeds 2**53" in capsys.readouterr().err


def _src_env() -> dict[str, str]:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(diffusim.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_oversize_total_exit_2_under_optimize(tmp_path):
    # python -O strips assert statements; the cap must hold without them
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "diffusim", "simulate", "--graph", "cycle:8",
         "--loads", "point:9007199254740999", "--steps", "3", "--out", str(tmp_path / "o.csv")],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "exceeds 2**53" in proc.stderr


def test_cli_simulate_symmetric_chains_loads_no_scipy(tmp_path):
    # scipy.sparse costs ~0.4 s at import; a symmetric support needs none of
    # it, and only verify's chi-square needs scipy.special
    runs = [["simulate", "--graph", graph, "--matrix", matrix, "--loads", "point:100", "--steps", "3",
             "--trials", "2", "--out", str(tmp_path / f"{matrix}.csv")]
            for graph, matrix in (("cycle:64", "lazy-rw"), ("star:50", "metropolis"))]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from diffusim import cli; "
         f"codes = [cli.main(args) for args in {runs!r}]; "
         "print(codes, sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"


def test_cli_usage_error_exit_1(capsys):
    assert main(["simulate", "--graph", "cycle:4"]) == 1  # --out missing
    assert main(["frobnicate"]) == 1


def test_cli_divergence(capsys):
    assert main(["divergence", "--graph", "complete:2", "--matrix", "lazy-rw"]) == 0
    out = capsys.readouterr().out
    val = [ln for ln in out.splitlines() if ln.startswith("value=")]
    assert float(val[0].split("=")[1]) == pytest.approx(np.sqrt(2), abs=1e-9)


def test_cli_divergence_reducible_matrix(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2\n0 0 1.0\n1 1 1.0\n")
    assert main(["divergence", "--matrix", f"file:{path}"]) == 2


def test_cli_edge_list_with_huge_vertex_index_exit_2(tmp_path, capsys):
    # vertex 999999999999 means 10**12 vertices and two edges: rejected
    # as disconnected before any per-vertex array is allocated
    path = tmp_path / "g.edges"
    path.write_text("0 1\n1 999999999999\n")
    assert main(["simulate", "--graph", f"file:{path}", "--steps", "3",
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert "graph is not connected" in capsys.readouterr().err


def test_cli_nan_matrix_entry_exit_2(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2\n0 0 0.5\n0 1 0.5\n1 0 0.5\n1 1 0.5\n0 1 nan\n")
    assert main(["simulate", "--graph", "complete:2", "--matrix", f"file:{path}",
                 "--steps", "3", "--out", str(tmp_path / "o.csv")]) == 2
    assert "row 0: negative or NaN entry" in capsys.readouterr().err


def test_cli_verify_single_suite(capsys):
    assert main(["verify", "--suite", "prop1"]) == 0
    assert "[PASS] prop1" in capsys.readouterr().out


def test_cli_verify_lemmas_output_pinned(capsys):
    assert main(["verify", "--suite", "lemmas", "--seed", "0"]) == 0
    assert capsys.readouterr().out == (
        "[PASS] lemmas: zero violations over 113400 vertex-steps (113400 checks)\n")


def test_cli_verify_dirichlet_output_pinned(capsys):
    # pi comes from detailed balance, so the identity's gap is at rounding level
    assert main(["verify", "--suite", "dirichlet", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out == ("[PASS] dirichlet: worst gap 2.78e-17 at random-reversible-1-n4 w=0 t=0 "
                   "(tol 1e-10) (17839 checks)\n")
    assert float(out.split("worst gap ")[1].split()[0]) <= 1e-15


def test_cli_bounds_birth_death_1000_exact_pi(tmp_path, capsys):
    # lazy weighted walk on a path: reversible, not symmetric, pi = W / sum(W)
    n = 1000
    w = np.random.default_rng(3).uniform(0.5, 2.0, n - 1)  # weight of edge (v, v + 1)
    W = np.zeros(n)
    W[:-1] += w
    W[1:] += w
    v = np.arange(n - 1)
    P = diffusim.custom_matrix(list(zip(range(n), range(n), [0.5] * n))
                               + list(zip(v, v + 1, w / (2 * W[:-1])))
                               + list(zip(v + 1, v, w / (2 * W[1:]))), n=n)
    pi_exact = W / W.sum()
    assert np.max(np.abs(diffusim.stationary_distribution(P) - pi_exact)) <= 1e-12
    path = tmp_path / "bd.txt"
    path.write_text(P.to_text())
    bound = np.sqrt(2 * pi_exact.max() / (pi_exact[P.rows] * P.probs).min())
    assert main(["bounds", "--graph", "", "--matrix", f"file:{path}"]) == 0
    assert f"psi2_bound_reversible={bound:.10g}\n" in capsys.readouterr().out


def test_cli_verify_failure_exit_3(monkeypatch, capsys):
    monkeypatch.setitem(
        SUITES, "prop1",
        lambda seed=0: SuiteResult("prop1", False, 1, "injected failure"),
    )
    assert main(["verify", "--suite", "prop1"]) == 3
    assert "[FAIL]" in capsys.readouterr().out
