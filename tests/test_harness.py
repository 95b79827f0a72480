import concurrent.futures
import dataclasses
import hashlib
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diffusim
from diffusim import (SizeLimitError, ValidationError, convergence_time, discrete, harness,
                      lazy_rw_matrix, gen_cycle, power_apply)
from diffusim.cli import _build_parser, main
from diffusim.harness import (
    CSV_HEADER,
    ExperimentSpec,
    bounds_report,
    build_graph,
    build_loads,
    build_matrix,
    resolve,
    simulate_to_csv,
    trial_rng,
)
from diffusim.verify import SUITES, SuiteResult

from conftest import src_env


def _run(spec: ExperimentSpec, directory: Path) -> tuple[list[str], list[str]]:
    """simulate_to_csv into directory: (the header lines through CSV_HEADER, the data rows)."""
    out = directory / "run.csv"
    simulate_to_csv(spec, out)
    lines = out.read_text().splitlines()
    split = lines.index(CSV_HEADER) + 1
    return lines[:split], lines[split:]


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
    assert res.oracle.shape == (res.T + 1, 16) and res.oracle.dtype == np.float64
    assert not res.oracle.flags.writeable


def test_resolve_steps_auto_zero_discrepancy():
    spec = ExperimentSpec(graph="cycle:16", loads="uniform:160", steps="auto")
    assert resolve(spec).T == 0


def test_resolve_rejects_bad_steps(monkeypatch):
    # the --steps literal is checked with the other spec fields, before any set-up
    def refuse(spec):
        raise AssertionError("a graph was built for a bad --steps")

    monkeypatch.setattr(harness, "build_graph", refuse)
    with pytest.raises(ValidationError, match="^steps must be an integer or 'auto', got 'later'$"):
        resolve(ExperimentSpec(graph="cycle:16", steps="later"))
    with pytest.raises(ValidationError, match="^steps must be >= 0, got -3$"):
        resolve(ExperimentSpec(graph="cycle:16", steps="-3"))


def test_uniform_start_has_zero_discrepancy_row(tmp_path):
    spec = ExperimentSpec(graph="cycle:16", loads="uniform:160", steps="0", trials=1)
    _, rows = _run(spec, tmp_path)
    assert len(rows) == 1
    trial, t, disc = rows[0].split(",")[:3]
    assert (trial, t, disc) == ("0", "0", "0")


def test_csv_header_and_determinism(tmp_path):
    spec = ExperimentSpec(graph="cycle:16", matrix="lazy-rw", algorithm="alg2-batch",
                          loads="point:160", steps="25", trials=3, seed=11, stride=5)
    h1, r1 = _run(spec, tmp_path)
    h2, r2 = _run(spec, tmp_path)
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


def test_rows_cover_stride_and_endpoints(tmp_path):
    spec = ExperimentSpec(graph="cycle:16", loads="point:160", steps="13",
                          trials=1, stride=5)
    _, rows = _run(spec, tmp_path)
    ts = [int(r.split(",")[1]) for r in rows]
    assert ts == [0, 5, 10, 13]
    spec0 = ExperimentSpec(graph="cycle:16", loads="point:160", steps="13",
                           trials=1, stride=0)
    _, rows0 = _run(spec0, tmp_path)
    assert [int(r.split(",")[1]) for r in rows0] == [0, 13]


def test_trial_rows_stable_under_trial_count_growth(tmp_path):
    base = dict(graph="cycle:16", loads="point:160", steps="10", stride=0, seed=3)
    _, rows1 = _run(ExperimentSpec(trials=1, **base), tmp_path)
    _, rows3 = _run(ExperimentSpec(trials=3, **base), tmp_path)
    assert rows3[: len(rows1)] == rows1


def test_jobs_do_not_change_bytes(monkeypatch, tmp_path):
    # 4 trials are one block: jobs=2 runs it here, with no process pool
    # (test_lockstep_jobs_over_blocks_same_bytes covers the pool)
    def no_pool(*args, **kwargs):
        raise AssertionError("a single block must not start a process pool")

    base = dict(graph="cycle:16", loads="point:160", steps="12", stride=0,
                seed=5, trials=4)
    h1, r1 = _run(ExperimentSpec(jobs=1, **base), tmp_path)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    h2, r2 = _run(ExperimentSpec(jobs=2, **base), tmp_path)
    assert (h1, r1) == (h2, r2)


def _reference_rows(spec: ExperimentSpec) -> list[str]:
    """CSV rows from a plain loop that steps one trial at a time, with the
    registry's block stepper at B = 1, against an oracle stepped here: the
    recorded steps are 0, stride, 2 stride, ... and T."""
    res = resolve(spec)
    stride = spec.stride or max(res.T, 1)
    fmt = lambda x: "" if x is None else f"{x:.10g}"  # noqa: E731
    rows = []
    for trial in range(spec.trials):
        step = discrete.ALGORITHMS[spec.algorithm](res.matrix, res.graph, [trial_rng(spec.seed, trial)])
        loads = res.x0.loads
        chi = loads.astype(np.float64)
        for t in range(res.T + 1):
            if t:
                loads = step(loads)
                chi = power_apply(chi, res.matrix, 1)
            if t % stride == 0 or t == res.T:
                disc = int(loads.max() - loads.min())
                dev = float(np.abs(loads - chi).max())
                viol3 = "" if res.bound3 is None else str(int(dev > res.bound3))
                viol_disc = "" if res.bound12 is None else str(int(disc > res.bound12))
                rows.append(f"{trial},{t},{disc},{dev:.10g},{fmt(res.bound3)},"
                            f"{fmt(res.bound12)},{viol3},{viol_disc}")
    return rows


@settings(max_examples=40, deadline=None)
@given(T=st.integers(0, 40), stride=st.integers(0, 12), trials=st.integers(1, 3))
@example(T=40, stride=0, trials=1)
@example(T=40, stride=1, trials=1)
@example(T=40, stride=7, trials=1)
def test_oracle_rows_are_the_recorded_steps(T, stride, trials, tmp_path_factory):
    spec = ExperimentSpec(graph="cycle:16", loads="point:160", steps=str(T),
                          trials=trials, seed=T, stride=stride)
    recorded = sorted(set(range(0, T + 1, stride or max(T, 1))) | {T})
    with mock.patch.object(harness.matrices, "power_apply", wraps=power_apply) as counted:
        res = resolve(spec)
    assert counted.call_count == len(recorded) - 1  # one call per recorded row after t = 0
    assert res.oracle.shape == (len(recorded), 16) and not res.oracle.flags.writeable
    with mock.patch.object(harness, "ORACLE_BYTES_LIMIT", 0):  # the cap counts the same rows
        with pytest.raises(SizeLimitError, match=f"^{len(recorded)} recorded steps of the n=16 "
                                                 f"oracle need {res.oracle.nbytes} bytes"):
            resolve(spec)
    for row, t in zip(res.oracle, recorded):
        assert np.array_equal(row, power_apply(res.x0.loads, res.matrix, t))
    _, rows = _run(spec, tmp_path_factory.mktemp("rows"))
    assert [int(r.split(",")[1]) for r in rows] == recorded * trials
    assert rows == _reference_rows(spec)  # max_dev against power_apply, bit for bit


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
    "floor2d": ExperimentSpec(graph="torus:3:4", algorithm="send-floor2d", loads="point:100",
                              steps="8", trials=5, seed=6),
    "round3d": ExperimentSpec(graph="torus:3:4", algorithm="send-round3d", loads="point:100",
                              steps="8", trials=5, seed=7),
    "partition": ExperimentSpec(graph="torus:3:4", algorithm="send-partition", loads="point:100",
                                steps="8", trials=5, seed=8),
}


def test_lockstep_specs_cover_the_registry():
    assert {spec.algorithm for spec in LOCKSTEP_SPECS.values()} == set(discrete.ALGORITHMS)


@pytest.mark.parametrize("block_entries", [harness.BLOCK_ENTRIES, 100, 1])
@pytest.mark.parametrize("name", list(LOCKSTEP_SPECS))
def test_lockstep_rows_match_one_trial_at_a_time(monkeypatch, name, block_entries, tmp_path):
    # any block size gives the rows of stepping each trial on its own
    monkeypatch.setattr(harness, "BLOCK_ENTRIES", block_entries)
    spec = LOCKSTEP_SPECS[name]
    _, rows = _run(spec, tmp_path)
    assert rows == _reference_rows(spec)
    if name == "no-cuts":
        assert {row.split(",")[2] for row in rows} == {"0"}


def test_lockstep_multi_straddle_happens():
    # all 40 tokens sit on the centre, so its row holds every cut of round 1;
    # fewer boundary tokens than cuts means some token straddles several
    P = build_matrix("metropolis", build_graph("star:50"))
    _, u, _ = discrete._route(build_loads("point:40", 50).loads, P, (np.random.default_rng(0),))
    cuts = np.flatnonzero(P.ends[P.indptr[0]:P.indptr[1]] * 40 % 1)
    assert 0 < u.size < cuts.size


def test_lockstep_jobs_over_blocks_same_bytes(tmp_path):
    spec = LOCKSTEP_SPECS["multi-block"]
    assert max(1, harness.BLOCK_ENTRIES // resolve(spec).matrix.ends.size) < spec.trials
    h1, r1 = _run(spec, tmp_path)
    h2, r2 = _run(ExperimentSpec(**{**vars(spec), "jobs": 2}), tmp_path)
    assert (h1, r1) == (h2, r2)


def test_lockstep_names_the_trial_that_lost_a_token(monkeypatch, tmp_path):
    real = discrete.ALGORITHMS["alg2-batch"]
    blocks = []

    def lossy(P, g, rngs):  # the second trial of the second block loses a token
        step = real(P, g, rngs)
        blocks.append(len(rngs))
        block = len(blocks)

        def lossy_step(loads):
            new = step(loads)
            if block == 2:
                new[P.n + int(np.argmax(new[P.n:2 * P.n]))] -= 1
            return new

        return lossy_step

    monkeypatch.setitem(discrete.ALGORITHMS, "alg2-batch", lossy)
    monkeypatch.setattr(harness, "BLOCK_ENTRIES", 100)  # cycle:16 has 48 entries: blocks of 2
    spec = ExperimentSpec(graph="cycle:16", loads="point:160", steps="5", trials=4, seed=1)
    out = tmp_path / "o.csv"
    with pytest.raises(ValidationError, match=r"^trial 3, step 1: total 159 \(expected 160\)"):
        simulate_to_csv(spec, out)
    assert blocks == [2, 2]
    assert not out.exists()  # opened with the header, then removed when block 2 failed


def test_lockstep_names_the_trial_that_went_negative(monkeypatch, tmp_path):
    # the total is kept, so only the round's least-load check can catch it
    real = discrete.ALGORITHMS["alg2-batch"]

    def negative(P, g, rngs):  # at step 2, trial 1 moves a token off an empty vertex
        step, rounds = real(P, g, rngs), []

        def negative_step(loads):
            new = step(loads)
            rounds.append(None)
            if len(rounds) == 2:
                v = P.n + int(np.argmin(new[P.n:2 * P.n]))
                new[v] -= 1
                new[v + 1 if v + 1 < 2 * P.n else v - 1] += 1
            return new

        return negative_step

    monkeypatch.setitem(discrete.ALGORITHMS, "alg2-batch", negative)
    spec = ExperimentSpec(graph="cycle:16", loads="point:16", steps="5", trials=3, seed=1)
    out = tmp_path / "o.csv"
    out.write_text("an earlier run's rows\n")  # a failed run leaves no file, not the old one
    with pytest.raises(ValidationError, match=r"^trial 1, step 2: total 16 \(expected 16\), least load -1$"):
        simulate_to_csv(spec, out)
    assert not out.exists()


CHUNK_SPECS = {
    "stride-0": ExperimentSpec(graph="cycle:16", loads="point:160", steps="40", stride=0,
                               trials=3, seed=9),
    "stride-1": ExperimentSpec(graph="cycle:16", loads="point:160", steps="25", stride=1,
                               trials=3, seed=10),
    # blocks of 2, 2 and 1 trials at BLOCK_ENTRIES = 100
    "multi-block": ExperimentSpec(graph="cycle:16", loads="point:160", steps="30", stride=7,
                                  trials=5, seed=11),
}


@pytest.mark.parametrize("name", list(CHUNK_SPECS))
def test_chunked_rounds_keep_the_bytes(monkeypatch, name, tmp_path):
    # a block checks and records K = max(1, BLOCK_ENTRIES // (B * n)) rounds
    # at a time: cycle:16 has n = 16 and 48 entries, so BLOCK_ENTRIES = 1
    # gives K = 1, 100 gives K = 3 or 6 (chunks that do not divide T + 1),
    # and the default one chunk of every round
    csvs = []
    for entries in (1, 100, harness.BLOCK_ENTRIES):
        monkeypatch.setattr(harness, "BLOCK_ENTRIES", entries)
        out = tmp_path / f"{entries}.csv"
        simulate_to_csv(CHUNK_SPECS[name], out)
        csvs.append(out.read_bytes())
    assert csvs[1:] == csvs[:1] * 2


@pytest.mark.parametrize("faults, message, rounds", [
    # trial 2 loses a token at step 3: the block's total is off, so the block stops there
    ([(3, 2, "lose")], r"trial 2, step 3: total 159 \(expected 160\), least load 0", 3),
    # a token moves from trial 2 to trial 0 at step 3: the block's total is
    # kept, so the chunk of all 9 rounds is checked after step 8
    ([(3, 2, "lose"), (3, 0, "gain")], r"trial 0, step 3: total 161 \(expected 160\), least load 0", 8),
    # a negative load at step 5 stops the block, and the buffered move comes first
    ([(2, 1, "lose"), (2, 2, "gain"), (5, 0, "negative")],
     r"trial 1, step 2: total 159 \(expected 160\), least load 0", 5),
    # in one step, the first trial that is off is named
    ([(2, 2, "lose"), (2, 0, "negative")], r"trial 0, step 2: total 160 \(expected 160\), least load -1", 2),
])
def test_chunk_names_the_earliest_bad_round(monkeypatch, tmp_path, faults, message, rounds):
    # the messages are those the round-by-round check gave; faults are
    # (step, trial, kind) in one block of 3 trials on cycle:16, and rounds
    # is how many rounds the block steps before it stops
    real = discrete.ALGORITHMS["alg2-batch"]
    stepped = []

    def faulty(P, g, rngs):
        step = real(P, g, rngs)

        def faulty_step(loads):
            new = step(loads)
            stepped.append(None)
            for t, trial, kind in faults:
                x = new[trial * P.n:(trial + 1) * P.n]
                if t == len(stepped) and kind in ("lose", "gain"):
                    x[int(np.argmax(x))] += 1 if kind == "gain" else -1
                elif t == len(stepped):  # a token off an empty vertex: the total is kept
                    v = int(np.argmin(x))
                    x[v] -= 1
                    x[(v + 1) % P.n] += 1
            return new

        return faulty_step

    monkeypatch.setitem(discrete.ALGORITHMS, "alg2-batch", faulty)
    spec = ExperimentSpec(graph="cycle:16", loads="point:160", steps="8", trials=3, seed=1)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        simulate_to_csv(spec, tmp_path / "o.csv")
    assert len(stepped) == rounds
    assert not (tmp_path / "o.csv").exists()


def test_trial_rng_is_stable():
    a = trial_rng(42, 3).random(4)
    b = trial_rng(42, 3).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(trial_rng(42, 3).random(4), trial_rng(42, 4).random(4))


def test_baseline_algorithms_run(tmp_path):
    for alg in ("send-floor2d", "send-round3d", "send-partition", "rsend"):
        spec = ExperimentSpec(graph="cycle:8", algorithm=alg, loads="point:64",
                              steps="6", trials=1)
        _, rows = _run(spec, tmp_path)
        assert len(rows) == 7


def test_baseline_rejects_irregular_graph(tmp_path):
    spec = ExperimentSpec(graph="star:8", matrix="metropolis",
                          algorithm="send-floor2d", loads="point:8", steps="2")
    with pytest.raises(ValidationError):
        _run(spec, tmp_path)


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


def test_algorithm_help_and_error_list_the_registry():
    sim = next(a for a in _build_parser()._actions if a.dest == "command").choices["simulate"]
    help_text = next(a for a in sim._actions if a.dest == "algorithm").help
    assert tuple(help_text.split(" | ")) == tuple(discrete.ALGORITHMS)
    with pytest.raises(ValidationError) as exc:
        resolve(ExperimentSpec(graph="cycle:8", algorithm="alg3", steps="5"))
    assert str(exc.value) == f"unknown algorithm 'alg3'; choose from {tuple(discrete.ALGORITHMS)}"


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
    ["--graph", "file:{tmp}/cycle5000.txt", "--steps", "10"],  # a file: graph records no group
    ["--graph", "star:5000", "--matrix", "metropolis", "--steps", "3"],
])
def test_cli_simulate_above_dense_limit(tmp_path, args):
    # only --steps auto needs lambda; the dense cap leaves lambda= and psi2= blank
    (tmp_path / "cycle5000.txt").write_text(diffusim.graphs.edge_list_text(gen_cycle(5000)))
    args = [a.format(tmp=tmp_path) for a in args]
    out = tmp_path / "big.csv"
    assert main(["simulate", *args, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert any(ln.startswith("# lambda= psi2= bound_thm3= ") for ln in lines)
    assert lines[-1].startswith(f"0,{args[-1]},")


def test_cli_simulate_cayley_chain_above_dense_limit(tmp_path, capsys):
    # cycle:5000 records its group: lambda and psi2 come from its spectrum
    out = tmp_path / "big.csv"
    assert main(["simulate", "--graph", "cycle:5000", "--steps", "10", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    header = next(ln for ln in out.read_text().splitlines() if ln.startswith("# lambda="))
    fields = dict(f.split("=") for f in header[2:].split())
    for name in ("lambda", "psi2", "bound_thm3"):
        assert float(fields[name]) > 0
    assert fields["lambda"] == f"{0.5 + 0.5 * np.cos(2 * np.pi / 5000):.10g}"


def test_cli_simulate_reports_why_header_quantities_are_blank(tmp_path, capsys):
    out = tmp_path / "big.csv"
    for args, T in ((["--steps", "10"], 10),
                    # no discrepancy: --steps auto gives T = 0 and needs no lambda
                    (["--loads", "uniform:5000", "--steps", "auto"], 0)):
        assert main(["simulate", "--graph", "star:5000", "--matrix", "metropolis", *args,
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "diffusim: lambda unavailable: n=5000 above dense eigensolver limit 4096",
            "diffusim: psi2 unavailable: dense form refused for n=5000 > 4096",
        ]
        assert captured.out == f"wrote {T + 1} rows to {out}\n"
        assert f"# resolved_steps={T} n=5000" in out.read_text().splitlines()


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
        "diffusim: bound_thm1_or_2 unavailable: Theorems 1 and 2 bound only a graph's lazy-rw and "
        "metropolis chains",
    ]
    assert "# lambda= psi2=2.14422507 bound_thm3=8.989852931 bound_thm1_or_2=" in out.read_text()
    # Theorems 1 and 2 speak of the graph's own chains: bounds names neither for this file: chain
    assert main(["bounds", "--graph", "complete:3", "--matrix", f"file:{path}"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "bound_thm3=8.989852931" in lines
    assert not [ln for ln in lines if ln.startswith(("bound_thm1=", "bound_thm2="))]
    # nor Theorem 5, whose chain must be symmetric
    assert not [ln for ln in lines if ln.startswith("bound_thm5=")]
    assert main(["bounds", "--graph", "complete:3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "bound_thm1=26.68146853" in lines
    assert "bound_thm5=19.48538958" in lines


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_jobs_below_one_exit_2(tmp_path, capsys, jobs):
    assert main(["simulate", "--graph", "cycle:8", "--steps", "3", "--jobs", jobs,
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_cli_negative_seed_exit_2(tmp_path, capsys, command):
    # rejected up front: simulate would otherwise stop at cycle:5000's oracle-size cap
    args = {"simulate": ["--graph", "cycle:5000", "--out", str(tmp_path / "o.csv")],
            "verify": ["--suite", "prop1"]}[command]
    assert main([command, *args, "--seed", "-1"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command, spec", [
    ("simulate", "random:100:-1"),
    ("simulate", "random-regular:8:3:-1"),
    ("bounds", "random-regular:8:3:-1"),
])
def test_cli_negative_seed_in_spec_exit_2(tmp_path, capsys, monkeypatch, command, spec):
    # the spec's own seed is checked before numpy sees it
    def refuse(seed):
        raise AssertionError(f"numpy was handed seed {seed}")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    option = "--loads" if spec.startswith("random:") else "--graph"
    args = {"simulate": ["--graph", "cycle:8", "--steps", "3", "--out", str(tmp_path / "o.csv")],
            "bounds": ["--matrix", "lazy-rw"]}[command]
    assert main([command, *args, option, spec]) == 2
    assert f"seed in {spec!r} must be >= 0, got -1" in capsys.readouterr().err


def test_cli_steps_auto_above_dense_limit_exit_2(tmp_path, capsys):
    path = tmp_path / "m.txt"  # a non-symmetric chain has no lambda either
    path.write_text("3\n" + "".join(f"{v} {(v + 1) % 3} 0.4\n{v} {(v + 2) % 3} 0.1\n{v} {v} 0.5\n"
                                    for v in range(3)))
    for graph, matrix, reason in (
            ("star:5000", "metropolis", "n=5000 above dense eigensolver limit 4096"),
            ("complete:3", f"file:{path}", "second_eigenvalue requires a symmetric matrix")):
        assert main(["simulate", "--graph", graph, "--matrix", matrix,
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == f"diffusim: error: steps=auto needs lambda: {reason}\n"


@pytest.mark.parametrize("args", [
    ["--graph", "cycle:5000"],                                   # T_auto = 42583382, stride 1
    ["--graph", "cycle:8", "--steps", "99999999999999999999"],
])
def test_cli_oracle_above_size_cap_exit_2(tmp_path, args):
    # refused before the oracle is allocated or stepped, so within seconds
    proc = subprocess.run([sys.executable, "-m", "diffusim", "simulate", *args,
                           "--out", str(tmp_path / "o.csv")],
                          env=src_env(), capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert "above the cap of 268435456; raise --stride" in proc.stderr
    assert not (tmp_path / "o.csv").exists()


def test_cli_steps_above_cap_exit_2(tmp_path):
    # at stride 0 the oracle has two rows, and only the step cap stops one
    # power_apply call of T steps that would not end
    proc = subprocess.run([sys.executable, "-m", "diffusim", "simulate", "--graph", "cycle:8",
                           "--steps", "99999999999999999999", "--stride", "0",
                           "--out", str(tmp_path / "o.csv")],
                          env=src_env(), capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert proc.stderr == ("diffusim: error: 99999999999999999999 steps are above the cap of "
                           "1000000000; lower --steps\n")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_trials_above_cap_exit_2(tmp_path, capsys, jobs):
    # simulate lists every block before the first runs (--jobs submits them
    # all to the pool), so such a count died on a bare MemoryError
    out = tmp_path / "o.csv"
    assert main(["simulate", "--graph", "cycle:8", "--steps", "3", "--trials", "99999999999999999999",
                 "--jobs", jobs, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("diffusim: error: 99999999999999999999 trials are above the cap "
                                       "of 1000000; lower --trials\n")
    assert not out.exists()


def test_resolve_trial_cap_boundary(monkeypatch):
    monkeypatch.setattr(harness, "MAX_TRIALS", 10)
    spec = ExperimentSpec(graph="cycle:8", loads="point:100", steps="3")
    assert resolve(dataclasses.replace(spec, trials=10)).spec.trials == 10
    with pytest.raises(SizeLimitError, match="^11 trials are above the cap of 10; lower --trials$"):
        resolve(dataclasses.replace(spec, trials=11))


def test_resolve_step_cap_boundary(monkeypatch):
    monkeypatch.setattr(harness, "MAX_STEPS", 10)
    spec = ExperimentSpec(graph="cycle:8", loads="point:100", stride=0)
    assert resolve(dataclasses.replace(spec, steps="10")).T == 10
    with pytest.raises(SizeLimitError, match="^11 steps are above the cap of 10; lower --steps$"):
        resolve(dataclasses.replace(spec, steps="11"))


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_resolve_holds_only_what_the_cap_counts():
    # the cap counts one float64 row per recorded step: resolve's peak RSS and
    # its pickle (sent to every --jobs block) stay near those bytes. VmHWM is
    # this process's own peak; ru_maxrss would start from the RSS that the
    # spawning pytest process had before exec, and hide the growth under it.
    script = """
import pickle
from diffusim.harness import ExperimentSpec, resolve
def peak():  # bytes
    return next(int(ln.split()[1]) for ln in open("/proc/self/status") if ln.startswith("VmHWM:")) * 1024
resolve(ExperimentSpec(graph="cycle:8", loads="point:100", steps="10"))
before = peak()
res = resolve(ExperimentSpec(graph="cycle:8", loads="point:100", steps="200000", stride=1))
print(peak() - before, len(pickle.dumps(res)))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    grown, pickled = map(int, proc.stdout.split())
    capped = 200001 * 8 * 8  # res.oracle.nbytes (test_oracle_rows_are_the_recorded_steps)
    assert grown <= 1.25 * capped + 8 * 2**20
    assert pickled <= capped + 2**20


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_simulate_peak_rss_does_not_grow_with_trials(tmp_path):
    # the rows go to --out as each block of 85 trials ends: 4 blocks peak
    # near 1, where holding every row until the end cost ~30 MB more.
    # VmHWM is this process's own peak; ru_maxrss would count the RSS that
    # the spawning pytest process had before exec.
    script = ("import sys\nfrom diffusim import cli\ncode = cli.main(sys.argv[1:])\n"
              "print(code, *[ln.split()[1] for ln in open('/proc/self/status') if ln.startswith('VmHWM:')])\n")
    peaks = []
    for trials in ("85", "340"):
        proc = subprocess.run([sys.executable, "-c", script, "simulate", "--graph", "cycle:64",
                               "--loads", "point:1000", "--steps", "500", "--stride", "1",
                               "--trials", trials, "--out", str(tmp_path / "o.csv")],
                              env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, peak = proc.stdout.splitlines()[-1].split()
        assert code == "0"
        peaks.append(int(peak))  # kB
    assert peaks[1] - peaks[0] < 8 * 1024, peaks


@pytest.mark.parametrize("args", [
    ["--graph", "cycle:64", "--trials", "50"],
    ["--graph", "cycle:8", "--steps", "99999999999999999999", "--stride", "0"],  # never ends
])
def test_cli_out_in_missing_directory_exit_2(tmp_path, args):
    # refused before resolve and before any round, so within seconds
    out = tmp_path / "missing" / "o.csv"
    proc = subprocess.run([sys.executable, "-m", "diffusim", "simulate", *args, "--out", str(out)],
                          env=src_env(), capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert f"output directory {str(out.parent)!r} does not exist" in proc.stderr
    assert not out.parent.exists()


def test_cayley_spectrum_computed_once(monkeypatch):
    # lambda and psi2 both read it; resolve and bounds_report compute it once
    calls = []
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda a: calls.append(a.shape) or fftn(a))
    res = resolve(ExperimentSpec(graph="hypercube:6", loads="point:640", steps="3"))
    assert res.lam is not None and res.psi2 is not None and calls == [(2,) * 6]
    assert f"psi2_computed={res.psi2:.10g}" in bounds_report("hypercube:6", "lazy-rw")
    assert calls == [(2,) * 6] * 2


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


def test_cli_oversize_total_exit_2_under_optimize(tmp_path):
    # python -O strips assert statements; the cap must hold without them
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "diffusim", "simulate", "--graph", "cycle:8",
         "--loads", "point:9007199254740999", "--steps", "3", "--out", str(tmp_path / "o.csv")],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "exceeds 2**53" in proc.stderr


def test_cli_simulate_symmetric_chains_loads_no_scipy(tmp_path):
    # scipy.sparse costs ~0.25 s at import and a reversible chain or a symmetric
    # support needs none of it; verify's chi-square tail is a closed form, so
    # it loads no scipy.special either
    runs = [["simulate", "--graph", graph, "--matrix", matrix, "--loads", "point:100", "--steps", "3",
             "--trials", "2", "--out", str(tmp_path / f"{matrix}.csv")]
            for graph, matrix in (("cycle:64", "lazy-rw"), ("star:50", "metropolis"))]
    runs.append(["verify", "--suite", "sampler-equivalence"])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from diffusim import cli; "
         f"codes = [cli.main(args) for args in {runs!r}]; "
         "print(codes, sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_cli_simulate_without_a_pool_loads_no_pool_modules(tmp_path):
    # concurrent.futures costs ~4-6 ms at import after numpy and loads logging
    # with it; only --jobs > 1 over several blocks starts a process pool
    args = ["simulate", "--graph", "cycle:64", "--loads", "point:100", "--steps", "3",
            "--trials", "200", "--jobs", "1", "--out", str(tmp_path / "o.csv")]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n"
         "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'logging'))\n"
         "import diffusim.harness\nprint(loaded())\n"
         f"from diffusim import cli\nprint(cli.main({args!r}), loaded())\n"],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    assert proc.stdout.splitlines()[-1] == "0 []"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc thresholds")
def test_block_rounds_do_not_fault_the_heap_in_again():
    # Without the untouched block _block_rows frees before its first round,
    # glibc trimmed each round's temporaries off the heap top and faulted
    # them in again: ~190-270 minor faults a round here. A fresh interpreter
    # starts with malloc's default thresholds, as a CLI run does.
    script = (
        "import resource\n"
        "from diffusim import harness\n"
        "res = harness.resolve(harness.ExperimentSpec(graph='hypercube:9', "
        "loads='random:32768:912', steps='200', trials=3))\n"
        "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "harness._block_rows(res, 0, 3)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=src_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 5 * 200


def test_cli_bounds_cayley_chain_above_dense_limit(capsys):
    assert main(["bounds", "--graph", "hypercube:13"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "lambda=0.9230769231" in out
    assert "psi2_computed=5.913314523" in out and "psi2_t_stop=0" in out
    assert "bound_thm3=71.00278394" in out


def test_cli_usage_error_exit_1(capsys):
    assert main(["simulate", "--graph", "cycle:4"]) == 1  # --out missing
    assert main(["frobnicate"]) == 1


def test_cli_divergence(capsys):
    assert main(["divergence", "--graph", "complete:2", "--matrix", "lazy-rw"]) == 0
    out = capsys.readouterr().out
    val = [ln for ln in out.splitlines() if ln.startswith("value=")]
    assert float(val[0].split("=")[1]) == pytest.approx(np.sqrt(2), abs=1e-9)


@pytest.mark.parametrize("flag, value, message", [
    ("--t-max", "-1", "--t-max must be >= 0, got -1"),
    ("--tol", "0", "--tol must be > 0, got 0.0"),
    ("--tol", "-1", "--tol must be > 0, got -1.0"),
    ("--tol", "nan", "--tol must be > 0, got nan"),
])
def test_cli_divergence_rejects_bad_flags(capsys, flag, value, message):
    assert main(["divergence", "--graph", "cycle:8", "--p", "1", flag, value]) == 2
    assert capsys.readouterr().err == f"diffusim: error: {message}\n"


def test_cli_matrix_file_of_another_size_exit_2(tmp_path, capsys):
    # build_matrix checks a file: matrix against the graph for every command
    path = tmp_path / "m5.txt"
    path.write_text(lazy_rw_matrix(gen_cycle(5)).to_text())
    for command, extra in (("simulate", ["--steps", "3", "--out", str(tmp_path / "o.csv")]),
                           ("bounds", []), ("divergence", [])):
        assert main([command, "--graph", "cycle:8", "--matrix", f"file:{path}", *extra]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "diffusim: error: graph has 8 vertices but matrix has 5\n"), command


def test_cli_help_forms_parse_and_defaults_match_the_spec(tmp_path):
    sub = next(a for a in _build_parser()._actions if a.dest == "command").choices
    sim = {a.dest: a for a in sub["simulate"]._actions}
    # the --graph help lists the forms build_graph's error names
    with pytest.raises(ValidationError) as err:
        build_graph("blob:3")
    expected = str(err.value).split("expected ")[1].replace(" or ", ", ").split(", ")
    graph_forms = sim["graph"].help.split(" | ")
    assert graph_forms == expected
    (tmp_path / "g.edges").write_text(diffusim.graphs.edge_list_text(gen_cycle(8)))
    (tmp_path / "loads.txt").write_text("1\n" * 8)
    sample = {"N": "8", "DIM": "3", "A": "3", "B": "4", "D": "3", "SEED": "1", "M": "16"}

    def filled(form, path):
        name, *params = form.split(":")
        return ":".join([name] + [str(path) if p == "PATH" else sample[p] for p in params])

    for form in graph_forms:
        assert build_graph(filled(form, tmp_path / "g.edges")).n >= 8
    for form in sim["loads"].help.split(" | "):
        assert build_loads(filled(form, tmp_path / "loads.txt"), 8).n == 8
    for field in dataclasses.fields(ExperimentSpec)[1:]:  # every field but the required graph
        assert sim[field.name].default == field.default, field.name
    for command in ("bounds", "divergence"):
        assert sub[command].get_default("matrix") == ExperimentSpec.matrix
    assert sub["divergence"].get_default("tol") == diffusim.analysis.PSI_TOL_DEFAULT


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


def _birth_death_1000():
    """The lazy weighted walk on a 1000-vertex path, reversible and not
    symmetric, and its stationary distribution W / sum(W)."""
    n = 1000
    w = np.random.default_rng(3).uniform(0.5, 2.0, n - 1)  # weight of edge (v, v + 1)
    W = np.zeros(n)
    W[:-1] += w
    W[1:] += w
    v = np.arange(n - 1)
    P = diffusim.custom_matrix(list(zip(range(n), range(n), [0.5] * n))
                               + list(zip(v, v + 1, w / (2 * W[:-1])))
                               + list(zip(v + 1, v, w / (2 * W[1:]))), n=n)
    return P, W / W.sum()


def test_cli_bounds_birth_death_1000_exact_pi(tmp_path, capsys):
    P, pi_exact = _birth_death_1000()
    assert np.max(np.abs(diffusim.stationary_distribution(P) - pi_exact)) <= 1e-12
    path = tmp_path / "bd.txt"
    path.write_text(P.to_text())
    bound = np.sqrt(2 * pi_exact.max() / (pi_exact[P.rows] * P.probs).min())
    assert main(["bounds", "--graph", "", "--matrix", f"file:{path}"]) == 0
    assert f"psi2_bound_reversible={bound:.10g}\n" in capsys.readouterr().out


def test_cli_reversible_chains_load_no_scipy_sparse(tmp_path):
    # pi of a reversible chain comes from a breadth-first tree over the CSR
    # arrays: the dirichlet and psi2 suites and bounds on a non-symmetric
    # reversible file: chain import no scipy.sparse module
    path = tmp_path / "bd.txt"
    path.write_text(_birth_death_1000()[0].to_text())
    runs = [["verify", "--suite", "dirichlet", "--suite", "psi2"],
            ["bounds", "--graph", "", "--matrix", f"file:{path}"]]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from diffusim import cli; "
         f"codes = [cli.main(args) for args in {runs!r}]; "
         "print(codes, sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "psi2_bound_reversible=5.590240644" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"


def test_cli_verify_failure_exit_3(monkeypatch, capsys):
    monkeypatch.setitem(
        SUITES, "prop1",
        lambda seed=0: SuiteResult("prop1", False, 1, "injected failure"),
    )
    assert main(["verify", "--suite", "prop1"]) == 3
    assert "[FAIL]" in capsys.readouterr().out


def test_theorem_experiments_script_runs(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_theorem_experiments.py"
    proc = subprocess.run([sys.executable, str(script), "--trials", "2", "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [ln.split(" trials=")[0] for ln in proc.stdout.splitlines()] == [
        "regular     T=  172", "irregular   T=  676", "oracle-gap  T= 5173"]
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["irregular.csv", "oracle-gap.csv", "regular.csv"]
