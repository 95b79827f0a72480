"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The heavier concentration experiments (3-5) drive the
real CLI/harness path with fixed seeds.
"""
import math
import time

import pytest

from diffusim import (
    bound_theorem1,
    bound_theorem2,
    gen_cycle,
    gen_random_regular,
    metropolis_matrix,
    second_eigenvalue,
)
from diffusim.cli import main
from diffusim.graphs import edge_list_text
from diffusim.harness import CSV_HEADER
from diffusim import verify
from diffusim.verify import seeded_irregular_graph

FRACTION_FLOOR = 0.95
TRIALS = 200


def _report(num, name, passed, detail, budget=None, elapsed=None):
    status = "PASS" if passed else "FAIL"
    timing = f" [{elapsed:.1f}s < {budget:.0f}s]" if budget is not None else ""
    print(f"ACCEPTANCE {num} ({name}): {status} - {detail}{timing}")
    assert passed, f"criterion {num} ({name}): {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"


def test_criterion_1_dirichlet_identity():
    t0 = time.time()
    res = verify.suite_dirichlet(seed=0)
    _report(1, "dirichlet identity", res.passed, res.detail, budget=10, elapsed=time.time() - t0)


def test_criterion_2_psi2_bounds():
    t0 = time.time()
    res = verify.suite_psi2(seed=0)
    _report(2, "psi2 bounds", res.passed, res.detail, budget=30, elapsed=time.time() - t0)


def _final_rows(csv_text):
    lines = [ln for ln in csv_text.splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == CSV_HEADER
    rows = [ln.split(",") for ln in lines[1:]]
    t_final = max(int(r[1]) for r in rows)
    return [r for r in rows if int(r[1]) == t_final]


@pytest.fixture(scope="module")
def criterion3_runs(tmp_path_factory):
    """Criterion 3's exact command, run twice for the determinism check."""
    tmp = tmp_path_factory.mktemp("c3")
    args = ["simulate", "--graph", "cycle:64", "--matrix", "lazy-rw",
            "--algorithm", "alg2-batch", "--loads", "point:1000",
            "--steps", "auto", "--trials", str(TRIALS), "--seed", "20240803",
            "--stride", "0"]
    paths = [tmp / "run1.csv", tmp / "run2.csv"]
    elapsed = []
    for path in paths:
        t0 = time.time()
        assert main(args + ["--out", str(path)]) == 0
        elapsed.append(time.time() - t0)
    return paths, elapsed


def test_criterion_3_theorem3_concentration(criterion3_runs):
    paths, elapsed = criterion3_runs
    finals = _final_rows(paths[0].read_text())
    assert len(finals) == TRIALS
    ok = sum(1 for r in finals if r[6] == "0")  # viol_thm3 column
    frac = ok / TRIALS
    devs = [float(r[3]) for r in finals]
    bound = float(finals[0][4])
    _report(3, "theorem-3 concentration", frac >= FRACTION_FLOOR,
            f"{frac:.3f} of {TRIALS} trials under 4*psi2*sqrt(ln N)={bound:.3g} "
            f"(max dev {max(devs):.3g})", budget=120, elapsed=elapsed[0])


def test_criterion_4_theorem1_discrepancy(tmp_path):
    t0 = time.time()
    out = tmp_path / "thm1.csv"
    assert main(["simulate", "--graph", "random-regular:128:4:20240801",
                 "--matrix", "lazy-rw", "--algorithm", "alg2-batch",
                 "--loads", "point:1280", "--steps", "auto",
                 "--trials", str(TRIALS), "--seed", "11", "--stride", "0",
                 "--out", str(out)]) == 0
    finals = _final_rows(out.read_text())
    bound = bound_theorem1(4, 128)
    discs = [int(r[2]) for r in finals]
    frac = sum(1 for d in discs if d <= bound) / TRIALS
    viol_frac = sum(1 for r in finals if r[7] == "0") / TRIALS  # viol_disc column
    assert viol_frac == frac
    _report(4, "theorem-1 discrepancy", frac >= FRACTION_FLOOR,
            f"{frac:.3f} of {TRIALS} trials under 18*sqrt(4 ln 128)={bound:.3g} "
            f"(max disc {max(discs)})", budget=120, elapsed=time.time() - t0)


def test_criterion_5_theorem2_discrepancy(tmp_path):
    t0 = time.time()
    g = seeded_irregular_graph()
    assert not g.is_regular()
    gpath = tmp_path / "irregular.edges"
    gpath.write_text(edge_list_text(g))
    out = tmp_path / "thm2.csv"
    assert main(["simulate", "--graph", f"file:{gpath}", "--matrix", "metropolis",
                 "--algorithm", "alg2-batch", "--loads", "point:1280",
                 "--steps", "auto", "--trials", str(TRIALS), "--seed", "12",
                 "--stride", "0", "--out", str(out)]) == 0
    finals = _final_rows(out.read_text())
    bound = bound_theorem2(g.d_max, 128)
    discs = [int(r[2]) for r in finals]
    frac = sum(1 for d in discs if d <= bound) / TRIALS
    _report(5, "theorem-2 discrepancy", frac >= FRACTION_FLOOR,
            f"{frac:.3f} of {TRIALS} trials under 16*sqrt({g.d_max} ln 128)={bound:.3g} "
            f"(max disc {max(discs)})", budget=180, elapsed=time.time() - t0)


def test_criterion_6_expectation_lemma():
    t0 = time.time()
    res = verify.suite_expectation(seed=0)
    _report(6, "expectation lemma", res.passed, res.detail, budget=20, elapsed=time.time() - t0)
    # what `diffusim verify --seed 0` prints
    assert (res.detail, res.checks) == (
        "max |MC mean - x0 P^3| = 1.79 standard errors "
        "(mean [10.319, 9.83, 9.851] vs oracle [10.312, 9.844, 9.844])", 10_000)


def test_criterion_7_structural_lemmas():
    t0 = time.time()
    res = verify.suite_lemmas(seed=0, min_vertex_steps=100_000)
    cons = verify.suite_conservation(seed=0)
    _report(7, "structural lemmas", res.passed and cons.passed,
            f"{res.detail}; baselines: {cons.detail}", elapsed=time.time() - t0)
    # what `diffusim verify --seed 0` prints
    assert (res.detail, res.checks) == ("zero violations over 113400 vertex-steps", 113_400)
    assert (cons.detail, cons.checks) == ("3900 steps conserved totals", 3900)


def test_criterion_8_sampler_equivalence():
    t0 = time.time()
    res = verify.suite_sampler_equivalence(seed=0)
    _report(8, "sampler equivalence", res.passed, res.detail, elapsed=time.time() - t0)
    # what `diffusim verify --seed 0` prints
    assert (res.detail, res.checks) == (
        "deterministic sets match, supports match, chi2 p=0.6633", 60_000)


@pytest.mark.parametrize("seed, p_value", [(101, "0.8504"), (102, "0.9264")])
def test_sampler_equivalence_printed_p_at_other_seeds(seed, p_value):
    # what `diffusim verify --seed 101` and `--seed 102` print, and what the
    # verify-suites benchmark's output digest hashes
    assert verify.suite_sampler_equivalence(seed=seed).detail.endswith(f"chi2 p={p_value}")


def test_criterion_9_proposition1():
    t0 = time.time()
    res = verify.suite_prop1(seed=0)
    _report(9, "continuous convergence time", res.passed, res.detail,
            budget=10, elapsed=time.time() - t0)


def test_criterion_10_determinism(criterion3_runs):
    paths, _ = criterion3_runs
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    _report(10, "byte-identical rerun", identical,
            "criterion-3 command rerun produced identical CSV bytes"
            if identical else "CSV bytes differ between reruns")
