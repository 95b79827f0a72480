"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs untraced and traced, in process with the size table
replaced by tiny sizes; the result line has to carry every metric
BENCHMARK.json names, with its unit, and report no failed operation.
Without the program's sources the benchmark has to fail without a result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # perfbench/run.py: pytest puts this test's directory on sys.path
import spans

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "oracle-gap": dict(run.SIZES["oracle-gap"], graph="cycle:8", loads="point:40"),
    "spectral-setup": dict(run.SIZES["spectral-setup"], graph="hypercube:3",
                           loads="random:64:{seed}", steps="5", trials=2),
    "star-skew": dict(n=16, loads="random:256:{seed}", rounds=4, trials=2),
    "verify-suites": dict(suites=("conservation", "prop1")),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "SIZES", TINY)
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_self_time_excludes_children_and_span_overhead():
    dump = {"spans": [["harness.run_experiment", 0.0, 10.0, -1],
                      ["discrete.step_batch", 1.0, 3.0, 0],
                      ["discrete.step_batch", 4.0, 6.0, 0]],
            "span_outer_s": 0.5, "draws": 0, "scalar_draws": 0,
            "psi2_t_stop": 0, "layout_bytes": 0}
    metrics = spans.layer_metrics(dump)
    assert metrics["harness.self_s"] == (10.0 - 4.0 - 2 * 0.5, "s")
    assert metrics["discrete.self_s"] == (4.0, "s")
    assert metrics["harness.loop_self_us_per_round"] == (2.5e6, "us")


def test_scaled_time_leaves_out_reference_points():
    nominal = run.REF_NOMINAL_S
    knots = [[0.0, 0.0, nominal], [1.0, 1.5, 3 * nominal], [3.0, 3.0, 2 * nominal]]
    assert run.scaled_time(knots, 0.5) == pytest.approx(0.5 / 2)
    assert run.scaled_time(knots, 1.2) == pytest.approx(1.0 / 2)
    assert run.scaled_time(knots, 3.0) == pytest.approx(1.0 / 2 + 1.5 / 2.5)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle-gap",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
