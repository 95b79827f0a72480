"""diffusim benchmark: four closed-loop workloads, one operation at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (the directory that holds
src/diffusim). Every operation is a fresh interpreter running perfbench/op.py
with PYTHONPATH=src, --jobs 1 and one BLAS thread, so interpreter start and
imports count, as they do for every CLI call a user makes.

--trace 0 runs operations back to back for S seconds, checks each output
and prints the end-to-end metrics as medians over the operations of the run.

The CPU speed this benchmark gets on a shared host drifts by up to a third
within seconds to minutes. So the benchmark times a fixed pure-Python
reference loop (op.reference_loop) REF_CHUNKS times just before and just
after every operation, and the untraced operation times it at points inside
itself (see op.py), and every time is reported scaled to a machine on which
one loop takes REF_NOMINAL_S: the time of each stretch of the operation
between two such points is multiplied by REF_NOMINAL_S / (mean of the
median loop times at its two ends), and the points' own time is left out.
wall_s, setup_s and rounds_per_s are computed from these scaled times. The
CPUs of a VM do not drift together, so this process and every operation it
starts are pinned to one CPU, the first one the benchmark may use. The
unscaled medians are printed as text lines and kept in the run record.

--trace 1 alternates untraced and traced operations of the same seed for
S seconds (at least one pair), requires equal output digests, and prints the
per-layer metrics computed from the traced operations' spans, as medians,
together with the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The full record (environment, every operation, spans)
is written under .perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import op
import spans

ROOT = Path(__file__).resolve().parent.parent
OP = Path(__file__).resolve().parent / "op.py"
WORK = ROOT / ".perfbench"
BLAS_THREADS = "1"      # pinned so both sides of a comparison use the same count
SETUP_SAMPLES = 3       # set-up is timed at least this often in a run
IMPORT_SAMPLES = 3
RUN_BUDGET_S = 165.0    # every run has to exit within 180 s
CPU = min(os.sched_getaffinity(0))
REF_CHUNKS = 8
REF_NOMINAL_S = 0.020   # about the fastest op.reference_loop ran on a 2-vCPU Xeon VM
SUITES = spans.SUITE_NAMES

# Why these four (see BENCHMARK.json): oracle-gap spends its time in the
# per-round sampler loop, spectral-setup in the dense psi2 sum during set-up,
# star-skew in the padded row layout and memory, verify-suites in the traced
# routing path, step_naive and the verify module. Trial counts are chosen so
# that a run of 30 s holds several operations and, in spectral-setup, so that
# stepping lasts long enough for rounds_per_s to be steadier than set-up.
SIZES = {
    "oracle-gap": dict(graph="cycle:64", loads="point:1000", steps="auto", stride=0,
                       trials=8, column="viol_thm3"),
    "spectral-setup": dict(graph="hypercube:9", loads="random:32768:{seed}", steps="200",
                           stride=1, trials=32, column="viol_disc"),
    "star-skew": dict(n=2048, loads="random:32768:{seed}", rounds=20, trials=2),
    "verify-suites": dict(suites=SUITES),
}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "rounds_per_s": "1/s", "peak_rss_mb": "MB"}


class CheckFailed(Exception):
    pass


def op_args(name: str, size: dict, seed: int, out: Path) -> list[str]:
    """op.py arguments (after --marks/--setup-only/--trace) for one operation."""
    if name == "star-skew":
        return ["star", str(size["n"]), size["loads"].format(seed=seed), str(size["rounds"]),
                str(size["trials"]), str(seed)]
    if name == "verify-suites":
        only = [] if size["suites"] == SUITES else [a for s in size["suites"] for a in ("--suite", s)]
        return ["--count-steps", "cli", "verify", *only, "--seed", str(seed)]
    return ["cli", "simulate", "--graph", size["graph"], "--matrix", "lazy-rw",
            "--algorithm", "alg2-batch", "--loads", size["loads"].format(seed=seed),
            "--steps", size["steps"], "--stride", str(size["stride"]),
            "--trials", str(size["trials"]), "--seed", str(seed), "--jobs", "1", "--out", str(out)]


def check_output(name: str, size: dict, rec: dict, out: Path) -> tuple[str, int]:
    """Raise CheckFailed unless the operation's output is right; else return
    (output digest, sampler rounds the operation ran)."""
    marks = rec["marks"]
    if name == "star-skew":
        if marks["problems"]:
            raise CheckFailed(marks["problems"][0])
        return marks["digest"], size["trials"] * size["rounds"]
    if name == "verify-suites":
        lines = rec["stdout"].splitlines()
        for suite in size["suites"]:
            if not any(ln.startswith(f"[PASS] {suite}:") for ln in lines):
                raise CheckFailed(f"suite {suite} did not print [PASS]")
        return hashlib.sha256(rec["stdout"].encode()).hexdigest(), marks["steps"]

    text = out.read_text()
    header = [ln for ln in text.splitlines() if ln.startswith("# resolved_steps=")]
    if not header:
        raise CheckFailed("CSV has no resolved_steps line")
    T = int(header[0].split()[1].split("=")[1])
    rows = list(csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("#")))
    stride, trials = size["stride"], size["trials"]
    per_trial = len(set(range(0, T + 1, stride)) | {0, T}) if stride else len({0, T})
    if len(rows) != trials * per_trial:
        raise CheckFailed(f"{len(rows)} CSV rows, expected {trials} x {per_trial}")
    final = [r for r in rows if int(r["t"]) == T]
    ok = sum(r[size["column"]] == "0" for r in final)
    if len(final) != trials or ok < 0.95 * trials:
        raise CheckFailed(f"{size['column']}=0 on {ok} of {len(final)} final rows, need 95%")
    return hashlib.sha256(text.encode()).hexdigest(), trials * T


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def scaled_time(knots: list, t: float) -> float:
    """Operation time from the first knot to `t`, scaled to REF_NOMINAL_S.
    A knot is [start, end, loop time] of one reference point; the time
    between two knots counts at the mean loop time of the two."""
    total = 0.0
    for (_, lo, ref0), (hi, _, ref1) in zip(knots, knots[1:]):
        if t > lo:
            total += (min(t, hi) - lo) * 2 * REF_NOMINAL_S / (ref0 + ref1)
    return total


def launch(op: list[str], deadline: float) -> tuple[dict, float]:
    """Run op.py once; returns (record, spawn time on CLOCK_MONOTONIC)."""
    marks = WORK / "marks.json"
    marks.unlink(missing_ok=True)
    cmd = [sys.executable, str(OP), "--marks", str(marks), *op]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        code, stdout, stderr = -1, "", "timed out"
    wall = time.monotonic() - t0
    m = json.loads(marks.read_text()) if marks.exists() else {}
    return {"code": code, "wall_s": wall, "stdout": stdout, "stderr": stderr, "marks": m}, t0


def run_op(name: str, size: dict, seed: int, deadline: float, *, setup_only: bool = False,
           trace: Path | None = None) -> dict:
    out = WORK / f"{name}.csv"
    flags = (["--setup-only"] if setup_only else []) + (["--trace", str(trace)] if trace else [])
    start = time.monotonic()
    ref_before = statistics.median(op.reference_loop() for _ in range(REF_CHUNKS))
    rec, t0 = launch(flags + op_args(name, size, seed, out), deadline)
    ref_after = statistics.median(op.reference_loop() for _ in range(REF_CHUNKS))
    rec["cycle_s"] = time.monotonic() - start
    m = rec["marks"]
    end = t0 + rec["wall_s"]
    points = m.get("refs", [])
    knots = [[t0, t0, ref_before], *points, [end, end, ref_after]]
    rec["ref_s"] = statistics.median(k[2] for k in knots)
    rec["wall_s"] -= sum(hi - lo for lo, hi, _ in points)
    rec["wall_scaled_s"] = scaled_time(knots, end)
    rec["setup_s"] = m["setup_end"] - t0 if "setup_end" in m else None
    if rec["setup_s"] is not None:
        rec["setup_scaled_s"] = scaled_time(knots, m["setup_end"])
    rec["peak_rss_mb"] = m.get("rss_kb", 0) / 1024.0
    rec["ok"] = rec["code"] == 0 and rec["setup_s"] is not None
    if rec["ok"] and not setup_only:
        try:
            rec["digest"], rec["rounds"] = check_output(name, size, rec, out)
            if name in ("oracle-gap", "spectral-setup"):
                rec["csv_bytes"] = out.stat().st_size
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            rec["ok"], rec["error"] = False, f"{type(exc).__name__}: {exc}"
    elif not rec["ok"]:
        rec["error"] = f"exit code {rec['code']}: {rec['stderr'].strip()[-300:]}"
    return rec


def probe_import(module: str, deadline: float) -> dict:
    rec, _ = launch(["import", module], deadline)
    if rec["code"] != 0 or "import_s" not in rec["marks"]:
        raise CheckFailed(f"import {module} failed: {rec['stderr'].strip()[-300:]}")
    return rec["marks"]


def environment(probe: dict, args, size: dict) -> dict:
    env = {
        "nproc": os.cpu_count(), "cpu_model": "unknown", "caches": {},
        "python": platform.python_version(), "numpy": probe.get("numpy"),
        "scipy": probe.get("scipy"), "openblas": probe.get("blas"),
        "blas_threads": BLAS_THREADS, "cpu": CPU, "git_commit": "unknown (not a git checkout)",
        "reference_loop": {"iterations": op.REF_ITERATIONS, "around_operation": REF_CHUNKS,
                           "per_point": op.REF_POINT_LOOPS, "every_s": op.REF_EVERY_S,
                           "nominal_s": REF_NOMINAL_S},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": size,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, sz = ((idx / f).read_text().strip() for f in ("level", "type", "size"))
            env["caches"][f"L{level}-{kind}"] = sz
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if git.returncode == 0:
            env["git_commit"] = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def fail_digest_mismatches(ops: list[dict]) -> None:
    """Every operation of a run uses the run's seed, so every output digest
    has to equal the first one (this also holds traced against untraced)."""
    digests = [o["digest"] for o in ops if o.get("digest")]
    for o in ops:
        if o.get("digest") and o["digest"] != digests[0]:
            o["ok"], o["error"] = False, "output digest differs from the run's first operation"


def end_to_end(name: str, size: dict, seed: int, seconds: float, deadline: float):
    """Closed loop for `seconds`, then set-up-only processes until set-up has
    been timed SETUP_SAMPLES times. Returns (records, metrics)."""
    stop = min(time.monotonic() + seconds, deadline)
    ops = []
    while True:
        ops.append(run_op(name, size, seed, deadline))
        typical = _median([o["cycle_s"] for o in ops])
        if time.monotonic() + typical > stop:
            break
    fail_digest_mismatches(ops)
    setups = [o for o in ops if o["ok"]]
    for _ in range(SETUP_SAMPLES - len(setups)):
        if time.monotonic() + 2 * _median([o["cycle_s"] for o in setups]) > deadline:
            break
        rec = run_op(name, size, seed, deadline, setup_only=True)
        ops.append(rec)
        if rec["ok"]:
            setups.append(rec)
    full = [o for o in ops if o["ok"] and "rounds" in o]
    metrics = {
        "wall_s": _median([o["wall_scaled_s"] for o in full]),
        "setup_s": _median([o["setup_scaled_s"] for o in setups]),
        "rounds_per_s": _median([o["rounds"] / (o["wall_scaled_s"] - o["setup_scaled_s"])
                                 for o in full]),
        "peak_rss_mb": _median([o["peak_rss_mb"] for o in full]),
    }
    unscaled = {
        "wall_s": _median([o["wall_s"] for o in full]),
        "setup_s": _median([o["setup_s"] for o in setups]),
        "ref_s": _median([o["ref_s"] for o in ops]),
    }
    return ops, metrics, unscaled


def per_layer(name: str, size: dict, seed: int, seconds: float, deadline: float, entry: str):
    """Pairs of an untraced and a traced operation of one seed for `seconds`,
    at least one pair, the order alternating from pair to pair. Per-layer
    metrics are medians over the traced operations; the tracing overhead is
    the median over pairs of traced minus untraced wall time, both scaled
    to the reference speed like wall_s.
    Returns (records, metrics)."""
    imports = [probe_import(entry, deadline)["import_s"] for _ in range(IMPORT_SAMPLES)]
    stop = min(time.monotonic() + seconds, deadline)
    ops, pairs = [], []
    while True:
        spans_path = WORK / f"{name}-seed{seed}-pair{len(pairs)}.spans.json"
        spans_path.unlink(missing_ok=True)
        pair = {}
        for traced in (False, True) if len(pairs) % 2 == 0 else (True, False):
            pair[traced] = run_op(name, size, seed, deadline,
                                  trace=spans_path if traced else None)
        ops += pair.values()
        pairs.append((pair[False], pair[True], spans_path))
        if time.monotonic() + pair[False]["cycle_s"] + pair[True]["cycle_s"] > stop:
            break
    fail_digest_mismatches(ops)
    good = [(base, traced, path) for base, traced, path in pairs if base["ok"] and traced["ok"]]
    metrics: dict[str, tuple[float, str]] = {}
    if good:
        layers = [spans.layer_metrics(json.loads(path.read_text())) for _, _, path in good]
        metrics = {k: (_median([m[k][0] for m in layers]), unit)
                   for k, (_, unit) in layers[0].items()}
        metrics["harness.csv_bytes"] = (_median([t.get("csv_bytes", 0) for _, t, _ in good]),
                                        "bytes")
        metrics["trace.overhead_s"] = (
            _median([t["wall_scaled_s"] - b["wall_scaled_s"] for b, t, _ in good]), "s")
    metrics["cli.import_s"] = (_median(imports), "s")
    return ops, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "diffusim" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no diffusim sources under {ROOT / 'src'}; "
                         "run from a full source checkout\n")
        return 2
    WORK.mkdir(exist_ok=True)
    os.sched_setaffinity(0, {CPU})  # operations inherit it
    name = args.workload
    size = SIZES[name]
    entry = "diffusim.harness" if name == "star-skew" else "diffusim.cli"

    try:
        probe = probe_import(entry, deadline)  # also the warm-up: byte code, page cache
    except CheckFailed as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    env = environment(probe, args, size)
    unscaled = {}
    if args.trace:
        ops, metrics = per_layer(name, size, args.seed, args.seconds, deadline, entry)
    else:
        ops, raw, unscaled = end_to_end(name, size, args.seed, args.seconds, deadline)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in raw.items()}
    failed = sum(not o["ok"] for o in ops)

    print("env " + json.dumps(env, sort_keys=True))
    for o in ops:
        if not o["ok"]:
            print(f"FAILED operation: {o.get('error')}")
    walls = sorted(o["wall_s"] for o in ops if o["ok"] and "rounds" in o)
    if walls:
        print(f"operations: {len(walls)} full, unscaled wall_s min {walls[0]:.4f} "
              f"median {statistics.median(walls):.4f} max {walls[-1]:.4f}")
    for key, value in sorted(unscaled.items()):
        print(f"unscaled {key} = {value:.6g} s")
    for key, (value, unit) in sorted(metrics.items()):
        print(f"{key} = {value:.6g} {unit}")
    print(f"failed_frac = {failed}/{len(ops)} = {failed / len(ops):.4g}")
    record = {"env": env, "metrics": metrics, "unscaled": unscaled, "failed": failed,
              "ops": [{k: v for k, v in o.items() if k not in ("stdout",)} for o in ops]}
    (WORK / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
