#!/usr/bin/env python3
"""Time the sampler round layer by layer and print one JSON line.

    python3 scripts/bench_round.py

The process pins itself to one CPU, the first one it may use, builds every
case below, then times the cases in interleaved repeats (each repeat times
every case once, so a drift in CPU speed reaches all cases alike) and prints
the median microseconds per call (per round for block_rows_us) over the repeats:

  block_us        one round of alg2-batch's block stepper
                  (discrete._batch_block) on a block of B trials, stepped
                  from the same loads every call:
                    spectral-setup  hypercube:9 lazy-rw, B = 3, random:32768:1
                    oracle-gap      cycle:64 lazy-rw, B = 8, point:1000 after
                                    300 rounds
                    hypercube:12    lazy-rw, B = 1, random:262144:1
                    cycle:4096      lazy-rw, B = 1, uniform:4096 (one token a
                                    vertex: every window holds two cuts)
                    star:2048       metropolis, B = 2, random:32768:1
                    star:50         metropolis, B = 40, point:3
  step_batch_us   one one-trial step_batch call on cycle:n lazy-rw from
  step_naive_us   uniform:16n, n = 64, 1024 and 16384.
  verify_us       one one-trial round of the kinds `diffusim verify` runs
                  tens of thousands of:
                    expectation     step_naive on complete:3 lazy-rw from
                                    [30, 0, 0] (the expectation suite)
                    lemmas          step_batch with trace=True on cycle:16
                                    lazy-rw from point:160 (the lemma suite)
                    lemma_check     one verify._trace_violations pass over
                                    the lemma suite's first chunk of those
                                    rounds at seed 0, as the suite checks it
  block_rows_us   one round of harness._block_rows (the lockstep trial
                  loop: checks, records and CSV lines, plus the alg2-batch
                  stepper), a whole block of T + 1 rounds per call:
                    oracle-gap      cycle:64 lazy-rw, B = 8, point:1000,
                                    T = 5173 (auto), stride 0
                    spectral-setup  hypercube:9 lazy-rw, B = 3,
                                    random:32768:1, T = 200, stride 1
                    criterion-3     cycle:64 lazy-rw, B = 85, point:1000,
                                    T = 5173 (auto), stride 0

spectral-setup and oracle-gap are the blocks those perfbench workloads step;
criterion-3 is a full block of the acceptance run's 200 trials.

It also prints, as process_ms, the median milliseconds of one fresh
interpreter (on the same CPU, with PYTHONPATH=src) that runs
`import diffusim.cli`, timed once in every repeat:

  code            from spawning it to the end of its code: interpreter and
                  site start, importing numpy and diffusim (compiling
                  diffusim's sources too when it has no valid byte code,
                  as under PYTHONDONTWRITEBYTECODE=1 without __pycache__)
  exit            from there until it has exited: interpreter shutdown
"""
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from diffusim import discrete, harness, verify  # noqa: E402

REPEATS = 11
TARGET_S = 0.05  # each timing runs about this long

BLOCKS = {  # name: (graph, matrix, B, loads, rounds stepped before timing)
    "spectral-setup": ("hypercube:9", "lazy-rw", 3, "random:32768:1", 0),
    "oracle-gap": ("cycle:64", "lazy-rw", 8, "point:1000", 300),
    "hypercube:12": ("hypercube:12", "lazy-rw", 1, "random:262144:1", 0),
    "cycle:4096": ("cycle:4096", "lazy-rw", 1, "uniform:4096", 0),
    "star:2048": ("star:2048", "metropolis", 2, "random:32768:1", 0),
    "star:50": ("star:50", "metropolis", 40, "point:3", 0),
}
STEP_SIZES = (64, 1024, 16384)
VERIFY_ROUNDS = {  # name: (graph, loads, sampler, trace)
    "expectation": ("complete:3", [30, 0, 0], discrete.step_naive, False),
    "lemmas": ("cycle:16", [160] + [0] * 15, discrete.step_batch, True),
}
BLOCK_ROWS = {  # name: the spec of one block, its trials being B
    "oracle-gap": dict(graph="cycle:64", loads="point:1000", stride=0, trials=8, seed=1),
    "spectral-setup": dict(graph="hypercube:9", loads="random:32768:1", steps="200", trials=3, seed=1),
    "criterion-3": dict(graph="cycle:64", loads="point:1000", stride=0, trials=85, seed=11),
}
PROCESS_CODE = "import time\nimport diffusim.cli\nprint(time.monotonic())"


def block_case(graph: str, matrix: str, B: int, preset: str, warm: int):
    g = harness.build_graph(graph)
    P = harness.build_matrix(matrix, g)
    step = discrete._batch_block(P, g, [harness.trial_rng(1, b) for b in range(B)])
    loads = np.tile(harness.build_loads(preset, P.n).loads, B)
    for _ in range(warm):
        loads = step(loads)
    return lambda: step(loads)


def step_case(sampler, n: int):
    P = harness.build_matrix("lazy-rw", harness.build_graph(f"cycle:{n}"))
    x, rng = discrete.uniform_config(n, 16 * n), np.random.default_rng(1)
    return lambda: sampler(x, P, rng)


def verify_case(graph: str, loads: list, sampler, trace: bool):
    P = harness.build_matrix("lazy-rw", harness.build_graph(graph))
    x, rng = discrete.LoadConfig.from_loads(loads), np.random.default_rng(1)
    return lambda: sampler(x, P, rng, trace=trace)


def lemma_check_case():
    """The lemma suite's first side-by-side pass, captured from a seed-0 run
    of its first fuzz case and replayed on the same traces."""
    real, first = verify._trace_violations, []

    def capture(P, traces):
        first.append((P, list(traces)))
        return real(P, traces)

    verify._trace_violations = capture
    try:
        verify.suite_lemmas(seed=0, min_vertex_steps=1)
    finally:
        verify._trace_violations = real
    P, traces = first[0]
    return lambda: real(P, traces)


def block_rows_case(**spec):
    res = harness.resolve(harness.ExperimentSpec(**spec))
    return lambda: harness._block_rows(res, 0, spec["trials"]), res.T + 1


def process_ms() -> tuple[float, float]:
    """One fresh interpreter that imports diffusim.cli: ms from its spawn to
    the end of its code, and from there to its exit (CLOCK_MONOTONIC is one
    clock for every process)."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", PROCESS_CODE], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    t2 = time.monotonic()
    t1 = float(proc.stdout)
    return (t1 - t0) * 1e3, (t2 - t1) * 1e3


def calls_per_timing(fn) -> int:
    t = time.perf_counter()
    fn()
    return max(1, int(TARGET_S / max(time.perf_counter() - t, 1e-7)))


def main() -> int:
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    cases = {("block_us", name): (block_case(*spec), 1) for name, spec in BLOCKS.items()}
    for key, sampler in (("step_batch_us", discrete.step_batch), ("step_naive_us", discrete.step_naive)):
        cases.update({(key, str(n)): (step_case(sampler, n), 1) for n in STEP_SIZES})
    cases.update({("verify_us", name): (verify_case(*spec), 1) for name, spec in VERIFY_ROUNDS.items()})
    cases[("verify_us", "lemma_check")] = (lemma_check_case(), 1)
    cases.update({("block_rows_us", name): block_rows_case(**spec) for name, spec in BLOCK_ROWS.items()})
    calls = {key: calls_per_timing(fn) for key, (fn, _) in cases.items()}
    times = {key: [] for key in cases}
    processes = []
    for _ in range(REPEATS):
        for key, (fn, rounds) in cases.items():
            t = time.perf_counter()
            for _ in range(calls[key]):
                fn()
            times[key].append((time.perf_counter() - t) / (calls[key] * rounds) * 1e6)
        processes.append(process_ms())
    out = {"python": platform.python_version(), "numpy": np.__version__, "cpu": cpu, "repeats": REPEATS}
    for (group, name), ts in times.items():
        out.setdefault(group, {})[name] = round(statistics.median(ts), 2)
    out["process_ms"] = {name: round(statistics.median(ts), 2)
                         for name, ts in zip(("code", "exit"), zip(*processes))}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
