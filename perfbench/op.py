"""One benchmark operation, run in a fresh interpreter by run.py.

    python perfbench/op.py --marks M.json [--setup-only] [--count-steps] [--trace S.json] cli ARGS...
    python perfbench/op.py --marks M.json [--setup-only] [--trace S.json] star N PRESET ROUNDS TRIALS SEED
    python perfbench/op.py --marks M.json import MODULE

`cli` runs `diffusim.cli.main(ARGS)`, which is what `python -m diffusim ARGS`
runs. `star` is the library session of the star-skew workload. `import`
times one import of MODULE and records the numpy, scipy and BLAS versions.

The marks file receives the CLOCK_MONOTONIC time at which set-up ended
(comparable with the parent's clock; set-up ends when `harness.resolve`
returns, when the first verify suite starts, or when the star-skew oracle is
ready), the peak RSS, the number of sampler rounds with --count-steps, and
for `star` the result digest and the output check. With --setup-only the
process exits as soon as set-up ends. With --trace the layer modules are
wrapped by spans.Recorder and the spans are written to the given file at
the end; a step counter would sit between a sampler span and its parent,
so a traced run counts sampler rounds from the spans instead.

An untraced operation also times the reference loop (see run.py) at points
inside itself: when set-up ends, and then at the start of a trial, of a
verify suite or (with --count-steps) of a sampler round once REF_EVERY_S
has passed since the last point. The marks file lists each point as
[start, end, median loop time]; run.py takes the points' time out of the
operation's and scales each stretch between two points by the speed
measured at its ends.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time

import spans  # perfbench/spans.py: sys.path[0] is this directory

REF_ITERATIONS = 300_000  # one reference loop: about 20-30 ms on a 2-vCPU Xeon VM
REF_POINT_LOOPS = 4       # loops timed at one point inside an operation
REF_EVERY_S = 1.0


def reference_loop() -> float:
    """Time one fixed pure-Python loop: the CPU speed the process gets now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--marks", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--count-steps", action="store_true")
    ap.add_argument("--trace")
    ap.add_argument("mode", choices=("cli", "star", "import"))
    ap.add_argument("args", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    marks: dict = {}

    def finish() -> None:
        marks["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(opts.marks, "w") as fh:
            json.dump(marks, fh)

    refs = marks.setdefault("refs", [])

    def ref_point(force: bool = False) -> None:
        if opts.trace or "setup_end" not in marks:
            return
        if not force and time.monotonic() - refs[-1][1] < REF_EVERY_S:
            return
        start = time.monotonic()
        loop_s = statistics.median(reference_loop() for _ in range(REF_POINT_LOOPS))
        refs.append([start, time.monotonic(), loop_s])

    def end_setup() -> None:
        if "setup_end" in marks:
            ref_point()
            return
        marks["setup_end"] = time.monotonic()
        if opts.setup_only:
            finish()
            os._exit(0)
        ref_point(force=True)

    if opts.mode == "import":
        t0 = time.perf_counter()
        importlib.import_module(opts.args[0])
        marks["import_s"] = time.perf_counter() - t0
        import numpy
        import scipy

        marks["numpy"] = numpy.__version__
        marks["scipy"] = scipy.__version__
        marks["blas"] = numpy.__config__.CONFIG["Build Dependencies"]["blas"].get("version")
        finish()
        return 0

    # The CLI entry imports every layer; star-skew imports only what it calls.
    importlib.import_module("diffusim.cli" if opts.mode == "cli" else "diffusim.harness")
    harness = sys.modules["diffusim.harness"]
    verify = sys.modules.get("diffusim.verify")

    recorder = spans.Recorder() if opts.trace else None
    if recorder is not None:
        recorder.install()

    def after(fn, hook):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            out = fn(*args, **kwargs)
            hook()
            return out
        return hooked

    def before(fn, hook):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            hook()
            return fn(*args, **kwargs)
        return hooked

    spans.replace_everywhere(harness.resolve, after(harness.resolve, end_setup))
    if recorder is None:
        spans.replace_everywhere(harness.trial_rng, before(harness.trial_rng, ref_point))
    if verify is not None:
        for suite in list(verify.SUITES.values()):
            spans.replace_everywhere(suite, before(suite, end_setup))
    if opts.count_steps and recorder is None:  # traced: counted from the spans
        marks["steps"] = 0

        def count() -> None:
            marks["steps"] += 1
            ref_point()

        for name in ("step_batch", "step_naive"):
            fn = getattr(sys.modules["diffusim.discrete"], name)
            spans.replace_everywhere(fn, before(fn, count))

    if opts.mode == "cli":
        code = sys.modules["diffusim.cli"].main(opts.args)
    else:
        code = run_star(opts.args, marks, end_setup)

    if recorder is not None:
        if opts.count_steps:
            marks["steps"] = recorder.step_calls()
        with open(opts.trace, "w") as fh:
            json.dump(recorder.dump(), fh)
    finish()
    return code


def run_star(args, marks, end_setup) -> int:
    """gen_star + Metropolis + random loads + oracle, then seeded trials."""
    from diffusim import continuous, discrete, graphs, harness, matrices

    n, preset, rounds, trials, seed = int(args[0]), args[1], int(args[2]), int(args[3]), int(args[4])
    g = graphs.gen_star(n)
    P = matrices.metropolis_matrix(g)
    x0 = discrete.config_from_preset(preset, n)
    continuous.continuous_run(x0.loads, P, rounds)
    end_setup()
    digest = hashlib.sha256()
    problems = []
    for trial in range(trials):
        traj = discrete.run(x0, P, rounds, harness.trial_rng(seed, trial))
        for t, cfg in enumerate(traj):
            if int(cfg.loads.sum()) != x0.total or int(cfg.loads.min()) < 0:
                problems.append(f"trial {trial} round {t}: total or sign broken")
        digest.update(traj[-1].loads.tobytes())
    marks["digest"] = digest.hexdigest()
    marks["problems"] = problems
    return 0


if __name__ == "__main__":
    sys.exit(main())
