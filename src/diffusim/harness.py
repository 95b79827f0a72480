"""Experiment runner: seeded multi-trial simulations, bounds, CSV emission.

Reproducibility contract: an identical ExperimentSpec (including the master
seed) produces byte-identical CSV, regardless of --jobs. Per-trial
generators derive from SeedSequence([master_seed, trial_index]) so growing
the trial count never reshuffles earlier trials. Trials step in lockstep
blocks, each trial drawing only from its own generator, so neither the block
size nor --jobs (which maps blocks onto processes) changes a byte.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis, discrete, graphs, matrices
from .errors import DiffusimError, SizeLimitError, ValidationError

CSV_HEADER = "trial,t,disc,max_dev,bound_thm3,bound_thm1_or_2,viol_thm3,viol_disc"
# Trials step in lockstep blocks of B = max(1, BLOCK_ENTRIES // nnz) trials:
# spectral-setup's 32 trials on hypercube:9 ran within ~5 % of each other from
# B = 3 to B = 25 and about 25 % slower at B = 1. A block checks and records
# its rounds K = max(1, BLOCK_ENTRIES // (B * n)) at a time, from a buffer of
# at most BLOCK_ENTRIES int64 loads (128 KiB) when B * n fits.
BLOCK_ENTRIES = 2**14
# resolve holds the oracle x0 P^t as one float64 row per recorded t: refused
# when those rows would need more than this many bytes.
ORACLE_BYTES_LIMIT = 2**28
# resolve steps the oracle to T before any trial, so a larger T is refused.
MAX_STEPS = 10**9
# simulate lists its blocks of trials before the first one runs, and --jobs
# submits them all to the pool at once, so a larger trial count is refused.
MAX_TRIALS = 10**6


@dataclass
class ExperimentSpec:
    graph: str
    matrix: str = "lazy-rw"
    algorithm: str = discrete.DEFAULT_ALGORITHM
    loads: str = "point:1000"
    steps: str = "auto"        # "auto" or a decimal step count
    trials: int = 1
    seed: int = 0
    stride: int = 1            # 0 records only t=0 and t=T
    jobs: int = 1

    def echo(self) -> str:
        return (f"graph={self.graph} matrix={self.matrix} algorithm={self.algorithm} "
                f"loads={self.loads} steps={self.steps} trials={self.trials} "
                f"seed={self.seed} stride={self.stride}")


def build_graph(spec: str) -> graphs.Graph:
    """Parse a graph spec: generator:params or file:PATH."""
    name, _, rest = spec.partition(":")
    try:
        if name == "file":
            return graphs.load_edge_list(Path(rest).read_text())
        params = [int(p) for p in rest.split(":")] if rest else []
        if name == "cycle" and len(params) == 1:
            return graphs.gen_cycle(params[0])
        if name == "hypercube" and len(params) == 1:
            return graphs.gen_hypercube(params[0])
        if name == "star" and len(params) == 1:
            return graphs.gen_star(params[0])
        if name == "complete" and len(params) == 1:
            return graphs.gen_complete(params[0])
        if name == "torus" and len(params) == 2:
            return graphs.gen_torus(params[0], params[1])
        if name == "random-regular" and len(params) == 3:
            if params[2] < 0:
                raise ValidationError(f"seed in {spec!r} must be >= 0, got {params[2]}")
            return graphs.gen_random_regular(params[0], params[1], params[2])
    except ValueError as exc:
        if isinstance(exc, DiffusimError):
            raise
        raise ValidationError(f"bad graph spec {spec!r}: {exc}") from None
    raise ValidationError(
        f"unknown graph spec {spec!r}; expected cycle:N, hypercube:DIM, star:N, "
        f"complete:N, torus:A:B, random-regular:N:D:SEED or file:PATH"
    )


# The chains built from the graph; Theorems 1 and 2 speak of these only.
_GRAPH_CHAINS = {"lazy-rw": matrices.lazy_rw_matrix, "metropolis": matrices.metropolis_matrix}


def build_matrix(kind: str, g: graphs.Graph | None) -> matrices.RoundMatrix:
    """lazy-rw | metropolis | file:PATH."""
    if kind in _GRAPH_CHAINS:
        if g is None:
            raise ValidationError(f"{kind} matrix needs a graph")
        return _GRAPH_CHAINS[kind](g)
    name, _, rest = kind.partition(":")
    if name == "file":
        P = matrices.matrix_from_text(Path(rest).read_text())
        if g is not None and g.n != P.n:
            raise ValidationError(f"graph has {g.n} vertices but matrix has {P.n}")
        return P
    raise ValidationError(f"unknown matrix kind {kind!r}; expected lazy-rw, metropolis or file:PATH")


def build_loads(preset: str, n: int) -> discrete.LoadConfig:
    name, _, rest = preset.partition(":")
    if name == "file":
        cfg = discrete.parse_loads_text(Path(rest).read_text())
        if cfg.n != n:
            raise ValidationError(f"load file has {cfg.n} lines, graph has {n} vertices")
        return cfg
    return discrete.config_from_preset(preset, n)


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master_seed, trial_index]))


def _check_algorithm(algorithm: str, g: graphs.Graph | None) -> None:
    """ValidationError unless the algorithm is in the registry and, for a
    baseline, the graph is given and regular."""
    make = discrete.ALGORITHMS.get(algorithm)
    if make is None:
        raise ValidationError(f"unknown algorithm {algorithm!r}; choose from {tuple(discrete.ALGORITHMS)}")
    if isinstance(make, discrete.Baseline):
        if g is None:
            raise ValidationError(f"algorithm {algorithm} needs a graph")
        g.regular_degree()  # raises "graph is not regular"


@dataclass
class ResolvedExperiment:
    spec: ExperimentSpec
    graph: graphs.Graph | None
    matrix: matrices.RoundMatrix
    x0: discrete.LoadConfig
    T: int
    stride: int                   # resolved: t is recorded when t % stride == 0 or t == T
    oracle: np.ndarray            # read-only; row -(-t // stride) is x0 P^t
    lam: float | None
    psi2: float | None
    bound3: float | None
    bound12: float | None
    bound12_name: str
    unavailable: dict[str, str]   # blank header quantity -> why it is blank


def _available(name: str, quantity, P: matrices.RoundMatrix, unavailable: dict[str, str]):
    """quantity(P), or None with the DiffusimError's text kept as unavailable[name]."""
    try:
        return quantity(P)
    except DiffusimError as exc:
        unavailable[name] = str(exc)
        return None


def resolve(spec: ExperimentSpec) -> ResolvedExperiment:
    if spec.trials < 1:
        raise ValidationError(f"trials must be >= 1, got {spec.trials}")
    if spec.trials > MAX_TRIALS:
        raise SizeLimitError(f"{spec.trials} trials are above the cap of {MAX_TRIALS}; lower --trials")
    if spec.stride < 0:
        raise ValidationError(f"stride must be >= 0, got {spec.stride}")
    if spec.jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {spec.jobs}")
    if spec.seed < 0:
        raise ValidationError(f"seed must be >= 0, got {spec.seed}")
    if spec.steps != "auto":
        try:
            T = int(spec.steps)
        except ValueError:
            raise ValidationError(f"steps must be an integer or 'auto', got {spec.steps!r}") from None
        if T < 0:
            raise ValidationError(f"steps must be >= 0, got {T}")
    g = build_graph(spec.graph) if spec.graph else None
    P = build_matrix(spec.matrix, g)
    _check_algorithm(spec.algorithm, g)
    x0 = build_loads(spec.loads, P.n)

    unavailable: dict[str, str] = {}
    lam = _available("lambda", matrices.second_eigenvalue, P, unavailable)
    if spec.steps == "auto":
        disc0 = analysis.discrepancy(x0.loads)
        T = 0
        if disc0 > 0:
            if lam is None:
                raise ValidationError(f"steps=auto needs lambda: {unavailable['lambda']}")
            T = analysis.convergence_time(P, disc0, 1.0, lam=lam)

    stride = spec.stride or max(T, 1)  # stride 0 records only t=0 and t=T
    recorded = -(-T // stride) + 1
    if recorded * P.n * 8 > ORACLE_BYTES_LIMIT:
        raise SizeLimitError(
            f"{recorded} recorded steps of the n={P.n} oracle need {recorded * P.n * 8} bytes, "
            f"above the cap of {ORACLE_BYTES_LIMIT}; raise --stride or lower --steps")
    if T > MAX_STEPS:
        raise SizeLimitError(f"{T} steps are above the cap of {MAX_STEPS}; lower --steps")
    oracle = np.empty((recorded, P.n))
    oracle[0] = x0.loads
    for i in range(1, recorded):  # row i is t = min(i * stride, T)
        oracle[i] = matrices.power_apply(oracle[i - 1], P, min(i * stride, T) - (i - 1) * stride)
    oracle.flags.writeable = False

    psi2 = _available("psi2", lambda P: analysis.local_p_divergence(P).value, P, unavailable)
    bound3 = None if psi2 is None or P.n < 2 else analysis.bound_theorem3(psi2, P.n)

    bound12, bound12_name = None, ""
    if spec.matrix not in _GRAPH_CHAINS:
        unavailable["bound_thm1_or_2"] = "Theorems 1 and 2 bound only a graph's lazy-rw and metropolis chains"
    elif spec.matrix == "lazy-rw":
        bound12 = analysis.bound_theorem1(g.regular_degree(), P.n)
        bound12_name = "thm1"
    else:
        bound12 = analysis.bound_theorem2(g.d_max, P.n)
        bound12_name = "thm2"

    return ResolvedExperiment(
        spec=spec, graph=g, matrix=P, x0=x0, T=T, stride=stride,
        oracle=oracle, lam=lam, psi2=psi2, bound3=bound3,
        bound12=bound12, bound12_name=bound12_name, unavailable=unavailable,
    )


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.10g}"


def _block_rows(res: ResolvedExperiment, first: int, stop: int) -> list[str]:
    """CSV lines of trials first..stop-1, stepped in lockstep: one string of
    rows per trial, in trial order.

    Each round's loads go into a buffer of K rounds, and every K rounds (and
    at T) the buffered rounds are checked and recorded together. Every round
    checks the block's least load, since no stepper may see a negative load,
    and the block's total: either ends the chunk there, so no load outgrows
    B times a trial's total. A token moved between two trials is found when
    the chunk is checked. The error names the earliest step, and in it the
    first trial, whose total or least load is off.
    """
    B, n, total, T, stride = stop - first, res.matrix.n, res.x0.total, res.T, res.stride
    block_total = B * total
    rngs = [trial_rng(res.spec.seed, trial) for trial in range(first, stop)]
    step = discrete.ALGORITHMS[res.spec.algorithm](res.matrix, res.graph, rngs)
    recorded = len(res.oracle)
    ts = np.minimum(np.arange(recorded) * stride, T)  # the step of each recorded row
    disc = np.empty((B, recorded), dtype=np.int64)
    dev = np.empty((B, recorded))
    loads = np.tile(res.x0.loads, B)
    buffer = np.empty((max(1, BLOCK_ENTRIES // loads.size), loads.size), dtype=np.int64)
    for t0 in range(0, T + 1, len(buffer)):
        rounds = buffer[:T + 1 - t0]
        for t, row in zip(range(t0, T + 1), rounds):
            if t:
                loads = step(loads)
            row[...] = loads
            if np.minimum.reduce(loads) < 0 or np.add.reduce(loads) != block_total:
                rounds = rounds[:t - t0 + 1]
                break
        X = rounds.reshape(len(rounds), B, n)  # (round, trial, vertex)
        sums = np.add.reduce(X, axis=2)
        if np.logical_or.reduce(sums != total, axis=None) or np.minimum.reduce(loads) < 0:
            s, b = np.argwhere((sums != total) | (X.min(axis=2) < 0))[0].tolist()
            raise ValidationError(f"trial {first + b}, step {t0 + s}: total {int(sums[s, b])} "
                                  f"(expected {total}), least load {int(X[s, b].min())}")
        t1 = t0 + len(rounds)
        i0, i1 = -(-t0 // stride), recorded if t1 > T else -(-t1 // stride)  # rows of steps t0..t1-1
        if i0 < i1:
            R = X[ts[i0:i1] - t0]
            disc[:, i0:i1] = (R.max(axis=2) - R.min(axis=2)).T
            dev[:, i0:i1] = np.abs(R - res.oracle[i0:i1, None]).max(axis=2).T
    viol3 = np.full((B, recorded), "") if res.bound3 is None else (dev > res.bound3).astype(np.int8)
    viol_disc = np.full((B, recorded), "") if res.bound12 is None else (disc > res.bound12).astype(np.int8)
    bounds, steps = f"{_fmt(res.bound3)},{_fmt(res.bound12)}", ts.tolist()
    return ["".join(f"{first + b},{t},{d},{e:.10g},{bounds},{v3},{vd}\n" for t, d, e, v3, vd
                    in zip(steps, disc[b].tolist(), dev[b].tolist(), viol3[b].tolist(), viol_disc[b].tolist()))
            for b in range(B)]


def simulate_to_csv(spec: ExperimentSpec, out: str | Path,
                    unavailable: dict[str, str] | None = None) -> int:
    """Write spec's CSV to out, each block of trials when it ends, and return
    the number of data rows. An error leaves no file: a missing directory and
    bad input are refused before out is opened, and a regular file at out (not
    /dev/null) is removed if anything raises after. A dict passed as
    `unavailable` gets the reason for each blank header quantity."""
    out = Path(out)
    if not out.parent.is_dir():
        raise ValidationError(f"output directory {str(out.parent)!r} does not exist")
    res = resolve(spec)
    if unavailable is not None:
        unavailable.update(res.unavailable)
    header = [
        "# diffusim simulate",
        f"# {spec.echo()}",
        f"# resolved_steps={res.T} n={res.matrix.n}",
        "# log_convention=natural",
        f"# lambda={_fmt(res.lam)} psi2={_fmt(res.psi2)} "
        f"bound_thm3={_fmt(res.bound3)} bound_{res.bound12_name or 'thm1_or_2'}={_fmt(res.bound12)}",
        CSV_HEADER,
    ]
    B = max(1, BLOCK_ENTRIES // res.matrix.ends.size)
    firsts = range(0, spec.trials, B)
    blocks = ([res] * len(firsts), firsts, [min(first + B, spec.trials) for first in firsts])
    try:
        with out.open("w") as f:
            f.write("\n".join(header) + "\n")
            # chain lets go of each block's lines before it asks for the next block
            if spec.jobs > 1 and len(firsts) > 1:  # one block runs on one worker: skip the pool
                import concurrent.futures  # here: only the pool needs it, and it loads logging

                with concurrent.futures.ProcessPoolExecutor(max_workers=min(spec.jobs, len(firsts))) as pool:
                    f.writelines(itertools.chain.from_iterable(pool.map(_block_rows, *blocks)))
            else:
                f.writelines(itertools.chain.from_iterable(map(_block_rows, *blocks)))
    except BaseException:
        if out.is_file():
            out.unlink()
        raise
    return spec.trials * len(res.oracle)


def bounds_report(graph_spec: str, matrix_kind: str) -> list[str]:
    """Flat key=value block: chain stats, psi2 (computed and bound forms),
    and every theorem bound that applies; failed hypotheses are named."""
    g = build_graph(graph_spec) if graph_spec else None
    P = build_matrix(matrix_kind, g)
    lines = [f"graph={graph_spec}", f"matrix={matrix_kind}", f"n={P.n}"]
    if g is not None:
        if g.is_regular():
            lines.append(f"d={g.regular_degree()}")
        lines.append(f"d_max={g.d_max}")
    why: dict[str, str] = {}

    def show(label: str, value: float | None) -> str:
        return f"{label}=unavailable ({why[label]})" if value is None else f"{label}={value:.10g}"

    lines.append(show("lambda", _available("lambda", matrices.second_eigenvalue, P, why)))
    rep = _available("psi2_computed", analysis.local_p_divergence, P, why)
    psi2 = None if rep is None else rep.value
    lines.append(show("psi2_computed", psi2))
    if rep is not None:
        lines.append(f"psi2_t_stop={rep.t_stop}")
    for label, fn in (("psi2_bound_symmetric", analysis.psi2_bound_symmetric),
                      ("psi2_bound_reversible", analysis.psi2_bound_reversible)):
        lines.append(show(label, _available(label, fn, P, why)))

    if matrix_kind in _GRAPH_CHAINS:
        if g.is_regular():
            lines.append(f"bound_thm1={analysis.bound_theorem1(g.regular_degree(), P.n):.10g}")
        lines.append(f"bound_thm2={analysis.bound_theorem2(g.d_max, P.n):.10g}")
    if psi2 is not None and P.n >= 2:
        lines.append(f"bound_thm3={analysis.bound_theorem3(psi2, P.n):.10g}")
        if P.symmetric and P.irreducible:  # Theorem 5's hypothesis
            lines.append(f"bound_thm5={analysis.bound_theorem5(psi2, P.n):.10g}")
    lines.append("log_convention=natural")
    return lines


def divergence_report(graph_spec: str, matrix_kind: str, p: int,
                      tol: float, t_max: int | None) -> list[str]:
    if t_max is not None and t_max < 0:
        raise ValidationError(f"--t-max must be >= 0, got {t_max}")
    if not tol > 0:  # NaN too
        raise ValidationError(f"--tol must be > 0, got {tol}")
    g = build_graph(graph_spec) if graph_spec else None
    P = build_matrix(matrix_kind, g)
    rep = analysis.local_p_divergence(P, p=p, tol=tol, t_max=t_max)
    return [f"graph={graph_spec}", f"matrix={matrix_kind}", f"n={P.n}"] + rep.to_lines()
