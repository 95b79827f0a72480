"""Experiment runner: seeded multi-trial simulations, bounds, CSV emission.

Reproducibility contract: an identical ExperimentSpec (including the master
seed) produces byte-identical CSV, regardless of --jobs. Per-trial
generators derive from SeedSequence([master_seed, trial_index]) so growing
the trial count never reshuffles earlier trials. Trials step in lockstep
blocks, each trial drawing only from its own generator, so neither the block
size nor --jobs (which maps blocks onto processes) changes a byte.
"""
from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis, continuous, discrete, graphs, matrices
from .errors import DiffusimError, SizeLimitError, ValidationError

CSV_HEADER = "trial,t,disc,max_dev,bound_thm3,bound_thm1_or_2,viol_thm3,viol_disc"
# Trials step in lockstep blocks of max(1, BLOCK_ENTRIES // nnz) trials, so
# the routing arrays of a block (I_B (x) P) stay cache-resident.
BLOCK_ENTRIES = 2**14
BASELINES = ("send-floor2d", "send-round3d", "send-partition", "rsend")  # regular graphs only
ALGORITHMS = ("alg2-naive", "alg2-batch") + BASELINES


@dataclass
class ExperimentSpec:
    graph: str
    matrix: str = "lazy-rw"
    algorithm: str = "alg2-batch"
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
            return graphs.gen_random_regular(params[0], params[1], params[2])
    except ValueError as exc:
        if isinstance(exc, DiffusimError):
            raise
        raise ValidationError(f"bad graph spec {spec!r}: {exc}") from None
    raise ValidationError(
        f"unknown graph spec {spec!r}; expected cycle:N, hypercube:DIM, star:N, "
        f"complete:N, torus:A:B, random-regular:N:D:SEED or file:PATH"
    )


def build_matrix(kind: str, g: graphs.Graph | None) -> matrices.RoundMatrix:
    """lazy-rw | metropolis | file:PATH."""
    if kind == "lazy-rw":
        if g is None:
            raise ValidationError("lazy-rw matrix needs a graph")
        return matrices.lazy_rw_matrix(g)
    if kind == "metropolis":
        if g is None:
            raise ValidationError("metropolis matrix needs a graph")
        return matrices.metropolis_matrix(g)
    name, _, rest = kind.partition(":")
    if name == "file":
        return matrices.matrix_from_text(Path(rest).read_text())
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
    """ValidationError unless the algorithm is known and, for a baseline,
    the graph is given and regular."""
    if algorithm not in ALGORITHMS:
        raise ValidationError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if algorithm in BASELINES:
        if g is None:
            raise ValidationError(f"algorithm {algorithm} needs a graph")
        g.regular_degree()  # raises "graph is not regular"


def _make_stepper(algorithm: str, P: matrices.RoundMatrix, g: graphs.Graph | None):
    """One-trial stepper of an algorithm without a batched kernel; the
    algorithm has passed _check_algorithm."""
    if algorithm == "alg2-naive":
        return lambda cfg, rng: discrete.step_naive(cfg, P, rng)
    if algorithm == "send-floor2d":
        return lambda cfg, rng: discrete.step_send_floor2d(cfg, g)
    if algorithm == "send-round3d":
        return lambda cfg, rng: discrete.step_send_round3d(cfg, g)
    if algorithm == "send-partition":
        return lambda cfg, rng: discrete.step_send_partition(cfg, g)
    return lambda cfg, rng: discrete.step_rsend(cfg, g, rng)


@dataclass
class ResolvedExperiment:
    spec: ExperimentSpec
    graph: graphs.Graph | None
    matrix: matrices.RoundMatrix
    x0: discrete.LoadConfig
    T: int
    record_ts: list[int]
    oracle: dict[int, np.ndarray]
    lam: float | None
    psi2: float | None
    bound3: float | None
    bound12: float | None
    bound12_name: str
    unavailable: dict[str, str]   # blank header quantity -> why it is blank


def resolve(spec: ExperimentSpec) -> ResolvedExperiment:
    if spec.trials < 1:
        raise ValidationError(f"trials must be >= 1, got {spec.trials}")
    if spec.stride < 0:
        raise ValidationError(f"stride must be >= 0, got {spec.stride}")
    if spec.jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {spec.jobs}")
    g = build_graph(spec.graph) if spec.graph else None
    P = build_matrix(spec.matrix, g)
    if g is not None and g.n != P.n:
        raise ValidationError(f"graph has {g.n} vertices but matrix has {P.n}")
    _check_algorithm(spec.algorithm, g)
    x0 = build_loads(spec.loads, P.n)

    unavailable: dict[str, str] = {}
    lam = None
    try:
        lam = matrices.second_eigenvalue(P)
    except SizeLimitError as exc:
        if spec.steps == "auto":  # only the auto step count needs lambda
            raise
        unavailable["lambda"] = str(exc)
    except DiffusimError as exc:  # not symmetric, or reducible
        unavailable["lambda"] = str(exc)

    if spec.steps == "auto":
        disc0 = analysis.discrepancy(x0.loads)
        if disc0 == 0:
            T = 0
        else:
            if lam is None:
                raise ValidationError("steps=auto needs a symmetric irreducible matrix")
            T = continuous.convergence_time(P, disc0, 1.0, lam=lam)
    else:
        try:
            T = int(spec.steps)
        except ValueError:
            raise ValidationError(f"steps must be an integer or 'auto', got {spec.steps!r}") from None
        if T < 0:
            raise ValidationError(f"steps must be >= 0, got {T}")

    if spec.stride > 0:
        record_ts = sorted(set(range(0, T + 1, spec.stride)) | {0, T})
    else:
        record_ts = sorted({0, T})

    record_set = set(record_ts)
    oracle: dict[int, np.ndarray] = {}
    chi = x0.loads.astype(np.float64)
    if 0 in record_set:
        oracle[0] = chi
    for t in range(1, T + 1):
        chi = matrices.power_apply(chi, P, 1)
        if t in record_set:
            oracle[t] = chi

    psi2 = None
    bound3 = None
    try:
        psi2 = analysis.local_p_divergence(P, p=2).value
    except DiffusimError as exc:
        unavailable["psi2"] = str(exc)
    if psi2 is not None and P.n >= 2:
        bound3 = analysis.bound_theorem3(psi2, P.n)

    bound12 = None
    bound12_name = ""
    if g is not None and P.n >= 2:
        if spec.matrix == "lazy-rw":
            bound12 = analysis.bound_theorem1(g.regular_degree(), P.n)
            bound12_name = "thm1"
        elif spec.matrix == "metropolis":
            bound12 = analysis.bound_theorem2(g.d_max, P.n)
            bound12_name = "thm2"

    return ResolvedExperiment(
        spec=spec, graph=g, matrix=P, x0=x0, T=T, record_ts=record_ts,
        oracle=oracle, lam=lam, psi2=psi2, bound3=bound3,
        bound12=bound12, bound12_name=bound12_name, unavailable=unavailable,
    )


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.10g}"


def _block_stepper(res: ResolvedExperiment, rngs):
    """Flat loads of a block of trials -> their next flat loads.

    alg2-batch routes the whole block at once (discrete.block_stepper); every
    other algorithm steps each trial of the block with its own stepper.
    Either way trial b draws only from rngs[b], as it would on its own.
    """
    P, total = res.matrix, res.x0.total
    if res.spec.algorithm == "alg2-batch":
        return discrete.block_stepper(P, rngs)
    stepper = _make_stepper(res.spec.algorithm, P, res.graph)

    def step(loads: np.ndarray) -> np.ndarray:
        loads.flags.writeable = False  # its rows become LoadConfig views
        return np.concatenate([stepper(discrete.LoadConfig(x, total), rng).loads
                               for x, rng in zip(loads.reshape(len(rngs), P.n), rngs)])

    return step


def _block_rows(res: ResolvedExperiment, first: int, stop: int) -> list[str]:
    """CSV rows of trials first..stop-1, stepped in lockstep, in trial order."""
    B, n, total = stop - first, res.matrix.n, res.x0.total
    rngs = [trial_rng(res.spec.seed, trial) for trial in range(first, stop)]
    step = _block_stepper(res, rngs)
    record_set = set(res.record_ts)
    bound3, bound12 = _fmt(res.bound3), _fmt(res.bound12)
    rows: list[list[str]] = [[] for _ in range(B)]
    loads = np.tile(res.x0.loads, B)
    for t in range(res.T + 1):
        if t:
            loads = step(loads)
        X = loads.reshape(B, n)
        sums, mins = X.sum(axis=1), X.min(axis=1)
        bad = np.flatnonzero((sums != total) | (mins < 0))
        if bad.size:
            b = int(bad[0])
            raise ValidationError(f"trial {first + b}, step {t}: total {int(sums[b])} "
                                  f"(expected {total}), least load {int(mins[b])}")
        if t not in record_set:
            continue
        discs = (X.max(axis=1) - mins).tolist()
        devs = np.abs(X - res.oracle[t]).max(axis=1).tolist()
        for b, (disc, dev) in enumerate(zip(discs, devs)):
            viol3 = "" if res.bound3 is None else str(int(dev > res.bound3))
            viol_disc = "" if res.bound12 is None else str(int(disc > res.bound12))
            rows[b].append(f"{first + b},{t},{disc},{dev:.10g},{bound3},{bound12},{viol3},{viol_disc}")
    return [row for trial_rows in rows for row in trial_rows]


def run_experiment(spec: ExperimentSpec,
                   unavailable: dict[str, str] | None = None) -> tuple[list[str], list[str]]:
    """Returns ('#'-prefixed header lines, data rows) ready for CSV assembly.

    When a dict is passed as `unavailable`, it receives the reason for each
    header quantity left blank by an error (ResolvedExperiment.unavailable).
    """
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
    stops = [min(first + B, spec.trials) for first in firsts]
    if spec.jobs > 1 and len(firsts) > 1:  # one block runs on one worker: skip the pool
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(spec.jobs, len(firsts))) as pool:
            chunks = list(pool.map(_block_rows, [res] * len(firsts), firsts, stops))
    else:
        chunks = [_block_rows(res, first, stop) for first, stop in zip(firsts, stops)]
    rows = [row for chunk in chunks for row in chunk]
    return header, rows


def write_csv(path: str | Path, header: list[str], rows: list[str]) -> None:
    Path(path).write_text("\n".join(header + rows) + "\n")


def simulate_to_csv(spec: ExperimentSpec, out: str | Path,
                    unavailable: dict[str, str] | None = None) -> int:
    header, rows = run_experiment(spec, unavailable)
    write_csv(out, header, rows)
    return len(rows)


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
    try:
        lam = matrices.second_eigenvalue(P)
        lines.append(f"lambda={lam:.10g}")
    except DiffusimError as exc:
        lines.append(f"lambda=unavailable ({exc})")

    psi2 = None
    try:
        rep = analysis.local_p_divergence(P, p=2)
        psi2 = rep.value
        lines.append(f"psi2_computed={rep.value:.10g}")
        lines.append(f"psi2_t_stop={rep.t_stop}")
    except DiffusimError as exc:
        lines.append(f"psi2_computed=unavailable ({exc})")
    for label, fn in (("psi2_bound_symmetric", analysis.psi2_bound_symmetric),
                      ("psi2_bound_reversible", analysis.psi2_bound_reversible)):
        try:
            lines.append(f"{label}={fn(P):.10g}")
        except DiffusimError as exc:
            lines.append(f"{label}=unavailable ({exc})")

    if g is not None and P.n >= 2:
        if g.is_regular():
            lines.append(f"bound_thm1={analysis.bound_theorem1(g.regular_degree(), P.n):.10g}")
        lines.append(f"bound_thm2={analysis.bound_theorem2(g.d_max, P.n):.10g}")
    if psi2 is not None and P.n >= 2:
        lines.append(f"bound_thm3={analysis.bound_theorem3(psi2, P.n):.10g}")
        lines.append(f"bound_thm5={analysis.bound_theorem5(psi2, P.n):.10g}")
    lines.append("log_convention=natural")
    return lines


def divergence_report(graph_spec: str, matrix_kind: str, p: int,
                      tol: float, t_max: int | None) -> list[str]:
    g = build_graph(graph_spec) if graph_spec else None
    P = build_matrix(matrix_kind, g)
    rep = analysis.local_p_divergence(P, p=p, tol=tol, t_max=t_max)
    return [f"graph={graph_spec}", f"matrix={matrix_kind}", f"n={P.n}"] + rep.to_lines()
