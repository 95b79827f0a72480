"""Discrete token diffusion: interval samplers, deterministic baselines and
the algorithm registry.

At vertex v holding x_v tokens, token k samples a number r uniformly from
[k/x_v, (k+1)/x_v) and moves to the neighbor whose row interval contains r.
All routing here happens in "token units": the sample is k + U and the row
interval ends are scaled by x_v. This avoids forming k/x_v and (k+1)/x_v
separately (cancellation at large x_v) and gives both samplers identical
boundary semantics. Intervals are half-open; a sample landing exactly on an
interval boundary routes to the interval on its right. Token units are
float64, which counts exactly only up to 2**53, so configurations built
from outside input reject totals above MAX_TOTAL.

Two samplers are first-class:

* step_naive draws one uniform per token (the literal algorithm);
* step_batch moves every token whose window sits inside one row interval
  in bulk, without a draw, and draws only for the boundary tokens, whose
  window holds one or more internal cuts (at most two such tokens per row
  interval). This is distributionally identical. One routing path serves
  both trace settings: one uniform per boundary token, by vertex and then
  token index, from a single generator call per step. trace=True records
  the same draws, so tracing never changes the next configuration.

ALGORITHMS maps each algorithm that simulate runs to a block stepper
factory: alg2-naive and alg2-batch (the two samplers), the deterministic
baselines send-floor2d, send-round3d and send-partition, and rsend. A block
stepper steps a block of trials at once, each trial drawing from its own
generator exactly as it would alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import ValidationError
from .graphs import Graph, _read_only_setstate
from .matrices import RoundMatrix, RowView

__all__ = [
    "LoadConfig",
    "StepTrace",
    "destination_distribution",
    "deterministic_token_mask",
    "step_naive",
    "step_batch",
    "run",
    "ALGORITHMS",
    "Baseline",
    "point_config",
    "uniform_config",
    "random_config",
    "config_from_preset",
    "parse_loads_text",
    "loads_text",
]

MAX_TOTAL = 2**53  # largest total whose token-unit arithmetic stays exact


def _check_total(total: int | float) -> int | float:
    if total > MAX_TOTAL:
        raise ValidationError(f"total load {total} exceeds 2**53, the largest the samplers route exactly")
    return total


@dataclass(frozen=True, eq=False)
class LoadConfig:
    """Nonnegative integer load vector; the total is conserved by every step."""

    loads: np.ndarray  # int64, read-only
    total: int

    __setstate__ = _read_only_setstate

    @classmethod
    def from_loads(cls, loads) -> "LoadConfig":
        arr = np.asarray(loads)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("loads must be a non-empty 1-d vector")
        # the float64 sum is exact up to MAX_TOTAL; checking it first keeps
        # the int64 conversion and sum in _wrap from wrapping
        _check_total(np.abs(arr.astype(np.float64)).sum())
        cfg = cls._wrap(arr)
        _check_total(cfg.total)
        return cfg

    @classmethod
    def _wrap(cls, arr) -> "LoadConfig":
        arr = np.asarray(arr)
        if not np.issubdtype(arr.dtype, np.integer):
            rounded = np.rint(arr)
            if np.any(rounded != arr):
                raise ValidationError("loads must be integers")
            arr = rounded
        arr = arr.astype(np.int64)
        if np.any(arr < 0):
            raise ValidationError("loads must be nonnegative")
        arr.flags.writeable = False
        return cls(loads=arr, total=int(arr.sum()))

    @property
    def n(self) -> int:
        return int(self.loads.size)


# The per-step code below calls ndarray methods and ufuncs (a.cumsum(),
# b.nonzero()[0], np.add.reduce(a)) in place of the module functions
# (np.cumsum, np.flatnonzero, a.sum()): they compute the same values, and on
# the 5-30 tokens of a verify step each module wrapper costs 0.5-1.5 us more
# than the call it wraps, over tens of thousands of steps.
def _conserved(new: np.ndarray, total: int) -> LoadConfig:
    """Wrap a step's output after checking that it kept every token.

    Every step hands over a fresh int64 array of its own, so it is frozen in
    place rather than copied.
    """
    if new.dtype != np.int64:
        raise ValidationError(f"step produced {new.dtype} loads, expected int64")
    got = int(np.add.reduce(new))
    if got != total:
        raise ValidationError(f"step produced total {got}, expected {total}")
    if np.minimum.reduce(new) < 0:
        raise ValidationError("loads must be nonnegative")
    new.flags.writeable = False
    return LoadConfig(new, total)


@dataclass
class StepTrace:
    """Per-step record of token destinations for invariant checking, flat
    over the tokens by vertex and then token index: vertex v sent counts[v]
    tokens, token i went to destinations[i], sampled[i] says whether a draw
    decided it and r_values[i] holds its token-unit sample k + U (NaN where
    no draw happened)."""

    loads_before: np.ndarray
    counts: np.ndarray
    destinations: np.ndarray
    sampled: np.ndarray
    r_values: np.ndarray


def destination_distribution(row: RowView, x_v: int, k) -> np.ndarray:
    """Probability of token k landing on each row target.

    Each entry is the overlap of [k/x_v, (k+1)/x_v) with the target's row
    interval, times x_v; computed in token units so no division happens.
    k is one token index, giving one row, or a 1-d array of them, giving
    one row per index.
    """
    k = np.asarray(k)
    bad = (k < 0) | (k >= x_v)
    if bad.any():
        raise ValidationError(f"token index {k.flat[np.argmax(bad)]} out of range for {x_v} loads")
    t = row.prefix * float(x_v)
    return _overlap(k.astype(np.float64)[..., None], t[:-1], t[1:])


def _overlap(k: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray) -> np.ndarray:
    """Length of token window [k, k+1) inside interval [t_lo, t_hi), in token units."""
    return np.maximum(np.minimum(k + 1, t_hi) - np.maximum(k, t_lo), 0.0)


def deterministic_token_mask(P: RoundMatrix, v: int, x_v: int) -> np.ndarray:
    """True for tokens whose sampling window sits inside one row interval.

    A token is non-deterministic exactly when some internal interval
    boundary falls strictly inside its window; there are at most two such
    tokens per row interval.
    """
    cuts = P.row(v).ends[:-1] * float(x_v)  # internal boundaries in token units
    kb = np.floor(cuts)
    mask = np.ones(x_v, dtype=bool)
    mask[kb[cuts != kb].astype(np.int64)] = False
    return mask


def _draws(rngs, idx: np.ndarray, size: int) -> np.ndarray:
    """One uniform per entry of idx, a sorted flat index in which trial b owns
    b*size..b*size+size-1: trial b's slice of one buffer, in one rngs[b] call."""
    if len(rngs) == 1:
        return rngs[0].random(idx.size)
    u, bounds = np.empty(idx.size), idx.searchsorted(size * np.arange(len(rngs) + 1)).tolist()
    for rng, a, b in zip(rngs, bounds, bounds[1:]):
        rng.random(out=u[a:b])
    return u


def _route(loads: np.ndarray, P, rngs):
    """step_batch's routing of one round: (interior, k, u, e).

    Entry i's interval [starts[i], ends[i]), times its row's load, is [lo, hi)
    in token units; interior[i] counts the windows [k, k+1) inside it. Boundary
    token k of vertex P.rows[e] drew u and goes to entry e, in row-major order.
    P is a RoundMatrix, or B copies tiled by _tile with B*n loads; the uniforms
    fill one buffer, trial b's slice in one rngs[b].random call. One generator
    may also serve all B copies: its one call then draws every copy's
    uniforms in copy order, which is the stream B successive one-copy rounds
    consume, since PCG64 spends one output per double. Raw interior
    floor(hi) - ceil(lo) < 0 <=> two cuts in one window (the interval's ends):
    only then does a token straddle several cuts and the cuts get grouped.
    """
    x = loads.astype(np.float64)[P.rows]
    hi = P.ends * x
    flo = np.floor(hi)
    interior = flo - np.ceil(P.starts * x)
    straddle = np.minimum.reduce(interior) < 0.0
    np.maximum(interior, 0.0, out=interior)
    e = (hi != flo).nonzero()[0]  # cuts inside a window; a row's last end x_v is whole
    cut = hi[e]
    k = np.floor(cut)
    cut -= k                       # the cut's offset in token k's window
    size = P.rows.size // len(rngs)
    if not straddle:
        u = _draws(rngs, e, size)
        return interior, k, u, e + (u >= cut)
    # a token straddling several cuts draws once and goes left of the first
    # cut above u, or right of its last cut
    v = P.rows[e]
    start = np.concatenate(([True], (v[1:] != v[:-1]) | (k[1:] != k[:-1])))
    first = start.nonzero()[0]
    u = _draws(rngs, e[first], size)
    below = cut <= u[start.cumsum() - 1]
    return interior, k[first], u, e[first] + np.add.reduceat(below, first)


def _scatter(targets: np.ndarray, interior: np.ndarray, dest: np.ndarray, size: int) -> np.ndarray:
    """New loads: each entry's interior tokens plus the boundary tokens at dest
    (float sums of whole numbers up to MAX_TOTAL, so exact)."""
    new = np.bincount(targets, weights=interior, minlength=size)
    new += np.bincount(dest, minlength=size)
    return new.astype(np.int64)


def _tile(P: RoundMatrix, B: int):
    """The routing arrays of I_B (x) P: copy b of P on vertices b*n..b*n+n-1.

    Not a RoundMatrix: a block-diagonal chain is reducible, so its flags
    would be wrong. B = 1 is P itself.
    """
    if B == 1:
        return P
    shift = np.arange(B)[:, None]
    return SimpleNamespace(
        indptr=np.append((P.indptr[:-1] + shift * P.ends.size).ravel(), B * P.ends.size),
        rows=(P.rows + shift * P.n).ravel(),
        targets=(P.targets + shift * P.n).ravel(),
        starts=np.tile(P.starts, B),
        ends=np.tile(P.ends, B),
    )


def _tokens(loads: np.ndarray):
    """(v, k, starts): the vertex and index k of every token, vertex by
    vertex, and the flat position of each vertex's first token."""
    starts = loads.cumsum() - loads
    v = np.arange(loads.size).repeat(loads)
    return v, np.arange(v.size) - starts[v], starts


def _token_dests(P: RoundMatrix, loads: np.ndarray, v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Row target whose interval holds r[i], for token i of vertex v[i].

    r is in token units. Complex values order by real part, then imaginary
    part, so among the keys (row, end * x_row) those at or below (v, r) are
    the rows before v and the ends of v's row at or below r: their count is
    the entry of the half-open interval holding r. The parts are assigned,
    so none is rounded. The last interval also takes an r that rounded up
    onto the row's top end x_v.
    """
    key = np.empty(P.ends.size, dtype=np.complex128)
    key.real, key.imag = P.rows, P.ends * loads[P.rows]
    query = np.empty(r.size, dtype=np.complex128)
    query.real, query.imag = v, r
    entry = np.minimum(key.searchsorted(query, side="right"), P.indptr[v + 1] - 1)
    return P.targets[entry]


def step_batch(x: LoadConfig, P: RoundMatrix, rng, trace: bool = False):
    """One round that draws only for boundary tokens.

    Distributionally identical to step_naive. Each boundary token draws one
    uniform, by vertex and then token index, in a single generator call;
    every other token moves in bulk. With trace=True returns
    (config, StepTrace); the trace records the same draws, so it does not
    change the next configuration for a given generator state.
    """
    if x.n != P.n:
        raise ValidationError(f"config has {x.n} vertices, matrix has {P.n}")
    loads = x.loads
    interior, k, u, e = _route(loads, P, (rng,))
    cfg = _conserved(_scatter(P.targets, interior, P.targets[e], P.n), x.total)
    if not trace:
        return cfg
    return cfg, StepTrace(loads, loads, *_token_routes(loads, P, interior, k, u, e))


def _token_routes(loads: np.ndarray, P, interior, k, u, e):
    """(destinations, sampled, r_values) of a round that _route routed, per
    token, vertex by vertex: StepTrace's fields. P and loads are those given
    to _route, so a block of B copies tiled by _tile gives copy b's tokens
    after copy b-1's, with targets shifted by b*n."""
    ends = loads.cumsum()
    at = (ends - loads)[P.rows[e]] + k.astype(np.int64)  # flat position of each draw
    size = int(ends[-1])
    sampled = np.zeros(size, dtype=bool)
    sampled[at] = True
    dests = np.empty(size, dtype=np.int64)
    dests[at] = P.targets[e]
    # the other tokens fill each interval's whole windows in row order
    dests[~sampled] = P.targets.repeat(interior.astype(np.int64))
    r = np.empty(size)
    r.fill(np.nan)
    r[at] = k + u
    return dests, sampled, r


def step_naive(x: LoadConfig, P: RoundMatrix, rng, trace: bool = False):
    """One round drawing a uniform for every token (the literal algorithm).

    Vectorized over all tokens at once; with trace=True also returns the
    per-token StepTrace.
    """
    if x.n != P.n:
        raise ValidationError(f"config has {x.n} vertices, matrix has {P.n}")
    loads = x.loads
    v, k, _ = _tokens(loads)
    r = k + rng.random(v.size)
    dest = _token_dests(P, loads, v, r)
    cfg = _conserved(np.bincount(dest, minlength=P.n), x.total)
    if trace:
        sampled = np.empty(r.size, dtype=bool)
        sampled.fill(True)
        return cfg, StepTrace(loads, loads, dest, sampled, r)
    return cfg


SAMPLERS = {"naive": step_naive, "batch": step_batch}


def run(x0: LoadConfig, P: RoundMatrix, T: int, rng):
    """T rounds of step_batch; trajectory[0] is x0."""
    if T < 0:
        raise ValidationError(f"step count must be >= 0, got {T}")
    traj = [x0]
    for _ in range(T):
        traj.append(step_batch(traj[-1], P, rng))
    return traj


# ---------------------------------------------------------------------------
# Block steppers and the algorithm registry.
#
# A block stepper steps B = len(rngs) trials in lockstep: a function from the
# trials' loads, one trial after another (trial b at b*n..b*n+n-1), to their
# loads one round later. Trial b draws only from rngs[b], in the calls its
# one-trial round makes, so its stream and next loads do not depend on the
# block. The new loads are unchecked: the caller checks conservation per
# trial. ALGORITHMS maps each algorithm to its factory (P, g, rngs) -> step.
# ---------------------------------------------------------------------------


def _batch_block(P: RoundMatrix, g, rngs):
    """step_batch over I_B (x) P in one pass; trial b's boundary tokens draw
    from rngs[b] in the single call step_batch would make."""
    M, rngs = _tile(P, len(rngs)), tuple(rngs)

    def step(loads: np.ndarray) -> np.ndarray:
        interior, _, _, e = _route(loads, M, rngs)
        return _scatter(M.targets, interior, M.targets[e], loads.size)

    return step


def _naive_block(P: RoundMatrix, g, rngs):
    """step_naive trial by trial: trial b draws one uniform per token from
    rngs[b], and its tokens are searched against P's own keys (one search
    over the tiled keys of the block would cost more than all of these)."""
    rngs = tuple(rngs)

    def step(loads: np.ndarray) -> np.ndarray:
        new = []
        for x, rng in zip(loads.reshape(len(rngs), P.n), rngs):
            v, k, _ = _tokens(x)
            new.append(np.bincount(_token_dests(P, x, v, k + rng.random(v.size)), minlength=P.n))
        return np.concatenate(new)

    return step


@dataclass(frozen=True)
class Baseline:
    """Block stepper factory of a baseline, which runs on a regular graph g
    and does not read P.

    rule(loads, nbrs, rngs) is one round of the block, where nbrs is g's
    (n, d) neighbor array tiled B times, trial b's vertices shifted by b*n.
    Building a stepper checks that g is regular.
    """

    rule: Callable

    def __call__(self, P, g: Graph, rngs):
        d = g.regular_degree()
        B, rngs = len(rngs), tuple(rngs)
        nbrs = (g.neighbor_array() + g.n * np.arange(B)[:, None, None]).reshape(B * g.n, d)
        return lambda loads: self.rule(loads, nbrs, rngs)


def _to_neighbors(nbrs: np.ndarray, sent: np.ndarray) -> np.ndarray:
    """Sum sent, one value per entry of nbrs in row order, onto those neighbors."""
    out = np.bincount(nbrs.ravel(), weights=sent.ravel(), minlength=nbrs.shape[0])
    return np.rint(out).astype(np.int64)


def _send_floor2d(loads, nbrs, rngs):
    """Each vertex sends floor(x_v / 2d) to every neighbor, keeps the rest."""
    d = nbrs.shape[1]
    q = loads // (2 * d)
    return loads - d * q + _to_neighbors(nbrs, q.repeat(d))


def _send_round3d(loads, nbrs, rngs):
    """Each vertex sends round(x_v / 3d) (half-up) to every neighbor."""
    d = nbrs.shape[1]
    q = (2 * loads + 3 * d) // (6 * d)  # floor(x/(3d) + 1/2)
    return loads - d * q + _to_neighbors(nbrs, q.repeat(d))


def _send_partition(loads, nbrs, rngs):
    """Split x_v into d+1 near-equal parts: ceilings first, in ascending
    neighbor order, the self part (a floor) last."""
    d = nbrs.shape[1]
    q, r = np.divmod(loads, d + 1)
    return q + _to_neighbors(nbrs, q[:, None] + (np.arange(d) < r[:, None]))


def _rsend(loads, nbrs, rngs):
    """floor(x_v/(d+1)) to every neighbor and itself; the remainder goes to
    that many distinct targets chosen uniformly without replacement.

    The d+1 slots of every vertex with a remainder r_v get one uniform key
    each, trial b's from one rngs[b].random call; the r_v slots with the
    smallest keys are a uniform r_v-subset.
    """
    d = nbrs.shape[1]
    q, r = np.divmod(loads, d + 1)
    new = q + _to_neighbors(nbrs, q.repeat(d))
    m = r.nonzero()[0]
    keys = _draws(rngs, m.repeat(d + 1), nbrs.shape[0] // len(rngs)).reshape(m.size, d + 1)
    order = np.argsort(keys, axis=1)        # slots by ascending key
    slots = np.column_stack((nbrs[m], m))   # slot d is the vertex itself
    chosen = np.take_along_axis(slots, order, axis=1)[np.arange(d + 1) < r[m, None]]
    return new + np.bincount(chosen, minlength=loads.size)


ALGORITHMS = {
    "alg2-naive": _naive_block,
    "alg2-batch": _batch_block,
    "send-floor2d": Baseline(_send_floor2d),
    "send-round3d": Baseline(_send_round3d),
    "send-partition": Baseline(_send_partition),
    "rsend": Baseline(_rsend),
}
DEFAULT_ALGORITHM = "alg2-batch"


# ---------------------------------------------------------------------------
# Initial configurations.
# ---------------------------------------------------------------------------


def point_config(n: int, total: int) -> LoadConfig:
    """All loads on vertex 0 (the adversarial start)."""
    loads = np.zeros(n, dtype=np.int64)
    loads[0] = _check_total(total)
    return LoadConfig._wrap(loads)


def uniform_config(n: int, total: int) -> LoadConfig:
    """total // n everywhere; the remainder spread over the first vertices."""
    base, rem = divmod(_check_total(total), n)
    loads = np.full(n, base, dtype=np.int64)
    loads[:rem] += 1
    return LoadConfig._wrap(loads)


def random_config(n: int, total: int, seed: int) -> LoadConfig:
    """Multinomial placement of `total` loads with a dedicated seed."""
    rng = np.random.default_rng(seed)
    return LoadConfig._wrap(rng.multinomial(_check_total(total), np.full(n, 1.0 / n)))


def config_from_preset(preset: str, n: int) -> LoadConfig:
    """Parse "point:M", "uniform:M" or "random:M:SEED"."""
    name, *params = preset.split(":")
    try:
        nums = [int(p) for p in params]
    except ValueError:
        raise ValidationError(f"bad number in loads preset {preset!r}") from None
    if name == "point" and len(nums) == 1:
        return point_config(n, *nums)
    if name == "uniform" and len(nums) == 1:
        return uniform_config(n, *nums)
    if name == "random" and len(nums) == 2:
        if nums[1] < 0:
            raise ValidationError(f"seed in {preset!r} must be >= 0, got {nums[1]}")
        return random_config(n, *nums)
    raise ValidationError(f"unknown loads preset {preset!r}")


def parse_loads_text(text: str) -> LoadConfig:
    """One nonnegative integer per line, one line per vertex."""
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(int(line))
        except ValueError:
            raise ValidationError(f"line {lineno}: not an integer: {raw!r}") from None
    if not values:
        raise ValidationError("load vector file is empty")
    return LoadConfig.from_loads(values)


def loads_text(x: LoadConfig) -> str:
    return "\n".join(str(int(v)) for v in x.loads) + "\n"
