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
* step_batch draws only for the boundary tokens, whose window holds one or
  more interval ends (cuts), and counts the tokens each row entry receives,
  over every entry at once: the tokens at or left of an end number its whole
  part, plus one if the draw of the token whose window holds it falls below
  its fraction. This is distributionally identical. One routing path serves
  both trace settings: one uniform per boundary token, by vertex and token
  index, in one generator call per step; trace=True reads each drawn token's
  index off its window's first cut, so it never changes the next round.

ALGORITHMS maps each algorithm that simulate runs to a block stepper
factory: alg2-naive and alg2-batch (the two samplers), the deterministic
baselines send-floor2d, send-round3d and send-partition, and rsend. A block
stepper steps a block of trials at once, each trial drawing from its own
generator exactly as it would alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
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
_INT64 = np.dtype(np.int64)  # a dtype compares faster with a dtype than with a type


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
    if new.dtype != _INT64:
        raise ValidationError(f"step produced {new.dtype} loads, expected int64")
    got = np.add.reduce(new)
    if got != total:
        raise ValidationError(f"step produced total {int(got)}, expected {total}")
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
    no draw happened). The draw record (sampled, r_values) is built by
    calling _build_record, once, the first time either is read."""

    loads_before: np.ndarray
    counts: np.ndarray
    destinations: np.ndarray
    _build_record: Callable[[], tuple[np.ndarray, np.ndarray]] = field(repr=False)

    @cached_property
    def _record(self) -> tuple[np.ndarray, np.ndarray]:
        return self._build_record()

    @property
    def sampled(self) -> np.ndarray:
        return self._record[0]

    @property
    def r_values(self) -> np.ndarray:
        return self._record[1]


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


def _draws(rngs, idx: np.ndarray, edges) -> np.ndarray:
    """One uniform per entry of idx, a sorted flat index in which trial b owns
    edges[b]..edges[b+1]-1: trial b's slice of one buffer, in one rngs[b] call.
    One generator needs no edges (None)."""
    if len(rngs) == 1:
        return rngs[0].random(idx.size)
    u, bounds = np.empty(idx.size), idx.searchsorted(edges).tolist()
    for rng, a, b in zip(rngs, bounds, bounds[1:]):
        rng.random(out=u[a:b])
    return u


def _route(loads: np.ndarray, P, rngs):
    """step_batch's routing of one round: (counts, u, e).

    Entry i of vertex v's row ends at hi_i = ends[i] * x_v in token units.
    The tokens that go to entry i or an earlier entry of the row number
    C_i = floor(hi_i) + [u < hi_i - floor(hi_i)] (a whole hi_i, as at every
    row's last end, gives hi_i), u being the draw of the token whose window
    [k, k+1) holds that cut. Entry i receives counts[i] = C_i - C_{i-1}
    tokens (C = 0 before a row's first entry), whole floats. A window
    holding several cuts is one token with one draw: token k = floor(hi_e)
    of vertex P.rows[e] drew u, e being its window's first cut, in row-major
    order. P is a RoundMatrix, or B copies tiled by _tile with B*n loads;
    trial b's uniforms are one rngs[b].random call. One generator may serve
    all B copies: its one call draws what B successive one-copy rounds
    would, since PCG64 spends one output per double.
    """
    hi = loads.astype(np.float64)[P.rows]
    hi *= P.ends
    c = np.floor(hi)
    frac = np.subtract(hi, c, out=hi)  # exact: 0 at a whole end, else the cut's offset in its window
    drawn = frac > 0
    c1, c0 = c[1:], c[:-1]
    later = drawn[:-1] & (c1 == c0)    # entry i + 1 is a cut in entry i's window
    np.greater(drawn[1:], later, out=drawn[1:])
    e = drawn.nonzero()[0]
    u = _draws(rngs, e, P.edges if len(rngs) > 1 else None)
    # each cut's frac - u (a later cut's u is its window's): both in [0, 1), so ceil is [frac > u]
    np.subtract.at(frac, e, u)
    if np.logical_or.reduce(later):
        j = later.nonzero()[0] + 1
        np.subtract.at(frac, j, u[e.searchsorted(j) - 1])
    c += np.ceil(frac, out=frac)
    counts = frac
    np.subtract(c1, c0, out=counts[1:])
    heads = P._heads
    counts[heads] = c[heads]
    return counts, u, e


def _scatter(targets: np.ndarray, counts: np.ndarray, size: int) -> np.ndarray:
    """New loads: each entry's counts summed onto its target (float sums of
    whole numbers up to MAX_TOTAL, so exact)."""
    return np.bincount(targets, weights=counts, minlength=size).astype(np.int64)


class _Tile(SimpleNamespace):
    """The routing arrays of I_B (x) P that _tile builds."""

    @cached_property
    def _keys(self) -> np.ndarray:
        """RoundMatrix's _keys, built on first use: a lemma pass never searches."""
        out = self.rows.astype(np.complex128)
        out.flags.writeable = False
        return out


def _tile(P: RoundMatrix, B: int):
    """The routing arrays of I_B (x) P: copy b of P on vertices b*n..b*n+n-1,
    with RoundMatrix's _heads, _last, _vertices and _keys, and edges b*nnz
    (b = 0..B) for _draws.

    Not a RoundMatrix: a block-diagonal chain is reducible, so its flags
    would be wrong. B = 1 is P itself.
    """
    if B == 1:
        return P
    shift = np.arange(B)[:, None]
    indptr = np.append((P._heads + shift * P.ends.size).ravel(), B * P.ends.size)
    last = indptr[1:] - 1
    rows = (P.rows + shift * P.n).ravel()
    vertices = np.arange(B * P.n)
    for arr in (indptr, last, rows, vertices):
        arr.flags.writeable = False
    return _Tile(
        indptr=indptr, _heads=indptr[:-1], _last=last, edges=P.ends.size * np.arange(B + 1),
        _vertices=vertices, rows=rows,
        targets=(P.targets + shift * P.n).ravel(),
        starts=np.tile(P.starts, B),
        ends=np.tile(P.ends, B),
    )


def _tokens(P, loads: np.ndarray):
    """(v, k, starts): the vertex and index k of every token, vertex by
    vertex, and the flat position of each vertex's first token. P is a
    RoundMatrix or a _tile block with loads.size vertices."""
    starts = loads.cumsum()
    starts -= loads
    v = P._vertices.repeat(loads)
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
    key = P._keys.copy()
    np.multiply(P.ends, loads[P.rows], out=key.imag)
    query = np.empty(r.size, dtype=np.complex128)
    query.real, query.imag = v, r
    entry = np.minimum(key.searchsorted(query, side="right"), P._last[v])
    return P.targets[entry]


def _naive_route(P, loads: np.ndarray, rng):
    """(destinations, r) of one naive round: token k of vertex v draws u and
    goes where r = k + u lands, one uniform per token, vertex by vertex."""
    v, k, _ = _tokens(P, loads)
    r = rng.random(v.size)
    r += k
    return _token_dests(P, loads, v, r), r


def step_batch(x: LoadConfig, P: RoundMatrix, rng, trace: bool = False):
    """One round that draws only for boundary tokens.

    Distributionally identical to step_naive. Each boundary token draws one
    uniform, by vertex and then token index, in a single generator call;
    every other token moves in bulk. With trace=True returns
    (config, StepTrace); the trace records the same draws, so it does not
    change the next configuration for a given generator state.
    """
    if x.loads.size != P.n:
        raise ValidationError(f"config has {x.n} vertices, matrix has {P.n}")
    loads = x.loads
    counts, u, e = _route(loads, P, (rng,))
    cfg = _conserved(_scatter(P.targets, counts, P.n), x.total)
    if not trace:
        return cfg
    # within a row k + u grows with k: tokens fill entries in row order
    dest = P.targets.repeat(counts.astype(np.int64))
    return cfg, StepTrace(loads, loads, dest, partial(_token_draws, loads, P, u, e))


def _token_draws(loads: np.ndarray, P, u: np.ndarray, e: np.ndarray):
    """(sampled, r_values) of a round that _route routed to (counts, u, e),
    per token, vertex by vertex: StepTrace's draw record. P and loads are
    those given to _route."""
    v = P.rows[e]
    k = P.ends[e]                  # drawn token k: floor of the product _route formed at e
    k *= loads[v]
    np.floor(k, out=k)
    ends = loads.cumsum()
    at = (ends - loads)[v] + k.astype(np.int64)  # flat position of each draw
    size = int(ends[-1])
    sampled = np.zeros(size, dtype=bool)
    sampled[at] = True
    r = np.empty(size)
    r.fill(np.nan)
    r[at] = k + u
    return sampled, r


def step_naive(x: LoadConfig, P: RoundMatrix, rng, trace: bool = False):
    """One round drawing a uniform for every token (the literal algorithm).

    Vectorized over all tokens at once; with trace=True also returns the
    per-token StepTrace.
    """
    if x.loads.size != P.n:
        raise ValidationError(f"config has {x.n} vertices, matrix has {P.n}")
    loads = x.loads
    dest, r = _naive_route(P, loads, rng)
    cfg = _conserved(np.bincount(dest, minlength=P.n), x.total)
    if trace:
        return cfg, StepTrace(loads, loads, dest, partial(_every_token_drew, r))
    return cfg


def _every_token_drew(r: np.ndarray):
    """The draw record of a naive round whose samples were r."""
    sampled = np.empty(r.size, dtype=bool)
    sampled.fill(True)
    return sampled, r


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
        return _scatter(M.targets, _route(loads, M, rngs)[0], loads.size)

    return step


def _naive_block(P: RoundMatrix, g, rngs):
    """step_naive trial by trial: trial b draws one uniform per token from
    rngs[b], and its tokens are searched against P's own keys (one search
    over the tiled keys of the block would cost more than all of these)."""
    rngs = tuple(rngs)

    def step(loads: np.ndarray) -> np.ndarray:
        new = []
        for x, rng in zip(loads.reshape(len(rngs), P.n), rngs):
            new.append(np.bincount(_naive_route(P, x, rng)[0], minlength=P.n))
        return np.concatenate(new)

    return step


@dataclass(frozen=True)
class Baseline:
    """Block stepper factory of a baseline, which runs on a regular graph g
    and does not read P.

    rule(loads, nbrs, draw) is one round of the block, where nbrs is g's
    (n, d) neighbor array tiled B times, trial b's vertices shifted by b*n,
    and draw is _draws over the block's generators and B*n vertices.
    Building a stepper checks that g is regular.
    """

    rule: Callable

    def __call__(self, P, g: Graph, rngs):
        d, B = g.regular_degree(), len(rngs)
        draw = partial(_draws, tuple(rngs), edges=g.n * np.arange(B + 1))
        nbrs = (g.neighbor_array() + g.n * np.arange(B)[:, None, None]).reshape(B * g.n, d)
        return lambda loads: self.rule(loads, nbrs, draw)


def _to_neighbors(nbrs: np.ndarray, sent: np.ndarray) -> np.ndarray:
    """Sum sent, one value per entry of nbrs in row order, onto those neighbors."""
    out = np.bincount(nbrs.ravel(), weights=sent.ravel(), minlength=nbrs.shape[0])
    return np.rint(out).astype(np.int64)


def _send_floor2d(loads, nbrs, draw):
    """Each vertex sends floor(x_v / 2d) to every neighbor, keeps the rest."""
    d = nbrs.shape[1]
    q = loads // (2 * d)
    return loads - d * q + _to_neighbors(nbrs, q.repeat(d))


def _send_round3d(loads, nbrs, draw):
    """Each vertex sends round(x_v / 3d) (half-up) to every neighbor."""
    d = nbrs.shape[1]
    q = (2 * loads + 3 * d) // (6 * d)  # floor(x/(3d) + 1/2)
    return loads - d * q + _to_neighbors(nbrs, q.repeat(d))


def _send_partition(loads, nbrs, draw):
    """Split x_v into d+1 near-equal parts: ceilings first, in ascending
    neighbor order, the self part (a floor) last."""
    d = nbrs.shape[1]
    q, r = np.divmod(loads, d + 1)
    return q + _to_neighbors(nbrs, q[:, None] + (np.arange(d) < r[:, None]))


def _rsend(loads, nbrs, draw):
    """floor(x_v/(d+1)) to every neighbor and itself; the remainder goes to
    that many distinct targets chosen uniformly without replacement.

    The d+1 slots of every vertex with a remainder r_v get one uniform key
    each, trial b's from one call of its generator; the r_v slots with the
    smallest keys are a uniform r_v-subset.
    """
    d = nbrs.shape[1]
    q, r = np.divmod(loads, d + 1)
    new = q + _to_neighbors(nbrs, q.repeat(d))
    m = r.nonzero()[0]
    keys = draw(m.repeat(d + 1)).reshape(m.size, d + 1)
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
