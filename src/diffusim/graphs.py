"""Undirected graph fixtures: generators, edge-list ingestion, queries.

All graphs here are simple (no self-loops, no parallel edges), connected,
with dense 0-based vertex indices. Neighbor lists are kept sorted ascending
so downstream matrix rows are reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import GenerationError, ValidationError

# Full-restart budget for the pairing-model regular graph sampler.
MAX_REGULAR_RESTARTS = 10_000


def _read_only_setstate(obj, state: dict) -> None:
    """__setstate__ of the classes whose arrays are read-only: unpickling
    rebuilds every array writable, so each is frozen again."""
    for value in state.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    obj.__dict__.update(state)


@dataclass(frozen=True, eq=False)
class CayleyGroup:
    """The abelian group Z_shape[0] x ... x Z_shape[-1] and a generator set S
    with S = -S, one generator per row of `generators` (int64, read-only).

    A graph records it when it is the Cayley graph of the group: vertex
    np.ravel_multi_index(x, shape) is adjacent to the vertex of x + s
    (mod shape) for every s in S, so its degree is len(S)."""

    shape: tuple[int, ...]
    generators: np.ndarray   # (len(S), len(shape)) int64

    __setstate__ = _read_only_setstate

    def __eq__(self, other) -> bool:
        return (isinstance(other, CayleyGroup) and self.shape == other.shape
                and np.array_equal(self.generators, other.generators))

    @classmethod
    def of(cls, shape, generators) -> "CayleyGroup":
        gens = np.array(generators, dtype=np.int64).reshape(-1, len(shape))
        gens.flags.writeable = False
        return cls(tuple(shape), gens)


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple connected graph in compressed sparse row form.

    Vertex v's neighbors are targets[indptr[v]:indptr[v+1]], ascending. Both
    arrays are int64 and read-only, laid out as RoundMatrix's arrays of the
    same names. Derived values (the common degree, the neighbor array) are
    computed on first use and kept for the life of the graph. The cycle,
    torus, hypercube and complete generators record the abelian group whose
    Cayley graph they build as `group`; every other graph records None."""

    n: int
    indptr: np.ndarray    # (n+1,) int64: v's neighbors are targets[indptr[v]:indptr[v+1]]
    targets: np.ndarray   # (2m,) int64
    group: CayleyGroup | None = None

    __setstate__ = _read_only_setstate

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build and validate a graph from (u, v) pairs: an iterable of
        pairs or an (m, 2) array.

        Duplicate edges collapse; self-loops and out-of-range endpoints are
        rejected, the first bad edge in input order named. The result must
        be connected.
        """
        if n < 1:
            raise ValidationError(f"vertex count must be >= 1, got {n}")
        try:
            e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        except OverflowError:
            raise ValidationError("vertex index beyond the int64 range") from None
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValidationError(f"edges must be (u, v) pairs, got shape {e.shape}")
        u, v = e[:, 0], e[:, 1]
        bad = np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v))
        if bad.size:
            a, b = int(u[bad[0]]), int(v[bad[0]])
            if not (0 <= a < n and 0 <= b < n):
                raise ValidationError(f"edge ({a},{b}) out of range for n={n}")
            raise ValidationError(f"self-loop at vertex {a} not allowed")
        if len(e) < n - 1:  # before any n-sized array; also keeps u*n+v within int64
            raise ValidationError("graph is not connected")
        key = np.concatenate((u * n + v, v * n + u))
        key.sort()
        # sort plus mask, not np.unique: numpy 2.4's hash path is ~60x slower here
        key = key[np.diff(key, prepend=-1) != 0]
        rows, targets = np.divmod(key, n)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        if not _symmetric_support_connected(indptr, targets):
            raise ValidationError("graph is not connected")
        indptr.flags.writeable = False
        targets.flags.writeable = False
        return cls(n, indptr, targets)

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def d_max(self) -> int:
        return int(self.degrees().max())

    @cached_property
    def _common_degree(self) -> int | None:
        degs = self.degrees()
        return int(degs[0]) if np.all(degs == degs[0]) else None

    def is_regular(self) -> bool:
        return self._common_degree is not None

    def regular_degree(self) -> int:
        """Common degree of a regular graph; ValidationError otherwise."""
        if self._common_degree is None:
            raise ValidationError("graph is not regular")
        return self._common_degree

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edges as (u, v) with u < v, sorted."""
        rows = np.repeat(np.arange(self.n), self.degrees())
        up = rows < self.targets
        return list(zip(rows[up].tolist(), self.targets[up].tolist()))

    @cached_property
    def _neighbor_array(self) -> np.ndarray:
        return self.targets.reshape(self.n, self.regular_degree())

    def neighbor_array(self) -> np.ndarray:
        """(n, d) neighbor index matrix for a regular graph; a read-only view
        of targets, kept for the life of the graph."""
        return self._neighbor_array


def _symmetric_support_connected(indptr: np.ndarray, targets: np.ndarray) -> bool:
    """Connectivity of a symmetric support in CSR form by hook and shortcut
    (Shiloach-Vishkin). lab is a forest of stars whose roots are the
    smallest vertices of their trees: each root hooks onto the smallest root
    next to its tree, and pointer jumping makes stars again. Hooking roots,
    not single vertices, merges whole trees: a randomly numbered cycle of
    100000 vertices takes 11 rounds, where lowering each vertex's own label
    takes about n / 4. Vertex 0 stays a root, so the support is connected
    when every label is 0. An empty row is an isolated vertex, and reduceat
    needs non-empty rows, so one is rejected first when n > 1."""
    lab = np.arange(indptr.size - 1)
    if lab.size > 1 and np.any(indptr[1:] == indptr[:-1]):
        return False
    while lab.any():
        hooked = lab.copy()
        np.minimum.at(hooked, lab, np.minimum.reduceat(lab[targets], indptr[:-1]))
        if np.array_equal(hooked, lab):  # no tree has a smaller neighbor
            return False
        while not np.array_equal(lab, hooked):
            lab, hooked = hooked, hooked[hooked]
    return True


def gen_cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices; vertex i adjacent to (i +- 1) mod n."""
    if n < 3:
        raise ValidationError(f"cycle needs n >= 3, got {n}")
    i = np.arange(n)
    g = Graph.from_edges(n, np.column_stack((i, (i + 1) % n)))
    return replace(g, group=CayleyGroup.of((n,), [1, n - 1]))


def gen_hypercube(dim: int) -> Graph:
    """dim-dimensional hypercube on 2**dim vertices; i ~ j iff they differ in one bit."""
    if dim < 1:
        raise ValidationError(f"hypercube needs dim >= 1, got {dim}")
    i = np.arange(1 << dim)
    j = i[:, None] ^ (1 << np.arange(dim))
    g = Graph.from_edges(i.size, np.column_stack((np.repeat(i, dim), j.ravel())))
    return replace(g, group=CayleyGroup.of((2,) * dim, np.eye(dim)))


def gen_star(n: int) -> Graph:
    """Star on n >= 2 vertices; vertex 0 is the center."""
    if n < 2:
        raise ValidationError(f"star needs n >= 2, got {n}")
    leaves = np.arange(1, n)
    return Graph.from_edges(n, np.column_stack((np.zeros_like(leaves), leaves)))


def gen_complete(n: int) -> Graph:
    """Complete graph on n >= 2 vertices."""
    if n < 2:
        raise ValidationError(f"complete graph needs n >= 2, got {n}")
    g = Graph.from_edges(n, np.column_stack(np.triu_indices(n, 1)))
    return replace(g, group=CayleyGroup.of((n,), np.arange(1, n)))


def gen_torus(a: int, b: int) -> Graph:
    """a x b grid with wraparound in both directions (4-regular); a, b >= 3."""
    if a < 3 or b < 3:
        raise ValidationError(f"torus needs both sides >= 3, got {a}x{b}")
    v = np.arange(a * b)
    i, j = np.divmod(v, b)
    down, right = (i + 1) % a * b + j, i * b + (j + 1) % b
    g = Graph.from_edges(v.size, np.column_stack((np.tile(v, 2), np.concatenate((down, right)))))
    return replace(g, group=CayleyGroup.of((a, b), [[1, 0], [a - 1, 0], [0, 1], [0, b - 1]]))


def gen_random_regular(n: int, d: int, seed: int) -> Graph:
    """Simple connected d-regular graph via the pairing model.

    Pairings producing self-loops or parallel edges are discarded and the
    whole pairing restarts; disconnected outcomes restart too. Gives up
    after MAX_REGULAR_RESTARTS attempts.
    """
    if d >= n:
        raise ValidationError(f"need d < n, got d={d}, n={n}")
    if d < 1:
        raise ValidationError(f"need d >= 1, got d={d}")
    if (n * d) % 2 != 0:
        raise ValidationError(f"n*d must be even, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    tried, k = 0, 1
    while tried < MAX_REGULAR_RESTARTS:
        # k restarts at once, k = 1, 2, 4, ... up to 2**13 stubs (64 KiB):
        # permuting k rows of stubs draws what k shuffles of fresh stubs would
        k = min(k, max(1, 2**13 // stubs.size), MAX_REGULAR_RESTARTS - tried)
        pairs = rng.permuted(np.tile(stubs, (k, 1)), axis=1).reshape(k, -1, 2)
        lo, hi = pairs.min(axis=2), pairs.max(axis=2)
        key = np.sort(lo * n + hi, axis=1)
        simple = ~((lo == hi).any(axis=1) | (key[:, 1:] == key[:, :-1]).any(axis=1))
        for i in simple.nonzero()[0].tolist():
            try:
                return Graph.from_edges(n, pairs[i])
            except ValidationError:
                continue  # disconnected; the next candidate
        tried, k = tried + k, 2 * k
    raise GenerationError(
        f"failed to sample a connected simple {d}-regular graph on {n} vertices "
        f"after {MAX_REGULAR_RESTARTS} restarts"
    )


def load_edge_list(text: str) -> Graph:
    """Parse an edge-list document: one edge per line "u v", '#' comments.

    Vertex count is 1 + the largest index seen. Errors carry line numbers.
    """
    edges: list[tuple[int, int]] = []
    max_idx = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValidationError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValidationError(f"line {lineno}: non-numeric token in {raw!r}") from None
        if u < 0 or v < 0:
            raise ValidationError(f"line {lineno}: negative vertex index in {raw!r}")
        if u == v:
            raise ValidationError(f"line {lineno}: self-loop {u} {v}")
        edges.append((u, v))
        max_idx = max(max_idx, u, v)
    if not edges:
        raise ValidationError("edge list is empty")
    return Graph.from_edges(max_idx + 1, edges)


def edge_list_text(g: Graph) -> str:
    """Inverse of load_edge_list (comment-free)."""
    return "\n".join(f"{u} {v}" for u, v in g.edges()) + "\n"
