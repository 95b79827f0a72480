"""Round (transition) matrices: construction, validation, spectra.

A round matrix is row-stochastic and stored as flat per-entry arrays, row
after row, each row in a fixed interval order: non-self neighbors by
ascending index, then the self-loop entry last. The running sums of each
row partition [0, 1) into half-open intervals, one per positive entry; the
discrete sampler routes tokens by where a random number falls among these
intervals. Keeping the self interval on top of [0, 1) makes the
lazy-random-walk instance behave as "stay if the sample lands in [1/2, 1)".
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DiffusimError,
    NotIrreducibleError,
    SizeLimitError,
    UnsupportedMatrixError,
    ValidationError,
)
from .graphs import CayleyGroup, Graph, _read_only_setstate, _symmetric_support_connected

ROW_SUM_TOL = 1e-12       # construction: row sums must be 1 within this
CLASSIFY_TOL = 1e-12      # symmetric / lazy flags
DETAILED_BALANCE_TOL = 1e-10
DENSE_LIMIT = 4096


class RowView(NamedTuple):
    """One matrix row in interval order: slices of the matrix's flat arrays."""

    targets: np.ndarray   # neighbor indices, self last when present
    probs: np.ndarray     # positive probabilities, same order
    ends: np.ndarray      # running sums: interval i is [ends[i-1], ends[i]); ends[-1]=1

    @property
    def prefix(self) -> np.ndarray:
        """The interval boundaries, 0 first: len(targets)+1 entries."""
        return np.concatenate(([0.0], self.ends))


@dataclass(eq=False)
class RoundMatrix:
    """Validated row-stochastic matrix in a flat per-entry interval layout.

    Entry e lies in row rows[e]; row v holds entries indptr[v]:indptr[v+1]
    in interval order, so memory is O(n + nnz) on any degree profile. The
    arrays are marked read-only so matrices can be shared across trials.
    `group` is the Cayley group of the graph that lazy_rw_matrix or
    metropolis_matrix built the matrix from, when that graph records one
    (see cayley_spectrum); None otherwise.
    """

    n: int
    indptr: np.ndarray    # (n+1,) int64: row v is entries indptr[v]:indptr[v+1]
    rows: np.ndarray      # (nnz,) int64: the row of each entry
    targets: np.ndarray   # (nnz,) int64
    probs: np.ndarray     # (nnz,) float64, all positive
    ends: np.ndarray      # (nnz,) float64: interval ends, exactly 1.0 at a row's end
    transpose: np.ndarray  # (nnz,) int64: the entry (u, v) of entry (v, u); -1 when absent
    symmetric: bool
    lazy: bool
    irreducible: bool
    group: CayleyGroup | None = None

    __setstate__ = _read_only_setstate

    @classmethod
    def from_entries(cls, n: int, rows, targets, probs) -> "RoundMatrix":
        """Validate and canonicalize entries P[rows[i], targets[i]] = probs[i].

        Out-of-range indices, entries that are not >= 0 (NaN included) and
        row sums away from 1 (beyond 1e-12) are rejected with the offending
        row named. Zero entries are dropped, duplicate (v, u) entries are
        summed in input order, and each row is sorted into interval order.
        Interval ends are summed left to right within each row and clamped
        at 1.0, and a row's last end is pinned to exactly 1.0 (a shift within
        the row-sum tolerance) so interval arithmetic has an exact top end:
        no end passes it, even when the last entry is below the slack.
        """
        if n < 1:
            raise ValidationError("matrix needs at least one row")
        rows = np.asarray(rows, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        probs = np.asarray(probs, dtype=np.float64)
        bad_row = np.flatnonzero((rows < 0) | (rows >= n))
        if bad_row.size:
            raise ValidationError(f"row index {rows[bad_row[0]]} out of range for n={n}")
        bad = np.flatnonzero((targets < 0) | (targets >= n) | ~(probs >= 0))
        if bad.size:
            i = bad[np.argmin(rows[bad])]  # the lowest row's first bad entry
            v, u, p = rows[i], targets[i], probs[i]
            if not (0 <= u < n):
                raise ValidationError(f"row {v}: column {u} out of range for n={n}")
            raise ValidationError(f"row {v}: negative or NaN entry P[{v},{u}]={p}")
        total = np.bincount(rows, weights=probs, minlength=n)  # each row in input order
        bad_sum = np.flatnonzero(np.abs(total - 1.0) > ROW_SUM_TOL)
        if bad_sum.size:
            v = bad_sum[0]
            raise ValidationError(f"row {v}: sums to {float(total[v])!r}, expected 1 within {ROW_SUM_TOL}")

        keep = probs > 0
        # one key per (v, u) in interval order: neighbors ascending, self last
        key = rows[keep] * (n + 1) + np.where(targets[keep] == rows[keep], n, targets[keep])
        # a stable sort (timsort) takes the builders' keys, which come in two
        # sorted runs, in one merge; np.unique would quicksort them
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.concatenate(([True], key[1:] != key[:-1]))
        entry = np.empty_like(order)
        entry[order] = first.cumsum() - 1
        key = key[first]
        probs = np.bincount(entry, weights=probs[keep])  # duplicates summed in input order
        rows, col = np.divmod(key, n + 1)
        targets = np.where(col == n, rows, col)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        last = indptr[1:] - 1
        ends = np.minimum(_running_sums(indptr, probs), 1.0)
        ends[last] = 1.0
        transpose = _transpose_index(key, targets * (n + 1) + np.where(col == n, n, rows))
        arrays = (indptr, rows, targets, probs, ends, transpose)
        for arr in arrays:
            arr.flags.writeable = False
        if np.all(transpose >= 0):
            irreducible = _symmetric_support_connected(indptr, targets)
        else:  # strong connectivity; only file: matrices get here, so scipy is imported here
            from scipy.sparse import csgraph, csr_matrix

            S = csr_matrix((probs, targets, indptr), shape=(n, n))
            irreducible = bool(csgraph.connected_components(S, connection="strong")[0] == 1)
        diag = np.where(targets[last] == np.arange(n), probs[last], 0.0)
        return cls(
            n,
            *arrays,
            symmetric=_transpose_gap(probs, transpose) <= CLASSIFY_TOL,
            lazy=bool(np.all(diag >= 0.5 - CLASSIFY_TOL)),
            irreducible=irreducible,
        )

    @cached_property
    def starts(self) -> np.ndarray:
        """(nnz,) float64, read-only: interval starts, the previous entry's
        end and 0.0 at a row's first entry. Computed once per matrix."""
        out = np.empty_like(self.ends)
        out[1:] = self.ends[:-1]
        out[self._heads] = 0.0
        out.flags.writeable = False
        return out

    @cached_property
    def _heads(self) -> np.ndarray:
        """(n,) int64, read-only: each row's first entry, indptr[:-1]."""
        return self.indptr[:-1]

    @cached_property
    def _last(self) -> np.ndarray:
        """(n,) int64, read-only: each row's last entry, indptr[1:] - 1."""
        out = self.indptr[1:] - 1
        out.flags.writeable = False
        return out

    @cached_property
    def _vertices(self) -> np.ndarray:
        """(n,) int64, read-only: arange(n)."""
        out = np.arange(self.n)
        out.flags.writeable = False
        return out

    @cached_property
    def _keys(self) -> np.ndarray:
        """(nnz,) complex128, read-only: real part rows, imaginary part 0, the
        template of the sampler's search keys (see discrete._token_dests)."""
        out = self.rows.astype(np.complex128)
        out.flags.writeable = False
        return out

    @cached_property
    def cayley_spectrum(self) -> np.ndarray | None:
        """The eigenvalues, flat in the group's character order, when the
        matrix records a Cayley group (lazy-rw and metropolis chains on
        cycle, torus, hypercube and complete graphs); None otherwise.
        Computed once per matrix, read-only.

        Such a P is (I + A/d) / 2 for the adjacency matrix A of the Cayley
        graph of an abelian group G with generator set S, d = |S|. The
        characters of G are a common eigenbasis of every such A, and A's
        eigenvalue on a character is its sum over S: the discrete Fourier
        transform of S's indicator laid out on G's shape, real because
        S = -S. Entry 0 is the trivial character, the eigenvalue 1.
        """
        grp = self.group
        if grp is None:
            return None
        from numpy import fft  # here, not at the top: numpy loads its fft module lazily

        indicator = np.zeros(grp.shape)
        indicator[tuple(grp.generators.T)] = 1.0
        eigs = (0.5 + fft.fftn(indicator).real / (2 * len(grp.generators))).ravel()
        eigs.flags.writeable = False
        return eigs

    def row(self, v: int) -> RowView:
        s = slice(self.indptr[v], self.indptr[v + 1])
        return RowView(self.targets[s], self.probs[s], self.ends[s])

    def dense(self) -> np.ndarray:
        """Dense (n, n) copy; refuses above DENSE_LIMIT."""
        if self.n > DENSE_LIMIT:
            raise SizeLimitError(f"dense form refused for n={self.n} > {DENSE_LIMIT}")
        out = np.zeros((self.n, self.n))
        out[self.rows, self.targets] = self.probs
        return out

    def to_text(self) -> str:
        """Serialize as a header line "n" then "v u p" lines."""
        lines = [str(self.n)]
        for v, u, p in zip(self.rows.tolist(), self.targets.tolist(), self.probs.tolist()):
            lines.append(f"{v} {u} {p!r}")
        return "\n".join(lines) + "\n"


def _transpose_index(key: np.ndarray, tkey: np.ndarray) -> np.ndarray:
    """For each entry, the index of the entry whose key is its transposed key
    tkey, or -1; key is sorted and unique. Sorting tkey first makes the
    search run over sorted queries, and on a symmetric support the sorted
    tkey is key itself, so no search is needed."""
    order = np.argsort(tkey, kind="stable")  # timsort: transposed keys come in sorted runs
    found = tkey[order]
    out = np.full(key.size, -1)
    if np.array_equal(found, key):
        out[order] = np.arange(key.size)
        return out
    pos = np.minimum(np.searchsorted(key, found), key.size - 1)
    hit = key[pos] == found
    out[order[hit]] = pos[hit]
    return out


def _transpose_gap(x: np.ndarray, transpose: np.ndarray) -> float:
    """max |x[v,u] - x[u,v]| over the entries, an absent entry counting as
    0: the largest |entry| of X - X^T."""
    return float(np.max(np.abs(x - np.where(transpose >= 0, x[transpose], 0.0))))


def _running_sums(indptr: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Running sums of probs within each row, each added left to right.

    A global cumsum minus row offsets would round differently. Every row
    gets one vectorised add per position up to a width w; the rows longer
    than w get one (sequential) cumsum each, with w chosen to minimise the
    count of numpy calls, so a star's hub row costs one call, not n.
    """
    lens = np.diff(indptr)
    by_len = np.argsort(-lens, kind="stable")   # longest rows first
    sorted_lens = lens[by_len]
    n_long = int(np.argmin(np.arange(lens.size) + sorted_lens))
    out = probs.copy()
    for v in by_len[:n_long].tolist():
        s = slice(indptr[v], indptr[v + 1])
        out[s] = np.cumsum(probs[s])
    starts = indptr[by_len[n_long:]]
    wider = np.searchsorted(-sorted_lens[n_long:], -np.arange(sorted_lens[n_long]))
    for j in range(1, sorted_lens[n_long]):
        at = starts[:wider[j]] + j                  # position j of every row longer than j
        out[at] += out[at - 1]
    return out


def _with_self_loops(rows, targets, probs, self_probs) -> RoundMatrix:
    """RoundMatrix of off-diagonal entries plus one self-loop per vertex."""
    v = np.arange(len(self_probs))
    return RoundMatrix.from_entries(v.size, np.concatenate((rows, v)), np.concatenate((targets, v)),
                                    np.concatenate((probs, self_probs)))


def lazy_rw_matrix(g: Graph) -> RoundMatrix:
    """Lazy random walk on a regular graph: 1/(2d) per edge, 1/2 self.
    Carries g's Cayley group, if any."""
    d = g.regular_degree()
    rows = np.repeat(np.arange(g.n), d)
    P = _with_self_loops(rows, g.targets, np.full(rows.size, 1.0 / (2 * d)), np.full(g.n, 0.5))
    return replace(P, group=g.group)


def metropolis_matrix(g: Graph) -> RoundMatrix:
    """Metropolis chain: 1/(2*max(d_v, d_u)) per edge, remainder on the self-loop.

    Symmetric and lazy on any connected graph, using only local degree
    knowledge. On a regular graph it is the lazy random walk; it carries g's
    Cayley group, if any.
    """
    degs = g.degrees()
    rows = np.repeat(np.arange(g.n), degs)
    targets = g.targets
    probs = 1.0 / (2 * np.maximum(degs[rows], degs[targets]))
    # bincount sums each row left to right, the order the self-loop remainder is pinned to
    P = _with_self_loops(rows, targets, probs, 1.0 - np.bincount(rows, probs, minlength=g.n))
    return replace(P, group=g.group)  # a Cayley graph is regular


def custom_matrix(entries: Sequence[tuple[int, int, float]], n: int | None = None) -> RoundMatrix:
    """Build a RoundMatrix from (v, u, probability) triples.

    n defaults to 1 + the largest index mentioned.
    """
    if not entries:
        raise ValidationError("no entries given")
    rows, targets, probs = zip(*entries)
    try:
        rows, targets = np.array(rows, dtype=np.int64), np.array(targets, dtype=np.int64)
    except OverflowError:
        raise ValidationError("vertex index beyond the int64 range") from None
    if n is None:
        n = 1 + int(max(rows.max(), targets.max()))
    return RoundMatrix.from_entries(n, rows, targets, probs)


def matrix_from_text(text: str) -> RoundMatrix:
    """Parse the "n" header + "v u p" line format (see RoundMatrix.to_text)."""
    lines = [(lineno, ln.strip()) for lineno, ln in enumerate(text.splitlines(), start=1)]
    lines = [(lineno, ln) for lineno, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValidationError("matrix text is empty")
    try:
        n = int(lines[0][1])
    except ValueError:
        raise ValidationError(f"bad header line {lines[0][1]!r}, expected vertex count") from None
    entries = []
    for lineno, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValidationError(f"line {lineno}: expected 'v u p', got {ln!r}")
        try:
            entries.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError:
            raise ValidationError(f"line {lineno}: non-numeric token in {ln!r}") from None
    return custom_matrix(entries, n=n)


def is_reversible(P: RoundMatrix, pi: np.ndarray) -> bool:
    """Detailed balance pi_v P[v,u] == pi_u P[u,v] within 1e-10."""
    return _transpose_gap(np.asarray(pi)[P.rows] * P.probs, P.transpose) <= DETAILED_BALANCE_TOL


def detailed_balance_pi(P: RoundMatrix) -> np.ndarray | None:
    """Stationary distribution of an irreducible reversible chain, or None
    when detailed balance fails.

    pi is read off detailed balance, pi_u / pi_v = P[v,u] / P[u,v], along a
    breadth-first tree from vertex 0 and then checked on every entry with
    is_reversible, so periodic chains are handled too. The tree scans each
    row in entry order and gives u the first vertex that reaches it as its
    parent. Raises NotIrreducibleError for reducible chains.
    """
    if not P.irreducible:
        raise NotIrreducibleError("detailed balance requested for a reducible chain")
    if P.symmetric:
        pi = np.full(P.n, 1.0 / P.n)
    else:
        # a plain queue: a numpy pass per BFS level would cost one call per
        # level, so a long path would take thousands of calls
        indptr, targets = P.indptr.tolist(), P.targets.tolist()
        parent = [-1] * P.n
        parent[0] = 0
        order, tree = [0], []   # tree[j]: the entry (parent, u) of u = order[j + 1]
        for v in order:         # the loop also visits the vertices appended to order
            for i in range(indptr[v], indptr[v + 1]):
                u = targets[i]
                if parent[u] < 0:
                    parent[u] = v
                    order.append(u)
                    tree.append(i)
        tree = np.array(tree, dtype=np.int64)
        back = P.transpose[tree]
        if np.any(back < 0):
            return None
        step = np.log(P.probs[tree] / P.probs[back])
        log_pi = [0.0] * P.n
        for u, s in zip(order[1:], step.tolist()):  # parents come first
            log_pi[u] = log_pi[parent[u]] + s
        log_pi = np.array(log_pi)
        pi = np.exp(log_pi - log_pi.max())
        pi /= pi.sum()
    return pi if is_reversible(P, pi) else None


def stationary_distribution(P: RoundMatrix) -> np.ndarray:
    """Exact stationary distribution of an irreducible chain.

    Reversible chains (symmetric and periodic ones included) take it from
    detailed_balance_pi. Any other chain gets one sparse direct solve of
    pi (P - I) = 0 with the first equation replaced by sum(pi) = 1.
    Raises NotIrreducibleError for reducible chains.
    """
    pi = detailed_balance_pi(P)
    if pi is not None:
        return pi
    from scipy import sparse  # here, not at the top: only non-reversible chains get here
    from scipy.sparse.linalg import spsolve

    S = sparse.csr_matrix((P.probs, P.targets, P.indptr), shape=(P.n, P.n))
    # the equations (P - I)^T pi = 0, the first one replaced by sum(pi) = 1
    A = sparse.vstack([np.ones((1, P.n)), (S - sparse.identity(P.n)).T.tocsr()[1:]], format="csc")
    b = np.zeros(P.n)
    b[0] = 1.0
    pi = spsolve(A, b)
    if not np.all(np.isfinite(pi)):
        raise DiffusimError("the stationary solve gave a non-finite pi")
    return pi


def power_apply(x: np.ndarray, P: RoundMatrix, t: int) -> np.ndarray:
    """x . P^t via t sparse row-vector multiplications; t=0 returns a copy."""
    if t < 0:
        raise ValidationError(f"step count must be >= 0, got {t}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (P.n,):
        raise ValidationError(f"vector has shape {x.shape}, expected ({P.n},)")
    y = x.copy()
    for _ in range(t):
        y = np.bincount(P.targets, weights=y[P.rows] * P.probs, minlength=P.n)
    return y


def second_eigenvalue(P: RoundMatrix) -> float:
    """Second-largest eigenvalue magnitude of a symmetric irreducible chain.

    Read off P.cayley_spectrum at any n when P records a Cayley group; else a
    dense symmetric eigendecomposition, refused above DENSE_LIMIT. For lazy
    symmetric chains all eigenvalues are nonnegative so this equals
    lambda_2 itself.
    """
    if not P.symmetric:
        raise UnsupportedMatrixError("second_eigenvalue requires a symmetric matrix")
    if not P.irreducible:
        raise NotIrreducibleError("second_eigenvalue requires an irreducible matrix")
    eigs = P.cayley_spectrum
    if eigs is None:
        if P.n > DENSE_LIMIT:
            raise SizeLimitError(f"n={P.n} above dense eigensolver limit {DENSE_LIMIT}")
        if P.n == 1:
            return 0.0
        eigs = np.linalg.eigvalsh(P.dense())
    mags = np.sort(np.abs(eigs))
    return float(mags[-2])
