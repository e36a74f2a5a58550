"""Exact integer linear algebra: Smith/Hermite normal forms and sublattices of Z^n.

Matrices are numpy arrays with ``dtype=object`` holding Python ints, so all
arithmetic is arbitrary precision; Smith-form intermediates can grow far past
any fixed width.  The hot loops work on plain lists of lists, which is faster
than per-element object-array indexing.

Conventions:

* Smith normal form: ``snf(M) -> (S, U, V)`` with ``U @ M @ V == S``,
  ``S`` diagonal with nonnegative entries satisfying d1 | d2 | ..., and
  ``U``, ``V`` unimodular.
* Sublattice bases are kept in *column* Hermite normal form: pivot rows
  strictly increase down the matrix, pivots are positive, and within a pivot
  row every entry left of the pivot lies in ``[0, pivot)``.  One canonical
  form per lattice, so equality is entry-wise comparison.
"""

from __future__ import annotations

import numpy as np

from .errors import NonUnimodularError


# ---------------------------------------------------------------------------
# matrix construction and basic helpers


def _int_rows(data) -> list[list[int]]:
    """Rows of an integer matrix given from outside, as lists of Python ints.

    Accepts nested sequences or an existing array.  Every entry must be an
    integer (bools are refused); rows must have equal length.
    """
    if isinstance(data, np.ndarray) and data.dtype == object and data.ndim == 2:
        rows = data.tolist()
    else:
        rows = [list(r) for r in data]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows in matrix data")
    if all(type(x) is int for row in rows for x in row):
        return rows
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                raise ValueError(f"non-integer entry {x!r} at ({i}, {j})")
            row[j] = int(x)
    return rows


def intmat(data) -> np.ndarray:
    """Build a validated integer matrix (2-d numpy array of Python ints).

    Accepts nested sequences or an existing array.  Every entry must be an
    integer; rows must have equal length; a 2-d array with no rows keeps its width.
    """
    width = data.shape[1] if isinstance(data, np.ndarray) and data.ndim == 2 else 0
    return _from_lists(_int_rows(data), width)


def identity_matrix(n: int) -> np.ndarray:
    return _from_lists(_eye_lists(n), n)


def _from_lists(rows: list[list[int]], width: int = 0) -> np.ndarray:
    """Read-only object array of rows this module built (entries are not
    re-checked); ``width`` is the column count when there are no rows."""
    if rows:
        out = np.array(rows, dtype=object)
    else:
        out = np.empty((0, width), dtype=object)
    out.setflags(write=False)
    return out


def _eye_lists(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# determinants and inverses


def det(M: np.ndarray) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    A = _int_rows(M)
    n = len(A)
    if n == 0:
        return 1
    if any(len(r) != n for r in A):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def unimodular_inverse(M) -> np.ndarray:
    """Exact inverse of an integer matrix with integer inverse (|det| = 1).

    Its Smith form is U @ M @ V = I, so the inverse is V @ U."""
    M = intmat(M)
    n = M.shape[0]
    if M.shape[1] != n:
        raise ValueError("inverse of a non-square matrix")
    S, U, V = snf(M)
    d = diagonal_of(S)
    if 0 in d:
        raise NonUnimodularError("matrix is singular")
    if any(x != 1 for x in d):
        raise NonUnimodularError("matrix has no integer inverse")
    return _from_lists((V @ U).tolist(), n)


# ---------------------------------------------------------------------------
# Smith normal form


def _row_sub(A: list[list[int]], i: int, t: int, q: int) -> None:
    Ai, At = A[i], A[t]
    for k in range(len(Ai)):
        Ai[k] -= q * At[k]


def _col_sub(A: list[list[int]], j: int, t: int, q: int) -> None:
    for row in A:
        row[j] -= q * row[t]


def _swap_cols(A: list[list[int]], a: int, b: int) -> None:
    for row in A:
        row[a], row[b] = row[b], row[a]


def _snf_lists(A: list[list[int]], n: int, track_u: bool = True):
    """Smith form of the m x n matrix ``A`` (lists of ints, reduced in place).

    Returns ``(A, U, V)`` as lists with ``U @ M @ V == A`` for the input M.
    Without ``track_u`` (a kernel needs only ``V``) the rows of ``U`` are
    empty, which makes every update of ``U`` a no-op.
    """
    m = len(A)
    U = _eye_lists(m) if track_u else [[] for _ in range(m)]
    V = _eye_lists(n)
    for t in range(min(m, n)):
        # move a smallest-magnitude nonzero of the trailing block to (t, t)
        best = None
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                v = Ai[j]
                if v != 0 and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            A[t], A[bi] = A[bi], A[t]
            U[t], U[bi] = U[bi], U[t]
        if bj != t:
            _swap_cols(A, t, bj)
            _swap_cols(V, t, bj)
        while True:
            piv = A[t][t]
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // piv
                    if q:
                        _row_sub(A, i, t, q)
                        _row_sub(U, i, t, q)
            rem = [i for i in range(t + 1, m) if A[i][t]]
            if rem:
                i = min(rem, key=lambda r: abs(A[r][t]))
                A[t], A[i] = A[i], A[t]
                U[t], U[i] = U[i], U[t]
                continue
            piv = A[t][t]
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // piv
                    if q:
                        _col_sub(A, j, t, q)
                        _col_sub(V, j, t, q)
            rem = [j for j in range(t + 1, n) if A[t][j]]
            if rem:
                j = min(rem, key=lambda c: abs(A[t][c]))
                _swap_cols(A, t, j)
                _swap_cols(V, t, j)
                continue
            # cross is clear; force the divisibility chain
            piv = A[t][t]
            bad = None
            for i in range(t + 1, m):
                Ai = A[i]
                if any(Ai[j] % piv for j in range(t + 1, n)):
                    bad = i
                    break
            if bad is None:
                break
            _row_sub(A, t, bad, -1)
            _row_sub(U, t, bad, -1)
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
    return A, U, V


def snf(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form.

    Returns ``(S, U, V)`` with ``U @ M @ V == S``, ``U`` and ``V`` unimodular,
    and ``S`` diagonal with nonnegative diagonal satisfying d1 | d2 | ...
    """
    A = intmat(M)
    m, n = A.shape
    S, U, V = _snf_lists(A.tolist(), n)
    return _from_lists(S, n), _from_lists(U, m), _from_lists(V, n)


def diagonal_of(S: np.ndarray) -> list[int]:
    return [int(S[i, i]) for i in range(min(S.shape))]


def _kernel_columns(rows: list[list[int]], n: int) -> list[list[int]]:
    """Column Hermite basis of {x in Z^n : rows @ x = 0} (``rows`` is consumed)."""
    S, _, V = _snf_lists(rows, n, track_u=False)
    free = [j for j in range(n) if j >= len(S) or S[j][j] == 0]
    return _hnf_columns([[V[i][j] for i in range(n)] for j in free], n)


def _hnf_columns(cols: list[list[int]], n: int) -> list[list[int]]:
    """Canonical column Hermite basis of the span of ``cols`` (vectors of
    length n, reduced in place); zero columns are dropped."""
    r = 0
    for i in range(n):
        while True:
            nz = [j for j in range(r, len(cols)) if cols[j][i] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: abs(cols[j][i]))
            cols[r], cols[j0] = cols[j0], cols[r]
            done = True
            for j in range(r + 1, len(cols)):
                if cols[j][i]:
                    q = cols[j][i] // cols[r][i]
                    if q:
                        cj, cr = cols[j], cols[r]
                        for k in range(n):
                            cj[k] -= q * cr[k]
                    if cols[j][i]:
                        done = False
            if done:
                break
        if r < len(cols) and cols[r][i] != 0:
            if cols[r][i] < 0:
                cols[r] = [-x for x in cols[r]]
            piv = cols[r][i]
            for k in range(r):
                q = cols[k][i] // piv
                if q:
                    ck, cr = cols[k], cols[r]
                    for t in range(n):
                        ck[t] -= q * cr[t]
            r += 1
    return cols[:r]


# ---------------------------------------------------------------------------
# sublattices


class Sublattice:
    """A subgroup of Z^n presented by a canonical column-Hermite basis.

    ``saturated`` records whether Z^n / L is torsion free; it is computed at
    construction from the invariant factors of the basis.  The basis is kept
    as ``columns``, a tuple of column tuples of Python ints.
    """

    __slots__ = ("ambient_rank", "columns", "saturated", "_factors")

    def __init__(self, ambient_rank: int, columns, saturated: bool):
        """``columns`` must already be the canonical column Hermite basis."""
        self.ambient_rank = ambient_rank
        self.columns = tuple(tuple(c) for c in columns)
        self.saturated = saturated
        self._factors = None

    @classmethod
    def _span(cls, ambient_rank: int, cols: list[list[int]]) -> "Sublattice":
        """The lattice spanned by integer vectors this module built."""
        L = cls(ambient_rank, _hnf_columns(cols, ambient_rank), True)
        L.saturated = all(d == 1 for d in L._invariant_factors())
        return L

    @property
    def rank(self) -> int:
        return len(self.columns)

    def _invariant_factors(self) -> list[int]:
        """The diagonal of the Smith form of the basis."""
        if self._factors is None:
            n = self.ambient_rank
            rows = [[c[i] for c in self.columns] for i in range(n)]
            S, _, _ = _snf_lists(rows, self.rank, track_u=False)
            self._factors = [S[i][i] for i in range(min(n, self.rank))]
        return self._factors

    def __eq__(self, other) -> bool:
        return (isinstance(other, Sublattice)
                and self.ambient_rank == other.ambient_rank
                and self.columns == other.columns)

    def __hash__(self):
        return hash((self.ambient_rank, self.columns))

    def __repr__(self):
        return (f"Sublattice(Z^{self.ambient_rank}, basis={list(self.columns)}, "
                f"saturated={self.saturated})")


def _square_rows(elems) -> tuple[int, list[list[list[int]]]]:
    """(n, rows of each matrix) for a nonempty list of n x n integer matrices."""
    mats = [_int_rows(h) for h in elems]
    if not mats:
        raise ValueError("need at least one matrix to infer the ambient rank")
    n = len(mats[0])
    for h in mats:
        if len(h) != n or (h and len(h[0]) != n):
            raise ValueError("matrices of mixed dimensions")
    return n, mats


def fixed_lattice(elems) -> Sublattice:
    """The saturated sublattice of vectors fixed by every matrix in ``elems``.

    This is the kernel of the stacked maps (h - 1), so it depends only on the
    group the elements generate.
    """
    n, mats = _square_rows(elems)
    # the kernel depends only on the set of rows; repeats and zero rows add nothing
    rows = dict.fromkeys(tuple(x - (i == j) for j, x in enumerate(row))
                         for h in mats for i, row in enumerate(h))
    rows.pop((0,) * n, None)
    return Sublattice(n, _kernel_columns([list(r) for r in rows], n), True)


def moved_lattice(elems) -> Sublattice:
    """The sublattice generated by the columns of (h - 1) for h in ``elems``.

    Unlike the fixed lattice this one is in general *not* saturated
    (inversion on Z^2 moves by 2Z^2).
    """
    n, mats = _square_rows(elems)
    return Sublattice._span(n, [[h[i][j] - (i == j) for i in range(n)]
                                for h in mats for j in range(n)])


def quotient_invariants(L: Sublattice) -> tuple[int, list[int]]:
    """Invariant factors of Z^n / L: (free rank, nontrivial torsion factors)."""
    if L.rank == 0:
        return L.ambient_rank, []
    return L.ambient_rank - L.rank, [d for d in L._invariant_factors() if d > 1]
