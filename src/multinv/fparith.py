"""Dense linear algebra over the prime field F_p (int64 arrays).

``rref_fp`` is the package's only elimination routine: ranks, nullspaces and
the row spaces of ``SpanFp`` all go through it, with each pivot step applied
to every row at once.

Entries are residues in [0, p).  An elimination step forms a residue minus a
product of two residues, so every prime up to ``MAX_PRIME`` (with p*p < 2**63)
keeps it inside int64; larger primes raise ``BoundExceededError``.

``matmul_fp`` has two paths, chosen from p and the inner dimension K.  When
K*(p-1)**2 < 2**53 it multiplies in float64 with BLAS: every product of two
residues and every partial sum of K of them is an integer below 2**53, which
float64 holds exactly, so the result is exact whatever order BLAS sums in,
and ``np.fmod`` by p is exact too.  Otherwise it multiplies int64 arrays over
groups of w terms with w*(p-1)**2 < 2**63, reducing after each group.

``SpanFp`` keeps its rows in insertion order, each with its pivot column,
and every pivot column is a unit column of the stored rows: sorted by pivot,
the rows are exactly the reduced row echelon form of everything added.  An
insert eliminates only the new rows' residues, never the stored rows again.
"""

from __future__ import annotations

import numpy as np

from .errors import MAX_PRIME, BoundExceededError

_EXACT_FLOAT = 2**53  # float64 holds every integer below it
_BLOCK_ENTRIES = 1 << 18  # entries of one row block of a float product


def _check_prime(p: int) -> None:
    if p > MAX_PRIME:
        raise BoundExceededError(f"prime {p} exceeds the int64 bound {MAX_PRIME}")


def rref_fp(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (nonzero rows, pivot columns)."""
    _check_prime(p)
    A = np.mod(mat, p, dtype=np.int64)
    rows = A.shape[0]
    r = 0
    pivots: list[int] = []
    for c in np.flatnonzero(A.any(axis=0)).tolist():  # row operations keep zero columns zero
        if r == rows:
            break
        nz = A[r:, c].nonzero()[0]
        if not nz.size:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        lead = int(A[r, c])
        if lead != 1:
            A[r, c:] = A[r, c:] * pow(lead, -1, p) % p
        hit = A[:, c].nonzero()[0]
        hit = hit[hit != r]
        if hit.size:
            A[hit, c:] = (A[hit, c:] - A[hit, c, None] * A[r, c:]) % p
        pivots.append(c)
        r += 1
    return A[:r], pivots


def rank_fp(mat: np.ndarray, p: int) -> int:
    return len(rref_fp(mat, p)[1])


def matmul_fp(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residue matrices, exact on either path."""
    _check_prime(p)
    K = a.shape[1]
    if K * (p - 1) ** 2 < _EXACT_FLOAT:
        out = np.empty((a.shape[0], b.shape[1]), dtype=np.int64)
        bf = b.astype(np.float64)
        step = max(1, _BLOCK_ENTRIES // max(K, b.shape[1], 1))
        for s in range(0, a.shape[0], step):
            out[s:s + step] = np.fmod(a[s:s + step].astype(np.float64) @ bf, p)
        return out
    terms = (2**63 - 1) // (p - 1) ** 2
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, K, terms):
        out += (a[:, s:s + terms] @ b[s:s + terms]) % p
        out %= p
    return out


def nullspace_fp(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right nullspace, one row per basis vector."""
    A = np.asarray(mat, dtype=np.int64)
    R, piv = rref_fp(A, p)
    free = np.delete(np.arange(A.shape[1]), piv)
    basis = np.zeros((free.size, A.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, piv] = (-R[:, free].T) % p
    return basis


class SpanFp:
    """Row space over F_p, kept as reduced rows in insertion order.

    Row i has a 1 in column ``_pivots[i]``, where every other row has 0;
    sorted by pivot the rows are the reduced row echelon form of the span.
    """

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self._rows = np.zeros((0, width), dtype=np.int64)
        self._pivots: list[int] = []

    def residues(self, batch) -> np.ndarray:
        """The rows of ``batch`` reduced by the stored rows, on the non-pivot
        columns (the pivot columns reduce to 0): zero exactly on the span."""
        B = np.mod(batch, self.p, dtype=np.int64).reshape(-1, self.width)
        free = np.delete(np.arange(self.width), self._pivots)
        out = B[:, free]
        out -= matmul_fp(B[:, self._pivots], self._rows[:, free], self.p)
        out %= self.p
        return out

    def contains(self, batch) -> np.ndarray:
        """Mask of the rows of ``batch`` that lie in the span."""
        return ~self.residues(batch).any(axis=1)

    def add(self, batch) -> None:
        """Insert the rows of ``batch``: eliminate their residues, then clear
        the new pivot columns in the stored rows."""
        p = self.p
        B = np.mod(batch, p, dtype=np.int64).reshape(-1, self.width)
        if self._pivots:
            B -= matmul_fp(B[:, self._pivots], self._rows, p)
            B %= p
        new, pivots = rref_fp(B, p)
        if not pivots:
            return
        R = self._rows
        hit = np.flatnonzero(R[:, pivots].any(axis=1))
        if hit.size:
            R[hit] = (R[hit] - matmul_fp(R[np.ix_(hit, pivots)], new, p)) % p
        self._rows = np.vstack([R, new])
        self._pivots += pivots
