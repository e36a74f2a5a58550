"""Dense linear algebra over the prime field F_p (int64 arrays).

``rref_fp`` is the package's only elimination routine: ranks, nullspaces and
the row spaces of ``SpanFp`` all go through it, with each pivot step applied
to every row at once.

Entries are residues in [0, p).  An elimination step forms a residue minus a
product of two residues, so every prime up to ``MAX_PRIME`` (with p*p < 2**63)
keeps it inside int64; larger primes raise ``BoundExceededError``.  A product
of matrices over w terms needs w*(p-1)**2 < 2**63, so ``matmul_fp`` reduces
after every such group of terms.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundExceededError

MAX_PRIME = 3037000499  # the largest p with p * p < 2**63


def rref_fp(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (nonzero rows, pivot columns)."""
    if p > MAX_PRIME:
        raise BoundExceededError(f"prime {p} exceeds the int64 bound {MAX_PRIME}")
    A = np.mod(mat, p, dtype=np.int64)
    rows, cols = A.shape
    r = 0
    pivots: list[int] = []
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        A[r, c:] = (A[r, c:] * pow(int(A[r, c]), -1, p)) % p
        hit = np.nonzero(A[:, c])[0]
        hit = hit[hit != r]
        A[hit, c:] = (A[hit, c:] - np.outer(A[hit, c], A[r, c:])) % p
        pivots.append(c)
        r += 1
    return A[:r], pivots


def rank_fp(mat: np.ndarray, p: int) -> int:
    return len(rref_fp(mat, p)[1])


def matmul_fp(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residue matrices, without int64 overflow."""
    terms = (2**63 - 1) // max((p - 1) ** 2, 1)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, a.shape[1], terms):
        out += (a[:, s:s + terms] @ b[s:s + terms]) % p
        out %= p
    return out


def nullspace_fp(mat: np.ndarray, p: int, col_order=None) -> np.ndarray:
    """Basis of the right nullspace, one row per basis vector.

    ``col_order`` permutes the elimination order of the columns; the spanned
    space is identical for any order, which tests rely on.
    """
    A = np.asarray(mat, dtype=np.int64)
    cols = A.shape[1]
    order = np.arange(cols) if col_order is None else np.asarray(col_order, dtype=np.intp)
    R, piv = rref_fp(A[:, order], p)
    free = np.delete(np.arange(cols), piv)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), order[free]] = 1
    basis[:, order[piv]] = (-R[:, free].T) % p
    return basis


class SpanFp:
    """Row space over F_p, kept as its reduced row echelon form."""

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self._rref = np.zeros((0, width), dtype=np.int64)
        self._pivots: list[int] = []

    def residues(self, batch) -> np.ndarray:
        """The rows of ``batch`` reduced by the RREF, on its non-pivot columns
        (the pivot columns reduce to 0): zero exactly on the span."""
        B = np.mod(batch, self.p, dtype=np.int64).reshape(-1, self.width)
        free = np.delete(np.arange(self.width), self._pivots)
        out = B[:, free]
        out -= matmul_fp(B[:, self._pivots], self._rref[:, free], self.p)
        out %= self.p
        return out

    def contains(self, batch) -> np.ndarray:
        """Mask of the rows of ``batch`` that lie in the span."""
        return ~self.residues(batch).any(axis=1)

    def add(self, batch) -> None:
        """Insert the rows of ``batch``."""
        stack = np.vstack([self._rref, np.reshape(batch, (-1, self.width))])
        self._rref, self._pivots = rref_fp(stack, self.p)
