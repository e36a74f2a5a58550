import math
import random

import numpy as np
import pytest

from multinv import fparith
from multinv.errors import BoundExceededError
from multinv.fparith import MAX_PRIME, SpanFp, matmul_fp, nullspace_fp, rank_fp, rref_fp
from multinv.matgroup import is_prime

LARGEST_PRIME = next(q for q in range(MAX_PRIME, 2, -1) if is_prime(q))
PRIMES = (2, 3, 7, 2147483647, LARGEST_PRIME)


def reference_rref(rows, p):
    """Row-at-a-time elimination on Python ints: the reference for rref_fp."""
    A = [[x % p for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(A[0]) if A else 0):
        pr = next((i for i in range(r, len(A)) if A[i][c]), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [x * inv % p for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return A[:r], pivots


def random_matrix(rng, p, rows, cols):
    # low-rank products and repeated rows make dependent rows common
    rank = rng.randint(0, min(rows, cols))
    small = [[rng.randrange(p) for _ in range(rank)] for _ in range(rows)]
    basis = [[rng.randrange(p) for _ in range(cols)] for _ in range(rank)]
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*basis)]
            if rank else [0] * cols for row in small]


@pytest.mark.parametrize("p", PRIMES)
def test_rref_matches_reference(p):
    rng = random.Random(p)
    for _ in range(20):
        M = random_matrix(rng, p, rng.randint(1, 8), rng.randint(1, 8))
        R, piv = rref_fp(np.array(M, dtype=np.int64), p)
        ref, ref_piv = reference_rref(M, p)
        assert piv == ref_piv
        assert R.tolist() == ref


@pytest.mark.parametrize("p", PRIMES)
def test_rref_independent_of_row_order(p):
    rng = random.Random(p + 1)
    for _ in range(10):
        M = np.array(random_matrix(rng, p, 7, 6), dtype=np.int64)
        R, piv = rref_fp(M, p)
        perm = list(range(7))
        rng.shuffle(perm)
        R2, piv2 = rref_fp(M[perm], p)
        assert piv == piv2 and np.array_equal(R, R2)


@pytest.mark.parametrize("p", PRIMES)
def test_nullspace_annihilates_and_has_corank_dimension(p):
    rng = random.Random(p + 2)
    for _ in range(10):
        M = np.array(random_matrix(rng, p, 5, 8), dtype=np.int64)
        rank = rank_fp(M, p)
        N, free = nullspace_fp(M, p)
        assert N.shape == (8 - rank, 8)
        assert rank_fp(N, p) == 8 - rank
        assert not matmul_fp(N, M.T, p).any()
        # the free columns are the non-pivot ones, where the basis is the identity
        assert free.tolist() == sorted(set(range(8)) - set(rref_fp(M, p)[1]))
        assert np.array_equal(N[:, free], np.eye(len(free), dtype=np.int64))


def python_matmul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def _threshold_cases():
    """(p, K) on both sides of K*(p-1)**2 < 2**53, where the product leaves
    float64 for the chunked int64 loop, and far on either side."""
    cases = [(2, 1), (7, 50), (LARGEST_PRIME, 9)]
    for K in (1, 2, 5):
        below = next(q for q in range(math.isqrt(2**53 // K) + 1, 2, -1)
                     if K * (q - 1) ** 2 < 2**53 and is_prime(q))
        above = next(q for q in range(below + 1, 2 * below) if is_prime(q))
        cases += [(below, K), (above, K)]
    return cases


def test_matmul_fp_matches_python_ints():
    assert {K * (p - 1) ** 2 < 2**53 for p, K in _threshold_cases()} == {True, False}
    for p, K in _threshold_cases():
        rng = random.Random(p * K)
        for rows, cols in ((3, 4), (1, 1), (0, 2), (5, 0)):
            a = [[rng.randrange(p) for _ in range(K)] for _ in range(rows)]
            b = [[rng.randrange(p) for _ in range(cols)] for _ in range(K)]
            got = matmul_fp(np.array(a, dtype=np.int64).reshape(rows, K),
                            np.array(b, dtype=np.int64).reshape(K, cols), p)
            assert got.dtype == np.int64
            assert got.shape == (rows, cols) and got.tolist() == python_matmul(a, b, p)
        # the largest partial sums, K*(p-1)**2, and odd ones when K is odd
        top = [[p - 1] * K, [p - 2] * K]
        got = matmul_fp(np.array(top, dtype=np.int64), np.array(top, dtype=np.int64).T, p)
        assert got.tolist() == python_matmul(top, list(zip(*top)), p)


def test_matmul_fp_in_row_blocks(monkeypatch):
    monkeypatch.setattr(fparith, "BLOCK_ENTRIES", 7)
    rng = random.Random(9)
    for p in (2, 3, 7):
        a = [[rng.randrange(p) for _ in range(5)] for _ in range(20)]
        b = [[rng.randrange(p) for _ in range(3)] for _ in range(5)]
        assert matmul_fp(np.array(a), np.array(b), p).tolist() == python_matmul(a, b, p)


class ReferenceSpan:
    """The span as kept before inserts became incremental: the RREF of every
    row added, re-eliminated from scratch on each insert."""

    def __init__(self, p, width):
        self.p = p
        self.width = width
        self._rref = np.zeros((0, width), dtype=np.int64)
        self._pivots = []

    @property
    def pivots(self):
        return list(self._pivots)

    def residues(self, batch):
        B = np.mod(batch, self.p, dtype=np.int64).reshape(-1, self.width)
        free = np.delete(np.arange(self.width), self._pivots)
        out = B[:, free]
        out -= matmul_fp(B[:, self._pivots], self._rref[:, free], self.p)
        out %= self.p
        return out

    def contains(self, batch):
        return ~self.residues(batch).any(axis=1)

    def add(self, batch):
        stack = np.vstack([self._rref, np.reshape(batch, (-1, self.width))])
        self._rref, self._pivots = rref_fp(stack, self.p)


def _batches(rng, p, width):
    """Random batches with zero rows, empty batches, repeated rows and rows
    already in the span."""
    seen = np.zeros((0, width), dtype=np.int64)
    for step in range(12):
        kind = step % 4
        if kind == 0:
            batch = np.array(random_matrix(rng, p, rng.randint(1, 5), width), dtype=np.int64)
        elif kind == 1:
            batch = np.zeros((rng.randint(0, 2), width), dtype=np.int64)
        elif kind == 2:
            fresh = np.array(random_matrix(rng, p, 2, width), dtype=np.int64)
            batch = np.vstack([fresh, fresh[::-1], fresh])
        else:
            coeffs = np.array([[rng.randrange(p) for _ in range(len(seen))]
                               for _ in range(3)], dtype=np.int64).reshape(3, len(seen))
            batch = matmul_fp(coeffs, seen, p)
        seen = np.vstack([seen, batch])
        yield batch, seen


@pytest.mark.parametrize("p", PRIMES)
def test_incremental_span_matches_reference(p):
    rng = random.Random(p + 4)
    for width in (1, 5, 9):
        span, ref = SpanFp(p, width), ReferenceSpan(p, width)
        probes = np.array(random_matrix(rng, p, 6, width), dtype=np.int64)
        for batch, seen in _batches(rng, p, width):
            span.add(batch)
            ref.add(batch)
            order = np.argsort(span._pivots)
            rref, pivots = rref_fp(seen, p)
            assert sorted(span.pivots) == ref.pivots == pivots
            assert span._rows[order].tolist() == ref._rref.tolist() == rref.tolist()
            candidates = np.vstack([probes, batch])
            assert span.residues(candidates).tolist() == ref.residues(candidates).tolist()
            assert span.contains(batch).all()


@pytest.mark.parametrize("p", PRIMES)
def test_span_contains_matches_rank(p):
    rng = random.Random(p + 3)
    span = SpanFp(p, 6)
    assert span.contains(np.zeros((2, 6), dtype=np.int64)).all()
    rows = np.zeros((0, 6), dtype=np.int64)
    for _ in range(3):
        batch = np.array(random_matrix(rng, p, 2, 6), dtype=np.int64)
        span.add(batch)
        rows = np.vstack([rows, batch])
        candidates = np.vstack([np.array(random_matrix(rng, p, 4, 6), dtype=np.int64),
                                (rows[:1] * 2 + rows[-1:]) % p])
        mask = span.contains(candidates)
        base = rank_fp(rows, p)
        assert mask.tolist() == [rank_fp(np.vstack([rows, c[None]]), p) == base
                                 for c in candidates]
        assert mask[-1]


def test_prime_above_bound_is_refused():
    p = next(q for q in range(MAX_PRIME + 1, 2 * MAX_PRIME) if is_prime(q))
    with pytest.raises(BoundExceededError):
        rref_fp(np.eye(2, dtype=np.int64), p)
    with pytest.raises(BoundExceededError):
        nullspace_fp(np.ones((1, 3), dtype=np.int64), p)
    with pytest.raises(BoundExceededError):
        matmul_fp(np.ones((2, 1), dtype=np.int64), np.ones((1, 2), dtype=np.int64), p)
    span = SpanFp(p, 3)
    for method in (span.residues, span.contains, span.add):
        with pytest.raises(BoundExceededError):
            method(np.ones((1, 3), dtype=np.int64))
