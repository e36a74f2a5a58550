import random

import numpy as np
import pytest

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
        for order in (None, list(range(7, -1, -1))):
            N = nullspace_fp(M, p, order)
            assert N.shape == (8 - rank, 8)
            assert rank_fp(N, p) == 8 - rank
            assert not matmul_fp(N, M.T, p).any()


def test_matmul_fp_matches_python_ints():
    rng = random.Random(5)
    p = LARGEST_PRIME
    a = [[rng.randrange(p) for _ in range(9)] for _ in range(3)]
    b = [[rng.randrange(p) for _ in range(4)] for _ in range(9)]
    expected = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]
    assert matmul_fp(np.array(a), np.array(b), p).tolist() == expected


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
