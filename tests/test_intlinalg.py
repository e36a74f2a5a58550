import random

import numpy as np
import pytest

from multinv.errors import NonUnimodularError
from multinv.intlinalg import (
    Sublattice,
    _hnf_columns,
    _kernel_columns,
    det,
    diagonal_of,
    fixed_lattice,
    intmat,
    moved_lattice,
    quotient_invariants,
    snf,
    unimodular_inverse,
)

G1 = [[-1, 0, 0], [0, 0, 1], [0, 1, 0]]
G1_MINUS_I = [[-2, 0, 0], [0, -1, 1], [0, 1, -1]]


def mats_equal(A, B):
    return A.shape == B.shape and all(int(x) == int(y) for x, y in zip(A.flat, B.flat))


def check_snf_contract(M):
    S, U, V = snf(M)
    assert mats_equal(U @ M @ V, S)
    rows, cols = S.shape
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert int(S[i, j]) == 0
    diag = diagonal_of(S)
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1
    return diag


def test_snf_divisibility_chain_forced():
    diag = check_snf_contract(intmat([[2, 0], [0, 3]]))
    assert diag == [1, 6]


def test_snf_zero_matrix():
    M = intmat([[0, 0], [0, 0]])
    S, U, V = snf(M)
    assert diagonal_of(S) == [0, 0]
    assert mats_equal(U, intmat([[1, 0], [0, 1]]))
    assert mats_equal(V, intmat([[1, 0], [0, 1]]))
    # a matrix with no rows keeps its width
    empty = np.empty((0, 3), dtype=object)
    assert intmat(empty).shape == (0, 3)
    S, U, V = snf(empty)
    assert (S.shape, U.shape, V.shape) == ((0, 3), (0, 0), (3, 3))


def test_snf_g1_minus_identity():
    diag = check_snf_contract(intmat(G1_MINUS_I))
    assert diag == [1, 2, 0]


def test_snf_random_shapes():
    rng = random.Random(4021)
    for _ in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = intmat([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        check_snf_contract(M)


def _smith_rank(M):
    """The number of nonzero diagonal entries of the Smith form."""
    return sum(1 for d in diagonal_of(snf(M)[0]) if d != 0)


def test_rank_examples():
    assert _smith_rank(intmat([[1, 0], [0, 1]])) == 2
    assert _smith_rank(intmat([[-2, 0, 0], [0, -2, 0], [0, 0, -2]])) == 3
    assert _smith_rank(intmat(G1_MINUS_I)) == 2


def test_rank_plus_kernel_rank_is_cols():
    rng = random.Random(7253)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        kernel = _kernel_columns([row[:] for row in M], cols)
        assert _smith_rank(intmat(M)) + len(kernel) == cols


def test_hnf_is_idempotent_and_canonical():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(1, 4)
        m = rng.randint(0, 4)
        rows = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        cols = [list(c) for c in zip(*rows)]
        H = _hnf_columns([c[:] for c in cols], n)
        assert _hnf_columns([c[:] for c in H], n) == H
        # unimodular column operations do not change the canonical form
        rng.shuffle(cols)
        assert _hnf_columns(cols, n) == H


def test_fixed_lattice_examples():
    # the identity fixes all of Z^n, whose Hermite basis is the identity columns
    for n in (1, 2, 3, 5):
        eye = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
        assert fixed_lattice([eye]) == Sublattice(n, eye, True)
    neg = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    assert fixed_lattice([neg]) == Sublattice(3, (), True)
    L = fixed_lattice([G1])
    assert L.rank == 1
    assert L.columns == ((0, 1, 1),)
    assert L.saturated
    assert quotient_invariants(L)[1] == []


def test_fixed_lattice_generator_independent():
    # the fixed lattice of a generating set equals that of the full group
    gens = [G1, [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    third = intmat(gens[0]) @ intmat(gens[1])
    assert fixed_lattice(gens) == fixed_lattice(gens + [third])


def test_fixed_lattice_dimension_mismatch():
    with pytest.raises(ValueError):
        fixed_lattice([[[1, 0], [0, 1]], G1])


def test_moved_lattice_examples():
    ident = [[1, 0], [0, 1]]
    assert moved_lattice([ident]) == Sublattice(2, (), True)
    neg = [[-1, 0], [0, -1]]
    L = moved_lattice([neg])
    assert L.columns == ((2, 0), (0, 2))
    assert not L.saturated
    assert quotient_invariants(L) == (0, [2, 2])
    Lg1 = moved_lattice([G1])
    assert Lg1.columns == ((2, 0, 0), (0, 1, -1))
    assert quotient_invariants(Lg1) == (1, [2])


def test_quotient_invariants_full_lattice():
    eye = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert quotient_invariants(Sublattice(4, eye, True)) == (0, [])


def test_unimodular_inverse():
    rng = random.Random(31337)
    for _ in range(50):
        n = rng.randint(1, 4)
        M = intmat([[1 if i == j else 0 for j in range(n)] for i in range(n)])
        for _ in range(4):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            E = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            E[i][j] = rng.randint(-3, 3)
            M = M @ intmat(E)
        Minv = unimodular_inverse(M)
        assert mats_equal(M @ Minv, intmat([[1 if i == j else 0 for j in range(n)]
                                            for i in range(n)]))
    with pytest.raises(NonUnimodularError, match="integer inverse"):
        unimodular_inverse(intmat([[2, 0], [0, 1]]))
    with pytest.raises(NonUnimodularError, match="singular"):
        unimodular_inverse(intmat([[1, 2], [2, 4]]))
    with pytest.raises(ValueError, match="non-square"):
        unimodular_inverse(intmat([[1, 0, 0]]))


def test_intmat_validation():
    with pytest.raises(ValueError):
        intmat([[1, 2], [3]])
    with pytest.raises(ValueError):
        intmat([[1.5, 2], [3, 4]])


@pytest.mark.parametrize("bad", [1.0, True, 1.5, np.float64(2.0), np.bool_(True)])
def test_outside_entries_are_validated(bad):
    rows = [[1, 0, 0], [0, bad, 0], [0, 0, 1]]
    readers = [intmat, det, snf, unimodular_inverse,
               lambda m: fixed_lattice([m]), lambda m: moved_lattice([m])]
    for build in readers + [lambda m: fixed_lattice([G1, m]),
                            lambda m: moved_lattice([G1, m])]:
        with pytest.raises(ValueError):
            build(rows)
    obj = np.empty((3, 3), dtype=object)
    obj[...] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    obj[1, 1] = bad
    for build in readers:
        with pytest.raises(ValueError):
            build(obj)
    # integer numpy scalars are accepted and come back as Python ints
    M = intmat([[np.int64(2), 0], [0, np.int8(1)]])
    assert all(type(x) is int for x in M.flat)


def test_fixed_lattices_always_saturated():
    from multinv.corpus import corpus_group
    from multinv.matgroup import subgroups

    for name in ("gamma", "s3", "rot4_nonsplit", "g2"):
        G, _ = corpus_group(name)
        for H in subgroups(G):
            L = fixed_lattice(H.elements)
            assert L.saturated
            assert quotient_invariants(L)[1] == []
