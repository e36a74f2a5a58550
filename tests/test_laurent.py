import random

import pytest

from multinv.corpus import corpus_group
from multinv.errors import BoundExceededError
from multinv.laurent import (
    LaurentPoly,
    act,
    check_g1_decomposition,
    invariant_dim_in_ball,
    is_invariant,
    orbit_sum,
)
from multinv.matgroup import generate, sylow, trivial_group

G1 = [[-1, 0, 0], [0, 0, 1], [0, 1, 0]]


def test_poly_arithmetic_drops_zeros():
    f = LaurentPoly(2, 3, {(1, 0): 1, (0, 1): 2})
    g = LaurentPoly(2, 3, {(1, 0): 2, (0, 1): 1})
    assert (f + g).is_zero
    h = f * g
    assert h.terms == {(2, 0): 2, (1, 1): 2, (0, 2): 2}
    with pytest.raises(ValueError):
        f + LaurentPoly(3, 3)
    with pytest.raises(ValueError):
        f + LaurentPoly(2, 5)


def test_act_examples():
    x = LaurentPoly.monomial(3, 2, (1, 0, 0))
    assert act(G1, x) == LaurentPoly.monomial(3, 2, (-1, 0, 0))
    xy = LaurentPoly.monomial(3, 2, (1, 1, 0))
    assert act(G1, xy) == LaurentPoly.monomial(3, 2, (-1, 0, 1))
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    f = LaurentPoly(3, 2, {(1, 2, -1): 1, (0, 0, 5): 1})
    assert act(ident, f) == f
    with pytest.raises(ValueError):
        act([[1, 0], [0, 1]], f)


def _random_poly(rng, n, p, size=4):
    terms = {}
    for _ in range(size):
        e = tuple(rng.randint(-2, 2) for _ in range(n))
        terms[e] = rng.randint(0, p - 1)
    return LaurentPoly(n, p, terms)


def test_act_is_ring_automorphism_action():
    rng = random.Random(2718)
    G, p = corpus_group("gamma")
    mats = list(G.elements)
    for _ in range(25):
        f = _random_poly(rng, 3, p)
        h = _random_poly(rng, 3, p)
        a = rng.choice(mats)
        b = rng.choice(mats)
        assert act(a @ b, f) == act(a, act(b, f))
        assert act(a, f * h) == act(a, f) * act(a, h)
        assert act(a, f + h) == act(a, f) + act(a, h)


def test_orbit_sum_examples():
    inv1, _ = corpus_group("inversion1")
    xi = orbit_sum(inv1, (1,), 2)
    assert xi.terms == {(1,): 1, (-1,): 1}
    assert orbit_sum(inv1, (0,), 2) == LaurentPoly.one(1, 2)
    gamma, _ = corpus_group("gamma")
    sigma1 = orbit_sum(gamma, (0, 1, 0), 2)
    assert sigma1.terms == {(0, 1, 0): 1, (0, 0, 1): 1}


def test_orbit_sums_are_invariant_with_disjoint_supports():
    rng = random.Random(5)
    for name in ("gamma", "s3", "rot4"):
        G, p = corpus_group(name)
        sums = []
        for _ in range(10):
            a = tuple(rng.randint(-2, 2) for _ in range(G.n))
            f = orbit_sum(G, a, p)
            assert is_invariant(f, G)
            sums.append(f)
        for i in range(len(sums)):
            for j in range(i + 1, len(sums)):
                si, sj = set(sums[i].terms), set(sums[j].terms)
                assert si == sj or not (si & sj)


def test_is_invariant_examples():
    inv1, _ = corpus_group("inversion1")
    assert not is_invariant(LaurentPoly.monomial(1, 2, (1,)), inv1)
    assert is_invariant(LaurentPoly.one(1, 2), inv1)
    G = generate([G1])
    phi = LaurentPoly(3, 2, {(1, 1, 0): 1, (-1, 0, 1): 1})
    assert is_invariant(phi, G)


def test_is_invariant_uses_generators_of_the_whole_subgroup():
    s4, _ = corpus_group("s4")
    P = sylow(s4, 2)
    f = orbit_sum(generate([P.generators[0]]), (1, 2, 3, 4), 2)
    assert P.order == 8
    assert not is_invariant(f, P)


def test_invariant_dim_examples():
    inv1, _ = corpus_group("inversion1")
    assert invariant_dim_in_ball(inv1, 2, 2) == (3, 3)
    triv2 = trivial_group(2)
    assert invariant_dim_in_ball(triv2, 2, 1) == (9, 9)
    g2, _ = corpus_group("g2")
    assert invariant_dim_in_ball(g2, 2, 1) == (45, 45)


def test_invariant_dim_norm_guard():
    # a shear of finite order does not exist; use an order-6 matrix whose
    # orbits leave the unit box, with the guard forced below the escape
    rot6 = generate([[[0, -1], [1, 1]]])
    with pytest.raises(BoundExceededError):
        invariant_dim_in_ball(rot6, 2, 1, norm_guard=1)
    dim, burn = invariant_dim_in_ball(rot6, 2, 1)
    assert dim == burn


def test_ball_decomposition_dimensions():
    r0 = check_g1_decomposition(2, 0)
    assert (r0.dim_invariants, r0.dim_base, r0.dim_twisted) == (1, 1, 0)
    assert r0.holds
    for B in (1, 2, 3):
        r = check_g1_decomposition(2, B)
        assert r.holds
        assert r.is_direct_sum
        assert r.dim_invariants == r.dim_base + r.dim_twisted


def test_ball_decomposition_requires_char_two():
    with pytest.raises(ValueError):
        check_g1_decomposition(3, 1)
