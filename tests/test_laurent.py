import itertools
import random

import pytest

import multinv.laurent as laurent
from multinv.corpus import corpus_group, corpus_names
from multinv.errors import MAX_BOX_POINTS, MAX_ORBIT_SPREAD, BoundExceededError
from multinv.laurent import (
    LaurentPoly,
    act,
    box_orbits,
    check_g1_decomposition,
    invariant_dim_in_ball,
    is_invariant,
    orbit_sum,
)
from multinv.matgroup import generate, subgroup_conjugacy_classes, sylow, trivial_group

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
    assert invariant_dim_in_ball(inv1, 2) == (3, 3)
    triv2 = trivial_group(2)
    assert invariant_dim_in_ball(triv2, 1) == (9, 9)
    g2, _ = corpus_group("g2")
    assert invariant_dim_in_ball(g2, 1) == (45, 45)


def test_invariant_dim_norm_guard():
    # (x, y) -> (x + b y, -y) has a row of l1-norm b + 1 and moves every box
    # point with y != 0 out of the box, so each box point is its own orbit;
    # at the guard MAX_ORBIT_SPREAD * B, b = 7 passes and b = 8 trips
    for B in (1, 2):
        assert invariant_dim_in_ball(generate([[[1, 7], [0, -1]]]), B) == ((2 * B + 1) ** 2,) * 2
        with pytest.raises(BoundExceededError, match=f"norm guard {MAX_ORBIT_SPREAD * B}"):
            invariant_dim_in_ball(generate([[[1, 8], [0, -1]]]), B)


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


# -- the batched orbit kernel against the per-point enumeration it replaced --

def _reference_orbits(G, B):
    """Orbits of the box in first-occurrence order and the Burnside recount,
    one point and one group element at a time in Python ints."""
    guard = MAX_ORBIT_SPREAD * B
    rows = [[[int(x) for x in row] for row in g.tolist()] for g in G.elements]

    def apply(r, pt):
        return tuple(sum(a * b for a, b in zip(row, pt)) for row in r)

    visited = set()
    orbits = []
    for pt in itertools.product(range(-B, B + 1), repeat=G.n):
        if pt in visited:
            continue
        orbit = {apply(r, pt) for r in rows}
        for q in orbit:
            if max(abs(x) for x in q) > guard:
                raise BoundExceededError(f"orbit point {q} escapes the norm guard {guard}")
        visited |= orbit
        orbits.append([list(q) for q in sorted(orbit)])
    fixed_total = sum(1 for r in rows for s in visited if apply(r, s) == s)
    assert fixed_total % G.order == 0
    return orbits, fixed_total // G.order


def _b3_class_representatives():
    gens = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
            [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    return {f"B3c{k}": cls[0]
            for k, cls in enumerate(subgroup_conjugacy_classes(generate(gens)))}


ROT6 = [[[0, -1], [1, 1]]]
# rot4 conjugated by the shear [[1, 10^6], [0, 1]]: entries near 10^12, rows
# far past the norm guard, where keys of B = 1 would pass int64
SHEARED_ROT4 = [[[10**6, -1 - 10**12], [1, -10**6]]]
# involutions with one off-diagonal 1: scaled to b by _off_diagonal, each has
# a row of l1-norm b + 1, whose orbits reach b + 1 times B
INVOLUTIONS = [[[[1, 1], [0, -1]]], [[[1, 0], [1, -1]]], [[[-1, 1], [0, 1]]]]


def _off_diagonal(gens, b):
    return [[[x * b if i != j else x for j, x in enumerate(row)] for i, row in enumerate(g)]
            for g in gens]


KERNEL_GROUPS = {name: corpus_group(name)[0] for name in corpus_names()}
KERNEL_GROUPS.update(_b3_class_representatives())
KERNEL_GROUPS["rot6"] = generate(ROT6)


@pytest.mark.parametrize("name", sorted(KERNEL_GROUPS))
def test_box_orbits_match_reference(name):
    G = KERNEL_GROUPS[name]
    for B in range(3 if G.n >= 4 else 4):
        orbits, burnside = box_orbits(G, B)
        assert (orbits, burnside) == _reference_orbits(G, B), (name, B)
        assert invariant_dim_in_ball(G, B) == (len(orbits), burnside)


@pytest.mark.parametrize("gens", INVOLUTIONS)
def test_box_orbits_norm_guard_trips_at_the_escape(gens):
    # a row of norm MAX_ORBIT_SPREAD reaches the guard, one of norm
    # MAX_ORBIT_SPREAD + 1 escapes it
    for B in (1, 2):
        G = generate(_off_diagonal(gens, MAX_ORBIT_SPREAD - 1))
        orbits, burnside = box_orbits(G, B)
        assert max(abs(x) for orbit in orbits for q in orbit for x in q) == MAX_ORBIT_SPREAD * B
        assert (orbits, burnside) == _reference_orbits(G, B)
        G = generate(_off_diagonal(gens, MAX_ORBIT_SPREAD))
        for impl in (box_orbits, _reference_orbits):
            with pytest.raises(BoundExceededError, match=f"norm guard {MAX_ORBIT_SPREAD * B}"):
                impl(G, B)


def test_box_orbits_in_blocks(monkeypatch):
    # blocks of 40 key entries: every group below spans many blocks
    monkeypatch.setattr(laurent, "_BLOCK_ENTRIES", 40)
    for name in ("s4", "rot4_nonsplit", "B3c32", "rot6"):
        G = KERNEL_GROUPS[name]
        for B in (1, 2):
            assert box_orbits(G, B) == _reference_orbits(G, B), (name, B)


def test_box_orbits_keys_stay_in_int64():
    G = generate(SHEARED_ROT4)
    assert G.order == 4
    for B in (1, 2):
        with pytest.raises(BoundExceededError, match="norm guard"):
            box_orbits(G, B)
    # the box of ball 0 is the origin alone, whatever the entries: here they
    # pass int64 (rot4 conjugated by the shear [[1, 10^10], [0, 1]])
    huge = generate([[[10**10, -1 - 10**20], [1, -10**10]]])
    assert box_orbits(huge, 0) == _reference_orbits(huge, 0) == ([[[0, 0]]], 1)
    # the largest key base: a row of norm MAX_ORBIT_SPREAD at ball 1 in rank
    # 12, the largest whose unit box fits MAX_BOX_POINTS, keys up to 17^12 - 1
    n = 12
    assert 3 ** n <= MAX_BOX_POINTS < 3 ** (n + 1)
    b = MAX_ORBIT_SPREAD - 1
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    g[0][1], g[1][1] = b, -1
    orbits, burnside = box_orbits(generate([g]), 1)
    # (x, y, z) -> (x + b y, -y, z) moves every box point with y != 0 out
    # of the box, so each box point is its own orbit
    assert burnside == len(orbits) == 3 ** n
    for pt, orbit in zip(itertools.product((-1, 0, 1), repeat=n), orbits):
        image = (pt[0] + b * pt[1], -pt[1]) + pt[2:]
        assert orbit == [list(q) for q in sorted({pt, image})]
