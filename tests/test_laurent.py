import itertools

import numpy as np
import pytest

import multinv.laurent as laurent
from multinv.corpus import corpus_group, corpus_names
from multinv.errors import MAX_BOX_POINTS, MAX_ORBIT_SPREAD, BoundExceededError
from multinv.laurent import box_orbits, check_g1_decomposition
from multinv.matgroup import generate, subgroup_conjugacy_classes, trivial_group


def _orbit_counts(G, B):
    """The orbit count of the box and its averaged recount."""
    _, sizes, burnside = box_orbits(G, B)
    return len(sizes), burnside


def _orbit_lists(G, B):
    """``box_orbits(G, B)`` in the form ``_reference_orbits`` returns: the
    orbits as lists of exponent lists, and the recount."""
    points, sizes, burnside = box_orbits(G, B)
    assert points.dtype == sizes.dtype == np.int64
    assert points.shape == (sizes.sum(), G.n) and sizes.min() >= 1
    return [orbit.tolist() for orbit in np.split(points, np.cumsum(sizes)[:-1])], burnside


def test_invariant_dim_examples():
    inv1, _ = corpus_group("inversion1")
    assert _orbit_counts(inv1, 2) == (3, 3)
    triv2 = trivial_group(2)
    assert _orbit_counts(triv2, 1) == (9, 9)
    g2, _ = corpus_group("g2")
    assert _orbit_counts(g2, 1) == (45, 45)


def test_invariant_dim_norm_guard():
    # (x, y) -> (x + b y, -y) has a row of l1-norm b + 1 and moves every box
    # point with y != 0 out of the box, so each box point is its own orbit;
    # at the guard MAX_ORBIT_SPREAD * B, b = 7 passes and b = 8 trips
    for B in (1, 2):
        assert _orbit_counts(generate([[[1, 7], [0, -1]]]), B) == ((2 * B + 1) ** 2,) * 2
        with pytest.raises(BoundExceededError, match=f"norm guard {MAX_ORBIT_SPREAD * B}"):
            box_orbits(generate([[[1, 8], [0, -1]]]), B)


# (dim_invariants, dim_base, dim_twisted) for balls 0 to 4
BALL_DECOMPOSITIONS = [(1, 1, 0), (15, 12, 3), (65, 45, 20), (175, 112, 63), (369, 225, 144)]


def test_ball_decomposition_dimensions():
    for B, dims in enumerate(BALL_DECOMPOSITIONS):
        r = check_g1_decomposition(2, B)
        assert (r.dim_invariants, r.dim_base, r.dim_twisted) == dims, B
        assert r.holds
        assert r.is_direct_sum


@pytest.mark.parametrize("twist", [((1, 1, 0),), ((1, 1, 0), (-1, 1, 0))])
def test_ball_decomposition_rejects_a_twist_that_is_not_invariant(monkeypatch, twist):
    # these twists give the real twist's dimensions, but their products with
    # the Klein-four invariants are not invariants of the order-2 group
    monkeypatch.setattr(laurent, "_TWIST_EXPONENTS", twist)
    for B in (1, 2, 3):
        r = check_g1_decomposition(2, B)
        assert (r.dim_invariants, r.dim_base, r.dim_twisted) == BALL_DECOMPOSITIONS[B], B
        assert not r.holds, B


def test_ball_decomposition_requires_char_two():
    with pytest.raises(ValueError):
        check_g1_decomposition(3, 1)


def test_negative_radius_is_refused():
    G, _ = corpus_group("inversion1")
    for check in (lambda: box_orbits(G, -1), lambda: check_g1_decomposition(2, -1)):
        with pytest.raises(ValueError, match="radius -1 is negative"):
            check()


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
        assert _orbit_lists(G, B) == _reference_orbits(G, B), (name, B)


@pytest.mark.parametrize("gens", INVOLUTIONS)
def test_box_orbits_norm_guard_trips_at_the_escape(gens):
    # a row of norm MAX_ORBIT_SPREAD reaches the guard, one of norm
    # MAX_ORBIT_SPREAD + 1 escapes it
    for B in (1, 2):
        G = generate(_off_diagonal(gens, MAX_ORBIT_SPREAD - 1))
        points, _, _ = box_orbits(G, B)
        assert np.abs(points).max() == MAX_ORBIT_SPREAD * B
        assert _orbit_lists(G, B) == _reference_orbits(G, B)
        G = generate(_off_diagonal(gens, MAX_ORBIT_SPREAD))
        for impl in (box_orbits, _reference_orbits):
            with pytest.raises(BoundExceededError, match=f"norm guard {MAX_ORBIT_SPREAD * B}"):
                impl(G, B)


def test_box_orbits_in_blocks(monkeypatch):
    # blocks of 40 key entries: every group below spans many blocks
    monkeypatch.setattr(laurent, "BLOCK_ENTRIES", 40)
    for name in ("s4", "rot4_nonsplit", "B3c32", "rot6"):
        G = KERNEL_GROUPS[name]
        for B in (1, 2):
            assert _orbit_lists(G, B) == _reference_orbits(G, B), (name, B)


def test_box_orbits_keys_stay_in_int64():
    G = generate(SHEARED_ROT4)
    assert G.order == 4
    for B in (1, 2):
        with pytest.raises(BoundExceededError, match="norm guard"):
            box_orbits(G, B)
    # the box of ball 0 is the origin alone, whatever the entries: here they
    # pass int64 (rot4 conjugated by the shear [[1, 10^10], [0, 1]])
    huge = generate([[[10**10, -1 - 10**20], [1, -10**10]]])
    assert _orbit_lists(huge, 0) == _reference_orbits(huge, 0) == ([[[0, 0]]], 1)
    # the largest key base: a row of norm MAX_ORBIT_SPREAD at ball 1 in rank
    # 12, the largest whose unit box fits MAX_BOX_POINTS, keys up to 17^12 - 1
    n = 12
    assert 3 ** n <= MAX_BOX_POINTS < 3 ** (n + 1)
    b = MAX_ORBIT_SPREAD - 1
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    g[0][1], g[1][1] = b, -1
    orbits, burnside = _orbit_lists(generate([g]), 1)
    # (x, y, z) -> (x + b y, -y, z) moves every box point with y != 0 out
    # of the box, so each box point is its own orbit
    assert burnside == len(orbits) == 3 ** n
    for pt, orbit in zip(itertools.product((-1, 0, 1), repeat=n), orbits):
        image = (pt[0] + b * pt[1], -pt[1]) + pt[2:]
        assert orbit == [list(q) for q in sorted({pt, image})]
