"""Orbits of exponent boxes under a matrix group, and the invariants they span.

A finite G <= GL_n(Z) acts on F_p[Z^n] by sending the monomial with exponent a
to the monomial with exponent g a.  The action permutes monomials, so the orbit
sums of distinct orbits have disjoint supports and span the invariants: the
invariants supported on a G-stable set of exponents have one basis vector per
orbit in it.  ``box_orbits`` lists the orbits of the exponent box
{ a : |a|_inf <= B }, and ``check_g1_decomposition`` splits the invariants of
one rank-3 example inside such a box.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BLOCK_ENTRIES, MAX_BOX_POINTS, MAX_ORBIT_SPREAD, BoundExceededError
from .corpus import corpus_group
from .fparith import nullspace_fp, rank_fp
from .matgroup import MatGroup


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in a 1-d array."""
    mask = np.empty(len(a), dtype=bool)
    mask[:1] = True
    np.not_equal(a[1:], a[:-1], out=mask[1:])
    return mask


# every sort here is stable: the orbit order needs a stable argsort, and the
# first call of numpy's default int64 sort adds about 0.4 MB of resident code
def _distinct(a: np.ndarray) -> np.ndarray:
    s = np.sort(a, axis=None, kind="stable")
    return s[_run_starts(s)]


def box_orbits(G: MatGroup, B: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The G-orbits of the exponent box { a : |a|_inf <= B }.

    Returns ``(points, sizes, burnside)``.  ``points`` is the (P, n) int64
    array of every orbit's sorted support (points outside the box included),
    one orbit after another, the orbits in the order of their first box
    point in ``itertools.product`` order; ``sizes`` holds the support sizes,
    so ``np.split(points, np.cumsum(sizes)[:-1])`` lists the orbits; and
    ``burnside`` is the number of orbits recounted by averaging fixed
    points.  A negative radius raises ValueError, and a box of more than
    ``MAX_BOX_POINTS`` points raises BoundExceededError before anything is
    allocated.

    The largest coordinate of an image of the box is M = B * max_{g,i}
    |row_i(g)|_1; it must not exceed the norm guard ``MAX_ORBIT_SPREAD`` * B.
    A point x with |x|_inf <= M has the key w . (x + M), w = (b^(n-1), ...,
    b, 1), b = 2M + 1, which orders keys as points lexicographically;
    key(g x) is linear in x, so the keys of all images of the box are one
    matrix product of shape (box size, |G|), taken in row blocks, and the
    orbit of a box point is its row.  Keys are int64: every key is below
    b^n, and each weight w . g[:, j] is at most M (b^n - 1) / (b - 1) < b^n
    in size, while b <= 16 B + 1 and (2 B + 1)^n <= ``MAX_BOX_POINTS`` give
    b^n <= 17^12 < 5.9 * 10^14 (B = 1, n = 12) over every accepted box.  The
    box of B = 0 is the origin, one orbit whatever the entries of G.
    """
    if B < 0:
        raise ValueError(f"the box radius {B} is negative")
    n, mats = G.n, G.elements
    size = (2 * B + 1) ** n
    if size > MAX_BOX_POINTS:
        raise BoundExceededError(f"the box of {size} points exceeds the box bound "
                                 f"{MAX_BOX_POINTS}")
    if B == 0:
        return np.zeros((1, n), dtype=np.int64), np.ones(1, dtype=np.int64), 1
    guard = MAX_ORBIT_SPREAD * B
    row_norms = np.abs(mats).sum(axis=2).ravel().tolist()
    reach = B * max(row_norms)
    if reach > guard:
        g, i = divmod(row_norms.index(max(row_norms)), n)
        corner = [B * ((v > 0) - (v < 0)) for v in mats[g, i].tolist()]
        raise BoundExceededError(f"orbit point {tuple((mats[g] @ corner).tolist())} "
                                 f"escapes the norm guard {guard}")
    base = 2 * reach + 1
    assert base ** n < 2 ** 63
    place = np.array([base ** (n - 1 - i) for i in range(n)], dtype=np.int64)
    offset = reach * int(place.sum())
    weights = place @ mats.astype(np.int64)   # key(g x) = weights[g] . x + offset
    step = max(1, BLOCK_ENTRIES // G.order)  # the key matrix is never held whole

    def keys_of(points):
        return points @ weights.T + offset

    def decode(keys):
        points = keys[:, None] // place
        np.remainder(points, base, out=points)
        points -= reach
        return points

    # the box in the narrowest integer type that holds its coordinates
    box = np.indices((2 * B + 1,) * n, dtype=np.min_scalar_type(-2 * B - 1)).reshape(n, -1).T - B
    least, seen = [], []
    for start in range(0, len(box), step):
        keys = keys_of(box[start:start + step])
        least.append(keys.min(axis=1))
        seen.append(_distinct(keys))
    # recount: fixed points of every element on every visited point, first,
    # so that the visited keys are freed before the orbits are listed
    visited = _distinct(np.concatenate(seen))
    del seen
    fixed_total = 0
    for start in range(0, len(visited), step):
        block = visited[start:start + step]
        fixed_total += int((keys_of(decode(block)) == block[:, None]).sum())
    del visited
    assert fixed_total % G.order == 0
    burnside = fixed_total // G.order

    # an orbit is named by its least key and listed at its first box point
    least = np.concatenate(least)
    order = np.argsort(least, kind="stable")
    firsts = np.sort(order[_run_starts(least[order])], kind="stable")
    supports = np.sort(keys_of(box[firsts]), axis=1, kind="stable")
    new = np.ones(supports.shape, dtype=bool)
    np.not_equal(supports[:, 1:], supports[:, :-1], out=new[:, 1:])
    points = decode(supports[new])
    sizes = new.sum(axis=1)
    assert len(sizes) == burnside, (len(sizes), burnside)
    return points, sizes, burnside


# ---------------------------------------------------------------------------
# decomposition of the order-2 sign-and-swap invariants over the Klein-four
# invariant ring, in characteristic 2

# the invariant monomial pair X0 X1 + X0^-1 X2, stable under the flip-swap
_TWIST_EXPONENTS = ((1, 1, 0), (-1, 0, 1))


@dataclass(frozen=True)
class BallDecomposition:
    """Dimension bookkeeping for one truncation ball.

    dim_invariants: invariants of the order-2 group inside the ball;
    dim_base: invariants of the Klein four overgroup inside the ball;
    dim_twisted: the part of (twist monomial) * (overgroup invariants) that
    lands inside the ball.  ``holds`` records dim_invariants ==
    dim_base + dim_twisted with the sum direct and every base and twisted
    vector constant on each orbit of the order-2 group in the ball.
    """

    ball: int
    dim_invariants: int
    dim_base: int
    dim_twisted: int
    is_direct_sum: bool
    holds: bool


def _orbits_within(G: MatGroup, radius: int) -> list[list[tuple[int, ...]]]:
    points, sizes, _ = box_orbits(G, radius)
    return [list(map(tuple, orbit.tolist())) for orbit in np.split(points, np.cumsum(sizes)[:-1])
            if np.abs(orbit).max() <= radius]


def check_g1_decomposition(p: int, B: int) -> BallDecomposition:
    """Verify, inside one truncation ball, that the invariants of the order-2
    sign-and-swap action split as (Klein-four invariants) plus the twist
    monomial times Klein-four invariants, as a direct sum over F_2.

    Only characteristic 2 is supported; the split is specific to it.
    """
    if p != 2:
        raise ValueError("decomposition check is stated for characteristic 2 only")
    group, _ = corpus_group("g1")
    overgroup, _ = corpus_group("gamma")

    group_orbits = _orbits_within(group, B)
    dim_invariants = len(group_orbits)
    base_orbits = _orbits_within(overgroup, B)
    dim_base = len(base_orbits)

    # products of the twist with overgroup orbit sums from a margin-1 ball;
    # any invariant whose twist-product stays inside ball B is supported in
    # ball B (extreme-exponent argument), so the margin is already generous
    source_orbits = _orbits_within(overgroup, B + 1)
    big = B + 2  # twist shifts exponents by at most 1
    mono_index = {pt: i for i, pt in
                  enumerate(itertools.product(range(-big, big + 1), repeat=3))}
    inside = [i for pt, i in mono_index.items() if max(map(abs, pt)) <= B]
    outside = [i for pt, i in mono_index.items() if max(map(abs, pt)) > B]

    prod_rows = np.zeros((len(source_orbits), len(mono_index)), dtype=np.int64)
    for k, orbit in enumerate(source_orbits):
        # twist times the orbit sum over F_2: add 1 at e + t for each point e and twist exponent t
        for e in orbit:
            for t in _TWIST_EXPONENTS:
                prod_rows[k, mono_index[tuple(a + b for a, b in zip(e, t))]] ^= 1

    rk_all = rank_fp(prod_rows, 2)
    rk_out = rank_fp(prod_rows[:, outside], 2)
    dim_twisted = rk_all - rk_out

    # explicit basis of the twisted part that lies inside the ball
    combos, _ = nullspace_fp(prod_rows[:, outside].T, 2)
    twisted_vecs = (combos @ prod_rows[:, inside]) % 2 if combos.size else \
        np.zeros((0, len(inside)), dtype=np.int64)
    assert rank_fp(twisted_vecs, 2) == dim_twisted

    inside_pos = {mono_index_key: col for col, mono_index_key in enumerate(inside)}
    base_vecs = np.zeros((dim_base, len(inside)), dtype=np.int64)
    for k, orbit in enumerate(base_orbits):
        for e in orbit:
            base_vecs[k, inside_pos[mono_index[e]]] = 1

    stacked = np.vstack([base_vecs, twisted_vecs])
    is_direct = rank_fp(stacked, 2) == dim_base + dim_twisted
    # an invariant of the group takes one value on each of its orbits
    first = np.arange(len(inside))
    for orbit in group_orbits:
        first[[inside_pos[mono_index[e]] for e in orbit]] = inside_pos[mono_index[orbit[0]]]
    is_invariant = bool((stacked == stacked[:, first]).all())
    holds = is_direct and is_invariant and dim_invariants == dim_base + dim_twisted
    return BallDecomposition(B, dim_invariants, dim_base, dim_twisted, is_direct, holds)
