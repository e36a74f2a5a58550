"""Sparse Laurent polynomials over F_p with a matrix-group action on monomials.

A polynomial is a finite map from exponent vectors in Z^n to nonzero
coefficients in F_p.  A unimodular matrix g acts by sending the monomial with
exponent a to the monomial with exponent g a; the action permutes monomials,
so orbit sums of distinct orbits have disjoint supports and span the
invariants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import MAX_BOX_POINTS, MAX_ORBIT_SPREAD, BoundExceededError
from .corpus import corpus_group
from .fparith import nullspace_fp, rank_fp
from .intlinalg import intmat, is_unimodular
from .matgroup import MatGroup


class LaurentPoly:
    """Finitely supported map Z^n -> F_p, no stored zero coefficients."""

    __slots__ = ("n", "p", "terms")

    def __init__(self, n: int, p: int, terms=None):
        self.n = n
        self.p = p
        clean: dict[tuple[int, ...], int] = {}
        for expo, coeff in (terms or {}).items():
            e = tuple(int(x) for x in expo)
            if len(e) != n:
                raise ValueError(f"exponent {e} has length {len(e)}, expected {n}")
            c = int(coeff) % p
            if c:
                clean[e] = c
        self.terms = clean

    @classmethod
    def zero(cls, n: int, p: int) -> "LaurentPoly":
        return cls(n, p)

    @classmethod
    def one(cls, n: int, p: int) -> "LaurentPoly":
        return cls(n, p, {(0,) * n: 1})

    @classmethod
    def monomial(cls, n: int, p: int, exponents, coeff: int = 1) -> "LaurentPoly":
        return cls(n, p, {tuple(exponents): coeff})

    def _check_compatible(self, other: "LaurentPoly") -> None:
        if self.n != other.n or self.p != other.p:
            raise ValueError("polynomials over different rings")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.terms)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = (out.get(e, 0) + c) % self.p
        return LaurentPoly(self.n, self.p, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = (out.get(e, 0) - c) % self.p
        return LaurentPoly(self.n, self.p, out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = (out.get(e, 0) + c1 * c2) % self.p
        return LaurentPoly(self.n, self.p, out)

    def scale(self, c: int) -> "LaurentPoly":
        return LaurentPoly(self.n, self.p, {e: v * c for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly) and self.n == other.n
                and self.p == other.p and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.p, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in self.support():
            c = self.terms[e]
            mono = "*".join(f"X{i}^{v}" for i, v in enumerate(e) if v) or "1"
            bits.append(mono if c == 1 and mono != "1" else f"{c}*{mono}" if mono != "1" else str(c))
        return " + ".join(bits)


def _apply_rows(rows: list[list[int]], pt: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(r[j] * pt[j] for j in range(len(pt))) for r in rows)


def act(g, f: LaurentPoly) -> LaurentPoly:
    """The ring automorphism sending the monomial at a to the monomial at g a."""
    mat = intmat(g)
    if not is_unimodular(mat):
        raise ValueError("action matrices must be unimodular")
    rows = mat.tolist()
    if len(rows) != f.n:
        raise ValueError(f"matrix is {len(rows)}x{len(rows)}, polynomial lives in rank {f.n}")
    return LaurentPoly(f.n, f.p, {_apply_rows(rows, e): c for e, c in f.terms.items()})


def orbit_sum(G: MatGroup, a, p: int) -> LaurentPoly:
    """Sum of the distinct monomials in the orbit of the exponent a."""
    pt = tuple(int(x) for x in a)
    if len(pt) != G.n:
        raise ValueError("exponent vector has wrong length")
    images = G.elements @ np.array(pt, dtype=object)
    return LaurentPoly(G.n, p, {tuple(q): 1 for q in images.tolist()})


def is_invariant(f: LaurentPoly, G: MatGroup) -> bool:
    gens = G.generators or list(G.elements)
    return all(act(g, f) == f for g in gens)


# entries of one block of the key matrix, which is never held whole: its
# temporaries stay at a few MB however large the box and the group
_BLOCK_ENTRIES = 1 << 18


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


def box_orbits(G: MatGroup, B: int) -> tuple[list[list[list[int]]], int]:
    """The G-orbits of the exponent box { a : |a|_inf <= B }.

    Returns the orbits, each as its sorted support (exponent vectors as
    lists, points outside the box included), in the order of their first box
    point in ``itertools.product`` order, and the number of orbits recounted
    by averaging fixed points.  A box of more than ``MAX_BOX_POINTS`` points
    raises BoundExceededError before anything is allocated.

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
    n, mats = G.n, G.elements
    size = (2 * B + 1) ** n
    if size > MAX_BOX_POINTS:
        raise BoundExceededError(f"the box of {size} points exceeds the box bound "
                                 f"{MAX_BOX_POINTS}")
    if B == 0:
        return [[[0] * n]], 1
    guard = MAX_ORBIT_SPREAD * B
    row_norms = np.abs(mats).sum(axis=2).ravel().tolist()
    reach = B * max(row_norms)
    if reach > guard:
        g, i = divmod(row_norms.index(max(row_norms)), n)
        corner = [B * ((v > 0) - (v < 0)) for v in mats[g, i].tolist()]
        raise BoundExceededError(f"orbit point {_apply_rows(mats[g].tolist(), corner)} "
                                 f"escapes the norm guard {guard}")
    base = 2 * reach + 1
    assert base ** n < 2 ** 63
    place = np.array([base ** (n - 1 - i) for i in range(n)], dtype=np.int64)
    offset = reach * int(place.sum())
    weights = place @ mats.astype(np.int64)   # key(g x) = weights[g] . x + offset
    step = max(1, _BLOCK_ENTRIES // G.order)

    def keys_of(points):
        return points @ weights.T + offset

    def decode(keys):
        return keys[:, None] // place % base - reach

    box = np.indices((2 * B + 1,) * n).reshape(n, -1).T - B
    least, seen = [], []
    for start in range(0, len(box), step):
        keys = keys_of(box[start:start + step])
        least.append(keys.min(axis=1))
        seen.append(_distinct(keys))
    # an orbit is named by its least key and listed at its first box point
    least = np.concatenate(least)
    order = np.argsort(least, kind="stable")
    firsts = np.sort(order[_run_starts(least[order])], kind="stable")
    supports = np.sort(keys_of(box[firsts]), axis=1, kind="stable")
    new = np.ones(supports.shape, dtype=bool)
    np.not_equal(supports[:, 1:], supports[:, :-1], out=new[:, 1:])
    points = decode(supports[new]).tolist()
    orbits, start = [], 0
    for size in new.sum(axis=1).tolist():
        orbits.append(points[start:start + size])
        start += size

    # recount: fixed points of every element on every visited point
    visited = _distinct(np.concatenate(seen))
    fixed_total = 0
    for start in range(0, len(visited), step):
        block = visited[start:start + step]
        fixed_total += int((keys_of(decode(block)) == block[:, None]).sum())
    assert fixed_total % G.order == 0
    burnside = fixed_total // G.order
    assert len(orbits) == burnside, (len(orbits), burnside)
    return orbits, burnside


def invariant_dim_in_ball(G: MatGroup, B: int) -> tuple[int, int]:
    """Dimension of the invariants supported on the orbit closure of a box.

    Let S be the G-closure of { a : |a|_inf <= B }.  The orbit sums of the
    orbits in S are a basis of the invariants supported on S, so the
    dimension equals the orbit count; it is recomputed independently by the
    averaged fixed-point count over the group and both counts are asserted
    equal before returning the pair.
    """
    orbits, burnside = box_orbits(G, B)
    return len(orbits), burnside


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
    dim_base + dim_twisted with the sum direct.
    """

    ball: int
    dim_invariants: int
    dim_base: int
    dim_twisted: int
    is_direct_sum: bool
    holds: bool


def _orbits_within(G: MatGroup, radius: int) -> list[list[tuple[int, ...]]]:
    orbits, _ = box_orbits(G, radius)
    return [[tuple(q) for q in orbit] for orbit in orbits
            if all(abs(x) <= radius for q in orbit for x in q)]


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
    twist = LaurentPoly(3, 2, {e: 1 for e in _TWIST_EXPONENTS})

    dim_invariants = len(_orbits_within(group, B))
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
        s = LaurentPoly(3, 2, {e: 1 for e in orbit})
        prod = twist * s
        for e, c in prod.terms.items():
            prod_rows[k, mono_index[e]] = c

    rk_all = rank_fp(prod_rows, 2)
    rk_out = rank_fp(prod_rows[:, outside], 2)
    dim_twisted = rk_all - rk_out

    # explicit basis of the twisted part that lies inside the ball
    combos = nullspace_fp(prod_rows[:, outside].T, 2)
    twisted_vecs = (combos @ prod_rows[:, inside]) % 2 if combos.size else \
        np.zeros((0, len(inside)), dtype=np.int64)
    assert rank_fp(twisted_vecs, 2) == dim_twisted

    inside_pos = {mono_index_key: col for col, mono_index_key in enumerate(inside)}
    base_vecs = np.zeros((dim_base, len(inside)), dtype=np.int64)
    for k, orbit in enumerate(base_orbits):
        for e in orbit:
            base_vecs[k, inside_pos[mono_index[e]]] = 1

    stacked = np.vstack([base_vecs, twisted_vecs]) if dim_twisted else base_vecs
    is_direct = rank_fp(stacked, 2) == dim_base + dim_twisted
    holds = is_direct and dim_invariants == dim_base + dim_twisted
    return BallDecomposition(B, dim_invariants, dim_base, dim_twisted, is_direct, holds)
