"""Analytics of the lattice action: realizable stabilizers and mu.

A stabilizer H is recognized from its Reynolds sum S_H = Σ_{h∈H} h, whose
columns span Fix(H) over Q.  Only the witness search needs a basis of Fix(H)
(``intlinalg.fixed_lattice``).  Both tests are batched integer matmuls over
one (N, n, n) stack of G's elements, in int64 when a bound on every value
they form is below 2^62 (then no partial sum overflows, so each product is
exact) and in Python ints (``dtype=object``) otherwise, through the same code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .cohomology import MuValue, mu_p
from .errors import MAX_RESOLUTION_DEPTH, BoundExceededError
from .intlinalg import Sublattice, fixed_lattice
from .matgroup import MatGroup, subgroup_conjugacy_classes

# Shell-by-shell witness searches are dense (they always succeed at a small
# radius); this guard only trips on internal errors.
_MAX_SEARCH_RADIUS = 64
# a kernel runs in int64 when every |value| it forms is below this
_INT64_SAFE = 1 << 62


@dataclass(frozen=True)
class IsotropyReport:
    """Realizable stabilizer subgroups, one representative per conjugacy
    class, each with a lattice point whose stabilizer is exactly that
    subgroup.  The full group is always realizable with witness 0."""

    entries: tuple[tuple[MatGroup, tuple[int, ...]], ...]


def stabilizer(G: MatGroup, point) -> MatGroup:
    pt = [int(x) for x in point]
    images = (G.elements @ np.array(pt, dtype=object)).tolist()
    return G.subgroup_from_indices([i for i, q in enumerate(images) if q == pt])


def _exact(a: np.ndarray, bound: int) -> np.ndarray:
    """``a`` in int64 when ``bound`` bounds every |value| that the products
    over it form below 2^62, and in Python ints otherwise."""
    return a.astype(np.int64 if bound < _INT64_SAFE else object, copy=False)


def _realizable_classes(G: MatGroup, stack: np.ndarray):
    """Yield (H, the rows of ``stack`` outside H) for each conjugacy-class
    representative H that is the stabilizer of some lattice point;
    ``stack`` holds G's elements in canonical order.

    H is realizable iff some point of Fix(H) is moved by every g outside H,
    that is, iff the parts Fix(H) ∩ Fix(g) fail to cover Fix(H).  Each part
    is saturated (a kernel), so a part of full rank equals Fix(H), and a
    finite union of lower-rank parts never covers it.  Hence H is realizable
    iff no g outside H fixes Fix(H) pointwise.  The columns of the Reynolds
    sum S_H span Fix(H) over Q (S_H is |H| times the projection onto it), so
    g fixes Fix(H) pointwise iff g·S_H = S_H.
    """
    for cls in subgroup_conjugacy_classes(G):
        H = cls[0]
        inside = np.zeros(G.order, dtype=bool)
        inside[list(G.indices_of_subgroup(H))] = True
        outside = stack[~inside]
        reynolds = stack[inside].sum(axis=0)
        if not (outside @ reynolds == reynolds).all(axis=(1, 2)).any():
            yield H, outside


@functools.cache
def _shell(r: int, radius: int) -> np.ndarray:
    """The points of Z^r of infinity norm ``radius`` (r, radius >= 1), as a
    read-only (m, r) int64 array."""
    cube = np.indices((2 * radius + 1,) * r).reshape(r, -1).T - radius
    shell = cube[np.abs(cube).max(axis=1) == radius]
    shell.setflags(write=False)
    return shell


def _witness(ambient: Sublattice, outside: np.ndarray, entry_bound: int) -> tuple[int, ...]:
    """The best point of the first coordinate shell of ``ambient`` that
    holds a point no matrix of ``outside`` fixes: least infinity norm, then
    fewest nonzero coordinates, then the lexicographically greatest.

    Every matrix fixes 0, so with ``outside`` nonempty the search starts at
    radius 1; then ``ambient`` has rank r >= 1 (``_realizable_classes``).
    With B = ``entry_bound`` bounding the entries of ``outside`` and c the
    largest basis entry, a point of coordinates up to R has entries up to
    r·R·c and its images entries up to n·B·r·R·c: the shell of radius R runs
    in int64 below 2^62 and in Python ints past it.
    """
    n, r = ambient.ambient_rank, ambient.rank
    if not len(outside):
        return (0,) * n
    spread = n * entry_bound * r * max(abs(x) for col in ambient.columns for x in col)
    for radius in range(1, _MAX_SEARCH_RADIUS + 1):
        bound = spread * radius
        points = _exact(_shell(r, radius), bound) @ _exact(np.array(ambient.columns), bound)
        images = points @ _exact(outside, bound).reshape(-1, n).T
        fixed = (images.reshape(len(points), -1, n) == points[:, None, :]).all(axis=2).any(axis=1)
        moved = points[~fixed]
        if len(moved):
            # np.lexsort sorts by its last key first
            keys = [-moved[:, j] for j in reversed(range(n))]
            keys += [(moved != 0).sum(axis=1), abs(moved).max(axis=1)]
            return tuple(moved[np.lexsort(keys)[0]].tolist())
    raise BoundExceededError("witness search radius exceeded")


def isotropy_subgroups(G: MatGroup) -> IsotropyReport:
    """Conjugacy-class representatives of subgroups realized as stabilizers,
    each with a witness: among the points of the first coordinate shell of
    Fix(H) that no g outside H fixes, the one of least infinity norm, then
    fewest nonzero coordinates, then the lexicographically greatest.

    G's elements are stacked once.  With B the largest |entry|, each entry of
    a Reynolds sum is at most N·B and each entry of g·S_H at most n·B²·N, so
    the stack is int64 when n·B²·N < 2^62 and holds Python ints otherwise.
    The witness search picks its own dtype per shell (``_witness``) and, since
    every g fixes the origin, starts at radius 1 unless H = G.
    """
    B = int(abs(G.elements).max())
    stack = _exact(G.elements, G.n * B * B * G.order)
    return IsotropyReport(tuple((H, _witness(fixed_lattice(H.elements), outside, B))
                                for H, outside in _realizable_classes(G, stack)))


def mu_action(isotropy: IsotropyReport, p: int, depth: int = MAX_RESOLUTION_DEPTH) -> MuValue:
    """Least positive degree where the action's cohomology is nonzero, for
    the group whose ``isotropy_subgroups`` report is ``isotropy``: the least
    ``mu_p(H, p, depth)`` over its realizable stabilizers H (conjugates
    contribute equal values, so class representatives suffice).  Every
    exact value is below the inexact marker ``depth``, so the least value is
    exact when an exact value attains it.  No value is below 1, so the
    search stops at the first exact 1.
    """
    values = []
    for H, _ in isotropy.entries:
        values.append(mu_p(H, p, depth))
        if values[-1] == MuValue(1, True):
            break
    return min(values, key=lambda v: v.value)
