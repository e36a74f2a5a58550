"""Analytics of the lattice action: realizable stabilizers and mu.

A stabilizer H is recognized from its Reynolds sum S_H = Σ_{h∈H} h, whose
columns span Fix(H) over Q.  Only the witness search needs a basis of Fix(H)
(``intlinalg.fixed_lattice``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cohomology import MuValue, mu_p
from .errors import MAX_RESOLUTION_DEPTH, BoundExceededError
from .intlinalg import Sublattice, fixed_lattice
from .matgroup import MatGroup, subgroup_conjugacy_classes

# Shell-by-shell witness searches are dense (they always succeed at a small
# radius); this guard only trips on internal errors.
_MAX_SEARCH_RADIUS = 64


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


def _realizable_classes(G: MatGroup):
    """Yield (H, elements of G outside H) for each conjugacy-class
    representative H that is the stabilizer of some lattice point.

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
        hidx = G.indices_of_subgroup(H)
        outside = G.elements[[i for i in range(G.order) if i not in hidx]]
        reynolds = H.elements.sum(axis=0)
        if not (outside @ reynolds == reynolds).all(axis=(1, 2)).any():
            yield H, outside


def _coordinate_shells(r: int):
    """Yield coordinate vectors of Z^r grouped by increasing infinity norm."""
    if r == 0:
        yield [()]
        return
    for radius in itertools.count():
        shell = [c for c in itertools.product(range(-radius, radius + 1), repeat=r)
                 if max((abs(x) for x in c), default=0) == radius]
        yield shell
        if radius >= _MAX_SEARCH_RADIUS:
            raise BoundExceededError("witness search radius exceeded")


def _best_witness(candidates: list[tuple[int, ...]]) -> tuple[int, ...]:
    # minimal infinity norm, then fewest nonzero coordinates, then the
    # lexicographically greatest vector; fully deterministic
    def shape(v):
        return (max((abs(x) for x in v), default=0), sum(1 for x in v if x))

    m = min(shape(v) for v in candidates)
    return max(v for v in candidates if shape(v) == m)


def _witness(ambient: Sublattice, outside: np.ndarray) -> tuple[int, ...]:
    """The best point (as `_best_witness` ranks them) of the first coordinate
    shell of ``ambient`` that holds a point no matrix of ``outside`` fixes."""
    basis_t = ambient.basis.T
    for shell in _coordinate_shells(ambient.rank):
        points = np.array(shell, dtype=object) @ basis_t
        fixed = (outside @ points.T == points.T).all(axis=1).any(axis=0)
        found = [tuple(pt) for pt, f in zip(points.tolist(), fixed) if not f]
        if found:
            return _best_witness(found)
    raise AssertionError("unreachable")


def isotropy_subgroups(G: MatGroup) -> IsotropyReport:
    """Conjugacy-class representatives of subgroups realized as stabilizers,
    each with a witness: among the points of the first coordinate shell of
    Fix(H) that no g outside H fixes, the one of least infinity norm, then
    fewest nonzero coordinates, then the lexicographically greatest.
    """
    return IsotropyReport(tuple((H, _witness(fixed_lattice(H.elements), outside))
                                for H, outside in _realizable_classes(G)))


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
