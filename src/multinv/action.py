"""Analytics of the lattice action: realizable stabilizers, heights, and mu.

The height of the ideal of the Laurent ring R generated by (h - 1)(R) is
n - rank Fix(H), and rank Fix(H) = tr(S_H)/|H| for the Reynolds sum
S_H = Σ_{h∈H} h.  Only the witness search needs a basis of Fix(H)
(``intlinalg.fixed_lattice``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cohomology import INFINITY, MuValue, _check_resolution_bounds, has_p_quotient, mu_p
from .errors import MAX_RESOLUTION_DEPTH, BoundExceededError
from .intlinalg import Sublattice, fixed_lattice
from .matgroup import MatGroup, is_prime, subgroup_conjugacy_classes

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


def realizable_subgroups(G: MatGroup) -> list[MatGroup]:
    """The groups of ``isotropy_subgroups(G)``, without witnesses."""
    return [H for H, _ in _realizable_classes(G)]


def isotropy_subgroups(G: MatGroup) -> IsotropyReport:
    """Conjugacy-class representatives of subgroups realized as stabilizers,
    each with a witness: among the points of the first coordinate shell of
    Fix(H) that no g outside H fixes, the one of least infinity norm, then
    fewest nonzero coordinates, then the lexicographically greatest.
    """
    return IsotropyReport(tuple((H, _witness(fixed_lattice(H.elements), outside))
                                for H, outside in _realizable_classes(G)))


def height_ir(H: MatGroup) -> int:
    """Height of the moved-monomial ideal: n - rank(fixed lattice)."""
    return H.n - H.fixed_rank()


def mu_action(G: MatGroup, p: int, search_limit: int = MAX_RESOLUTION_DEPTH - 1,
              isotropy: IsotropyReport | None = None) -> MuValue:
    """Least positive degree where the action's cohomology is nonzero.

    Equals the minimum of mu_p over the realizable stabilizer subgroups
    (conjugates contribute equal values, so class representatives suffice).
    The result is exact when the minimum is certified: attained by an exact
    contribution that no inexact lower bound can undercut.  ``isotropy`` is
    ``isotropy_subgroups(G)`` when the caller already has it;
    without it the witness-free ``realizable_subgroups`` gives the groups.

    The search stops at its answer and gives what the full search gives, the
    minimum over ``mu_p(H, p, search_limit)`` for every stabilizer H, with
    its exactness and its errors.  A stabilizer of order prime to p adds the
    exact INFINITY; for one of order divisible by p, ``mu_p`` with limit L
    returns its mu exactly when mu <= L, else the inexact marker L + 1.
    - Errors: the resolution limits are checked on every stabilizer of order
      divisible by p, in order, before any is searched, so the first one past
      a limit raises as the full search would.
    - Shortcut: for L >= 1, a stabilizer with a p-quotient has the exact
      mu = 1, and no contribution is below 1, so the minimum is exact 1.
    - Otherwise stabilizer i is searched to L_i = min(L, b - 1), where b is
      the least exact value found before it (L_i = L while there is none).
      If mu(H_i) <= L_i, it is found exactly, as with limit L.  If not,
      either mu(H_i) > L, and the full search gets the marker L + 1 too, or
      mu(H_i) >= b, and H_i cannot lower the least exact value.  So the
      final b is the least exact value of the full search.  Every exact
      value is at most L, below the marker, so the minimum is the exact b;
      with no exact value it is the inexact L + 1 if some order is
      divisible by p, else the exact INFINITY.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    groups = (realizable_subgroups(G) if isotropy is None
              else [H for H, _ in isotropy.entries])
    dividing = [H for H in groups if H.order % p == 0]
    for H in dividing:
        _check_resolution_bounds(H.order, search_limit + 1)
    if search_limit >= 1 and any(has_p_quotient(H, p) for H in dividing):
        return MuValue(1, True)
    best, limit = MuValue(INFINITY, True), search_limit
    for H in dividing:
        value = mu_p(H, p, limit)
        if value.exact:
            best, limit = value, value.value - 1
        elif best.is_infinite:
            best = value
    return best
