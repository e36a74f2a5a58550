"""Analytics of the lattice action: realizable stabilizers, heights, and mu.

The height of the ideal generated by (h - 1)(R) over the Laurent polynomial
ring equals n - rank(fixed lattice of H), which turns every height question
into exact integer linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohomology import INFINITY, MuValue, mu_p
from .intlinalg import covers, fixed_lattice, intersect
from .matgroup import MatGroup, is_prime, subgroup_conjugacy_classes, subgroups


@dataclass(frozen=True)
class IsotropyReport:
    """Realizable stabilizer subgroups, one representative per conjugacy
    class, each with a lattice point whose stabilizer is exactly that
    subgroup.  The full group is always realizable with witness 0."""

    entries: tuple[tuple[MatGroup, tuple[int, ...]], ...]

    def witnesses(self) -> dict[int, tuple[int, ...]]:
        return {i: w for i, (_, w) in enumerate(self.entries)}


def stabilizer(G: MatGroup, point) -> MatGroup:
    pt = [int(x) for x in point]
    images = (G.elements @ np.array(pt, dtype=object)).tolist()
    return G.subgroup_from_indices([i for i, q in enumerate(images) if q == pt])


def isotropy_subgroups(G: MatGroup, subgroup_bound: int = 200) -> IsotropyReport:
    """Conjugacy-class representatives of subgroups realized as stabilizers.

    A subgroup H is realizable iff some point of the fixed lattice of H is
    moved by every element outside H.  For each g outside H the points of
    fixed(H) also fixed by g form a sublattice; H is realizable exactly when
    these sublattices fail to cover fixed(H), and the covering witness is the
    realizing point.
    """
    lattices = G.element_fixed_lattices()
    entries = []
    for cls in subgroup_conjugacy_classes(G, subgroup_bound):
        H = cls[0]
        ah = H.fixed_lattice()
        hidx = G.indices_of_subgroup(H)
        # elements with equal fixed lattices give equal parts, and neither the
        # answer of `covers` nor its witness depends on repeats or order
        parts = {}
        for L in dict.fromkeys(lattices[gi] for gi in range(G.order) if gi not in hidx):
            lg = intersect(ah, L)
            if lg == ah:
                break  # some g outside H fixes everything H fixes
            parts[lg] = None
        else:
            covered, witness = covers(ah, parts)
            if not covered:
                entries.append((H, witness))
    return IsotropyReport(tuple(entries))


def height_ir(H) -> int:
    """Height of the moved-monomial ideal: n - rank(fixed lattice)."""
    fl = H.fixed_lattice() if isinstance(H, MatGroup) else fixed_lattice(list(H))
    return fl.ambient_rank - fl.rank


def mu_action(G: MatGroup, p: int, search_limit: int = 9,
              subgroup_bound: int = 200,
              isotropy: IsotropyReport | None = None) -> MuValue:
    """Least positive degree where the action's cohomology is nonzero.

    Equals the minimum of mu_p over the realizable stabilizer subgroups
    (conjugates contribute equal values, so class representatives suffice).
    The result is exact when the minimum is certified: attained by an exact
    contribution that no inexact lower bound can undercut.  ``isotropy`` is
    ``isotropy_subgroups(G, subgroup_bound)`` when the caller already has it.
    """
    report = isotropy_subgroups(G, subgroup_bound) if isotropy is None else isotropy
    values = [mu_p(H, p, search_limit) for H, _ in report.entries]
    best = min(v.value for v in values)
    if best == INFINITY:
        return MuValue(INFINITY, True)
    exact = any(v.exact and v.value == best for v in values)
    return MuValue(best, exact)


def trace_ideal_height(G: MatGroup, p: int, excluded,
                       subgroup_bound: int = 200) -> int | float:
    """Infimum of height_ir over p-subgroups outside the ``excluded`` family.

    ``excluded`` is a predicate on subgroups; it must be closed under
    conjugation and under passing to subgroups, which is validated against
    the enumerated subgroup lattice.  INFINITY for an empty infimum.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    subs = subgroups(G, subgroup_bound)
    by_indices = {G.indices_of_subgroup(H): H for H in subs}
    flagged = {G.indices_of_subgroup(H) for H in subs if excluded(H)}
    for idx in flagged:
        for g in range(G.order):
            if G.conjugate_indices(g, idx) not in flagged:
                raise ValueError("excluded family is not closed under conjugation")
        for other in by_indices:
            if other <= idx and other not in flagged:
                raise ValueError("excluded family is not closed under subgroups")
    heights = []
    for H in subs:
        o = H.order
        while o % p == 0:
            o //= p
        if o != 1:
            continue  # not a p-subgroup
        if G.indices_of_subgroup(H) in flagged:
            continue
        heights.append(height_ir(H))
    return min(heights) if heights else INFINITY
