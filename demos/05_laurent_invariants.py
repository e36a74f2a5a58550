"""Invariants of the monomial action: box orbits, orbit sums and dimensions.

A matrix g sends the monomial with exponent a to the monomial with exponent
g a.  Orbit sums span the invariant ring; counting orbits in a finite
exponent box therefore computes the dimension of the truncated invariant
space, and the averaged fixed-point count recomputes it independently.
"""

import numpy as np

from multinv import check_g1_decomposition, corpus_group
from multinv.laurent import box_orbits


def dims(G, B):
    """The orbit count of the box of radius B and its averaged recount."""
    _, sizes, burnside = box_orbits(G, B)
    return len(sizes), burnside


def orbits(G, B):
    """The orbits of the box of radius B, each a list of exponent vectors."""
    points, sizes, _ = box_orbits(G, B)
    return [orbit.tolist() for orbit in np.split(points, np.cumsum(sizes)[:-1])]


inv1, _ = corpus_group("inversion1")
print("orbits of the box of radius 1 under inversion on Z^1:", orbits(inv1, 1))
print("invariant dimensions in balls, inversion on Z^1:",
      [dims(inv1, B) for B in (0, 1, 2, 3)])

G1, _ = corpus_group("g1")
twist = next(orbit for orbit in orbits(G1, 1) if [1, 1, 0] in orbit)
print("\ng1-orbit of the exponent of xy:", twist, "(so xy + x^-1 z is invariant)")

g2, _ = corpus_group("g2")
print("doubled swap on Z^4, ball 1:", dims(g2, 1))

print("\nsplitting the g1-invariants over the Klein-four invariant ring (char 2):")
for B in (1, 2, 3):
    r = check_g1_decomposition(2, B)
    print(f"  ball {B}: {r.dim_invariants} = {r.dim_base} + {r.dim_twisted}"
          f" (direct sum: {r.is_direct_sum})")
