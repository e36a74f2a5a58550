"""Invariants of the monomial action: box orbits, orbit sums and dimensions.

A matrix g sends the monomial with exponent a to the monomial with exponent
g a.  Orbit sums span the invariant ring; counting orbits in a finite
exponent box therefore computes the dimension of the truncated invariant
space, and the averaged fixed-point count recomputes it independently.
"""

from multinv import check_g1_decomposition, corpus_group
from multinv.laurent import box_orbits


def dims(G, B):
    """The orbit count of the box of radius B and its averaged recount."""
    orbits, burnside = box_orbits(G, B)
    return len(orbits), burnside


inv1, _ = corpus_group("inversion1")
orbits, _ = box_orbits(inv1, 1)
print("orbits of the box of radius 1 under inversion on Z^1:", orbits)
print("invariant dimensions in balls, inversion on Z^1:",
      [dims(inv1, B) for B in (0, 1, 2, 3)])

G1, _ = corpus_group("g1")
orbits, _ = box_orbits(G1, 1)
twist = next(orbit for orbit in orbits if [1, 1, 0] in orbit)
print("\ng1-orbit of the exponent of xy:", twist, "(so xy + x^-1 z is invariant)")

g2, _ = corpus_group("g2")
print("doubled swap on Z^4, ball 1:", dims(g2, 1))

print("\nsplitting the g1-invariants over the Klein-four invariant ring (char 2):")
for B in (1, 2, 3):
    r = check_g1_decomposition(2, B)
    print(f"  ball {B}: {r.dim_invariants} = {r.dim_base} + {r.dim_twisted}"
          f" (direct sum: {r.is_direct_sum})")
