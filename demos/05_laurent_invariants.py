"""Laurent polynomials under the monomial action: orbit sums and dimensions.

Orbit sums span the invariant ring; counting orbits in a finite exponent
box therefore computes the dimension of the truncated invariant space, and
the averaged fixed-point count recomputes it independently.
"""

from multinv import (
    LaurentPoly,
    act,
    check_g1_decomposition,
    corpus_group,
    invariant_dim_in_ball,
    is_invariant,
    orbit_sum,
)

g1mat = [[-1, 0, 0], [0, 0, 1], [0, 1, 0]]
x = LaurentPoly.monomial(3, 2, (1, 0, 0))
xy = LaurentPoly.monomial(3, 2, (1, 1, 0))
print("g1 sends x to", act(g1mat, x))
print("g1 sends xy to", act(g1mat, xy))

G1, _ = corpus_group("g1")
phi = LaurentPoly(3, 2, {(1, 1, 0): 1, (-1, 0, 1): 1})
print("xy + x^-1 z is invariant:", is_invariant(phi, G1))

inv1, _ = corpus_group("inversion1")
print("\norbit sum of x under inversion:", orbit_sum(inv1, (1,), 2))
print("invariant dimensions in balls, inversion on Z^1:",
      [invariant_dim_in_ball(inv1, B) for B in (0, 1, 2, 3)])

g2, _ = corpus_group("g2")
print("doubled swap on Z^4, ball 1:", invariant_dim_in_ball(g2, 1))

print("\nsplitting the g1-invariants over the Klein-four invariant ring (char 2):")
for B in (1, 2, 3):
    r = check_g1_decomposition(2, B)
    print(f"  ball {B}: {r.dim_invariants} = {r.dim_base} + {r.dim_twisted}"
          f" (direct sum: {r.is_direct_sum})")
