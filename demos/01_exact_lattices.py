"""Exact lattice arithmetic: Smith forms, fixed and moved sublattices.

Everything here is integer-exact; the Smith transforms are unimodular and
the Hermite bases are canonical, so lattice equality is literal equality.
"""

from multinv import (
    fixed_lattice,
    intmat,
    moved_lattice,
    quotient_invariants,
    rank,
    snf,
)

# the order-2 matrix that negates the first coordinate and swaps the others
g1 = intmat([[-1, 0, 0], [0, 0, 1], [0, 1, 0]])
diff = intmat([[-2, 0, 0], [0, -1, 1], [0, 1, -1]])  # g1 - identity

S, U, V = snf(diff)
print("Smith form of (g1 - 1):")
print("  diagonal:", [int(S[i, i]) for i in range(3)])
print("  U @ M @ V == S:", all(int(a) == int(b) for a, b in zip((U @ diff @ V).flat, S.flat)))
print("  rank:", rank(diff))

fixed = fixed_lattice([g1])
moved = moved_lattice([g1])
print("\nfixed sublattice (saturated):", fixed)
print("moved sublattice (index 2 in its saturation):", moved)
print("invariants of Z^3 / moved:", quotient_invariants(moved))

