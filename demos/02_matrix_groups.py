"""Finite matrix groups: closure, subgroup lattice, Sylow subgroups, profiles."""

from multinv import (
    corpus_group,
    generate,
    op_core,
    subgroup_structure,
    subgroups,
    sylow,
)

s3, _ = corpus_group("s3")
print("S3 as 3x3 permutation matrices: order", s3.order)
print("subgroup orders:", [H.order for H in subgroups(s3)])

P = sylow(s3, 3)
N, C, nc = subgroup_structure(s3, P)
print(f"Sylow 3-subgroup has order {P.order}; [N:C] = {nc}")

print("smallest normal subgroup with 3-group quotient:", op_core(s3, 3).order)
print("smallest normal subgroup with 2-group quotient:", op_core(s3, 2).order)

# rank(g - 1) = n - rank Fix(g): at most 1 for a reflection, 2 for a bireflection
print("\nelement profiles (order, rank drop) for S3:")
for order, fixed in zip(s3.element_orders(), s3.element_fixed_ranks()):
    drop = s3.n - fixed
    tag = "reflection" if drop <= 1 else ("bireflection" if drop <= 2 else "-")
    print(f"  order {order}, rank drop {drop} {tag}")

rot6 = generate([[[0, -1], [1, 1]]])
print("\nthe order-6 planar rotation group has element orders",
      sorted(rot6.element_orders()))
