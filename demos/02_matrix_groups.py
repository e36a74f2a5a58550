"""Finite matrix groups: closure, subgroup lattice, Sylow subgroups, profiles."""

from multinv import (
    corpus_group,
    element_profiles,
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

print("\nelement profiles (order, rank drop) for S3:")
for pr in element_profiles(s3):
    tag = "reflection" if pr.is_reflection else (
        "bireflection" if pr.is_bireflection else "-")
    print(f"  order {pr.order}, rank drop {pr.rank_drop} {tag}")

rot6 = generate([[[0, -1], [1, 1]]])
print("\nthe order-6 planar rotation group has element orders",
      sorted(rot6.element_orders()))
