"""Mod-p group cohomology from truncated free resolutions.

The dimension tables below are classical: cyclic p-groups have
one-dimensional cohomology in every degree, while for S3 mod 3 the
dimensions are periodic of period 4 with pattern 1,0,0,1.  S4 mod 3 has
the same table: its Klein four-subgroup V4 is normal of order prime to 3,
so the resolution is over S4/V4, which is S3.
"""

from multinv import corpus_group, mu_p, mu_p_formula, resolution

z2, _ = corpus_group("inversion1")
res = resolution(z2, 2, 9)
print("Z/2 mod 2, free ranks:", res.ranks)
print("Z/2 mod 2, dims H^r  :", [res.cohomology_dim(r) for r in range(9)])

rot3, _ = corpus_group("rot3")
res = resolution(rot3, 3, 9)
print("Z/3 mod 3, dims H^r  :", [res.cohomology_dim(r) for r in range(9)])

s3, _ = corpus_group("s3")
res = resolution(s3, 3, 7)
print("\nS3 mod 3, free ranks :", res.ranks)
print("S3 mod 3, dims H^r   :", [res.cohomology_dim(r) for r in range(7)])
print("note: the free ranks exceed the dimensions because the group algebra")
print("of S3 over F_3 has non-free projective covers; the dimensions come")
print("from the augmented Hom complex, not from the ranks")

s4, _ = corpus_group("s4")
res = resolution(s4, 3, 7)
print(f"\nS4 mod 3, resolved over S4/V4 (order {res.resolved_order}), free ranks:", res.ranks)
print("S4 mod 3, dims H^r   :", [res.cohomology_dim(r) for r in range(7)])

print("\nmu_3(S3) by resolution:", mu_p(s3, 3))
print("mu_3(S3) by the normalizer formula:", mu_p_formula(s3, 3))
print("mu_2(S3):", mu_p(s3, 2), "= formula:", mu_p_formula(s3, 2))
