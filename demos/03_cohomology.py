"""Mod-p group cohomology from truncated free resolutions.

The dimension tables below are classical: cyclic p-groups have
one-dimensional cohomology in every degree, while for S3 mod 3 the
dimensions are periodic of period 4 with pattern 1,0,0,1.
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

print("\nmu_3(S3) by resolution:", mu_p(s3, 3))
print("mu_3(S3) by the normalizer formula:", mu_p_formula(s3, 3))
print("mu_2(S3):", mu_p(s3, 2), "= formula:", mu_p_formula(s3, 2))
