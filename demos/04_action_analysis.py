"""Realizable stabilizers, heights, and the mu invariant of an action.

A subgroup is a stabilizer of some lattice point exactly when its fixed
sublattice is not covered by the fixed sublattices of the outside elements;
the witness point is part of the report.
"""

from multinv import corpus_group, isotropy_subgroups, mu_action, subgroups

for name in ("inversion3", "g1", "s3"):
    G, p = corpus_group(name)
    print(f"{name}: order {G.order} acting on Z^{G.n}, p = {p}")
    report = isotropy_subgroups(G)
    for H, witness in report.entries:
        print(f"  stabilizer of {witness} has order {H.order}")
    mu = mu_action(report, p)
    print(f"  mu of the action = {mu.value} (exact={mu.exact})")
    # the ideal moved by H has height n - rank Fix(H)
    print("  heights of the moved-monomial ideals by subgroup order:",
          sorted({(H.order, G.n - H.fixed_rank()) for H in subgroups(G)}))
    print()

# the rotation subgroup of S3 is NOT realizable: anything fixed by a
# 3-cycle is diagonal, hence fixed by all of S3
s3, _ = corpus_group("s3")
orders = [H.order for H, _ in isotropy_subgroups(s3).entries]
print("realizable stabilizer orders for S3:", orders, "(no order-3 entry)")
