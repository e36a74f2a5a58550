import functools

import numpy as np
import pytest

from multinv import cohomology
from multinv.cohomology import (
    MuValue,
    cohomology_table,
    mu_from_resolution,
    mu_p,
    mu_p_formula,
    resolution,
)
from multinv.corpus import corpus_group, corpus_names
from multinv.errors import MAX_RESOLUTION_DEPTH, BoundExceededError
from multinv.classify import ClassifyOptions, classify, verify_certificate
from multinv.fparith import SpanFp, nullspace_fp, rref_fp
from multinv.intlinalg import identity_matrix, intmat
from multinv.matgroup import (
    generate,
    p_part,
    p_prime_core,
    subgroup_conjugacy_classes,
    subgroup_structure,
    subgroups,
    sylow,
    trivial_group,
)
from test_action import B3_GENERATORS, B5_GENERATORS, CENSUS_MAXIMAL, W_F4_GENERATORS
from test_classify import QUAT_I, QUAT_J, SL23_GENERATORS
from test_fparith import ReferenceSpan
from test_limits import B4_GENERATORS, F54_GENERATORS


def test_resolution_ranks_z2():
    z2, _ = corpus_group("inversion1")
    res = resolution(z2, 2, 5)
    assert res.ranks == [1, 1, 1, 1, 1, 1]
    res.check_complex()
    assert res.is_minimal()


# free ranks to degree 6, over F_p[G/O_p'(G)]; a corpus group not listed has
# rank 1 throughout when p divides its order, and ranks [1, 0, ...] when not
PINNED_RANKS = {
    "s3": {2: [1] * 7, 3: [1, 2, 3, 3, 2, 2, 2]},  # S3/C3 = C2 at p = 2
    "s4": {2: [1, 3, 4, 4, 5, 6, 6], 3: [1, 2, 3, 3, 2, 2, 2]},  # S4/V4 = S3 at p = 3
    "gamma": {2: [1, 2, 3, 4, 5, 6, 7]},
}


@pytest.mark.parametrize("name", corpus_names())
def test_resolution_ranks_pinned(name):
    G, _ = corpus_group(name)
    for p in (2, 3):
        default = [1] * 7 if G.order % p == 0 else [1] + [0] * 6
        assert resolution(G, p, 6).ranks == PINNED_RANKS.get(name, {}).get(p, default)


def test_resolution_ranks_trivial_group():
    res = resolution(trivial_group(2), 2, 4)
    assert res.ranks == [1, 0, 0, 0, 0]


def test_resolution_ranks_z3():
    rot3, _ = corpus_group("rot3")
    res = resolution(rot3, 3, 5)
    assert res.ranks == [1, 1, 1, 1, 1, 1]
    assert res.is_minimal()


def test_resolution_minimal_for_p_groups():
    rot4, _ = corpus_group("rot4")
    res = resolution(rot4, 2, 6)
    assert res.is_minimal()
    res.check_complex()
    gamma, _ = corpus_group("gamma")
    res = resolution(gamma, 2, 5)
    assert res.is_minimal()
    res.check_complex()


def test_boundary_composition_zero_everywhere():
    for name, p in (("s3", 3), ("s3", 2), ("gamma", 2), ("rot4_nonsplit", 2)):
        G, _ = corpus_group(name)
        resolution(G, p, 6).check_complex()


def test_h_dim_s3_mod3():
    s3, _ = corpus_group("s3")
    assert resolution(s3, 3, 2).cohomology_dim(1) == 0
    assert resolution(s3, 3, 3).cohomology_dim(2) == 0
    assert resolution(s3, 3, 4).cohomology_dim(3) == 1


def test_h_dim_z2_all_degrees():
    z2, _ = corpus_group("inversion1")
    res = resolution(z2, 2, 9)
    assert [res.cohomology_dim(r) for r in range(9)] == [1] * 9


def test_s3_mod3_dimension_table():
    s3, _ = corpus_group("s3")
    res = resolution(s3, 3, 7)
    assert [res.cohomology_dim(r) for r in range(7)] == [1, 0, 0, 1, 1, 0, 0]


def test_s4_mod3_is_resolved_over_s3():
    # O_3'(S4) is the Klein four-group V4, and S4/V4 is S3
    s3, _ = corpus_group("s3")
    s4, _ = corpus_group("s4")
    res, quotient = resolution(s4, 3, 7), resolution(s3, 3, 7)
    assert (res.group_order, res.resolved_order) == (24, 6)
    assert res.ranks == quotient.ranks
    assert ([res.cohomology_dim(r) for r in range(7)]
            == [quotient.cohomology_dim(r) for r in range(7)] == [1, 0, 0, 1, 1, 0, 0])


def test_mu_p_examples():
    z2, _ = corpus_group("inversion1")
    assert mu_p(z2, 2) == MuValue(1, True)
    triv = mu_p(trivial_group(3), 5)
    assert triv.is_infinite and triv.exact
    s3, _ = corpus_group("s3")
    assert mu_p(s3, 3) == MuValue(3, True)


def test_mu_p_inexact_marker():
    s3, _ = corpus_group("s3")
    m = mu_p(s3, 3, depth=3)
    assert m.value == 3 and not m.exact


def test_mu_p_infinite_iff_order_coprime():
    for name in corpus_names():
        G, p = corpus_group(name)
        assert not mu_p(G, p).is_infinite  # corpus default primes divide |G|
        q = 7  # 7 divides none of the corpus orders
        assert mu_p(G, q).is_infinite


def test_mu_formula_examples():
    s3, _ = corpus_group("s3")
    assert mu_p_formula(s3, 3) == 3
    assert mu_p_formula(s3, 2) == 1
    z2, _ = corpus_group("inversion1")
    assert mu_p_formula(z2, 2) == 1


def test_mu_formula_precondition():
    rot4, _ = corpus_group("rot4")
    assert mu_p_formula(rot4, 2) == 1  # a cyclic Sylow subgroup of order 4
    gamma, _ = corpus_group("gamma")
    with pytest.raises(ValueError, match="not cyclic"):
        mu_p_formula(gamma, 2)
    with pytest.raises(ValueError, match="does not divide"):
        mu_p_formula(rot4, 3)


def test_mu_formula_matches_resolution_on_corpus():
    for name in corpus_names():
        G, p = corpus_group(name)
        P = sylow(G, p)
        if max(P.element_orders()) != P.order:
            continue
        # mu_p may stop before any resolution, so the full resolution is read too
        formula = mu_p_formula(G, p)
        assert mu_from_resolution(resolution(G, p, MAX_RESOLUTION_DEPTH)) == MuValue(formula, True)
        assert mu_p(G, p) == MuValue(formula, True)


def test_h_dim_independent_of_pivot_order():
    # a conjugate by a signed permutation lists the same group in another
    # canonical element order, so its kernels pivot in another order
    T = intmat([[0, 0, -1], [1, 0, 0], [0, 1, 0]])
    for name, p in (("s3", 3), ("s3", 2), ("gamma", 2)):
        G, _ = corpus_group(name)
        H = generate([T @ g @ T.T for g in G.generators])  # T^-1 = T^T
        assert [H.index_of(T @ g @ T.T) for g in G.elements] != list(range(G.order))
        plain, moved = resolution(G, p, 5), resolution(H, p, 5)
        for r in range(4):
            assert plain.cohomology_dim(r) == moved.cohomology_dim(r)


def test_resolution_bounds():
    s3, _ = corpus_group("s3")
    with pytest.raises(BoundExceededError):
        resolution(generate(F54_GENERATORS), 3, 4)
    with pytest.raises(BoundExceededError):
        resolution(s3, 3, 11)
    with pytest.raises(ValueError):
        resolution(s3, 4, 3)  # p must be prime


def test_a_negative_depth_is_refused_and_depth_zero_searches_no_degree():
    Q8 = generate([QUAT_I, QUAT_J])
    calls = (lambda d: mu_p(Q8, 2, d), lambda d: cohomology_table(Q8, 2, d),
             lambda d: resolution(Q8, 2, d),
             lambda d: classify(Q8, 2, ClassifyOptions(cohomology_depth=d)))
    for call in calls:
        with pytest.raises(ValueError, match="^depth -3 is negative$"):
            call(-3)
    assert (mu_p(Q8, 2, 0) == cohomology_table(Q8, 2, 0).mu
            == mu_from_resolution(resolution(Q8, 2, 0)) == MuValue(0, False))


def test_permutation_matrices_agree_with_rotation_group():
    # any finite group is a MatGroup through its permutation matrices
    rot3, _ = corpus_group("rot3")
    cycle3 = generate([[[0, 0, 1], [1, 0, 0], [0, 1, 0]]])
    assert cycle3.order == 3
    res_rot, res_perm = resolution(rot3, 3, 6), resolution(cycle3, 3, 6)
    assert res_rot.ranks == res_perm.ranks
    for r in range(5):
        assert res_rot.cohomology_dim(r) == res_perm.cohomology_dim(r)


def test_only_a_matgroup_is_resolved():
    rot3, _ = corpus_group("rot3")

    def h_dim(group, p, r):
        return resolution(group, p, r + 1).cohomology_dim(r)

    for fn, args in ((resolution, (3, 2)), (h_dim, (3, 1)), (mu_p, (3,))):
        with pytest.raises(TypeError, match="MatGroup"):
            fn(rot3.mult_table(), *args)


def test_augmentation_is_degree_zero_rank_one():
    for name, p in (("s3", 3), ("rot4", 2)):
        G, _ = corpus_group(name)
        res = resolution(G, p, 3)
        assert res.ranks[0] == 1


DIFFERENTIAL_GROUPS = {name: corpus_group(name)[0] for name in corpus_names()}
DIFFERENTIAL_GROUPS.update(
    (f"B3c{k}", cls[0])
    for k, cls in enumerate(subgroup_conjugacy_classes(generate(B3_GENERATORS))))


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_GROUPS))
def test_resolution_matches_reference_span(name, monkeypatch):
    """The incremental span builds the same resolution as the span that
    re-eliminates everything on each insert."""
    G = DIFFERENTIAL_GROUPS[name]
    for p in (2, 3):
        res = resolution(G, p, 5)
        with monkeypatch.context() as patch:
            patch.setattr(cohomology, "SpanFp", ReferenceSpan)
            ref = resolution(G, p, 5)
        assert res.ranks == ref.ranks
        for mine, theirs in zip(res.generator_images, ref.generator_images, strict=True):
            assert np.array_equal(mine, theirs)
        assert ([res.cohomology_dim(r) for r in range(5)]
                == [ref.cohomology_dim(r) for r in range(5)])


def plain_resolution(G, p, depth, monkeypatch):
    """The resolution over F_p[G] itself: the p'-core patched to the trivial
    subgroup."""
    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "p_prime_core", lambda G, p: G.closure_indices(()))
        return resolution(G, p, depth)


NONMODULAR_GROUPS = dict(DIFFERENTIAL_GROUPS)
NONMODULAR_GROUPS.update(
    (f"Hc{k}", cls[0])
    for k, cls in enumerate(subgroup_conjugacy_classes(generate(CENSUS_MAXIMAL["H"]))))
NONMODULAR_CASES = [(name, p) for name, G in sorted(NONMODULAR_GROUPS.items())
                    for p in (2, 3, 5) if G.order % p]


@pytest.mark.parametrize(("name", "p"), NONMODULAR_CASES)
def test_nonmodular_resolution_matches_elimination(name, p, monkeypatch):
    """When p does not divide |G| the p'-core is G: the resolution is over
    F_p[G/G] = F_p, with ranks [1, 0, ...], and has the cohomology of the
    resolution eliminated over F_p[G]."""
    G = NONMODULAR_GROUPS[name]
    res = resolution(G, p, 6)
    res.check_complex()
    assert (res.resolved_order, res.ranks) == (1, [1] + [0] * 6)
    ref = plain_resolution(G, p, 6, monkeypatch)
    assert ref.resolved_order == G.order
    ref.check_complex()
    assert ([res.cohomology_dim(r) for r in range(6)]
            == [ref.cohomology_dim(r) for r in range(6)]
            == [1] + [0] * 5)


def translates(rows, perms):
    """g * row for every left multiplication g in ``perms`` and every row,
    shape (len(perms), len(rows), width): g moves the coordinate of h to
    that of g h in each block of |G| coordinates."""
    k, width = rows.shape
    m, n = perms.shape
    src = rows.reshape(k, width // n, n)
    out = np.empty((m, k, width // n, n), dtype=rows.dtype)
    for j, perm in enumerate(perms):
        out[j][..., perm] = src
    return out.reshape(m, k, width)


def full_width_module_generators(kernel_rows, perms, gen_perms, p):
    """The module generators as picked on the full-width kernel rows, the
    reference for the picks in kernel coordinates.  First each row outside
    I*ker plus the rows picked before it: the pivot columns of the
    transposed matrix of residues mod I*ker.  Then, unless G is a p-group,
    each first row outside the module generated so far."""
    k, width = kernel_rows.shape
    if k == 0:
        return kernel_rows
    ideal = SpanFp(p, width)
    for perm in gen_perms:
        ideal.add(translates(kernel_rows, perm[None])[0] - kernel_rows)
    _, picks = rref_fp(ideal.residues(kernel_rows).T, p)
    n = perms.shape[0]
    if p_part(n, p) != n:
        span = SpanFp(p, width)
        for i in picks:
            span.add(translates(kernel_rows[i:i + 1], perms))
        rest = np.flatnonzero(~span.contains(kernel_rows))
        while rest.size:
            picks.append(int(rest[0]))
            span.add(translates(kernel_rows[rest[:1]], perms))
            rest = rest[~span.contains(kernel_rows[rest])]
    return kernel_rows[picks]


GENERATOR_FAMILIES = {
    "corpus": [corpus_group(name)[0] for name in corpus_names()],
    "B3 classes": [cls[0] for cls in subgroup_conjugacy_classes(generate(B3_GENERATORS))],
    **{f"census {name}": subgroups(generate(gens)) for name, gens in CENSUS_MAXIMAL.items()},
}


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
def test_module_generators_match_the_full_width_picks(family, monkeypatch):
    """Every step of every resolution to depth 6 picks the same kernel rows
    in kernel coordinates as on the full-width rows."""
    picked = []
    fast = cohomology._module_generators

    def checked(kernel_rows, free, perms, gen_perms, p):
        rows = fast(kernel_rows, free, perms, gen_perms, p)
        assert np.array_equal(rows, full_width_module_generators(kernel_rows, perms, gen_perms, p))
        picked.append(len(rows))
        return rows

    monkeypatch.setattr(cohomology, "_module_generators", checked)
    for G in GENERATOR_FAMILIES[family]:
        for p in (2, 3):
            resolution(G, p, 6)
    assert sum(picked) > 0


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
def test_kernels_from_the_free_rows_match_the_full_boundary(family, monkeypatch):
    """Each step eliminates the last boundary only at the previous kernel's
    free columns, and gets the basis and free columns of the whole map; the
    whole map is the translates of the generator images, as the loop in
    ``translates`` forms them."""
    steps = []

    def recorded(mat, p):
        basis, free = nullspace_fp(mat, p)
        steps.append((mat, basis, free))
        return basis, free

    monkeypatch.setattr(cohomology, "nullspace_fp", recorded)
    checked = 0
    for G in GENERATOR_FAMILIES[family]:
        for p in (2, 3):
            res = resolution(G, p, 0)
            for d in range(6):
                steps.clear()
                res.extend()
                if not res.ranks[-2]:  # nothing left to resolve
                    assert steps == [] and res.ranks[-1] == 0
                    continue
                (mat, basis, free), = steps
                if d:
                    full = res.boundary(d)
                    gens = res.generator_images[d - 1].T
                    assert np.array_equal(full, translates(gens, res._perms).transpose(2, 1, 0)
                                          .reshape(full.shape))
                    assert np.array_equal(mat, full[last_free])
                    full_basis, full_free = nullspace_fp(full, p)
                    assert np.array_equal(basis, full_basis)
                    assert np.array_equal(free, full_free)
                    checked += full.shape[0] > mat.shape[0]
                last_free = free
    assert checked > 0


QUOTIENT_FAMILIES = [family for family in GENERATOR_FAMILIES if family != "corpus"]


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("family", QUOTIENT_FAMILIES)
def test_quotient_resolution_matches_the_plain_one(family, p, monkeypatch):
    """Resolved over G/O_p'(G) or over G itself, the cohomology is the same
    to depth 6; where O_p'(G) = 1 the two are one resolution."""
    for G in GENERATOR_FAMILIES[family]:
        res, plain = resolution(G, p, 6), plain_resolution(G, p, 6, monkeypatch)
        res.check_complex()
        plain.check_complex()
        assert res.resolved_order * len(p_prime_core(G, p)) == G.order == plain.resolved_order
        assert ([res.cohomology_dim(r) for r in range(6)]
                == [plain.cohomology_dim(r) for r in range(6)])
        if res.resolved_order == G.order:
            assert res.ranks == plain.ranks


def test_a_core_that_is_not_normal_or_not_prime_to_p_is_refused(monkeypatch):
    s3, _ = corpus_group("s3")
    orders = s3.element_orders()
    reflection = s3.closure_indices([orders.index(2)])
    rotations = s3.closure_indices([orders.index(3)])
    assert len(p_prime_core(s3, 3)) == 1 and len(p_prime_core(s3, 2)) == 3
    for core, message in ((reflection, "not normal"), (rotations, "divisible by 3"),
                          (frozenset([orders.index(2)]), "not a subgroup")):
        monkeypatch.setattr(cohomology, "p_prime_core", lambda G, p, core=core: core)
        with pytest.raises(ValueError, match=message):
            resolution(s3, 3, 2)
    monkeypatch.undo()
    G = generate(SL23_GENERATORS)
    v = classify(G, 2, ClassifyOptions(audit=True))
    assert (v.rule, v.certificate["mu"]) == ("R6", 3)
    assert verify_certificate(G, 2, v)


def _is_elementary_abelian(P, p):
    """Every element of order 1 or p, and every pair of elements commuting."""
    table = P.mult_table()
    return (all(o in (1, p) for o in P.element_orders())
            and all(table[a][b] == table[b][a] for a in range(P.order) for b in range(a)))


def test_sylow_invariants_match_the_resolution():
    """The route is taken exactly when p divides |G| and the Sylow subgroup
    is elementary abelian, and then gives the resolution's dims and mu to
    depth 6, as mu_p does; on every subgroup of census P, F, I and H and
    every B3 class representative, at p = 2 and 3."""
    checked = 0
    for family in QUOTIENT_FAMILIES:
        for G in GENERATOR_FAMILIES[family]:
            for p in (2, 3):
                table = cohomology_table(G, p, 6)
                route = G.order % p == 0 and _is_elementary_abelian(sylow(G, p), p)
                assert table.route == ("sylow-invariants" if route else "resolution")
                if not route:
                    continue
                res = resolution(G, p, 6)
                assert table.dims == tuple(res.cohomology_dim(r) for r in range(6)), (family, G, p)
                assert table.mu == mu_from_resolution(res) == mu_p(G, p, 6)
                assert table.details == {"sylow_order": sylow(G, p).order}
                checked += 1
    assert checked == 371


def test_a_sylow_subgroup_of_larger_exponent_costs_no_sylow_search(monkeypatch):
    """B3's Sylow 2-subgroup (order 16) and Q8 in SL(2, 3) hold elements of
    order 4: the exponent test sends both to the resolution, within the
    order bound as past it, with no Sylow search."""
    def refuse(*_):
        raise AssertionError("a Sylow subgroup was sought")

    monkeypatch.setattr(cohomology, "sylow", refuse)
    for gens, dims in ((B3_GENERATORS, (1, 2, 4, 7, 10)), (SL23_GENERATORS, (1, 0, 0, 1, 1))):
        table = cohomology_table(generate(gens), 2, 5)
        assert (table.route, table.dims) == ("resolution", dims)


def _blocks_of_two(a, b, c, d):
    """The 4 x 4 matrix [[a, b], [c, d]] of 2 x 2 blocks."""
    return [ra + rb for ra, rb in zip(a, b)] + [rc + rd for rc, rd in zip(c, d)]


def test_sylow_invariants_where_the_normalizer_mixes_the_factors():
    """P = C3 x C3 on Z^2 + Z^2, the order-3 rotation R in either block.  The
    block swap normalizes it as C3 wr C2 (order 18), and [[0, 1], [S, 0]],
    with S R S^-1 = R^-1, maps a -> b -> a^-1 (order 36).  Both move a
    product of the degree-1 classes onto the other order, so each exterior
    power needs its signs."""
    R, I, Z, S = [[0, -1], [1, -1]], [[1, 0], [0, 1]], [[0, 0], [0, 0]], [[0, 1], [1, 0]]
    a, b = _blocks_of_two(R, Z, Z, I), _blocks_of_two(I, Z, Z, R)
    for gens, order in (([a, _blocks_of_two(Z, I, I, Z)], 18),
                        ([a, b, _blocks_of_two(Z, I, S, Z)], 36)):
        G = generate(gens)
        assert G.order == order
        table, res = cohomology_table(G, 3, 8), resolution(G, 3, 8)
        assert (table.route, table.details) == ("sylow-invariants", {"sylow_order": 9})
        assert table.dims == tuple(res.cohomology_dim(r) for r in range(8))


def test_a_nonabelian_sylow_subgroup_of_exponent_p_is_resolved():
    """The Heisenberg group of order 27, as the affine maps of F_3^2 on its
    nine points: every element has order 1 or 3, but it is not abelian, so
    the resolution route is taken; H^1 = Hom(G, F_3) is 2-dimensional, not
    the 3 of an elementary abelian group of order 27."""
    points = [(u, v) for u in range(3) for v in range(3)]

    def permutation(f):
        return [[int(points.index(f(*points[c])) == r) for c in range(9)] for r in range(9)]

    G = generate([permutation(lambda u, v: ((u + 1) % 3, v)),
                  permutation(lambda u, v: (u, (v + u) % 3))])
    assert (G.order, set(G.element_orders())) == (27, {1, 3})
    table, res = cohomology_table(G, 3, 5), resolution(G, 3, 5)
    assert table.route == "resolution"
    assert table.dims == tuple(res.cohomology_dim(r) for r in range(5))
    assert table.dims[1] == 2


def _symmetric_group(n):
    """S_n as permutation matrices, generated by the adjacent transpositions."""
    def swap(i):
        perm = list(range(n))
        perm[i], perm[i + 1] = i + 1, i
        return [[int(c == perm[r]) for c in range(n)] for r in range(n)]

    return generate([swap(i) for i in range(n - 1)])


@functools.cache
def _large_group(name):
    return {"S5": lambda: _symmetric_group(5), "S7": lambda: _symmetric_group(7),
            "B4": lambda: generate(B4_GENERATORS), "B5": lambda: generate(B5_GENERATORS)}[name]()


def _sheared(G, shear):
    """G conjugated by the shear [[1, s], [0, 1]] in its first two coordinates."""
    Q, Qinv = identity_matrix(G.n).copy(), identity_matrix(G.n).copy()
    Q[0, 1], Qinv[0, 1] = shear, -shear
    return generate([Q @ g @ Qinv for g in G.generators])


EXPONENT_FAMILIES = {
    **GENERATOR_FAMILIES,
    # entries reach s^2: at s = 10^5 their products pass 2^64, at s = 10^10 they do
    "sheared S5": [_sheared(_symmetric_group(5), shear) for shear in (10**5, 10**10)],
}


@pytest.mark.parametrize("family", EXPONENT_FAMILIES)
def test_the_exponent_test_matches_the_sylow_element_orders(family):
    """The power test modulo 2^64 says the Sylow p-subgroup has exponent p
    exactly when every element of ``sylow(G, p)`` has order 1 or p."""
    answers = set()
    for G in EXPONENT_FAMILIES[family]:
        for p in (2, 3, 5):
            oracle = all(o in (1, p) for o in sylow(G, p).element_orders())
            assert cohomology._has_exponent_p(G, p) == oracle, (family, G, p)
            answers.add(oracle)
    # every subgroup of census H has an elementary abelian Sylow 2-subgroup
    assert answers == ({True} if family == "census H" else {True, False})
    if family == "sheared S5":
        assert max(abs(x) for x in EXPONENT_FAMILIES[family][1].elements.flat) > 2**64


@pytest.mark.parametrize(("name", "p"), [("S5", 3), ("S5", 5), ("B4", 3), ("B5", 3),
                                         ("B5", 5), ("S7", 5), ("S7", 7)])
def test_sylow_invariants_for_a_sylow_subgroup_of_order_p(name, p):
    """For |P| = p, H^r(G, F_p) is F_p when r = 0 or -1 mod 2e, where
    e = [N_G(P):C_G(P)], and 0 otherwise (Swan); mu_p is 2e - 1, the closed
    form.  Each group is past the resolution order bound."""
    G = _large_group(name)
    P = sylow(G, p)
    assert P.order == p
    _, _, e = subgroup_structure(G, P)
    table = cohomology_table(G, p, 10)
    assert (table.route, table.details) == ("sylow-invariants", {"sylow_order": p})
    assert table.dims == tuple(int(r % (2 * e) in (0, 2 * e - 1)) for r in range(10))
    mu = mu_p_formula(G, p)
    assert mu == 2 * e - 1
    assert table.mu == (MuValue(mu, True) if mu < 10 else MuValue(10, False))


def test_weyl_f4_mod_3():
    table = cohomology_table(generate(W_F4_GENERATORS), 3, 10)
    assert (table.route, table.details) == ("sylow-invariants", {"sylow_order": 9})
    assert table.dims == (1, 0, 0, 2, 2, 0, 1, 4, 3, 0)
    assert table.mu == MuValue(3, True)
