import numpy as np
import pytest

from multinv import cohomology
from multinv.cohomology import (
    MuValue,
    h_dim,
    mu_from_resolution,
    mu_p,
    mu_p_formula,
    resolution,
)
from multinv.corpus import corpus_group, corpus_names
from multinv.errors import MAX_RESOLUTION_DEPTH, BoundExceededError
from multinv.intlinalg import intmat
from multinv.matgroup import generate, subgroup_conjugacy_classes, sylow, trivial_group
from test_action import B3_GENERATORS, CENSUS_MAXIMAL
from test_fparith import ReferenceSpan
from test_limits import F54_GENERATORS


def test_resolution_ranks_z2():
    z2, _ = corpus_group("inversion1")
    res = resolution(z2, 2, 5)
    assert res.ranks == [1, 1, 1, 1, 1, 1]
    res.check_complex()
    assert res.is_minimal()


# free ranks to degree 6; every corpus group not listed has rank 1 throughout
PINNED_RANKS = {
    "s3": {2: [1, 2, 2, 2, 2, 2, 2], 3: [1, 2, 3, 3, 2, 2, 2]},
    "s4": {2: [1, 3, 4, 4, 5, 6, 6], 3: [1, 3, 6, 8, 7, 8, 12]},
    "gamma": {2: [1, 2, 3, 4, 5, 6, 7]},
}


@pytest.mark.parametrize("name", corpus_names())
def test_resolution_ranks_pinned(name):
    G, _ = corpus_group(name)
    for p in (2, 3):
        expected = PINNED_RANKS.get(name, {}).get(p, [1] * 7)
        assert resolution(G, p, 6).ranks == expected


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
    assert h_dim(s3, 3, 1) == 0
    assert h_dim(s3, 3, 2) == 0
    assert h_dim(s3, 3, 3) == 1


def test_h_dim_z2_all_degrees():
    z2, _ = corpus_group("inversion1")
    res = resolution(z2, 2, 9)
    assert [res.cohomology_dim(r) for r in range(9)] == [1] * 9


def test_s3_mod3_dimension_table():
    s3, _ = corpus_group("s3")
    res = resolution(s3, 3, 7)
    assert [res.cohomology_dim(r) for r in range(7)] == [1, 0, 0, 1, 1, 0, 0]


def test_mu_p_examples():
    z2, _ = corpus_group("inversion1")
    assert mu_p(z2, 2) == MuValue(1, True)
    triv = mu_p(trivial_group(3), 5)
    assert triv.is_infinite and triv.exact
    s3, _ = corpus_group("s3")
    assert mu_p(s3, 3) == MuValue(3, True)


def test_mu_p_inexact_marker():
    s3, _ = corpus_group("s3")
    m = mu_p(s3, 3, search_limit=2)
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
    with pytest.raises(ValueError):
        mu_p_formula(rot4, 2)  # Sylow order 4, not exactly p


def test_mu_formula_matches_resolution_on_corpus():
    for name in corpus_names():
        G, p = corpus_group(name)
        if sylow(G, p).order != p:
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


NONMODULAR_GROUPS = dict(DIFFERENTIAL_GROUPS)
NONMODULAR_GROUPS.update(
    (f"Hc{k}", cls[0])
    for k, cls in enumerate(subgroup_conjugacy_classes(generate(CENSUS_MAXIMAL["H"]))))
NONMODULAR_CASES = [(name, p) for name, G in sorted(NONMODULAR_GROUPS.items())
                    for p in (2, 3, 5) if G.order % p]


@pytest.mark.parametrize(("name", "p"), NONMODULAR_CASES)
def test_nonmodular_resolution_matches_elimination(name, p, monkeypatch):
    """When p does not divide |G| > 1 the idempotent resolution has rank 1 in
    every degree and the cohomology of the eliminated one; the trivial group
    keeps the eliminated resolution, [1, 0, ...]."""
    G = NONMODULAR_GROUPS[name]
    res = resolution(G, p, 6)
    res.check_complex()
    assert res.ranks == ([1] * 7 if G.order > 1 else [1] + [0] * 6)
    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "_idempotent_images", lambda G, p: None)
        ref = resolution(G, p, 6)
    assert ref._idempotents is None
    ref.check_complex()
    assert ([res.cohomology_dim(r) for r in range(6)]
            == [ref.cohomology_dim(r) for r in range(6)]
            == [1] + [0] * 5)
