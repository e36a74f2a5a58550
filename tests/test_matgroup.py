import pytest

from multinv.corpus import corpus_group
from multinv.errors import BoundExceededError, NonUnimodularError
from multinv.intlinalg import fixed_lattice, intmat
from multinv.matgroup import (
    GroupTable,
    classify_element,
    element_profiles,
    generate,
    is_fixed_point_free,
    op_core,
    subgroup_conjugacy_classes,
    subgroup_structure,
    subgroups,
    sylow,
    trivial_group,
)

G1 = [[-1, 0, 0], [0, 0, 1], [0, 1, 0]]
NEG3 = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]
SWAP12 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
SWAP23 = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
ROT4 = [[0, -1], [1, 0]]
ROT6 = [[0, -1], [1, 1]]


def test_generate_orders():
    assert generate([NEG3]).order == 2
    assert generate([SWAP12, SWAP23]).order == 6
    assert generate([G1]).order == 2
    assert generate([ROT6]).order == 6


def test_generate_rejects_non_unimodular():
    with pytest.raises(NonUnimodularError):
        generate([[[2, 0], [0, 1]]])


def test_generate_order_bound():
    shear = [[1, 1], [0, 1]]  # infinite order
    with pytest.raises(BoundExceededError):
        generate([shear], max_order=50)


def test_generate_idempotent():
    G = generate([SWAP12, SWAP23])
    again = generate([g.tolist() for g in G.elements])
    assert again == G
    assert again.canonical_key() == G.canonical_key()


def test_group_invariants_hold():
    for name in ("s3", "s4", "gamma", "rot4_nonsplit"):
        G, _ = corpus_group(name)
        G.validate()


def test_subgroup_counts():
    assert len(subgroups(generate([NEG3]))) == 2
    assert len(subgroups(generate([SWAP12, SWAP23]))) == 6
    assert len(subgroups(generate([ROT4]))) == 3
    s4, _ = corpus_group("s4")
    assert len(subgroups(s4)) == 30


def test_subgroup_orders_divide_group_order():
    G, _ = corpus_group("s4")
    for H in subgroups(G):
        assert G.order % H.order == 0


def test_subgroups_bound():
    G, _ = corpus_group("s4")
    with pytest.raises(BoundExceededError):
        subgroups(generate(G.generators), bound=10)


def test_sylow_examples():
    s3 = generate([SWAP12, SWAP23])
    assert sylow(s3, 3).order == 3
    assert sylow(s3, 2).order == 2
    assert sylow(generate([NEG3]), 5).order == 1
    s4, _ = corpus_group("s4")
    assert sylow(s4, 2).order == 8
    assert sylow(s4, 3).order == 3
    with pytest.raises(ValueError):
        sylow(s3, 4)


def test_sylow_count_is_one_mod_p():
    for name, p in (("s3", 3), ("s3", 2), ("s4", 2), ("s4", 3)):
        G, _ = corpus_group(name)
        P = sylow(G, p)
        pidx = G.indices_of_subgroup(P)
        conjugates = {G.conjugate_indices(g, pidx) for g in range(G.order)}
        assert len(conjugates) % p == 1


def test_sylow_is_canonical_minimum():
    G, _ = corpus_group("s3")
    P = sylow(G, 2)
    pidx = G.indices_of_subgroup(P)
    conjugates = {G.conjugate_indices(g, pidx) for g in range(G.order)}
    all_sylows = sorted(G.subgroup_from_indices(c).canonical_key() for c in conjugates)
    assert P.canonical_key() == all_sylows[0]


def test_subgroup_structure_examples():
    s3 = generate([SWAP12, SWAP23])
    P = sylow(s3, 3)
    N, C, nc = subgroup_structure(s3, P)
    assert N.order == 6 and C.order == 3 and nc == 2

    N, C, nc = subgroup_structure(s3, trivial_group(3))
    assert N == s3 and C == s3 and nc == 1

    neg2 = generate([[[-1, 0], [0, -1]]])
    N, C, nc = subgroup_structure(neg2, neg2)
    assert N == neg2 and C == neg2 and nc == 1

    with pytest.raises(ValueError):
        subgroup_structure(neg2, generate([ROT4]))


def test_op_core_examples():
    c6 = generate([ROT6])
    core = op_core(c6, 2)
    assert core.order == 3
    s3 = generate([SWAP12, SWAP23])
    assert op_core(s3, 3) == s3
    assert op_core(s3, 2).order == 3
    rot4 = generate([ROT4])
    assert op_core(rot4, 2).order == 1


def test_op_core_is_normal():
    for name, p in (("s3", 2), ("s4", 2), ("s4", 3)):
        G, _ = corpus_group(name)
        core = op_core(G, p)
        cidx = G.indices_of_subgroup(core)
        assert all(G.conjugate_indices(g, cidx) == cidx for g in range(G.order))


def test_classify_element_examples():
    pr = classify_element(SWAP12)
    assert (pr.order, pr.rank_drop, pr.is_reflection, pr.is_bireflection) == (2, 1, True, True)
    pr = classify_element([[-1, 0], [0, -1]])
    assert (pr.order, pr.rank_drop, pr.is_reflection, pr.is_bireflection) == (2, 2, False, True)
    pr = classify_element(NEG3)
    assert (pr.order, pr.rank_drop, pr.is_reflection, pr.is_bireflection) == (2, 3, False, False)
    assert classify_element(ROT4).order == 4
    assert classify_element(ROT6).order == 6


def test_classify_element_infinite_order():
    with pytest.raises(BoundExceededError):
        classify_element([[1, 1], [0, 1]], max_order=100)


def test_classify_element_rejects_non_unimodular():
    with pytest.raises(NonUnimodularError):
        classify_element([[3, 0], [0, 1]])


def test_rank_drop_matches_fixed_lattice():
    for name in ("s3", "gamma", "rot4", "rot4_nonsplit", "g2"):
        G, _ = corpus_group(name)
        for g in G.elements:
            pr = classify_element(g)
            assert pr.rank_drop == G.n - fixed_lattice([g]).rank
        assert element_profiles(G) == [classify_element(g) for g in G.elements]


def test_subgroups_inherit_element_lattices_in_their_own_order():
    for gens in ([SWAP12, SWAP23, [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]], [ROT6]):
        G = generate(gens)
        G.element_fixed_lattices()
        for H in subgroups(G):
            idx = sorted(G.indices_of_subgroup(H), reverse=True)
            K = G.subgroup_from_indices(idx)
            assert K._element_lattices is not None
            assert K.element_fixed_lattices() == tuple(fixed_lattice([g]) for g in K.elements)
            assert K.fixed_lattice() == fixed_lattice(K.elements)


def test_fixed_point_free_examples():
    assert is_fixed_point_free(generate([NEG3]))
    assert not is_fixed_point_free(generate([G1]))
    assert is_fixed_point_free(trivial_group(3))
    assert is_fixed_point_free(generate([ROT4]))
    assert is_fixed_point_free(generate([ROT6]))


def test_planar_cyclic_subgroup_orders():
    # finite cyclic subgroups of GL_2(Z) in the corpus have order 1, 2, 3, 4, or 6
    for name in ("rot4", "rot3", "inversion2"):
        G, _ = corpus_group(name)
        assert set(G.element_orders()) <= {1, 2, 3, 4, 6}
    assert set(generate([ROT6]).element_orders()) <= {1, 2, 3, 4, 6}


def test_conjugacy_classes_partition_subgroups():
    G, _ = corpus_group("s4")
    classes = subgroup_conjugacy_classes(G)
    total = sum(len(c) for c in classes)
    assert total == len(subgroups(G))
    assert sum(1 for c in classes for _ in c) == 30
    # all members of a class share order and are actual conjugates
    for cls in classes:
        orders = {H.order for H in cls}
        assert len(orders) == 1


def test_group_table_cyclic():
    t = GroupTable.cyclic(6)
    t.validate()
    assert t.order == 6 and t.identity == 0
    assert t.generators == (1,)
    assert GroupTable.cyclic(1).generators == ()


def test_table_and_subgroup_generators_generate():
    s4, _ = corpus_group("s4")
    assert len(s4.closure_indices(s4.to_table().generators)) == s4.order
    for H in subgroups(s4):
        assert len(H.closure_indices(H.generator_indices)) == H.order
