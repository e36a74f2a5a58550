import itertools
import signal

import numpy as np
import pytest

from multinv.action import stabilizer
from multinv.corpus import corpus_entry, corpus_group, corpus_names
from multinv.errors import MAX_PRIMALITY, BoundExceededError, NonUnimodularError
from multinv.intlinalg import fixed_lattice, identity_matrix, intmat
from multinv.matgroup import (
    ElementProfile,
    MatGroup,
    _conjugates,
    _p_part,
    element_profiles,
    generate,
    is_fixed_point_free,
    is_prime,
    op_core,
    subgroup_conjugacy_classes,
    subgroup_structure,
    subgroups,
    sylow,
    trivial_group,
)
from test_action import (
    B3_GENERATORS,
    B5_GENERATORS,
    CENSUS_MAXIMAL,
    W_A4_GENERATORS,
    W_F4_GENERATORS,
)
from test_limits import B4_GENERATORS

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
    with pytest.raises(BoundExceededError):
        subgroups(generate(B4_GENERATORS))


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


def _reference_order(g, bound: int) -> int:
    """The least k <= bound with g^k = 1, by powering the matrix."""
    mat = intmat(g)
    ident, power = identity_matrix(len(mat)), mat
    for k in range(1, bound + 1):
        if np.array_equal(power, ident):
            return k
        power = power @ mat
    raise AssertionError(f"no power up to {bound} is the identity")


def test_rank_drop_matches_fixed_lattice():
    for name in ("s3", "gamma", "rot4", "rot4_nonsplit", "g2"):
        G, _ = corpus_group(name)
        assert element_profiles(G) == [
            ElementProfile.of(_reference_order(g, G.order), G.n - fixed_lattice([g]).rank)
            for g in G.elements]
    # a reflection, a bireflection that is no reflection, and neither
    for gen, flags in ((SWAP12, (2, 1, True, True)), ([[-1, 0], [0, -1]], (2, 2, False, True)),
                       (NEG3, (2, 3, False, False))):
        G = generate([gen])
        pr = element_profiles(G)[1 - G.identity_index]
        assert (pr.order, pr.rank_drop, pr.is_reflection, pr.is_bireflection) == flags


def test_subgroups_inherit_element_lattices_in_their_own_order():
    """A subgroup taken from its parent, at indices in any order, has the
    element fixed ranks and fixed lattice of the same group built afresh."""
    for gens in ([SWAP12, SWAP23, [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]], [ROT6]):
        G = generate(gens)
        G.element_fixed_ranks()
        for H in subgroups(G):
            idx = sorted(G.indices_of_subgroup(H), reverse=True)
            K = G.subgroup_from_indices(idx)
            fresh = generate(K.elements.tolist())
            assert K.element_fixed_ranks() == fresh.element_fixed_ranks() == \
                tuple(fixed_lattice([g]).rank for g in K.elements)
            assert fixed_lattice(K.elements) == fixed_lattice(fresh.elements)
            assert K.fixed_rank() == fresh.fixed_rank() == fixed_lattice(K.elements).rank


def test_validate_reports_a_set_not_closed_under_products():
    rot4, eye = intmat(ROT4), identity_matrix(2)
    with pytest.raises(AssertionError, match="not closed under products"):
        MatGroup(2, np.array([rot4, eye], dtype=object)).validate()
    with pytest.raises(AssertionError, match="out of order"):
        MatGroup(2, np.array([eye, rot4], dtype=object)).validate()


def test_validate_reports_a_missing_inverse():
    G = generate([ROT4])
    G.validate()
    G._inverses = tuple(range(G.order))  # every element its own inverse
    with pytest.raises(AssertionError, match="missing inverse"):
        G.validate()


def test_validate_checks_every_row_against_its_products():
    G, _ = corpus_group("s4")
    G.validate()
    e, picks = G.identity_index, G.small_generating_indices()
    a = next(i for i in range(G.order) if i != e and i not in picks)  # a composed row
    table = list(G.mult_table())
    table[a] = tuple((c + 1) % G.order for c in table[a])
    G._table = tuple(table)
    with pytest.raises(AssertionError, match="table row differs from the products"):
        G.validate()


def test_a_power_walk_that_misses_the_identity_raises():
    """A corrupt table row whose walk never returns to the identity makes
    every reader of the power walk raise, naming the element, instead of
    looping."""
    G, _ = corpus_group("s4")
    e, picks = G.identity_index, G.small_generating_indices()
    a = next(i for i in range(G.order) if i != e and i not in picks)  # a composed row
    table = list(G.mult_table())
    table[a] = tuple(a if c == e else c for c in table[a])  # no product is the identity
    G._table = tuple(table)

    def timeout(*_):
        raise TimeoutError("the power walk did not stop")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(ValueError, match=f"powers of element {a} do not reach"):
            G.element_orders()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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


def test_table_and_subgroup_generators_generate():
    s4, _ = corpus_group("s4")
    assert len(s4.closure_indices(s4.small_generating_indices())) == s4.order
    for H in subgroups(s4):
        assert len(H.closure_indices(H.small_generating_indices())) == H.order


# -- differential test of the stacked element array --------------------------


def _old_key(M):
    """The element key of the per-element representation: shape, then the
    row-major entries."""
    return M.shape + tuple(int(x) for x in M.flat)


def _reference_group(gens):
    """Closure and table as they ran before the stacked element array: one
    product and one key at a time.  Returns the sorted keys, the elements in
    that order and the table."""
    mats = [intmat(g) for g in gens]
    e = identity_matrix(mats[0].shape[0])
    elements = {_old_key(e): e}
    frontier = [e]
    while frontier:
        new = []
        for g in mats:
            for b in frontier:
                c = g @ b
                k = _old_key(c)
                if k not in elements:
                    elements[k] = c
                    new.append(c)
        frontier = new
    keys = sorted(elements)
    index = {k: i for i, k in enumerate(keys)}
    table = tuple(tuple(index[_old_key(elements[a] @ elements[b])] for b in keys)
                  for a in keys)
    return keys, [elements[k] for k in keys], table


def _assert_matches(G, keys, mats, table):
    """G against the reference keys, elements (canonical order) and table."""
    N, n = len(keys), G.n
    assert G.elements.shape == (N, n, n) and G.elements.dtype == object
    assert not G.elements.flags.writeable
    assert all(type(x) is int for x in G.elements.flat)
    assert G.canonical_key() == tuple(k[2:] for k in keys)
    assert all(np.array_equal(G.elements[i], m) for i, m in enumerate(mats))
    assert G.mult_table() == table
    e = keys.index(_old_key(identity_matrix(n)))
    assert G.identity_index == e
    assert G.inverse_indices() == tuple(next(j for j in range(N) if table[i][j] == e)
                                        for i in range(N))
    assert G.element_orders() == tuple(_reference_order(m, N) for m in mats)


def _assert_slice_matches(G, keys, mats, table, H):
    """The subgroup H of G against G's reference restricted to H's elements."""
    index = {k: i for i, k in enumerate(keys)}
    idx = sorted(index[_old_key(h)] for h in H.elements)
    pos = {i: j for j, i in enumerate(idx)}
    sub_table = tuple(tuple(pos[table[a][b]] for b in idx) for a in idx)
    _assert_matches(H, [keys[i] for i in idx], [mats[i] for i in idx], sub_table)
    assert G.indices_of_subgroup(H) == frozenset(idx)


def _reference_stabilizer(mats, pt):
    return [i for i, g in enumerate(mats)
            if all(sum(int(g[r, c]) * pt[c] for c in range(len(pt))) == pt[r]
                   for r in range(len(pt)))]


def _differential_cases():
    cases = {name: corpus_entry(name).generators for name in corpus_names()}
    cases.update(CENSUS_MAXIMAL)
    for k, H in enumerate(subgroups(generate(B3_GENERATORS))):
        cases[f"B3 subgroup {k}"] = [H.elements[i] for i in
                                     H.small_generating_indices() or (H.identity_index,)]
    cases["B4"] = B4_GENERATORS
    # rot4 conjugated by [[1, 10**6], [0, 1]]: entries near 10**12, products
    # of entries near 10**24, past any fixed-width integer
    c = 10**6
    cases["rot4 conjugate"] = [[[-c, -1 - c * c], [1, c]]]
    return cases


def test_stacked_elements_match_per_pair_reference():
    cases = _differential_cases()
    assert len(cases) == 13 + 4 + 98 + 2
    for name, gens in cases.items():
        G = generate(gens)
        keys, mats, table = _reference_group(gens)
        _assert_matches(G, keys, mats, table)
        if name == "B4":
            assert G.order == 384
            slices = [sylow(G, 2), sylow(G, 3), op_core(G, 2), op_core(G, 3)]
        elif G.order <= 48:
            slices = subgroups(G)
        else:
            slices = []
        if name == "rot4 conjugate":
            assert G.order == 4 and max(abs(x) for x in G.elements.flat) > 10**12
        for pt in itertools.product((-1, 0, 2), repeat=G.n):
            S = stabilizer(G, pt)
            assert G.indices_of_subgroup(S) == frozenset(_reference_stabilizer(mats, pt))
            slices.append(S)
        for H in slices:
            _assert_slice_matches(G, keys, mats, table, H)


def test_composed_tables_match_products_on_large_groups():
    """W(F4) and B5, too large for the per-pair reference: 64 rows of the
    composed table, nearly all of them composed, against the products of
    their element with every element; the picks against the greedy picks
    by closure; and the Sylow subgroups against the minimum over all
    conjugates."""
    for gens, order in ((W_F4_GENERATORS, 1152), (B5_GENERATORS, 3840)):
        G = generate(gens)
        assert G.order == order
        table, index = G.mult_table(), G._index
        rows = range(0, order, order // 64)
        assert len(rows) == 64 and len(set(rows) - set(G.small_generating_indices())) >= 60
        for a in rows:
            assert table[a] == tuple(index[tuple(m.flat)] for m in G.elements[a] @ G.elements)
        assert G.small_generating_indices() == _reference_small_generating_indices(G)
        for p in (2, 3):
            P = G.indices_of_subgroup(sylow(G, p))
            assert P == min({G.conjugate_indices(g, P) for g in range(order)}, key=sorted)


def test_index_of_finds_elements_only():
    G = generate([ROT4])
    assert [G.index_of(g) for g in G.elements] == list(range(G.order))
    assert G.index_of([[0, 1], [1, 0]]) is None
    # a 1 x 4 matrix with the entries of an element is not that element
    assert G.index_of([G.elements[0].ravel().tolist()]) is None


def _trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-5, 10**5) if is_prime(n)] == \
        [n for n in range(-5, 10**5) if _trial_division_is_prime(n)]


def test_is_prime_rejects_carmichael_numbers_and_strong_pseudoprimes():
    # Chernick's (6k+1)(12k+1)(18k+1) is a Carmichael number when all three
    # factors are prime; past the first two none has a factor up to 41, so
    # only the Miller-Rabin rounds can reject them
    factors = [(6 * k + 1, 12 * k + 1, 18 * k + 1) for k in range(1, 400)]
    chernick = [a * b * c for a, b, c in factors
                if all(_trial_division_is_prime(q) for q in (a, b, c))]
    assert chernick[:3] == [1729, 294409, 56052361] and len(chernick) > 10
    others = [561, 1105, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
    for n in others:  # Korselt: n squarefree, and q - 1 divides n - 1 for each prime q | n
        primes, m, q = [], n, 2
        while m > 1:
            if m % q == 0:
                primes.append(q)
                m //= q
            else:
                q += 1
        assert len(primes) == len(set(primes)) >= 3
        assert all((n - 1) % (q - 1) == 0 for q in primes)
    assert not any(is_prime(n) for n in chernick + others)
    # the least strong pseudoprime to every prime base up to 37; base 41 rejects it
    assert not is_prime(399165290221 * 798330580441)
    assert MAX_PRIMALITY == 1287836182261 * 2575672364521
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1)
    assert not is_prime(193707721 * 761838257287)  # 2**67 - 1


def test_is_prime_refuses_to_guess_past_its_bound():
    assert is_prime(MAX_PRIMALITY - 1) is False  # even
    for p in (MAX_PRIMALITY, 2**89 - 1):
        with pytest.raises(BoundExceededError, match=str(MAX_PRIMALITY)):
            is_prime(p)


def _table_facts(H):
    return H.mult_table(), H.identity_index, H.inverse_indices(), H.element_orders()


def test_subgroup_tables_match_fresh_ones():
    """Every B3 subgroup and the B4 Sylow subgroups, made before and after
    the parent's table exists, against the same elements with no parent."""
    cases = []
    for gens in (B3_GENERATORS, B4_GENERATORS):
        G = generate(gens)
        subs = subgroups(G) if G.order <= 48 else [sylow(G, 2), sylow(G, 3)]
        cases.append((gens, [sorted(G.indices_of_subgroup(H)) for H in subs]))
    assert [len(c[1]) for c in cases] == [98, 2]
    for gens, index_lists in cases:
        before_parent = generate(gens)
        before = [before_parent.subgroup_from_indices(idx) for idx in index_lists]
        assert before_parent._table is None
        after_parent = generate(gens)
        after_parent.mult_table()
        after = [after_parent.subgroup_from_indices(idx) for idx in index_lists]
        for Ha in after:
            fresh = MatGroup(Ha.n, Ha.elements.copy())
            assert _table_facts(Ha) == _table_facts(fresh)
        before_parent.mult_table()
        for Hb, Ha in zip(before, after):
            assert _table_facts(Hb) == _table_facts(Ha)
    # lazy: a subgroup's table does not make its parent build one
    G = generate(B3_GENERATORS)
    H = G.subgroup_from_indices(cases[0][1][-2])
    assert _table_facts(H) == _table_facts(MatGroup(H.n, H.elements.copy()))
    assert G._table is None


# -- differential test of the power walk --------------------------------------
# The walks through the table that the one cached walk ``_powers`` replaced:
# element orders, orders with fixed ranks from traces, inverses by row search,
# the cyclic subgroups of ``subgroups`` and the p-power part ``sylow`` took.
# Also the full-set versions of what now grows from short generator lists:
# ``sylow`` through whole normalizers, the lattice joins of ``subgroups`` over
# whole index sets, and ``small_generating_indices`` with its closure pre-pass.


def _reference_orders(table, e):
    orders = []
    for i in range(len(table)):
        k, o = i, 1
        while k != e:
            k = table[k][i]
            o += 1
        orders.append(o)
    return tuple(orders)


def _reference_fixed_ranks(table, e, traces):
    ranks = []
    for i in range(len(table)):
        k, o, t = i, 1, traces[i]
        while k != e:
            k = table[k][i]
            o += 1
            t += traces[k]
        ranks.append(t // o)
    return tuple(ranks)


def _reference_cyclics(table, e):
    cyclics = set()
    for i in range(len(table)):
        cyc = {e}
        k = i
        while k != e:
            cyc.add(k)
            k = table[k][i]
        cyclics.add(frozenset(cyc))
    return cyclics


def _reference_p_power_part(table, e, orders, i, p):
    o = orders[i]
    out = e
    for _ in range(o // _p_part(o, p)):
        out = table[out][i]
    return out


def _reference_sylow(G, p):
    """``sylow`` as it ran, through whole normalizers and p-power parts, with
    the p-power part walked through the table."""
    q = _p_part(G.order, p)
    if q == 1:
        return frozenset([G.identity_index])
    table, e, orders = G.mult_table(), G.identity_index, G.element_orders()
    seed = next(i for i in range(G.order) if orders[i] % p == 0)
    P = G.closure_indices([_reference_p_power_part(table, e, orders, seed, p)])
    while len(P) < q:
        normalizer = [g for g in range(G.order) if G.conjugate_indices(g, P) == P]
        for h in normalizer:
            hp = _reference_p_power_part(table, e, orders, h, p)
            if h in P or hp in P:
                continue
            J = G.closure_indices(P | {hp})
            if len(J) == _p_part(len(J), p):
                P = J
                break
    return min({G.conjugate_indices(g, P) for g in range(G.order)}, key=sorted)


def _reference_small_generating_indices(G, indices=None):
    """``small_generating_indices`` as it ran with a closure of all of
    ``indices`` first, to stop the picking once the span reached it."""
    if indices is None:
        indices, size = range(G.order), G.order
    else:
        indices = list(indices)
        size = len(G.closure_indices(indices))
    gens, span = [], G.closure_indices(())
    for i in indices:
        if len(span) == size:
            break
        if i not in span:
            gens.append(i)
            span = G.closure_indices(gens)
    return tuple(gens)


# S5 as 5x5 permutation matrices, from a transposition and a 5-cycle
S5_GENERATORS = [[[int(j == (1, 0, 2, 3, 4)[i]) for j in range(5)] for i in range(5)],
                 [[int(j == (i + 1) % 5) for j in range(5)] for i in range(5)]]


def _power_walk_groups():
    groups = {name: corpus_group(name)[0] for name in corpus_names()}
    groups.update((f"B3c{k}", cls[0]) for k, cls in
                  enumerate(subgroup_conjugacy_classes(generate(B3_GENERATORS))))
    groups.update((name, generate(gens)) for name, gens in CENSUS_MAXIMAL.items())
    groups.update(S5=generate(S5_GENERATORS), WA4=generate(W_A4_GENERATORS))
    B4 = generate(B4_GENERATORS)
    groups.update(B4=B4, B4sylow2=sylow(B4, 2), B4sylow3=sylow(B4, 3))
    return groups


def test_power_walk_matches_the_table_walks():
    groups = _power_walk_groups()
    assert len(groups) == 13 + 33 + 4 + 2 + 3
    assert [groups[k].order for k in ("S5", "WA4", "B4", "B4sylow2", "B4sylow3")] == \
        [120, 120, 384, 128, 3]
    for name, G in groups.items():
        table, e, N = G.mult_table(), G.identity_index, G.order
        orders = _reference_orders(table, e)
        assert G.element_orders() == orders, name
        assert G.element_fixed_ranks() == _reference_fixed_ranks(table, e, G._traces), name
        assert G.element_fixed_ranks() == tuple(fixed_lattice([g]).rank for g in G.elements)
        assert G.inverse_indices() == tuple(row.index(e) for row in table), name
        assert set(map(frozenset, G._powers)) == _reference_cyclics(table, e), name
        for p in (2, 3, 5):
            step = [o // _p_part(o, p) for o in orders]
            assert [G._powers[i][step[i] - 1] for i in range(N)] == \
                [_reference_p_power_part(table, e, orders, i, p) for i in range(N)], (name, p)
            P = sylow(G, p)
            assert G.indices_of_subgroup(P) == _reference_sylow(G, p), (name, p)
            assert sylow(P, p) is P, (name, p)
        reflections = [i for i, r in enumerate(G.element_fixed_ranks()) if r >= G.n - 1]
        for indices in (None, range(N - 1, -1, -1), reflections, reflections[::-1]):
            assert G.small_generating_indices(indices) == \
                _reference_small_generating_indices(G, indices), name
        if N <= 120:
            closed = {G.closure_indices(c) for c in _reference_cyclics(table, e)}
            found, work = set(closed), list(closed)
            while work:
                S = work.pop()
                for C in closed:
                    J = G.closure_indices(S | C)
                    if J not in found:
                        found.add(J)
                        work.append(J)
            assert {G.indices_of_subgroup(H) for H in subgroups(G)} == found, name


def _reference_classes(G):
    """``subgroup_conjugacy_classes`` as index sets, as it ran with each class
    representative conjugated by every element."""
    seen, classes = set(), []
    for H in subgroups(G):
        S = G.indices_of_subgroup(H)
        if S not in seen:
            orbit = {G.conjugate_indices(g, S) for g in range(G.order)}
            seen |= orbit
            classes.append(sorted(orbit, key=sorted))
    return classes


def test_conjugacy_orbits_match_the_all_element_sweep():
    groups = {name: corpus_group(name)[0] for name in corpus_names()}
    groups["B3"] = generate(B3_GENERATORS)
    groups.update((name, generate(gens)) for name, gens in CENSUS_MAXIMAL.items())
    assert len(groups) == 13 + 1 + 4
    for name, G in groups.items():
        for H in subgroups(G):
            S = G.indices_of_subgroup(H)
            assert _conjugates(G, S) == {G.conjugate_indices(g, S) for g in range(G.order)}, name
        assert [[G.indices_of_subgroup(H) for H in cls]
                for cls in subgroup_conjugacy_classes(G)] == _reference_classes(G), name


def test_small_generating_indices_picks_in_the_order_given():
    G, _ = corpus_group("s4")
    every = G.small_generating_indices()
    assert every == G.small_generating_indices(range(G.order))
    assert len(G.closure_indices(every)) == G.order
    backwards = G.small_generating_indices(range(G.order - 1, -1, -1))
    assert backwards[0] == max(set(range(G.order)) - {G.identity_index})
    assert len(G.closure_indices(backwards)) == G.order
    transpositions = [i for i, r in enumerate(G.element_fixed_ranks()) if r == 2]
    picked = G.small_generating_indices(transpositions)
    assert set(picked) <= set(transpositions)
    assert G.closure_indices(picked) == G.closure_indices(transpositions)
    # an index already spanned is never picked, and the span of the whole list stops the picking
    assert G.small_generating_indices([G.identity_index]) == ()
    assert G.small_generating_indices([picked[0], picked[0]]) == picked[:1]
