import io
import itertools
import json
import sys

import numpy as np
import pytest

import multinv.action
import multinv.intlinalg
import multinv.matgroup
from multinv.action import IsotropyReport, isotropy_subgroups, mu_action, stabilizer
from multinv.cohomology import INFINITY, MuValue, mu_p
from multinv.cli import main
from multinv.corpus import corpus_group, corpus_names
from multinv.intlinalg import fixed_lattice
from multinv.matgroup import generate, subgroup_conjugacy_classes, sylow, trivial_group

G1 = [[-1, 0, 0], [0, 0, 1], [0, 1, 0]]


def orders_with_witnesses(G):
    return [(H.order, w) for H, w in isotropy_subgroups(G).entries]


def test_isotropy_inversion():
    G, _ = corpus_group("inversion3")
    report = isotropy_subgroups(G)
    assert [(H.order, w) for H, w in report.entries] == [
        (1, (1, 0, 0)), (2, (0, 0, 0))]


def test_isotropy_trivial_group():
    report = isotropy_subgroups(trivial_group(2))
    assert [(H.order, w) for H, w in report.entries] == [(1, (0, 0))]


def test_isotropy_g1():
    G = generate([G1])
    report = isotropy_subgroups(G)
    assert [H.order for H, _ in report.entries] == [1, 2]
    witnesses = dict((H.order, w) for H, w in report.entries)
    assert witnesses[2] == (0, 0, 0)
    # the trivial witness is a point moved by the generator
    assert witnesses[1] == (1, 0, 0)


def test_isotropy_s3_excludes_rotation_subgroup():
    # points fixed by a 3-cycle are diagonal, hence fixed by everything
    G, _ = corpus_group("s3")
    report = isotropy_subgroups(G)
    assert [H.order for H, _ in report.entries] == [1, 2, 6]


def test_full_group_witness_is_zero():
    for name in ("inversion2", "g1", "gamma", "s3", "rot4"):
        G, _ = corpus_group(name)
        report = isotropy_subgroups(G)
        full = [w for H, w in report.entries if H.order == G.order]
        assert full == [(0,) * G.n]


def test_witness_ranks_the_norm_before_the_nonzeros():
    """<s, -1> for the reflection s = 1 - v l^T, l = (1, 2, -3), v = e2:
    Fix(s) = ker l has the basis (1, 1, 1), (0, 3, 2), whose first shell
    holds (1, 1, 1) (norm 1, three nonzeros) and (0, 3, 2) (norm 3, two)."""
    G = generate([[[1, 0, 0], [-1, -1, 3], [0, 0, 1]], [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]])
    assert orders_with_witnesses(G) == [(1, (1, 0, 0)), (2, (0, 1, 0)), (2, (1, 1, 1)),
                                        (4, (0, 0, 0))]
    assert [(H.canonical_key(), w) for H, w in isotropy_subgroups(G).entries] == \
        [(H.canonical_key(), w) for H, w in _reference_isotropy(G)]


def test_witness_stabilizers_are_exact():
    for name in corpus_names():
        G, _ = corpus_group(name)
        for H, w in isotropy_subgroups(G).entries:
            assert stabilizer(G, w) == H


def test_mu_action_examples():
    for n in (1, 2, 3):
        G, _ = corpus_group(f"inversion{n}")
        m = mu_action(isotropy_subgroups(G), 2)
        assert m.value == 1 and m.exact
    triv = mu_action(isotropy_subgroups(trivial_group(2)), 3)
    assert triv.is_infinite and triv.exact
    s3, _ = corpus_group("s3")
    m = mu_action(isotropy_subgroups(s3), 3)
    assert m.value == 3 and m.exact


def test_mu_action_is_the_least_mu_p_in_any_order(monkeypatch):
    """At p = 3, mu_p(S3) = 3, mu_p(C3) = 1 and mu_p(C2) = infinity, in
    reports that list them in either order; no stabilizer after an exact 1
    is searched."""
    s3, _ = corpus_group("s3")
    c3, c2 = sylow(s3, 3), sylow(s3, 2)
    calls = []
    monkeypatch.setattr(multinv.action, "mu_p", lambda H, *args: calls.append(H) or mu_p(H, *args))
    cases = [((s3, c3), 10, MuValue(1, True), 2), ((c3, s3), 10, MuValue(1, True), 1),
             ((c2, s3), 10, MuValue(3, True), 2), ((s3, c2), 3, MuValue(3, False), 2),
             ((c2,), 10, MuValue(INFINITY, True), 1)]
    for groups, depth, expected, searched in cases:
        calls.clear()
        report = IsotropyReport(tuple((H, ()) for H in groups))
        assert mu_action(report, 3, depth) == expected, [H.order for H in groups]
        assert len(calls) <= searched


def test_mu_action_at_most_mu_p():
    for name in corpus_names():
        G, p = corpus_group(name)
        assert mu_action(isotropy_subgroups(G), p).value <= mu_p(G, p).value


def _reference_isotropy(G):
    """The realizable stabilizers with their witnesses, from definitions.

    H is realizable iff no g outside H fixes all of Fix(H), that is, iff
    adding any g outside H to H lowers the rank of the fixed lattice (read
    from Smith forms).  Its witness is the best point of the first coordinate shell of
    Fix(H) that holds a point with stabilizer exactly H: least infinity norm,
    then fewest nonzero coordinates, then the lexicographic maximum."""
    entries = []
    for cls in subgroup_conjugacy_classes(G):
        H = cls[0]
        fix = fixed_lattice(H.elements)
        hidx = G.indices_of_subgroup(H)
        if any(fixed_lattice(list(H.elements) + [G.elements[g]]).rank == fix.rank
               for g in range(G.order) if g not in hidx):
            continue
        for radius in itertools.count():
            shell = [c for c in itertools.product(range(-radius, radius + 1), repeat=fix.rank)
                     if max(map(abs, c), default=0) == radius]
            points = [tuple(sum(x * col[i] for x, col in zip(c, fix.columns))
                            for i in range(G.n)) for c in shell]
            found = [pt for pt in points if stabilizer(G, pt) == H]
            if found:
                entries.append((H, max(found, key=lambda v: (
                    -max(map(abs, v), default=0), -sum(1 for x in v if x), v))))
                break
    return entries


B3_GENERATORS = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
                 [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]]
# the four maximal finite subgroups of GL_3(Z): the cubic groups P (B3), F and
# I (B3 in the face- and body-centred bases) and the hexagonal group H
CENSUS_MAXIMAL = {
    "P": B3_GENERATORS,
    "F": [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
          [[1, 1, 1], [0, 0, -1], [0, -1, 0]]],
    "I": [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
          [[1, 0, 0], [1, 0, -1], [1, -1, 0]]],
    "H": [[[1, -1, 0], [1, 0, 0], [0, 0, 1]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
          [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]],
}


def _simple_reflections(cartan):
    """The simple reflections s_i(α_j) = α_j - A_ij α_i of the Weyl group of
    the Cartan matrix A, on its root lattice."""
    n = len(cartan)
    return [[[int(r == j) - (r == i) * cartan[i][j] for j in range(n)] for r in range(n)]
            for i in range(n)]


# the Weyl groups W(A4) (order 120) and W(F4) (order 1152)
CARTAN_A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
W_A4_GENERATORS = _simple_reflections(CARTAN_A4)
W_F4_GENERATORS = _simple_reflections([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1],
                                       [0, 0, -1, 2]])
# B5, the signed permutation matrices of rank 5 (order 3840): the adjacent
# transpositions (i, i + 1) and the sign change of the first coordinate
B5_GENERATORS = [[[int(c == perm[r]) for c in range(5)] for r in range(5)] for perm in
                 ([1, 0, 2, 3, 4], [0, 2, 1, 3, 4], [0, 1, 3, 2, 4], [0, 1, 2, 4, 3])]
B5_GENERATORS.append([[(-1 if r == 0 else 1) * int(r == c) for c in range(5)] for r in range(5)])
# rot4 conjugated by [[1, 10^6], [0, 1]]: entries near 10^12
ROT4_FAR = [[10**6, -(10**12 + 1)], [1, -10**6]]


def _differential_groups():
    groups = {name: corpus_group(name)[0] for name in corpus_names()}
    for k, cls in enumerate(subgroup_conjugacy_classes(generate(B3_GENERATORS))):
        groups[f"B3c{k}"] = cls[0]
    groups.update((name, generate(gens)) for name, gens in CENSUS_MAXIMAL.items())
    groups["W(A4)"] = generate(W_A4_GENERATORS)
    groups["rot4_far"] = generate([ROT4_FAR])
    return groups


def test_isotropy_matches_reference():
    groups = _differential_groups()
    assert len(groups) == 13 + 33 + 4 + 2
    assert [groups[name].order for name in CENSUS_MAXIMAL] == [48, 48, 48, 24]
    assert [(groups[name].n, groups[name].order) for name in ("W(A4)", "rot4_far")] == \
        [(4, 120), (2, 4)]
    for name, G in groups.items():
        expected = _reference_isotropy(G)
        got = isotropy_subgroups(G).entries
        assert [(H.canonical_key(), w) for H, w in got] == \
            [(H.canonical_key(), w) for H, w in expected], name


def _exact_dtypes(monkeypatch, fn, *args):
    """(``fn(*args)``, the dtype of each array ``action._exact`` returned in it)."""
    dtypes = []
    real = multinv.action._exact

    def spy(a, bound):
        out = real(a, bound)
        dtypes.append(out.dtype)
        return out

    with monkeypatch.context() as m:
        m.setattr(multinv.action, "_exact", spy)
        return fn(*args), dtypes


def _isotropy_paths(monkeypatch, G):
    """(dtype of the element stack, dtypes of the witness shells, entries)
    of ``isotropy_subgroups(G)``; the stack is the first array it makes exact."""
    report, dtypes = _exact_dtypes(monkeypatch, isotropy_subgroups, G)
    return dtypes[0], set(dtypes[1:]), report.entries


def test_every_differential_group_takes_the_int64_path(monkeypatch):
    """No corpus, B3-class, census or W(A4) group falls back to Python ints;
    rot4_far, with entries near 10^12, falls back for the stack only.  (The
    trivial group searches no witness.)"""
    for name, G in _differential_groups().items():
        stack, witness, _ = _isotropy_paths(monkeypatch, G)
        expected = object if name == "rot4_far" else np.int64
        assert stack == np.dtype(expected), name
        assert witness == ({np.dtype(np.int64)} if G.order > 1 else set()), name


def _shear_conjugate(g, t):
    """T g T^-1 for the shear T = [[1, t], [0, 1]]."""
    (a, b), (c, d) = g
    return [[a + t * c, b + t * d - t * (a + t * c)], [c, d - t * c]]


# (generator, t, stack dtype, witness dtype).  rot4' = [[t, -t^2 - 1], [1, -t]]
# has B = t^2 + 1 and order 4; swap' = [[t, 1 - t^2], [1, -t]] has B = t^2 - 1
# and order 2.  The stack is int64 iff 2 B^2 |G| < 2^62.  Only the trivial
# subgroup searches for a witness, in Fix = Z^2 with the identity basis, and
# it finds one at radius 1, so its shell is int64 iff 2 B 2 < 2^62.
SHEAR_CASES = [
    ("rot4", 27554, "int64", "int64"), ("rot4", 27555, "object", "int64"),
    ("rot4", 2**30 - 1, "object", "int64"), ("rot4", 2**30, "object", "object"),
    ("rot4", 2**31, "object", "object"),
    ("swap", 2**15, "int64", "int64"), ("swap", 2**15 + 1, "object", "int64"),
    ("swap", 2**30, "object", "int64"), ("swap", 2**30 + 1, "object", "object"),
    ("swap", 2**31, "object", "object"),
]


@pytest.mark.parametrize("name,t,stack,witness", SHEAR_CASES)
def test_isotropy_at_the_exactness_bounds(monkeypatch, name, t, stack, witness):
    g = _shear_conjugate({"rot4": [[0, -1], [1, 0]], "swap": [[0, 1], [1, 0]]}[name], t)
    G = generate([g])
    B = max(abs(x) for row in g for x in row)
    assert B == t * t + (1 if name == "rot4" else -1)
    assert (2 * B * B * G.order < 2**62) == (stack == "int64")
    assert (2 * B * 2 < 2**62) == (witness == "int64")
    got_stack, got_witness, entries = _isotropy_paths(monkeypatch, G)
    assert (got_stack, got_witness) == (np.dtype(stack), {np.dtype(witness)})
    assert [(H.canonical_key(), w) for H, w in entries] == \
        [(H.canonical_key(), w) for H, w in _reference_isotropy(G)]


def test_witness_shells_pick_their_own_dtype(monkeypatch):
    """D4 (+) rot4' on Z^2 (+) Z^2, rot4' the shear conjugate at t = 2^28 + 2^27:
    a reflection of D4 fixes every radius-1 point of Z^4, so the trivial
    subgroup's witness lies at radius 2.  Its shell of radius R has the bound
    n B r R c = 16 B R (n = r = 4, identity basis, B = t^2 + 1), and
    16 B < 2^62 <= 32 B: radius 1 runs in int64 and radius 2 in Python ints."""
    t = 2**28 + 2**27
    eye = [[1, 0], [0, 1]]

    def block(a, b):
        return [[*a[0], 0, 0], [*a[1], 0, 0], [0, 0, *b[0]], [0, 0, *b[1]]]

    G = generate([block([[0, -1], [1, 0]], eye), block([[0, 1], [1, 0]], eye),
                  block(eye, _shear_conjugate([[0, -1], [1, 0]], t))])
    B = t * t + 1
    assert int(abs(G.elements).max()) == B and 16 * B < 2**62 <= 32 * B
    outside = G.elements[[i for i in range(G.order) if i != G.identity_index]]
    ambient = fixed_lattice([[[int(i == j) for j in range(4)] for i in range(4)]])
    witness, dtypes = _exact_dtypes(monkeypatch, multinv.action._witness, ambient, outside, B)
    assert (dtypes[0], dtypes[-1]) == (np.dtype(np.int64), np.dtype(object))
    assert max(map(abs, witness)) == 2
    expected = _reference_isotropy(G)
    assert expected[0][0].order == 1 and witness == expected[0][1]
    assert [(H.canonical_key(), w) for H, w in isotropy_subgroups(G).entries] == \
        [(H.canonical_key(), w) for H, w in expected]


def test_element_fixed_ranks_match_fixed_lattices():
    for name, G in _differential_groups().items():
        assert G.element_fixed_ranks() == tuple(fixed_lattice([g]).rank for g in G.elements), name
        assert G.fixed_rank() == fixed_lattice(G.elements).rank, name


# -(3-cycle) generates a group of order 6 whose Sylow 2-subgroup {I, -I} acts
# fixed-point-freely, so its audit at p = 2 evaluates R6 on mu_p of the group
COUNT_GROUPS = dict(CENSUS_MAXIMAL, C6=[[[0, 0, -1], [-1, 0, 0], [0, -1, 0]]])


def _count_calls(monkeypatch, fns) -> list[str]:
    """Wrap ``fns`` wherever a multinv module holds them; returns the list
    each call appends its function's name to."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for fn in fns:
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("multinv") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted(fn))
    return calls


def _audit(capsys, monkeypatch, name, p):
    job = {"n": 3, "p": p, "generators": COUNT_GROUPS[name]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
    assert main(["classify", "--audit", "--input", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] in ("CM", "NotCM", "Unknown")


@pytest.mark.parametrize("name", sorted(COUNT_GROUPS))
@pytest.mark.parametrize("p", (2, 3))
def test_audit_computes_each_element_lattice_once(capsys, monkeypatch, name, p):
    """The audit takes every rank from traces and every stabilizer from
    Reynolds sums, so it computes no lattice at all: no Smith form."""
    calls = _count_calls(monkeypatch, (multinv.intlinalg._snf_lists,))
    _audit(capsys, monkeypatch, name, p)
    assert calls == []
    multinv.intlinalg.fixed_lattice([[[0, 1], [1, 0]]])
    assert calls == ["_snf_lists"], "the counter is not live"


@pytest.mark.parametrize("name", sorted(COUNT_GROUPS))
@pytest.mark.parametrize("p", (2, 3))
def test_audit_enumerates_no_subgroup_lattice(capsys, monkeypatch, name, p):
    """R6 reads mu from the whole group, so no rule lists subgroups or
    their conjugacy classes, or searches for realizable stabilizers."""
    calls = _count_calls(monkeypatch, (multinv.matgroup.subgroups,
                                       multinv.matgroup.subgroup_conjugacy_classes,
                                       multinv.action._realizable_classes))
    _audit(capsys, monkeypatch, name, p)
    assert calls == []
    isotropy_subgroups(generate(COUNT_GROUPS[name]))
    assert set(calls) == {"subgroups", "subgroup_conjugacy_classes",
                          "_realizable_classes"}, "the counter is not live"
