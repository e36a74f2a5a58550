"""``mu_p`` and ``mu_action`` stop at their answer; the full-resolution
search they replace is kept here as the reference."""

from itertools import combinations_with_replacement

import pytest

from multinv import cohomology
from multinv.action import IsotropyReport, isotropy_subgroups, mu_action, stabilizer
from multinv.cohomology import (
    INFINITY,
    FpResolution,
    MuValue,
    cohomology_table,
    mu_p,
    resolution,
)
from multinv.corpus import corpus_group, corpus_names
from multinv.errors import MAX_RESOLUTION_DEPTH, BoundExceededError
from multinv.matgroup import (
    generate,
    has_p_quotient,
    is_fixed_point_free,
    is_prime,
    subgroup_conjugacy_classes,
    subgroups,
    sylow,
)
from test_action import B3_GENERATORS, CENSUS_MAXIMAL
from test_classify import QUAT_I, QUAT_J, SL23_GENERATORS
from test_limits import B4_GENERATORS, F54_GENERATORS, _signed_permutations

LIMITS = range(1, 6)


def reference_mu_p(group, p, depth):
    """Resolve to ``depth``, then read the least nonzero degree below it."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if group.order % p != 0:
        return MuValue(INFINITY, True)
    res = resolution(group, p, depth)
    for r in range(1, res.depth):
        if res.cohomology_dim(r) != 0:
            return MuValue(r, True)
    return MuValue(res.depth, False)


def reference_mu_action(G, p, depth):
    """The minimum over full searches of every realizable stabilizer."""
    return _least([reference_mu_p(H, p, depth) for H, _ in isotropy_subgroups(G).entries])


def _least(values):
    """The minimum of mu values, exact when an exact value attains it."""
    best = min(v.value for v in values)
    if best == INFINITY:
        return MuValue(INFINITY, True)
    return MuValue(best, any(v.exact and v.value == best for v in values))


def mu_of_action(G, p, depth=MAX_RESOLUTION_DEPTH):
    """``mu_action`` on the isotropy report of G."""
    return mu_action(isotropy_subgroups(G), p, depth)


def _groups():
    groups = {name: corpus_group(name)[0] for name in corpus_names()}
    B3 = generate(B3_GENERATORS)
    for k, cls in enumerate(subgroup_conjugacy_classes(B3)):
        if cls[0].order <= 24:
            groups[f"B3c{k}"] = cls[0]
    return groups


GROUPS = _groups()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BoundExceededError as exc:
        return ("raised", str(exc))


@pytest.mark.parametrize("name", GROUPS)
def test_mu_p_matches_full_resolution(name):
    G = GROUPS[name]
    for p in (2, 3):
        for depth in LIMITS:
            assert mu_p(G, p, depth) == reference_mu_p(G, p, depth), (p, depth)


@pytest.mark.parametrize("name", GROUPS)
def test_mu_action_matches_full_searches(name):
    G = GROUPS[name]
    isotropy = isotropy_subgroups(G)
    for p in (2, 3):
        for depth in LIMITS:
            assert mu_action(isotropy, p, depth) == reference_mu_action(G, p, depth), (p, depth)


def test_limit_zero_stays_inexact():
    # depth 1 searches no degree, even where H^1 is nonzero
    z2, _ = corpus_group("inversion1")
    assert mu_p(z2, 2, 1) == mu_of_action(z2, 2, 1) == MuValue(1, False)


def test_limits_raise_as_in_the_full_search():
    # the depth limit trips before the shortcuts: z2 has a 2-quotient
    z2, _ = corpus_group("inversion1")
    cases = [(z2, 2, MAX_RESOLUTION_DEPTH + 1), (GROUPS["s3"], 3, MAX_RESOLUTION_DEPTH + 1)]
    for G, p, depth in cases:
        for fast, slow in ((mu_p, reference_mu_p), (mu_of_action, reference_mu_action)):
            expected = _outcome(slow, G, p, depth)
            assert expected[0] == "raised"
            assert _outcome(fast, G, p, depth) == expected, (fast.__name__, p, depth)


def test_mu_action_b3_builds_no_resolution_degree(monkeypatch):
    degrees = []
    extend = FpResolution.extend
    monkeypatch.setattr(FpResolution, "extend", lambda res: degrees.append(1) or extend(res))
    assert mu_of_action(generate(B3_GENERATORS), 2) == MuValue(1, True)
    assert degrees == []
    s3, _ = corpus_group("s3")
    assert mu_p(s3, 3) == MuValue(3, True)  # the closed form: the Sylow subgroup is cyclic
    assert degrees == []
    # the Sylow 2-subgroup Q8 is not cyclic, and SL(2, 3) has no 2-quotient
    assert mu_p(generate(SL23_GENERATORS), 2) == MuValue(3, True)
    assert len(degrees) == 4  # H^3 needs a resolution of depth 4


def _fixed_point_free_families():
    """Per family, the (name, G, p) with p in {2, 3} whose Sylow p-subgroup
    acts fixed-point-freely: the corpus, the B3 class representatives, every
    census subgroup, and Q8 and F54, where the limits raise."""
    families = {"corpus": {name: corpus_group(name)[0] for name in corpus_names()},
                "B3 classes": {f"B3c{k}": cls[0] for k, cls in
                               enumerate(subgroup_conjugacy_classes(generate(B3_GENERATORS)))},
                "limits": {"Q8": generate([QUAT_I, QUAT_J]), "F54": generate(F54_GENERATORS)}}
    for name, gens in CENSUS_MAXIMAL.items():
        families[f"census {name}"] = {f"{name}.{k}": H
                                      for k, H in enumerate(subgroups(generate(gens)))}
    return {family: [(name, G, p) for name, G in groups.items() for p in (2, 3)
                     if is_fixed_point_free(sylow(G, p))]
            for family, groups in families.items()}


FIXED_POINT_FREE = _fixed_point_free_families()


@pytest.mark.parametrize("family", FIXED_POINT_FREE)
def test_mu_of_the_group_is_mu_of_the_action_when_sylow_is_fixed_point_free(family):
    """R6 reads mu_p(G) for mu of the action: value, exactness and errors agree,
    since G is the only realizable stabilizer of order divisible by p."""
    cases = FIXED_POINT_FREE[family]
    assert cases
    depths = [*LIMITS, MAX_RESOLUTION_DEPTH + 1] if family == "limits" else LIMITS
    for name, G, p in cases:
        isotropy = isotropy_subgroups(G)
        dividing = [H for H, _ in isotropy.entries if H.order % p == 0]
        assert dividing == ([G] if G.order % p == 0 else []), (name, p)
        for depth in depths:
            assert _outcome(mu_p, G, p, depth) == _outcome(mu_action, isotropy, p, depth), \
                (name, p, depth)
    if family == "limits":
        assert {(name, p) for name, _, p in cases} == {("Q8", 2), ("Q8", 3), ("F54", 2)}


def _permutation_matrix(images):
    """The matrix that sends basis vector x to basis vector images[x]."""
    n = len(images)
    return [[int(images[c] == r) for c in range(n)] for r in range(n)]


def _affine_group(m, unit):
    """x -> x + 1 and x -> unit * x on Z/m, as permutation matrices."""
    return generate([_permutation_matrix([(x + 1) % m for x in range(m)]),
                     _permutation_matrix([unit * x % m for x in range(m)])])


CLOSED_FORM_FAMILIES = {
    "corpus": {name: corpus_group(name)[0] for name in corpus_names()},
    "B3 classes": {f"B3c{k}": cls[0] for k, cls in
                   enumerate(subgroup_conjugacy_classes(generate(B3_GENERATORS)))},
    **{f"census {name}": {f"{name}.{k}": H for k, H in enumerate(subgroups(generate(gens)))}
       for name, gens in CENSUS_MAXIMAL.items()},
    # D9 = Z/9 x| {+-1}, F21 = Z/7 x| <2>, F42 = Z/7 x| <3>: at p = 7 the
    # closed form gives 5 for F21 and 11, past every limit, for F42
    "permutation groups": {"D9": _affine_group(9, -1), "F21": _affine_group(7, 2),
                           "F42": _affine_group(7, 3), "SL(2,3)": generate(SL23_GENERATORS)},
}


@pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES)
def test_mu_p_matches_the_search_for_every_limit(family):
    """mu_p, the closed form when the Sylow subgroup is cyclic, gives the
    value and exactness of the search through one resolution, for every
    depth up to MAX_RESOLUTION_DEPTH and every prime dividing |G|, and the
    mu of ``cohomology_table`` at the same depth wherever that answers."""
    closed_form, raised, tables = [], [], 0
    for name, G in CLOSED_FORM_FAMILIES[family].items():
        for p in (q for q in range(2, G.order + 1) if G.order % q == 0 and is_prime(q)):
            P = sylow(G, p)
            if max(P.element_orders()) == P.order and not has_p_quotient(G, p):
                closed_form.append((name, p))
            res = FpResolution(p, G)
            for depth in range(1, MAX_RESOLUTION_DEPTH + 1):
                try:
                    expected = _search(res, depth)
                except BoundExceededError:
                    raised.append((name, p, depth, mu_p(G, p, depth)))
                    continue
                assert mu_p(G, p, depth) == expected, (name, p, depth)
                try:
                    table = cohomology_table(G, p, depth)
                except BoundExceededError:
                    continue
                assert table.mu == expected, (name, p, depth)
                tables += 1
    assert closed_form
    assert raised == []  # no search raised where the closed form answers
    assert tables


def _search(res, depth):
    """mu searched in degrees 1..depth-1 through ``res``, which is extended
    as far as the search needs."""
    for r in range(1, depth):
        if res.cohomology_dim(r):
            return MuValue(r, True)
    return MuValue(depth, False)


def _plain_searches(G, p):
    """``reference_mu_p(G, p, depth)`` for every depth in LIMITS, read from
    one resolution to the deepest of them."""
    if G.order % p:
        return {depth: MuValue(INFINITY, True) for depth in LIMITS}
    res = resolution(G, p, LIMITS[-1])
    return {depth: _search(res, depth) for depth in LIMITS}


def _stabilizer_report(G, points):
    """An isotropy report of the distinct stabilizers of ``points``."""
    found = {}
    for x in points:
        found.setdefault(stabilizer(G, x), x)
    return IsotropyReport(tuple(found.items()))


def _past_the_order_bound(name):
    """(G, primes, isotropy report) for a group past MAX_RESOLUTION_ORDER.
    B4 (order 384) is past the subgroup enumeration bound too; its points
    0 <= x_1 <= ... <= x_4 <= 4 meet every orbit pattern of zeros and equal
    absolute values, so their stabilizers hold a conjugate of each
    realizable stabilizer."""
    if name == "B4":
        B4 = generate(B4_GENERATORS)
        return B4, (3,), _stabilizer_report(B4, combinations_with_replacement(range(5), 4))
    G = generate(_signed_permutations(5)[:-1] if name == "S5" else F54_GENERATORS)
    return G, (2, 3, 5) if name == "S5" else (2, 3), isotropy_subgroups(G)


@pytest.mark.parametrize("name", ["S5", "B4", "F54"])
def test_mu_answers_past_the_order_bound(name, monkeypatch):
    """mu_p's shortcuts, and mu_action's through them, answer past the order
    bound with the value of the plain search run with the bound lifted, and
    with cohomology_table's mu wherever that answers."""
    G, primes, isotropy = _past_the_order_bound(name)
    assert G.order > cohomology.MAX_RESOLUTION_ORDER
    tables = 0
    for p in primes:
        with monkeypatch.context() as patch:
            patch.setattr(cohomology, "MAX_RESOLUTION_ORDER", G.order)
            plain = {H: _plain_searches(H, p) for H, _ in isotropy.entries}
        for depth in LIMITS:
            assert mu_p(G, p, depth) == plain[G][depth], (p, depth)
            assert (mu_action(isotropy, p, depth)
                    == _least([values[depth] for values in plain.values()])), (p, depth)
            try:
                table = cohomology_table(G, p, depth)
            except BoundExceededError:
                continue
            tables += 1
            assert table.mu == plain[G][depth], (p, depth)
    assert tables
    if name == "F54":
        # F54 = C2 x C3^3 has a p-quotient at p = 2 and 3, so mu = 1 with no
        # resolution of its 54 elements
        for p, depth in ((2, 2), (3, 2), (3, 5)):
            assert mu_p(G, p, depth) == mu_action(isotropy, p, depth) == MuValue(1, True)
