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
    has_p_quotient,
    mu_p,
    resolution,
)
from multinv.corpus import corpus_group, corpus_names
from multinv.errors import MAX_RESOLUTION_DEPTH, BoundExceededError
from multinv.matgroup import (
    generate,
    is_fixed_point_free,
    is_prime,
    subgroup_conjugacy_classes,
    subgroups,
    sylow,
)
from test_action import B3_GENERATORS, CENSUS_MAXIMAL
from test_classify import QUAT_I, QUAT_J, SL23_GENERATORS
from test_limits import B4_GENERATORS, F54_GENERATORS, _signed_permutations

LIMITS = range(5)


def reference_mu_p(group, p, search_limit):
    """Resolve to search_limit + 1, then read the least nonzero degree."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if group.order % p != 0:
        return MuValue(INFINITY, True)
    res = resolution(group, p, search_limit + 1)
    for r in range(1, res.depth):
        if res.cohomology_dim(r) != 0:
            return MuValue(r, True)
    return MuValue(res.depth, False)


def reference_mu_action(G, p, search_limit):
    """The minimum over full searches of every realizable stabilizer."""
    return _least([reference_mu_p(H, p, search_limit) for H, _ in isotropy_subgroups(G).entries])


def _least(values):
    """The minimum of mu values, exact when an exact value attains it."""
    best = min(v.value for v in values)
    if best == INFINITY:
        return MuValue(INFINITY, True)
    return MuValue(best, any(v.exact and v.value == best for v in values))


def mu_of_action(G, p, search_limit=MAX_RESOLUTION_DEPTH - 1):
    """``mu_action`` on the isotropy report of G."""
    return mu_action(isotropy_subgroups(G), p, search_limit)


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
        for limit in LIMITS:
            assert mu_p(G, p, limit) == reference_mu_p(G, p, limit), (p, limit)


@pytest.mark.parametrize("name", GROUPS)
def test_mu_action_matches_full_searches(name):
    G = GROUPS[name]
    isotropy = isotropy_subgroups(G)
    for p in (2, 3):
        for limit in LIMITS:
            assert mu_action(isotropy, p, limit) == reference_mu_action(G, p, limit), (p, limit)


def test_limit_zero_stays_inexact():
    z2, _ = corpus_group("inversion1")
    assert mu_p(z2, 2, 0) == mu_of_action(z2, 2, 0) == MuValue(1, False)


def test_limits_raise_as_in_the_full_search():
    # the depth limit trips before the shortcuts: z2 has a 2-quotient
    z2, _ = corpus_group("inversion1")
    cases = [(z2, 2, MAX_RESOLUTION_DEPTH), (GROUPS["s3"], 3, MAX_RESOLUTION_DEPTH)]
    for G, p, limit in cases:
        for fast, slow in ((mu_p, reference_mu_p), (mu_of_action, reference_mu_action)):
            expected = _outcome(slow, G, p, limit)
            assert expected[0] == "raised"
            assert _outcome(fast, G, p, limit) == expected, (fast.__name__, p, limit)


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
    limits = [*LIMITS, MAX_RESOLUTION_DEPTH] if family == "limits" else LIMITS
    for name, G, p in cases:
        isotropy = isotropy_subgroups(G)
        dividing = [H for H, _ in isotropy.entries if H.order % p == 0]
        assert dividing == ([G] if G.order % p == 0 else []), (name, p)
        for limit in limits:
            assert _outcome(mu_p, G, p, limit) == _outcome(mu_action, isotropy, p, limit), \
                (name, p, limit)
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
    limit up to MAX_RESOLUTION_DEPTH - 1 and every prime dividing |G|."""
    closed_form, raised = [], []
    for name, G in CLOSED_FORM_FAMILIES[family].items():
        for p in (q for q in range(2, G.order + 1) if G.order % q == 0 and is_prime(q)):
            P = sylow(G, p)
            if max(P.element_orders()) == P.order and not has_p_quotient(G, p):
                closed_form.append((name, p))
            res = FpResolution(p, G)
            for limit in range(MAX_RESOLUTION_DEPTH):
                try:
                    expected = _search(res, limit)
                except BoundExceededError:
                    raised.append((name, p, limit, mu_p(G, p, limit)))
                    continue
                assert mu_p(G, p, limit) == expected, (name, p, limit)
    assert closed_form
    assert raised == []  # no search raised where the closed form answers


def _search(res, limit):
    """mu searched in degrees 1..limit through ``res``, which is extended as
    far as the search needs."""
    for r in range(1, limit + 1):
        if res.cohomology_dim(r):
            return MuValue(r, True)
    return MuValue(limit + 1, False)


def _plain_searches(G, p):
    """``reference_mu_p(G, p, limit)`` for every limit in LIMITS, read from
    one resolution to the deepest of them."""
    if G.order % p:
        return {limit: MuValue(INFINITY, True) for limit in LIMITS}
    res = resolution(G, p, LIMITS[-1] + 1)
    return {limit: _search(res, limit) for limit in LIMITS}


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
        for limit in LIMITS:
            assert mu_p(G, p, limit) == plain[G][limit], (p, limit)
            assert (mu_action(isotropy, p, limit)
                    == _least([values[limit] for values in plain.values()])), (p, limit)
            try:
                table = cohomology_table(G, p, limit + 1)
            except BoundExceededError:
                continue
            tables += 1
            assert table.mu == plain[G][limit], (p, limit)
    assert tables
    if name == "F54":
        # F54 = C2 x C3^3 has a p-quotient at p = 2 and 3, so mu = 1 with no
        # resolution of its 54 elements
        for p, limit in ((2, 1), (3, 1), (3, 4)):
            assert mu_p(G, p, limit) == mu_action(isotropy, p, limit) == MuValue(1, True)
