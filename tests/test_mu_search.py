"""``mu_p`` and ``mu_action`` stop at their answer; the full-resolution
search they replace is kept here as the reference."""

import pytest

from multinv.action import mu_action, realizable_subgroups
from multinv.cohomology import INFINITY, FpResolution, MuValue, mu_p, resolution
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
from test_classify import QUAT_I, QUAT_J
from test_limits import F54_GENERATORS

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
    values = [reference_mu_p(H, p, search_limit) for H in realizable_subgroups(G)]
    best = min(v.value for v in values)
    if best == INFINITY:
        return MuValue(INFINITY, True)
    return MuValue(best, any(v.exact and v.value == best for v in values))


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
    for p in (2, 3):
        for limit in LIMITS:
            assert mu_action(G, p, limit) == reference_mu_action(G, p, limit), (p, limit)


def test_limit_zero_stays_inexact():
    z2, _ = corpus_group("inversion1")
    assert mu_p(z2, 2, 0) == mu_action(z2, 2, 0) == MuValue(1, False)


def test_limits_raise_as_in_the_full_search():
    # F54 at p = 3 has realizable stabilizers of order 3, with mu = 1, before
    # the whole group, of order 54 > MAX_RESOLUTION_ORDER
    F54 = generate(F54_GENERATORS)
    z2, _ = corpus_group("inversion1")
    cases = [(F54, 2, 1), (F54, 3, 1), (F54, 3, 4),
             (z2, 2, MAX_RESOLUTION_DEPTH), (GROUPS["s3"], 3, MAX_RESOLUTION_DEPTH)]
    for G, p, limit in cases:
        for fast, slow in ((mu_p, reference_mu_p), (mu_action, reference_mu_action)):
            expected = _outcome(slow, G, p, limit)
            assert expected[0] == "raised"
            assert _outcome(fast, G, p, limit) == expected, (fast.__name__, p, limit)


def test_mu_action_b3_builds_no_resolution_degree(monkeypatch):
    degrees = []
    extend = FpResolution.extend
    monkeypatch.setattr(FpResolution, "extend", lambda res: degrees.append(1) or extend(res))
    assert mu_action(generate(B3_GENERATORS), 2) == MuValue(1, True)
    assert degrees == []
    s3, _ = corpus_group("s3")
    assert mu_p(s3, 3) == MuValue(3, True)
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
    """R6 reads mu_p(G) for mu_action(G): value, exactness and errors agree,
    since G is the only realizable stabilizer of order divisible by p."""
    cases = FIXED_POINT_FREE[family]
    assert cases
    limits = [*LIMITS, MAX_RESOLUTION_DEPTH] if family == "limits" else LIMITS
    for name, G, p in cases:
        dividing = [H for H in realizable_subgroups(G) if H.order % p == 0]
        assert dividing == ([G] if G.order % p == 0 else []), (name, p)
        for limit in limits:
            assert _outcome(mu_p, G, p, limit) == _outcome(mu_action, G, p, limit), \
                (name, p, limit)
    if family == "limits":
        assert {(name, p) for name, _, p in cases} == {("Q8", 2), ("Q8", 3), ("F54", 2)}
