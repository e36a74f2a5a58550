import pytest

from multinv.action import (
    height_ir,
    isotropy_subgroups,
    mu_action,
    stabilizer,
    trace_ideal_height,
)
from multinv.cohomology import INFINITY, mu_p
from multinv.corpus import corpus_group, corpus_names
from multinv.matgroup import generate, subgroups, trivial_group

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


def test_witness_stabilizers_are_exact():
    for name in corpus_names():
        G, _ = corpus_group(name)
        for H, w in isotropy_subgroups(G).entries:
            assert stabilizer(G, w) == H


def test_mu_action_examples():
    for n in (1, 2, 3):
        G, _ = corpus_group(f"inversion{n}")
        m = mu_action(G, 2)
        assert m.value == 1 and m.exact
    triv = mu_action(trivial_group(2), 3)
    assert triv.is_infinite and triv.exact
    s3, _ = corpus_group("s3")
    m = mu_action(s3, 3)
    assert m.value == 3 and m.exact


def test_mu_action_at_most_mu_p():
    for name in corpus_names():
        G, p = corpus_group(name)
        assert mu_action(G, p).value <= mu_p(G, p).value


def test_height_examples():
    assert height_ir(trivial_group(4)) == 0
    G, _ = corpus_group("inversion3")
    assert height_ir(G) == 3
    assert height_ir(generate([G1])) == 2
    # element-list spelling
    assert height_ir([G1]) == 2


def test_trace_ideal_height_examples():
    G, _ = corpus_group("inversion3")
    assert trace_ideal_height(G, 2, lambda H: H.order == 1) == 3
    assert trace_ideal_height(G, 2, lambda H: True) == INFINITY
    s3, _ = corpus_group("s3")
    assert trace_ideal_height(s3, 3, lambda H: H.order == 1) == 2


def test_trace_ideal_height_rejects_unclosed_family():
    s3, _ = corpus_group("s3")
    transposition = next(H for H in subgroups(s3) if H.order == 2)

    def not_conjugation_closed(H):
        return H.order == 1 or H == transposition

    with pytest.raises(ValueError):
        trace_ideal_height(s3, 3, not_conjugation_closed)

    def not_subgroup_closed(H):
        return H.order == 3  # excludes the trivial subgroup below it

    with pytest.raises(ValueError):
        trace_ideal_height(s3, 3, not_subgroup_closed)


def test_trace_ideal_height_unwinds_to_p_subgroup_minimum():
    for name, p in (("s3", 3), ("s4", 2), ("gamma", 2)):
        G, _ = corpus_group(name)
        via_family = trace_ideal_height(G, p, lambda H: H.order % p != 0)
        heights = [height_ir(H) for H in subgroups(G)
                   if H.order > 1 and _is_p_power(H.order, p)]
        assert via_family == min(heights)


def _is_p_power(m, p):
    while m % p == 0:
        m //= p
    return m == 1
