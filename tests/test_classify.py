import pytest

from multinv.classify import (
    ClassifyOptions,
    Verdict,
    _Context,
    _evaluate,
    _rule_r2,
    applicable_rules,
    classify,
    verify_certificate,
)
from multinv.corpus import classification_cases, corpus_group
from multinv.intlinalg import fixed_lattice
from multinv.matgroup import generate, op_core, subgroups, sylow
from test_action import B3_GENERATORS, B5_GENERATORS, CENSUS_MAXIMAL, W_F4_GENERATORS


def _verdict(name, p=None):
    G, default_p = corpus_group(name)
    return G, (p or default_p)


def test_inversion_family_verdicts():
    expected = {1: "CM", 2: "CM", 3: "NotCM", 4: "NotCM", 5: "NotCM"}
    for n, status in expected.items():
        G, p = _verdict(f"inversion{n}")
        v = classify(G, p)
        assert v.status == status
        assert verify_certificate(G, p, v)


def test_inversion2_uses_rank_rule():
    G, p = _verdict("inversion2")
    v = classify(G, p)
    assert (v.status, v.rule) == ("CM", "R3")
    assert v.certificate["moved_rank"] == 2


def test_inversion3_not_cm_via_cyclic_sylow():
    G, p = _verdict("inversion3")
    v = classify(G, p, ClassifyOptions(audit=True))
    assert (v.status, v.rule) == ("NotCM", "R5")
    # the fixed-point-free equivalence agrees in audit mode
    rules = applicable_rules(G, p)
    assert rules["R6"] == "NotCM"
    assert rules["R7"] == "NotCM"


def test_s4_is_reflection_group():
    G, p = _verdict("s4")
    v = classify(G, p)
    assert (v.status, v.rule) == ("CM", "R2")
    assert verify_certificate(G, p, v)


def test_g1_rank_rule_and_coprime_rule():
    G, p = _verdict("g1")
    v = classify(G, p)
    assert (v.status, v.rule) == ("CM", "R3")
    v3 = classify(G, 3)
    assert (v3.status, v3.rule) == ("CM", "R1")
    assert verify_certificate(G, 3, v3)


def test_rank3_sign_block_not_cm():
    G = generate([[[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]])
    v = classify(G, 2, ClassifyOptions(audit=True))
    assert (v.status, v.rule) == ("NotCM", "R5")
    assert verify_certificate(G, 2, v)
    # not fixed-point-free, so the mu comparison stays silent
    assert "R6" not in applicable_rules(G, 2)


def test_sylow_transfer_rule_fires_when_sylow_is_reflection_group():
    # three independent coordinate swaps (a reflection 2-group of moved rank
    # 3) times an order-3 rotation block: G is not reflection-generated and
    # rank A/A^P = 3, but R^P is CM and [G:P] = 3 is prime to p = 2
    def embed(block, offset, n=8):
        out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                out[offset + i][offset + j] = x
        return out

    swap = [[0, 1], [1, 0]]
    rot = [[0, -1], [1, -1]]
    gens = [embed(swap, 0), embed(swap, 2), embed(swap, 4), embed(rot, 6)]
    G = generate(gens)
    assert G.order == 24
    v = classify(G, 2, ClassifyOptions(audit=True))
    assert (v.status, v.rule) == ("CM", "R4")
    assert v.certificate["sylow_rule"] == "R2"
    assert verify_certificate(G, 2, v)


def test_r7_detects_excess_height():
    # three copies of the permutation action of S3: |P| = 3, O^3(G) = G,
    # not fixed-point-free, no reflections, rank A/A^P = 6 > 4 = 2[N:C]
    def block3(perm_mat):
        out = [[0] * 9 for _ in range(9)]
        for b in range(3):
            for i in range(3):
                for j in range(3):
                    out[3 * b + i][3 * b + j] = perm_mat[i][j]
        return out

    swap = block3([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    cyc = block3([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    G = generate([swap, cyc])
    assert G.order == 6
    assert op_core(G, 3) == G
    v = classify(G, 3, ClassifyOptions(audit=True))
    assert (v.status, v.rule) == ("NotCM", "R7")
    assert verify_certificate(G, 3, v)


QUAT_I = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
QUAT_J = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]


def test_fixed_point_free_equivalence_fires():
    # quaternion unit group: fixed-point-free noncyclic Sylow subgroup,
    # so only the mu comparison decides; mu = 1 and n = 4 > 2
    Q8 = generate([QUAT_I, QUAT_J])
    assert Q8.order == 8
    v = classify(Q8, 2, ClassifyOptions(audit=True))
    assert (v.status, v.rule) == ("NotCM", "R6")
    assert v.certificate == {"mu": 1, "dim": 4, "fixed_point_free": True}
    assert verify_certificate(Q8, 2, v)
    # the check searches exactly to the claimed mu and rejects, without
    # raising, a value outside 1..MAX_RESOLUTION_DEPTH - 1 or "infinity"
    for forged in (0, 2, 10, "infinity", "1"):
        cert = dict(v.certificate, mu=forged)
        assert not verify_certificate(Q8, 2, Verdict(v.status, "R6", cert)), forged


def test_inexact_mu_downgrades_to_unknown_with_note():
    Q8 = generate([QUAT_I, QUAT_J])
    v = classify(Q8, 2, ClassifyOptions(mu_search_limit=0))
    assert (v.status, v.rule) == ("Unknown", "R8")
    assert any("mu undetermined" in note for note in v.notes)


def test_unknown_when_no_rule_applies():
    # Klein four of sign patterns on Z^4: noncyclic 2-group, no reflections,
    # rank A/A^G = 4, not fixed-point-free
    a = [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
    b = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    G = generate([a, b])
    assert G.order == 4
    v = classify(G, 2, ClassifyOptions(audit=True))
    assert (v.status, v.rule) == ("Unknown", "R8")
    reasons = {item["rule"] for item in v.certificate["inapplicable"]}
    assert reasons == {"R1", "R2", "R3", "R4", "R5", "R6", "R7"}
    assert verify_certificate(G, 2, v)
    assert not verify_certificate(G, 2, Verdict(v.status, "R8", {}))


def test_audit_mode_sees_no_conflicts_on_corpus():
    for name, G, p in classification_cases():
        rules = applicable_rules(G, p)
        statuses = set(rules.values())
        assert not ({"CM", "NotCM"} <= statuses), f"{name}: {rules}"
        classify(G, p, ClassifyOptions(audit=True))  # must not raise


def test_bireflection_cyclic_sylow_already_cm_by_rank():
    # positive direction of the cyclic-Sylow rule is subsumed by R1-R3
    for name, G, p in classification_cases():
        P = sylow(G, p)
        if P.order == 1 or P.order not in set(P.element_orders()):
            continue
        if op_core(G, p) == G:
            continue
        moved = G.n - fixed_lattice(P.elements).rank
        if moved <= 2:
            v = classify(G, p)
            assert v.status == "CM"
            assert v.rule in ("R1", "R2", "R3")


def test_w_f4_and_b5_are_cm_by_the_reflection_rule():
    for gens in (W_F4_GENERATORS, B5_GENERATORS):
        G = generate(gens)
        for p in (2, 3):
            v = classify(G, p)
            assert (v.status, v.rule) == ("CM", "R2"), (G.order, p)
            assert verify_certificate(G, p, v), (G.order, p)


def test_certificates_verify_across_corpus():
    for name, G, p in classification_cases():
        v = classify(G, p)
        assert verify_certificate(G, p, v), (name, v.rule)


def test_non_prime_p_rejected():
    G, _ = corpus_group("g1")
    with pytest.raises(ValueError):
        classify(G, 6)


def test_r2_certificate_citing_a_foreign_reflection_is_rejected():
    G, p = corpus_group("s4")
    v = classify(G, p)
    assert v.rule == "R2" and verify_certificate(G, p, v)
    foreign = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
    for cited in ([foreign], v.certificate["reflection_generators"] + [foreign]):
        forged = Verdict(v.status, "R2", {"reflection_generators": cited})
        assert not verify_certificate(G, p, forged)


NEG3 = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]


def test_r5_certificates_cite_a_generator_of_the_sylow_subgroup():
    cases = list(classification_cases())
    cases += [(f"B3 subgroup {k}", H, p)
              for k, H in enumerate(subgroups(generate(B3_GENERATORS))) for p in (2, 3)]
    genuine = forged = 0
    for name, G, p in cases:
        v = classify(G, p)
        if v.rule != "R5":
            continue
        assert verify_certificate(G, p, v), name
        genuine += 1
        # -I_3 moves rank 3 like a genuine generator, but lies outside P
        P = sylow(G, p)
        if G.n == 3 and P.order == 4 and P.index_of(NEG3) is None:
            cert = dict(v.certificate, sylow_generator=NEG3)
            assert not verify_certificate(G, p, Verdict(v.status, "R5", cert)), name
            forged += 1
    assert genuine > forged > 0


def _reference_r2_generators(G):
    """The reflections an R2 certificate cites, trimmed as ``_rule_r2`` did
    before it called ``small_generating_indices``: two closures per pick."""
    reflections = [i for i, r in enumerate(G.element_fixed_ranks()) if G.n - r <= 1]
    chosen = []
    for i in reflections:
        if i in G.closure_indices(chosen):
            continue
        chosen.append(i)
        if len(G.closure_indices(chosen)) == G.order:
            break
    return G.elements[chosen].tolist()


def test_r2_certificates_match_the_old_trimming():
    cases = [G for _, G, _ in classification_cases()]
    cases += subgroups(generate(B3_GENERATORS))
    cases += [H for gens in CENSUS_MAXIMAL.values() for H in subgroups(generate(gens))]
    fired = 0
    for G in cases:
        outcome, _ = _rule_r2(_Context(G, 2, ClassifyOptions()))
        if outcome is not None:
            assert outcome[1]["reflection_generators"] == _reference_r2_generators(G)
            fired += 1
    assert len(cases) > 400 and fired > 100


# stand-ins for a scalar field, each refused unless it is the field's own value
_WRONG_SCALARS = ("2", [2], True, False, None, 2.0)


def _malformed(cert):
    """Copies of a certificate with one key removed, with one scalar field
    replaced by a value of another type, or with one cited matrix replaced by
    a non-square or a ragged one, also inside a nested certificate."""
    def is_matrix(x):
        return (isinstance(x, list) and x and all(isinstance(row, list) for row in x)
                and all(type(v) is int for row in x for v in row))

    def variants(x):
        if isinstance(x, dict):
            for key, value in x.items():
                yield {k: v for k, v in x.items() if k != key}
                for w in variants(value):
                    yield {**x, key: w}
        elif is_matrix(x):
            yield [[1, 0, 0]]
            yield [[1, 0], [0]]
        elif isinstance(x, list):
            for i, item in enumerate(x):
                if is_matrix(item):
                    for w in variants(item):
                        yield x[:i] + [w] + x[i + 1:]
        else:
            yield from (w for w in _WRONG_SCALARS if not (type(w) is type(x) and w == x))

    return list(variants(cert))


def test_malformed_certificates_are_rejected():
    checked = {}
    for name, G, p0 in classification_cases():
        for p in sorted({p0, 2, 3, 5}):
            evaluations, _ = _evaluate(G, p, ClassifyOptions(audit=True))
            for v in (Verdict(out[0], rule, out[1]) for rule, out, _ in evaluations if out):
                assert verify_certificate(G, p, v), (name, p, v.rule)
                for cert in _malformed(v.certificate):
                    assert verify_certificate(G, p, Verdict(v.status, v.rule, cert)) is False, \
                        (name, p, v.rule, cert)
                    checked[v.rule] = checked.get(v.rule, 0) + 1
    assert set(checked) == {"R1", "R2", "R3", "R4", "R5", "R6", "R7"}, checked
