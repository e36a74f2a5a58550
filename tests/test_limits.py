"""The resource limits of ``multinv.errors``: where each one trips, and what a
tripped limit does to a command and to a classify rule."""

import dataclasses
import json
import re
import time
import tracemalloc

import pytest

import multinv.cli
from multinv import cohomology
from multinv.classify import (
    ClassifyOptions,
    Verdict,
    _evaluate,
    applicable_rules,
    classify,
    verify_certificate,
)
from multinv.cli import main
from multinv.cohomology import resolution
from multinv.errors import (
    MAX_BOX_POINTS,
    MAX_BOX_RADIUS,
    MAX_GROUP_ORDER,
    MAX_ORBIT_SPREAD,
    MAX_PRIMALITY,
    MAX_PRIME,
    MAX_RESOLUTION_DEPTH,
    MAX_RESOLUTION_ENTRIES,
    MAX_RESOLUTION_ORDER,
    MAX_SUBGROUP_ENUMERATION,
    MAX_SUBGROUPS,
    BoundExceededError,
)
from multinv.fparith import rank_fp
from multinv.laurent import box_orbits
from multinv.matgroup import MatGroup, generate, is_prime, subgroups, trivial_group
from test_action import B3_GENERATORS
from test_classify import QUAT_I, QUAT_J, SL23_GENERATORS


def _block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return out


ROT3 = [[0, -1], [1, -1]]
EYE2 = [[1, 0], [0, 1]]
# F54 = <-I_6, rot3 in block k for k = 0, 1, 2>: C2 x C3^3 on Z^6
F54_GENERATORS = [_block_diag([[[-1, 0], [0, -1]]] * 3)] + [
    _block_diag([ROT3 if j == k else EYE2 for j in range(3)]) for k in range(3)]
# B4: signed permutation matrices of rank 4 (order 384)
B4_GENERATORS = [[[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                 [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                 [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                 [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]
SHEAR = [[1, 1], [0, 1]]  # infinite order
S3_GENERATORS = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]]]
Z2_GENERATORS = [[[-1]]]


def _diag(k):
    """Generators of diag(±1)^k, the elementary abelian 2-group of order 2^k."""
    return [[[-1 if i == j == t else int(i == j) for j in range(k)] for i in range(k)]
            for t in range(k)]


def _diag5_at_depth_6():
    """A resolution of diag(±1)^5 with the free ranks C(r + 4, 4) of its
    depth 6 but no generator images: the next step must raise before it
    reads any."""
    res = cohomology.FpResolution(2, generate(_diag(5)))
    res.ranks = [1, 5, 15, 35, 70, 126, 210]
    return res


# (limit, call at the limit or None where that is slow, call one step past it)
LIMITS = {
    "generate max_order": (
        5, lambda: generate(S3_GENERATORS, max_order=6),
        lambda: generate(S3_GENERATORS, max_order=5)),
    # the identity is the first element of every closure, and counts too
    "generate max_order at the identity": (
        0, lambda: generate([[[1]]], max_order=1), lambda: generate([[[1]]], max_order=0)),
    "MAX_GROUP_ORDER in generate": (MAX_GROUP_ORDER, None, lambda: generate([SHEAR])),
    "MAX_SUBGROUP_ENUMERATION": (
        MAX_SUBGROUP_ENUMERATION, None, lambda: subgroups(generate(B4_GENERATORS))),
    # diag(±1)^6 has 2825 subgroups, diag(±1)^7 has 29212
    "MAX_SUBGROUPS": (
        MAX_SUBGROUPS, lambda: subgroups(generate(_diag(6))),
        lambda: subgroups(generate(_diag(7)))),
    "MAX_RESOLUTION_ORDER": (
        MAX_RESOLUTION_ORDER, lambda: resolution(generate(B3_GENERATORS), 2, 1),
        lambda: resolution(generate(F54_GENERATORS), 2, 1)),
    "MAX_RESOLUTION_DEPTH": (
        MAX_RESOLUTION_DEPTH, lambda: resolution(generate(Z2_GENERATORS), 2, 10),
        lambda: resolution(generate(Z2_GENERATORS), 2, 11)),
    # a step eliminates ranks[d-1] ranks[d] |G|^2 entries: diag(±1)^4 at depth 10
    # eliminates 165 * 220 * 16^2 = 9.3M in its last step (10 s), and diag(±1)^5
    # at depth 7 would eliminate 126 * 210 * 32^2 = 27.1M, after 15 s to depth 6
    "MAX_RESOLUTION_ENTRIES": (
        MAX_RESOLUTION_ENTRIES, None, lambda: _diag5_at_depth_6().extend()),
    # (2 ball + 1)^n: 17^5 points is ball 8 at n = 5, and 11^6 > 17^5 the
    # smallest box past it
    "MAX_BOX_POINTS": (
        MAX_BOX_POINTS, None, lambda: box_orbits(trivial_group(6), 5)),
    # (x, y) -> (x + b y, -y) has a row of l1-norm b + 1
    "MAX_ORBIT_SPREAD": (
        MAX_ORBIT_SPREAD, lambda: box_orbits(generate([[[1, 7], [0, -1]]]), 1),
        lambda: box_orbits(generate([[[1, 8], [0, -1]]]), 1)),
    "MAX_PRIME": (
        MAX_PRIME, lambda: rank_fp([[1]], MAX_PRIME), lambda: rank_fp([[1]], MAX_PRIME + 1)),
    # is_prime is exact below its bound, so the bound itself is one step past
    "MAX_PRIMALITY": (
        MAX_PRIMALITY, lambda: is_prime(MAX_PRIMALITY - 1),
        lambda: is_prime(MAX_PRIMALITY)),
}


@pytest.mark.parametrize("name", LIMITS)
def test_each_limit_trips_one_step_past_it(name):
    limit, at_limit, past = LIMITS[name]
    if at_limit is not None:
        at_limit()
    with pytest.raises(BoundExceededError, match=str(limit)):
        past()


def test_cli_caps_exit_2_one_step_past_them(tmp_path, capsys):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"n": 1, "p": 2, "generators": Z2_GENERATORS}))
    for flag, ok, bad in (("--depth", MAX_RESOLUTION_DEPTH, MAX_RESOLUTION_DEPTH + 1),
                          ("--depth", 1, 0),
                          ("--ball", MAX_BOX_RADIUS, MAX_BOX_RADIUS + 1)):
        command = "cohomology" if flag == "--depth" else "invariants"
        assert main([command, "--input", str(path), flag, str(ok)]) == 0
        assert main([command, "--input", str(path), flag, str(bad)]) == 2
    for order, code in ((MAX_GROUP_ORDER, 0), (MAX_GROUP_ORDER + 1, 2)):
        path.write_text(json.dumps({"n": 1, "p": 2, "generators": Z2_GENERATORS,
                                    "options": {"max_group_order": order}}))
        assert main(["cohomology", "--input", str(path), "--depth", "1"]) == code
    for p, code in ((10**18 + 3, 0), (MAX_PRIMALITY, 2)):
        path.write_text(json.dumps({"n": 1, "p": p, "generators": Z2_GENERATORS}))
        assert main(["classify", "--audit", "--input", str(path)]) == code
    capsys.readouterr()


def test_a_tripped_limit_makes_the_rule_inapplicable(tmp_path, capsys):
    # plain classify stops at R5; audit goes on to R6, whose resolution of
    # the whole group passes MAX_RESOLUTION_ORDER
    G = generate(F54_GENERATORS)
    assert G.order == 54
    note = (f"R6 skipped: bound exceeded: group order 54 exceeds the "
            f"resolution order bound {MAX_RESOLUTION_ORDER}")
    v = classify(G, 2, ClassifyOptions(audit=True))
    assert (v.status, v.rule, v.notes) == ("NotCM", "R5", (note,))
    assert verify_certificate(G, 2, v)
    assert classify(G, 2) == dataclasses.replace(v, notes=())
    # no R6 verdict is made past the limit, so a forged one is refused
    forged = Verdict("NotCM", "R6", {"mu": 1, "dim": 6, "fixed_point_free": True})
    assert not verify_certificate(G, 2, forged)
    assert applicable_rules(G, 2) == {"R5": "NotCM", "R7": "NotCM"}

    path = tmp_path / "f54.json"
    path.write_text(json.dumps({"n": 6, "p": 2, "generators": F54_GENERATORS}))
    assert main(["classify", "--audit", "--input", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["status"], report["rule"], report["notes"]) == ("NotCM", "R5", [note])
    # outside classify the same limit still fails analyze
    assert main(["analyze", "--input", str(path)]) == 3
    assert "resolution order bound" in capsys.readouterr().err
    # cohomology reads F54 from its Sylow subgroup C2, with no resolution;
    # B4, whose Sylow 2-subgroup of order 128 is not abelian, is refused
    assert main(["cohomology", "--input", str(path), "--depth", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["route"], report["sylow_order"], report["dims"]) == ("sylow-invariants", 2, [1, 1])
    b4 = tmp_path / "b4.json"
    b4.write_text(json.dumps({"n": 4, "p": 2, "generators": B4_GENERATORS}))
    assert main(["cohomology", "--input", str(b4), "--depth", "2"]) == 3
    assert capsys.readouterr().err == (f"error: group order 384 exceeds the resolution "
                                       f"order bound {MAX_RESOLUTION_ORDER}\n")
    # a box past MAX_BOX_POINTS exits 3 before it is allocated: the 17^6 int64
    # coordinate vectors of length 6 alone would take 1.16 GB
    tracemalloc.start()
    try:
        assert main(["invariants", "--input", str(path), "--ball", "8"]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "box bound" in capsys.readouterr().err
    assert peak < 2**20


def test_analyze_refuses_its_order_bounds_before_any_work(tmp_path, capsys, monkeypatch):
    # the resolution order bound at a p dividing |G| refuses before the
    # subgroup lattice, as the subgroup bounds do
    def refuse(*_):
        raise AssertionError("analyze worked on a group past its bounds")

    for name in ("isotropy_subgroups", "sylow", "subgroup_conjugacy_classes"):
        monkeypatch.setattr(multinv.cli, name, refuse)
    monkeypatch.setattr(MatGroup, "mult_table", refuse)
    resolution_bound = f"exceeds the resolution order bound {MAX_RESOLUTION_ORDER}"
    cases = [(_diag(6), 2, f"group order 64 {resolution_bound}"),
             # 128 at p = 2 passes the count bound MAX_SUBGROUPS too
             (_diag(7), 2, f"group order 128 {resolution_bound}"),
             (B4_GENERATORS, 5, f"group order 384 exceeds the subgroup "
                                f"enumeration bound {MAX_SUBGROUP_ENUMERATION}")]
    for gens, p, message in cases:
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"n": len(gens[0]), "p": p, "generators": gens}))
        assert main(["analyze", "--input", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


def test_a_tripped_limit_is_listed_in_an_unknown_verdict():
    # mu searched to degree 10 needs a resolution of depth 11; R7 does not
    # apply to Q8 either, so the verdict is Unknown and names the limit
    Q8 = generate([QUAT_I, QUAT_J])
    opts = ClassifyOptions(cohomology_depth=MAX_RESOLUTION_DEPTH + 1)
    v = classify(Q8, 2, opts)
    reason = (f"bound exceeded: depth {MAX_RESOLUTION_DEPTH + 1} exceeds the "
              f"resolution bound {MAX_RESOLUTION_DEPTH}")
    assert (v.status, v.rule) == ("Unknown", "R8")
    assert {"rule": "R6", "reason": reason} in v.certificate["inapplicable"]
    assert v.notes == (f"R6 skipped: {reason}",)
    assert verify_certificate(Q8, 2, v)
    assert applicable_rules(Q8, 2, opts) == {}


def test_r6_reads_mu_from_the_group_past_the_subgroup_bound():
    # B4 (order 384 > MAX_SUBGROUP_ENUMERATION) at p = 5: the Sylow subgroup
    # is trivial, so fixed-point-free, and R6 reads mu_p(B4, 5) = infinity
    # without the subgroup lattice
    B4 = generate(B4_GENERATORS)
    assert B4.order > MAX_SUBGROUP_ENUMERATION
    evaluations, notes = _evaluate(B4, 5, ClassifyOptions(audit=True))
    outcomes = {rule: outcome for rule, outcome, _ in evaluations}
    assert outcomes["R6"] == ("CM", {"mu": "infinity", "dim": 4, "fixed_point_free": True})
    assert notes == ()
    # p does not divide |B4|, so the re-check resolves nothing
    assert verify_certificate(B4, 5, Verdict("CM", "R6", outcomes["R6"][1]))
    v = classify(B4, 5, ClassifyOptions(audit=True))
    assert (v.status, v.rule, v.notes) == ("CM", "R1", ())
    assert applicable_rules(B4, 5) == {"R1": "CM", "R2": "CM", "R3": "CM",
                                       "R4": "CM", "R6": "CM"}


def test_the_entry_bound_trips_before_the_step_past_it(monkeypatch):
    # diag(±1)^3 to depth 4 has ranks 1, 3, 6, 10, 15; its fifth step eliminates
    # the 10 * 15 * 8^2 entries of the fourth boundary
    G = generate(_diag(3))
    entries = 10 * 15 * 8**2
    assert resolution(G, 2, 4).ranks == [1, 3, 6, 10, 15]
    monkeypatch.setattr(cohomology, "MAX_RESOLUTION_ENTRIES", entries)
    assert resolution(G, 2, 5).ranks[-1] == 21
    monkeypatch.setattr(cohomology, "MAX_RESOLUTION_ENTRIES", entries - 1)
    with pytest.raises(BoundExceededError,
                       match=f"degree 5 eliminates {entries} entries, past the "
                             f"resolution entry bound {entries - 1}$"):
        resolution(G, 2, 5)


def test_the_entry_bound_makes_r6_inapplicable(tmp_path, capsys, monkeypatch):
    # SL(2, 3) on Z^4 at p = 2 has ranks 1, 2, 2, 2: its Sylow subgroup Q8 is
    # not cyclic and it has no 2-quotient, so R6 resolves it, and its third
    # step eliminates 2 * 2 * 24^2 = 2304 entries
    G = generate(SL23_GENERATORS)
    assert applicable_rules(G, 2)["R6"] == "CM"
    monkeypatch.setattr(cohomology, "MAX_RESOLUTION_ENTRIES", 2303)
    reason = "bound exceeded: degree 3 eliminates 2304 entries, past the resolution entry bound 2303"
    v = classify(G, 2, ClassifyOptions(audit=True))
    assert (v.status, v.rule, v.notes) == ("Unknown", "R8", (f"R6 skipped: {reason}",))
    assert {"rule": "R6", "reason": reason} in v.certificate["inapplicable"]
    assert "R6" not in applicable_rules(G, 2)
    path = tmp_path / "sl23.json"
    path.write_text(json.dumps({"n": 4, "p": 2, "generators": SL23_GENERATORS}))
    for argv in (["analyze", "--input", str(path)],
                 ["cohomology", "--input", str(path), "--depth", "3"]):
        assert main(argv) == 3
        assert "resolution entry bound 2303" in capsys.readouterr().err
    assert main(["cohomology", "--input", str(path), "--depth", "2"]) == 0
    capsys.readouterr()

def _flip(n, t):
    """diag(1, ..., -1, ..., 1), the sign change of coordinate t of Z^n."""
    return [[-1 if i == j == t else int(i == j) for j in range(n)] for i in range(n)]


def _signs_by_c3(n):
    """diag(±1)^n ⋊ C3, C3 permuting the first three coordinates: order 3 * 2^n,
    with the normal elementary abelian Sylow 2-subgroup diag(±1)^n."""
    cycle = [[int(j == (i + 1) % 3) if i < 3 and j < 3 else int(i == j) for j in range(n)]
             for i in range(n)]
    return [_flip(n, 0)] + [_flip(n, t) for t in range(3, n)] + [cycle]


def test_the_sylow_route_refuses_a_large_rank_before_the_table(tmp_path, capsys, monkeypatch):
    # P = diag(±1)^11 and the 3-cycle acts on it; degree 9 of H^*(P, F_2)
    # alone has C(19, 9) = 92378 monomials, and degree 6 has 8008, past the
    # entry bound with one acting generator
    G = generate(_signs_by_c3(11))
    assert G.order == 6144

    def refuse(*_):
        raise AssertionError("the table of a group past the bounds was built")

    monkeypatch.setattr(MatGroup, "mult_table", refuse)
    message = (f"error: group order 6144 exceeds the resolution order bound "
               f"{MAX_RESOLUTION_ORDER}, and degree 6 of H^*(P, F_2) for an elementary "
               f"abelian P of order 2048 ranks at least 1 x 8008^2 = 64128064 entries, "
               f"past the resolution entry bound {MAX_RESOLUTION_ENTRIES}")
    path = tmp_path / "signs.json"
    path.write_text(json.dumps({"n": 11, "p": 2, "generators": _signs_by_c3(11)}))
    # the job with its group already generated (generate alone takes about 1.5 s)
    monkeypatch.setattr(multinv.cli, "generate", lambda gens, max_order: G)
    start = time.perf_counter()
    assert main(["cohomology", "--input", str(path), "--depth", "10"]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == message + "\n"


def _signed_permutations(n):
    """B_n, the signed permutation matrices of rank n: the transpositions
    (i, i + 1) and the sign change of coordinate 0."""
    def swap(i):
        return [[int(j == (i + 1 if r == i else i if r == i + 1 else r)) for j in range(n)]
                for r in range(n)]
    return [swap(i) for i in range(n - 1)] + [_flip(n, 0)]


def test_a_sylow_element_of_order_p_squared_refuses_before_the_table(tmp_path, capsys,
                                                                      monkeypatch):
    # B5 (order 3840) at p = 2 and depth 6: an elementary abelian P of rank 7
    # would pass the entry bound (degree 5 has C(11, 5) = 462 monomials), but
    # the signed transposition (x, y) -> (y, -x) has order 4, so P is not
    # elementary abelian and the resolution order bound refuses at once
    assert generate(_signed_permutations(4)) == generate(B4_GENERATORS)

    def refuse(*_):
        raise AssertionError("the table of a group past the bounds was built")

    monkeypatch.setattr(MatGroup, "mult_table", refuse)
    path = tmp_path / "b5.json"
    path.write_text(json.dumps({"n": 5, "p": 2, "generators": _signed_permutations(5)}))
    start = time.perf_counter()
    assert main(["cohomology", "--input", str(path), "--depth", "6"]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (f"error: group order 3840 exceeds the resolution "
                                       f"order bound {MAX_RESOLUTION_ORDER}\n")


@pytest.mark.parametrize("shear", [10**5, 10**10])
def test_the_search_for_order_p_squared_past_64_bits(tmp_path, capsys, shear):
    # S5 (order 120, past the resolution order bound) at p = 3, conjugated
    # by the shear [[1, s], [0, 1]] in its first two coordinates: its
    # entries reach s^2, so at s = 10^5 their products pass 2^64 and at
    # s = 10^10 the entries do.  The search for an element of order p^2,
    # taken modulo 2^64, finds none, as without the shear, and the table
    # finds the Sylow subgroup C3
    n = 5
    Q = [[int(i == j) + (shear if (i, j) == (0, 1) else 0) for j in range(n)] for i in range(n)]
    Qinv = [[int(i == j) - (shear if (i, j) == (0, 1) else 0) for j in range(n)] for i in range(n)]

    def times(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    plain = _signed_permutations(n)[:-1]
    reports = []
    for gens in (plain, [times(times(Q, g), Qinv) for g in plain]):
        path = tmp_path / "s5.json"
        path.write_text(json.dumps({"n": n, "p": 3, "generators": gens}))
        assert main(["cohomology", "--input", str(path), "--depth", "5"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert max(abs(x) for g in generate(gens).elements for x in g.flat) >= shear**2
    assert reports[0] == reports[1]
    assert (reports[0]["route"], reports[0]["group_order"]) == ("sylow-invariants", 120)


def test_the_sylow_entry_bound_trips_one_step_past_it(monkeypatch):
    # diag(±1)^3 ⋊ C3 (order 24) at p = 2: one generator of N_G(P) = G acts
    # on P = diag(±1)^3, so degree 4, with C(6, 2) = 15 monomials, stacks
    # 15^2 entries
    G = generate(_signs_by_c3(3))
    entries = 15**2
    monkeypatch.setattr(cohomology, "MAX_RESOLUTION_ENTRIES", entries)
    table = cohomology.cohomology_table(G, 2, 5)
    assert (table.route, table.dims) == ("sylow-invariants", (1, 1, 2, 4, 5))
    monkeypatch.setattr(cohomology, "MAX_RESOLUTION_ENTRIES", entries - 1)
    with pytest.raises(BoundExceededError,
                       match=re.escape(f"degree 4 of H^*(P, F_2) for P of order 8 ranks "
                                       f"1 x 15^2 = {entries} entries, past the resolution "
                                       f"entry bound {entries - 1}") + "$"):
        cohomology.cohomology_table(G, 2, 5)
    # four degrees stay below the bound
    assert cohomology.cohomology_table(G, 2, 4).dims == (1, 1, 2, 4)


@pytest.mark.parametrize("p", [7, 11])
def test_cohomology_at_a_prime_not_dividing_the_order_reads_no_table(tmp_path, capsys,
                                                                      monkeypatch, p):
    # B5 (order 3840 = 2^8 * 3 * 5) at p = 7 and 11: O_p'(B5) = B5, so F_p is
    # resolved over the trivial quotient, past the order bound and with no table
    def refuse(*_):
        raise AssertionError("the table of B5 was built")

    monkeypatch.setattr(MatGroup, "mult_table", refuse)
    path = tmp_path / "b5.json"
    path.write_text(json.dumps({"n": 5, "p": p, "generators": _signed_permutations(5)}))
    start = time.perf_counter()
    assert main(["cohomology", "--input", str(path), "--depth", "10"]) == 0
    assert time.perf_counter() - start < 1
    report = json.loads(capsys.readouterr().out)
    assert report["group_order"] == 3840
    assert report["dims"] == [1] + [0] * 9
    assert report["free_ranks"] == [1] + [0] * 10
    assert report["resolved_order"] == 1
    assert report["mu_p"] == {"exact": True, "value": "infinity"}


def test_every_order_refusal_reads_the_one_bound(tmp_path, capsys, monkeypatch):
    # with the bound lowered to 23, SL(2, 3) (order 24) at p = 2 is refused
    # with the same text by each command and call that refuses past it
    monkeypatch.setattr(cohomology, "MAX_RESOLUTION_ORDER", 23)
    message = "group order 24 exceeds the resolution order bound 23"
    G = generate(SL23_GENERATORS)
    for call in (lambda: resolution(G, 2, 1), lambda: cohomology.mu_p(G, 2)):
        with pytest.raises(BoundExceededError, match=f"^{message}$"):
            call()
    path = tmp_path / "sl23.json"
    path.write_text(json.dumps({"n": 4, "p": 2, "generators": SL23_GENERATORS}))
    for argv in (["cohomology", "--depth", "4"], ["analyze"]):
        assert main(argv + ["--input", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["classify", "--audit", "--input", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert f"R6 skipped: bound exceeded: {message}" in report["notes"]
