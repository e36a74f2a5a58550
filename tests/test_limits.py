"""The resource limits of ``multinv.errors``: where each one trips, and what a
tripped limit does to a command and to a classify rule."""

import dataclasses
import json
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
from multinv.matgroup import generate, is_prime, subgroups, trivial_group
from test_action import B3_GENERATORS
from test_classify import QUAT_I, QUAT_J


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
# S3 on the A2 root lattice: rot3 and a reflection; at p = 3 its Sylow
# subgroup is fixed-point-free and it has no quotient of order 3
S3_A2_GENERATORS = [ROT3, [[0, 1], [1, 0]]]
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
    # outside classify the same limit still fails the command
    for argv in (["analyze", "--input", str(path)],
                 ["cohomology", "--input", str(path), "--depth", "2"]):
        assert main(argv) == 3
        assert "resolution order bound" in capsys.readouterr().err
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
    # G is the stabilizer of 0, so mu_action would refuse it at the end
    def refuse(*_):
        raise AssertionError("analyze worked on a group past its bounds")

    for name in ("element_profiles", "sylow", "subgroup_conjugacy_classes"):
        monkeypatch.setattr(multinv.cli, name, refuse)
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
    opts = ClassifyOptions(mu_search_limit=MAX_RESOLUTION_DEPTH)
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
    # S3 on the A2 lattice at p = 3 has ranks 1, 2, 3, 3: R6 resolves S3, and
    # its third step eliminates 2 * 3 * 6^2 = 216 entries
    G = generate(S3_A2_GENERATORS)
    assert applicable_rules(G, 3)["R6"] == "CM"
    monkeypatch.setattr(cohomology, "MAX_RESOLUTION_ENTRIES", 215)
    reason = "bound exceeded: degree 3 eliminates 216 entries, past the resolution entry bound 215"
    v = classify(G, 3, ClassifyOptions(audit=True))
    assert (v.status, v.rule, v.notes) == ("CM", "R2", (f"R6 skipped: {reason}",))
    assert "R6" not in applicable_rules(G, 3)
    path = tmp_path / "s3.json"
    path.write_text(json.dumps({"n": 2, "p": 3, "generators": S3_A2_GENERATORS}))
    for argv in (["analyze", "--input", str(path)],
                 ["cohomology", "--input", str(path), "--depth", "3"]):
        assert main(argv) == 3
        assert "resolution entry bound 215" in capsys.readouterr().err
    assert main(["cohomology", "--input", str(path), "--depth", "2"]) == 0
    capsys.readouterr()
