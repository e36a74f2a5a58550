import gc
import hashlib
import io
import itertools
import json
import sys
import warnings

import pytest

import multinv.action
import multinv.cli
import multinv.cohomology
import multinv.matgroup
from multinv.cli import main, parse_jobspec
from multinv.cohomology import mu_p
from multinv.corpus import corpus_entry, corpus_names
from multinv.errors import MAX_ORBIT_SPREAD, MAX_RESOLUTION_ORDER
from multinv.matgroup import generate, subgroup_conjugacy_classes, subgroups
from test_action import W_F4_GENERATORS
from test_classify import SL23_GENERATORS
from test_laurent import INVOLUTIONS, _off_diagonal, _orbit_lists, _reference_orbits
from test_limits import B4_GENERATORS

INV3 = {"n": 3, "p": 2, "generators": [[[-1, 0, 0], [0, -1, 0], [0, 0, -1]]]}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_stdin_jobspec(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(INV3)))
    code, out, _ = run_cli(capsys, "classify", "--input", "-")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "NotCM"
    assert report["rule"] == "R5"
    assert report["certificate"]["generator_rank_drop"] == 3


def test_classify_builtin_and_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "classify", "--builtin", "g1")
    assert code == 0
    report = json.loads(out)
    assert (report["status"], report["rule"]) == ("CM", "R3")
    # canonical serialization round-trips bit for bit
    assert json.dumps(report, sort_keys=True) == out.strip()
    assert json.loads(json.dumps(report, sort_keys=True)) == report


def test_classify_file_input(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(INV3))
    code, out, _ = run_cli(capsys, "classify", "--input", str(path))
    assert code == 0
    assert json.loads(out)["status"] == "NotCM"


def test_invalid_json_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("this is not json"))
    code, _, err = run_cli(capsys, "classify", "--input", "-")
    assert code == 2
    assert "invalid JSON" in err


def test_unreadable_input_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(json.dumps(INV3).encode() + b" \xe9")
    for path in (missing, latin1, tmp_path):
        code, out, err = run_cli(capsys, "classify", "--input", str(path))
        assert (code, out) == (2, ""), path
        assert err.startswith("error: cannot read input: ") and "Traceback" not in err, err


def test_schema_violations_exit_2(capsys, monkeypatch):
    bad = [
        {"n": 3, "p": 4, "generators": INV3["generators"]},          # p not prime
        {"n": 2, "p": 2, "generators": INV3["generators"]},          # wrong size
        {"n": 3, "p": 2, "generators": []},                           # empty
        {"n": 3, "p": 2, "generators": INV3["generators"],
         "options": {"bogus": 1}},                                    # unknown option
        {"n": 2, "p": 2, "generators": [[[2, 0], [0, 1]]]},           # |det| != 1
        {"n": 3, "p": 2, "generators": INV3["generators"],
         "options": {"cohomology_depth": 0}},                         # depth below 1
        {"n": 3, "p": 2, "generators": INV3["generators"],
         "options": {"cohomology_depth": True}},                      # not an integer
        {"n": True, "p": 2, "generators": [[[-1]]]},                  # n not an integer
        {"n": 1, "p": True, "generators": [[[-1]]]},                  # p not an integer
        {"n": 1, "p": 2, "generators": [[[True]]]},                   # entry not an integer
        {"n": 2, "p": 2, "generators": [[[False, True], [True, False]]]},
        {"n": 1, "p": 2**89 - 1, "generators": [[[-1]]]},             # p past MAX_PRIMALITY
    ]
    for job in bad:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
        code, _, _ = run_cli(capsys, "classify", "--input", "-")
        assert code == 2, job


def test_resource_bound_exits_3(capsys, monkeypatch):
    job = {"n": 3, "p": 2,
           "generators": [[[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                          [[1, 0, 0], [0, 0, 1], [0, 1, 0]]],
           "options": {"max_group_order": 3}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
    code, _, err = run_cli(capsys, "classify", "--input", "-")
    assert code == 3
    assert "max_order" in err


def test_internal_key_error_is_not_reported_as_bad_input(monkeypatch):
    def broken(*args):
        raise KeyError("internal")

    monkeypatch.setattr(multinv.cli, "classify", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["classify", "--builtin", "s3"])


def test_prime_bound_for_elimination(capsys, monkeypatch):
    rot3 = [[[0, -1], [1, -1]]]
    for p, exit_code in ((4294967311, 3), (2147483647, 0)):
        job = {"n": 2, "p": p, "generators": rot3}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
        code, out, err = run_cli(capsys, "cohomology", "--input", "-", "--depth", "4")
        assert code == exit_code
    assert json.loads(out)["dims"] == [1, 0, 0, 0]


def test_parse_jobspec_applies_default_options():
    G, p, options = parse_jobspec(INV3)
    assert G.order == 2 and p == 2
    assert options["ball"] == 2 and options["audit"] is False


def test_cohomology_report(capsys):
    # the Sylow 3-subgroup of S3 is C3, elementary abelian: no resolution
    code, out, _ = run_cli(capsys, "cohomology", "--group", "s3", "--depth", "7")
    assert code == 0
    report = json.loads(out)
    assert report["dims"] == [1, 0, 0, 1, 1, 0, 0]
    assert report["mu_p"] == {"exact": True, "value": 3}
    assert (report["route"], report["sylow_order"]) == ("sylow-invariants", 3)
    assert "free_ranks" not in report and "resolved_order" not in report
    # the Sylow 2-subgroup of S4 is dihedral of order 8: resolved over all of S4
    code, out, _ = run_cli(capsys, "cohomology", "--group", "s4", "--depth", "5")
    assert code == 0
    report = json.loads(out)
    assert report["route"] == "resolution" and "sylow_order" not in report
    assert (report["free_ranks"], report["resolved_order"]) == ([1, 3, 4, 4, 5, 6], 24)


@pytest.mark.parametrize("human", [[], ["--human"]], ids=["json", "human"])
def test_cohomology_takes_builtin_and_group_alike(human, capsys):
    """--builtin, as every command spells it, and the older --group give one report."""
    for name in ("s3", "s4"):
        argv = [name, "--depth", "5", *human]
        builtin = run_cli(capsys, "cohomology", "--builtin", *argv)
        assert builtin == run_cli(capsys, "cohomology", "--group", *argv)
        assert builtin[0] == 0 and builtin[1]


def test_cohomology_past_the_resolution_order_bound(tmp_path, capsys):
    # each Sylow subgroup is elementary abelian, so no resolution is needed
    s5 = [[[int(c == perm[r]) for c in range(5)] for r in range(5)]
          for perm in ([1, 0, 2, 3, 4], [1, 2, 3, 4, 0])]
    jobs = [(B4_GENERATORS, 3, 3, [1, 0, 0, 1, 1, 0, 0, 1, 1, 0]),
            (s5, 3, 3, [1, 0, 0, 1, 1, 0, 0, 1, 1, 0]),
            (s5, 5, 5, [1, 0, 0, 0, 0, 0, 0, 1, 1, 0]),
            (W_F4_GENERATORS, 3, 9, [1, 0, 0, 2, 2, 0, 1, 4, 3, 0])]
    path = tmp_path / "job.json"
    for gens, p, sylow_order, dims in jobs:
        path.write_text(json.dumps({"n": len(gens[0]), "p": p, "generators": gens}))
        code, out, _ = run_cli(capsys, "cohomology", "--input", str(path), "--depth", "10")
        assert code == 0
        report = json.loads(out)
        assert report["group_order"] > MAX_RESOLUTION_ORDER
        assert (report["route"], report["sylow_order"], report["dims"]) == \
            ("sylow-invariants", sylow_order, dims)


def test_analyze_report(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--builtin", "g1")
    assert code == 0
    report = json.loads(out)
    assert report["group_order"] == 2
    assert report["mu"] == {"exact": True, "value": 1}
    # the generator fixes a rank-1 lattice: a bireflection, not a reflection
    assert [(e["order"], e["rank_drop"], e["is_reflection"], e["is_bireflection"])
            for e in report["element_profiles"]] == [(2, 2, False, True), (1, 0, True, True)]
    heights = {h["order"]: h["height"] for h in report["subgroup_heights"]}
    assert heights == {1: 0, 2: 2}
    assert [e["order"] for e in report["isotropy"]] == [1, 2]


def test_invariants_report(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--builtin", "inversion1", "--ball", "2")
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 3 and report["burnside"] == 3
    assert len(report["orbit_sums"]) == 3


def test_human_rendering(capsys):
    code, out, _ = run_cli(capsys, "classify", "--builtin", "inversion3", "--human")
    assert code == 0
    assert "NotCM" in out and "R5" in out


def test_selftest_command_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert len(report["criteria"]) == 10
    assert all(c["passed"] for c in report["criteria"])


def test_no_floats_anywhere(capsys):
    for argv in (("classify", "--builtin", "s4"),
                 ("analyze", "--builtin", "rot4"),
                 ("cohomology", "--group", "inversion1", "--depth", "5"),
                 ("invariants", "--builtin", "g2", "--ball", "1")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0

        def no_floats(obj):
            if isinstance(obj, float):
                return False
            if isinstance(obj, dict):
                return all(no_floats(v) for v in obj.values())
            if isinstance(obj, list):
                return all(no_floats(v) for v in obj)
            return True

        assert no_floats(json.loads(out))


def _sha1(out: str) -> str:
    return hashlib.sha1(out.strip().encode()).hexdigest()


# SHA-1 of the canonical JSON of ``invariants --builtin NAME --ball 2``, taken
# from the per-point orbit enumeration before the batched kernel
INVARIANTS_BALL2_SHA1 = {
    "s4": "4a1caab343e39108a012dd172862673d4076b751",
    "rot4_nonsplit": "5e5208348e9ae8f36cc3b797317a7fe57936d098",
    "inversion3": "8e92000df6aa3fb5c44fc483c8a90cf4a170515f",
}


@pytest.mark.parametrize("name", sorted(INVARIANTS_BALL2_SHA1))
def test_invariants_output_pinned(capsys, name):
    code, out, _ = run_cli(capsys, "invariants", "--builtin", name, "--ball", "2")
    assert code == 0
    assert _sha1(out) == INVARIANTS_BALL2_SHA1[name]


@pytest.mark.parametrize("n", range(1, 6))
def test_invariants_text_is_canonical_json(capsys, n):
    """The orbit sums written as text are the canonical JSON of their dicts,
    and --human counts them as dim."""
    name = f"inversion{n}"
    G = corpus_entry(name).group()
    assert G.n == n
    for ball in range(4):
        code, out, _ = run_cli(capsys, "invariants", "--builtin", name, "--ball", str(ball))
        assert code == 0
        report = json.loads(out)
        assert out.strip() == json.dumps(report, sort_keys=True)
        orbits, _ = _orbit_lists(G, ball)
        assert report["orbit_sums"] == [[{"exponents": e, "coeff": 1} for e in orbit]
                                        for orbit in orbits]
        assert len(orbits) == report["dim"]
        code, human, _ = run_cli(capsys, "invariants", "--builtin", name,
                                 "--ball", str(ball), "--human")
        assert code == 0
        assert f"\n{report['dim']} orbit sums" in human


def _invariants_text(G, p, ball, orbits, dim) -> str:
    """``json.dumps(report, sort_keys=True)`` for the ``invariants`` report
    whose ``dim`` orbit sums are those of ``orbits`` in dict form, one orbit
    dumped at a time, so that a large report is never held as Python
    objects."""
    report = {"ball": ball, "burnside": dim, "command": "invariants",
              "dim": dim, "group_order": G.order, "orbit_sums": [], "p": p}
    head, tail = json.dumps(report, sort_keys=True).split('"orbit_sums": []')
    dump = json.JSONEncoder(sort_keys=True).encode
    sums = ", ".join(dump([{"coeff": 1, "exponents": e} for e in orbit]) for orbit in orbits)
    return f'{head}"orbit_sums": [{sums}]{tail}'


def _text_difference(out: str, expected: str) -> str | None:
    """None when the texts agree, else their first difference in context:
    pytest's own diff of texts of many MB would take minutes."""
    if out == expected:
        return None
    at = next((i for i, (a, b) in enumerate(zip(out, expected)) if a != b),
              min(len(out), len(expected)))
    return f"at {at}: {out[at - 40:at + 40]!r} != {expected[at - 40:at + 40]!r}"


def _run_invariants(tmp_path, capsys, gens, ball) -> tuple[object, str]:
    """The group of ``gens`` and the text ``invariants --ball`` writes for it."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"n": len(gens[0]), "p": 2, "generators": gens}))
    code, out, _ = run_cli(capsys, "invariants", "--input", str(path), "--ball", str(ball))
    assert code == 0
    return generate(gens), out.strip()


# (generators, ball) of the orbit-sums writer cases, compared with the reference orbits
WRITER_CASES = {
    # a row of norm MAX_ORBIT_SPREAD at ball 2: coordinates -16..16
    "two-digit": (_off_diagonal(INVOLUTIONS[0], MAX_ORBIT_SPREAD - 1), 2),
    "rank-1": ([[[-1]]], 3),
    "rank-40-ball-0": ([[[-int(i == j) for j in range(40)] for i in range(40)]], 0),
    # the box of ball 0 is one orbit, here of a group on Z^3
    "one-orbit": (corpus_entry("g1").generators, 0),
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_orbit_sums_writer(tmp_path, capsys, case):
    gens, ball = WRITER_CASES[case]
    G, out = _run_invariants(tmp_path, capsys, gens, ball)
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True)
    orbits, burnside = _reference_orbits(G, ball)
    assert report["orbit_sums"] == [[{"coeff": 1, "exponents": e} for e in orbit]
                                    for orbit in orbits]
    assert (report["dim"], report["burnside"]) == (len(orbits), burnside)
    if case == "two-digit":
        assert max(abs(x) for orbit in orbits for e in orbit for x in e) == 16


def test_orbit_sums_writer_in_blocks(tmp_path, capsys, monkeypatch):
    # blocks of 64 bytes hold one row each: every point is its own block
    monkeypatch.setattr(multinv.cli, "BLOCK_ENTRIES", 64)
    for gens, ball in [WRITER_CASES["two-digit"], (corpus_entry("s4").generators, 2)]:
        G, out = _run_invariants(tmp_path, capsys, gens, ball)
        orbits, burnside = _reference_orbits(G, ball)
        assert _text_difference(out, _invariants_text(G, 2, ball, orbits, burnside)) is None


def test_orbit_sums_writer_at_rank_12(tmp_path, capsys):
    # the largest key base of test_box_orbits_keys_stay_in_int64: a row of
    # norm MAX_ORBIT_SPREAD at ball 1 in rank 12, 3^12 points and 62 MB of
    # text; (x, y, z) -> (x + b y, -y, z) moves every box point with y != 0
    # out of the box, so each box point is its own orbit (the reference
    # enumeration would take about a minute here)
    n, b = 12, MAX_ORBIT_SPREAD - 1
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    g[0][1], g[1][1] = b, -1
    G, out = _run_invariants(tmp_path, capsys, [g], 1)
    orbits = ([list(e) for e in sorted({pt, (pt[0] + b * pt[1], -pt[1]) + pt[2:]})]
              for pt in itertools.product((-1, 0, 1), repeat=n))
    assert _text_difference(out, _invariants_text(G, 2, 1, orbits, 3 ** n)) is None


def test_cohomology_builds_one_resolution_per_job(capsys, monkeypatch):
    built, routes = [], set()

    class Counted(multinv.cohomology.FpResolution):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(multinv.cohomology, "FpResolution", Counted)
    for name in corpus_names():
        entry = corpus_entry(name)
        G = entry.group()
        for p in (2, 3):
            job = {"n": entry.n, "p": p,
                   "generators": [[list(row) for row in g] for g in entry.generators]}
            for depth in range(1, 7):
                monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
                built.clear()
                code, out, _ = run_cli(capsys, "cohomology", "--input", "-",
                                       "--depth", str(depth))
                assert code == 0
                report = json.loads(out)
                routes.add(report["route"])
                resolved = [depth] if report["route"] == "resolution" else []
                assert [res.depth for res in built] == resolved, (name, p, depth)
                mu = mu_p(G, p, depth)
                value = "infinity" if mu.is_infinite else mu.value
                assert report["mu_p"] == {"value": value, "exact": mu.exact}
    assert routes == {"resolution", "sylow-invariants"}


@pytest.mark.parametrize("depth", [3, 4, 10])
def test_commands_agree_on_mu_at_one_depth(depth, tmp_path, capsys):
    """SL(2, 3) at p = 2: the Sylow subgroup Q8 acts fixed-point-freely, so
    R6 applies and mu of the action is mu_2 = 3.  classify, analyze and
    cohomology read it exact from depth 4 on, and inexact 3 at depth 3."""
    path = tmp_path / "sl23.json"
    path.write_text(json.dumps({"n": 4, "p": 2, "generators": SL23_GENERATORS,
                                "options": {"cohomology_depth": depth}}))
    reports = {}
    for argv in (["classify", "--audit"], ["analyze"], ["cohomology", "--depth", str(depth)]):
        code, out, err = run_cli(capsys, *argv, "--input", str(path))
        assert (code, err) == (0, ""), argv
        reports[argv[0]] = json.loads(out)
    mu = {"value": 3, "exact": depth >= 4}
    assert reports["analyze"]["mu"] == reports["cohomology"]["mu_p"] == mu
    classify = reports["classify"]
    if depth >= 4:
        assert (classify["status"], classify["rule"]) == ("CM", "R6")
        assert classify["certificate"]["mu"] == 3
        assert classify["notes"] == []
    else:
        assert (classify["status"], classify["rule"]) == ("Unknown", "R8")
        assert classify["notes"] == ["mu undetermined: H^r nonzero first occurs above degree 2"]


# SHA-1 of the canonical JSON of ``analyze --builtin NAME``, taken from the
# version that computed the isotropy report twice
ANALYZE_SHA1 = {
    "inversion1": "024c578fdb660769100364a806e67d3f23fc577a",
    "inversion2": "94ae2a972a9acbeaad6e4fbc6f7d4334fc87d850",
    "inversion3": "ff7b6ffd4e53aa404f2ac552dd98dbfd6ef30570",
    "inversion4": "3a54e323518e11ee0da18688a8290cc7190158ff",
    "inversion5": "d7cff3ff6d3e1141fa9fe047e5bff38b11467f86",
    "g1": "94d21c63cfd531c7e94c72bca19f36e4304816b4",
    "g2": "5ccd04029283878c1182098a166059cc904bb4fc",
    "gamma": "f8702b3d81a89549e5d89e57f77cb96c4296bc67",
    "s3": "fe164284abfb2118928c7b01482381e5649beb85",
    "s4": "dc1db1ee735d04add3790266dc597b57d0bf66ba",
    "rot4": "eaa53d275dd35e1ec29912340f223d4cce04af37",
    "rot4_nonsplit": "5fc44d8758952c607e397c388cc29ea73a0efb97",
    "rot3": "19982ea6e6a93c379ca0548036edfde63d654b0a",
}


def test_analyze_computes_isotropy_once(capsys, monkeypatch):
    calls = []
    real = multinv.action.isotropy_subgroups

    def counted(*args, **kwargs):
        calls.append(args[0].order)
        return real(*args, **kwargs)

    monkeypatch.setattr(multinv.action, "isotropy_subgroups", counted)
    monkeypatch.setattr(multinv.cli, "isotropy_subgroups", counted)
    assert sorted(ANALYZE_SHA1) == sorted(corpus_names())
    for name, digest in ANALYZE_SHA1.items():
        calls.clear()
        code, out, _ = run_cli(capsys, "analyze", "--builtin", name)
        assert code == 0
        assert _sha1(out) == digest, name
        assert len(calls) == 1, name


def test_analyze_computes_subgroup_classes_once(capsys, monkeypatch):
    """The heights and the stabilizer search read one partition into
    conjugacy classes, which closes one conjugacy orbit per class."""
    callers = []
    real = multinv.matgroup._conjugates

    def counted(G, S):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(G, S)

    monkeypatch.setattr(multinv.matgroup, "_conjugates", counted)
    for name, digest in ANALYZE_SHA1.items():
        callers.clear()
        code, out, _ = run_cli(capsys, "analyze", "--builtin", name)
        assert code == 0
        assert _sha1(out) == digest, name
        orbits = callers.count("subgroup_conjugacy_classes")
        G = corpus_entry(name).group()
        assert orbits == len(subgroup_conjugacy_classes(G)), name


B3_GENERATORS = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
                 [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]]


def _audit_reports(capsys, monkeypatch):
    """Canonical ``classify --audit`` reports without ``timings_ms`` for every
    subgroup of B3 at p = 2 and 3, one line each in subgroup order."""
    lines = []
    for H in subgroups(generate(B3_GENERATORS)):
        gens = [H.elements[i].tolist()
                for i in H.small_generating_indices() or (H.identity_index,)]
        for p in (2, 3):
            job = {"n": 3, "p": p, "generators": gens}
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
            code, out, _ = run_cli(capsys, "classify", "--audit", "--input", "-")
            assert code == 0
            report = json.loads(out)
            del report["timings_ms"]
            lines.append(json.dumps(report, sort_keys=True))
    return lines


# SHA-1 over the lines of ``_audit_reports``; and over the same lines with
# R4's reason in each R8 certificate read as the reason of the three-rule R4
# (R1, R2 and R3 on P), taken before the fixed lattices of group elements
# were cached
B3_AUDIT_SHA1 = "1691e4b1d33231ee74b3517392e027e20ff1d13c"
B3_AUDIT_THREE_RULE_R4_SHA1 = "b427a4e3dfbbbe6163d2ae61e638d9deb58cb081"


def test_classify_audit_reports_pinned(capsys, monkeypatch):
    lines = _audit_reports(capsys, monkeypatch)
    assert len(lines) == 2 * 98
    assert _sha1("\n".join(lines)) == B3_AUDIT_SHA1
    three_rule = []
    for line in lines:
        report = json.loads(line)
        for item in report["certificate"].get("inapplicable", []):
            if item["rule"] == "R4":
                assert item["reason"].startswith("in the Sylow subgroup, reflections generate ")
                item["reason"] = "Sylow subgroup is not settled CM by rules R1-R3"
        three_rule.append(json.dumps(report, sort_keys=True))
    assert _sha1("\n".join(three_rule)) == B3_AUDIT_THREE_RULE_R4_SHA1


def test_parser_built_once_and_flags_do_not_carry_over(tmp_path, capsys):
    # with a mu search limit of 0, audit mode (which also evaluates R6 after
    # R5 fired) adds a note that a plain classify does not
    path = tmp_path / "job.json"
    path.write_text(json.dumps(dict(INV3, options={"cohomology_depth": 1})))
    calls = [("classify", "--audit", "--input", str(path)),
             ("classify", "--input", str(path)),
             ("analyze", "--input", str(path)),
             ("cohomology", "--input", str(path), "--depth", "3"),
             ("invariants", "--input", str(path), "--ball", "1")]

    def report(argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        data = json.loads(out)
        data.pop("timings_ms", None)
        return data

    fresh = []
    for argv in calls:
        multinv.cli._parsers.cache_clear()
        fresh.append(report(argv))
    multinv.cli._parsers.cache_clear()
    reused = [report(argv) for argv in calls]
    assert multinv.cli._parsers.cache_info().misses == 1
    assert reused == fresh
    assert fresh[0]["notes"] and not fresh[1]["notes"]
    assert fresh[3]["depth"] == 3 and fresh[4]["ball"] == 1


def _parsed(parse, argv, capsys):
    """(namespace, exit code, stdout, stderr) of one parse."""
    try:
        args, code = vars(parse(argv)), None
    except SystemExit as exc:
        args, code = None, exc.code
    captured = capsys.readouterr()
    return args, code, captured.out, captured.err


PARSE_CASES = [
    [], ["bogus"], ["-h"], ["--human"], ["classify", "-h"], ["classify", "--bogus"],
    ["cohomology", "--depth", "x"], ["classify", "--builtin", "nope"],
    ["classify", "--builtin", "s3", "extra", "--more"], ["selftest", "--input", "x"],
    ["classify", "--builtin", "s3"], ["classify", "--input", "job.json", "--audit", "--human"],
    ["analyze", "--builtin", "s4"], ["analyze", "--input", "-"],
    ["cohomology", "--group", "s3", "--depth", "4"], ["cohomology", "--builtin", "s3"],
    ["cohomology", "--input", "job.json"],
    ["invariants", "--builtin", "gamma", "--ball", "2"], ["invariants", "--input", "job.json"],
    ["selftest"], ["selftest", "--human"],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_each_argument_is_parsed_once_as_by_the_full_parser(argv, capsys):
    full = _parsed(multinv.cli.build_parser().parse_args, argv, capsys)
    assert _parsed(multinv.cli.parse_args, argv, capsys) == full


def test_input_file_is_closed(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(INV3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["classify", "--input", str(path)]) == 0
        gc.collect()
    capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
