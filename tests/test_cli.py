import gc
import hashlib
import io
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
from multinv.laurent import box_orbits
from multinv.matgroup import generate, subgroup_conjugacy_classes, subgroups

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
    code, out, _ = run_cli(capsys, "cohomology", "--group", "s3", "--depth", "7")
    assert code == 0
    report = json.loads(out)
    assert report["dims"] == [1, 0, 0, 1, 1, 0, 0]
    assert report["mu_p"] == {"exact": True, "value": 3}


def test_analyze_report(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--builtin", "g1")
    assert code == 0
    report = json.loads(out)
    assert report["group_order"] == 2
    assert report["mu"] == {"exact": True, "value": 1}
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
    assert len(report["criteria"]) == 9
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
        orbits, _ = box_orbits(G, ball)
        assert report["orbit_sums"] == [[{"exponents": e, "coeff": 1} for e in orbit]
                                        for orbit in orbits]
        assert len(orbits) == report["dim"]
        code, human, _ = run_cli(capsys, "invariants", "--builtin", name,
                                 "--ball", str(ball), "--human")
        assert code == 0
        assert f"\n{report['dim']} orbit sums" in human


def test_cohomology_builds_one_resolution_per_job(capsys, monkeypatch):
    calls = []
    real = multinv.cli.resolution

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(multinv.cli, "resolution", counted)
    monkeypatch.setattr(multinv.cohomology, "resolution", counted)
    for name in corpus_names():
        entry = corpus_entry(name)
        G = entry.group()
        for p in (2, 3):
            job = {"n": entry.n, "p": p,
                   "generators": [[list(row) for row in g] for g in entry.generators]}
            for depth in range(1, 7):
                monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
                calls.clear()
                code, out, _ = run_cli(capsys, "cohomology", "--input", "-",
                                       "--depth", str(depth))
                assert code == 0
                assert calls == [depth], (name, p, depth)
                mu = mu_p(G, p, depth - 1)
                value = "infinity" if mu.is_infinite else mu.value
                assert json.loads(out)["mu_p"] == {"value": value, "exact": mu.exact}


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


# SHA-1 over the lines of ``_audit_reports``, taken before the fixed lattices
# of group elements were cached
B3_AUDIT_SHA1 = "b427a4e3dfbbbe6163d2ae61e638d9deb58cb081"


def test_classify_audit_reports_pinned(capsys, monkeypatch):
    lines = _audit_reports(capsys, monkeypatch)
    assert len(lines) == 2 * 98
    assert _sha1("\n".join(lines)) == B3_AUDIT_SHA1


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
        multinv.cli.build_parser.cache_clear()
        fresh.append(report(argv))
    multinv.cli.build_parser.cache_clear()
    reused = [report(argv) for argv in calls]
    assert multinv.cli.build_parser.cache_info().misses == 1
    assert reused == fresh
    assert fresh[0]["notes"] and not fresh[1]["notes"]
    assert fresh[3]["depth"] == 3 and fresh[4]["ball"] == 1


def test_input_file_is_closed(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(INV3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["classify", "--input", str(path)]) == 0
        gc.collect()
    capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
