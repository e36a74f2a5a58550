import io
import json

import pytest

from multinv.cli import main, parse_jobspec

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


def test_schema_violations_exit_2(capsys, monkeypatch):
    bad = [
        {"n": 3, "p": 4, "generators": INV3["generators"]},          # p not prime
        {"n": 2, "p": 2, "generators": INV3["generators"]},          # wrong size
        {"n": 3, "p": 2, "generators": []},                           # empty
        {"n": 3, "p": 2, "generators": INV3["generators"],
         "options": {"bogus": 1}},                                    # unknown option
        {"n": 2, "p": 2, "generators": [[[2, 0], [0, 1]]]},           # |det| != 1
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
