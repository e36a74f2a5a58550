"""JSON command-line front end.

Jobs are JSON objects ("jobspecs") with the shape

    {"n": 3, "p": 2,
     "generators": [[[-1,0,0],[0,0,1],[0,1,0]]],
     "options": {"max_group_order": 10000, "cohomology_depth": 10,
                 "ball": 2, "audit": false}}

read from --input FILE (or stdin when the file is "-"), or taken from the
built-in corpus via --builtin NAME.  Reports are emitted as canonical JSON
(sorted keys, integers only, no floats); --human renders a table instead.

Exit codes: 0 success (Unknown verdicts included), 2 invalid or unreadable
input, 3 resource bound exceeded, 1 failed selftest.  A resource limit (a constant
in ``errors``) exits 3 when it trips, except inside ``classify``, where it
makes a rule inapplicable with a note; a depth, ball, ``max_group_order``
or p past its limit exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from itertools import chain

from .action import height_ir, isotropy_subgroups, mu_action
from .classify import ClassifyOptions, classify
from .cohomology import _check_resolution_bounds, mu_from_resolution, resolution
from .corpus import corpus_entry, corpus_names
from .errors import (
    MAX_BOX_RADIUS,
    MAX_GROUP_ORDER,
    MAX_PRIMALITY,
    MAX_RESOLUTION_DEPTH,
    BoundExceededError,
    NonUnimodularError,
)
from .laurent import box_orbits
from .matgroup import (
    MatGroup,
    _check_subgroup_bound,
    element_profiles,
    generate,
    is_prime,
    subgroup_conjugacy_classes,
    sylow,
)
from .selftest import run_all

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BOUND = 3

_OPTION_DEFAULTS = {
    "max_group_order": MAX_GROUP_ORDER,
    "cohomology_depth": MAX_RESOLUTION_DEPTH,
    "ball": 2,
    "audit": False,
}


class InputError(ValueError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InputError(message)


def _check_depth(depth: int) -> None:
    _require(1 <= depth <= MAX_RESOLUTION_DEPTH,
             f"cohomology depth must be between 1 and {MAX_RESOLUTION_DEPTH}")


def parse_jobspec(data: dict) -> tuple[MatGroup, int, dict]:
    """Validate a jobspec and build the group; returns (group, p, options)."""
    _require(isinstance(data, dict), "jobspec must be a JSON object")
    for key in ("n", "p", "generators"):
        _require(key in data, f"jobspec is missing {key!r}")
    n, p = data["n"], data["p"]
    # type() rather than isinstance(): JSON true and false are not integers here
    _require(type(n) is int and n >= 1, "n must be a positive integer")
    _require(type(p) is int and p < MAX_PRIMALITY,
             f"p must be an integer below {MAX_PRIMALITY}")
    _require(is_prime(p), "p must be a prime")
    gens = data["generators"]
    _require(isinstance(gens, list) and gens, "generators must be a nonempty list")
    for g in gens:
        _require(isinstance(g, list) and len(g) == n
                 and all(isinstance(row, list) and len(row) == n for row in g)
                 and all(type(x) is int for row in g for x in row),
                 f"each generator must be an {n}x{n} integer matrix")
    options = dict(_OPTION_DEFAULTS)
    extra = data.get("options", {})
    _require(isinstance(extra, dict), "options must be an object")
    for key, value in extra.items():
        _require(key in options, f"unknown option {key!r}")
        if key == "audit":
            _require(isinstance(value, bool), "audit must be a boolean")
        else:
            _require(type(value) is int and value >= 0,
                     f"option {key!r} must be a nonnegative integer")
        options[key] = value
    _check_depth(options["cohomology_depth"])
    _require(options["max_group_order"] <= MAX_GROUP_ORDER,
             f"max_group_order must be at most {MAX_GROUP_ORDER}")
    try:
        G = generate(gens, max_order=options["max_group_order"])
    except NonUnimodularError as exc:
        raise InputError(str(exc)) from exc
    return G, p, options


def _load_job(args) -> tuple[MatGroup, int, dict]:
    if args.builtin is not None:
        entry = corpus_entry(args.builtin)
        return entry.group(), entry.p, dict(_OPTION_DEFAULTS)
    try:
        if args.input in (None, "-"):
            raw = sys.stdin.read()
        else:
            with open(args.input, encoding="utf-8") as fh:
                raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read input: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    return parse_jobspec(data)


def _mu_json(mu) -> dict:
    value = "infinity" if mu.is_infinite else int(mu.value)
    return {"value": value, "exact": mu.exact}


def cmd_classify(args) -> tuple[int, dict]:
    G, p, options = _load_job(args)
    opts = ClassifyOptions(options["cohomology_depth"] - 1, args.audit or options["audit"])
    start = time.perf_counter()
    verdict = classify(G, p, opts)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    report = {
        "command": "classify",
        "group_order": G.order,
        "n": G.n,
        "p": p,
        "status": verdict.status,
        "rule": verdict.rule,
        "certificate": verdict.certificate,
        "notes": list(verdict.notes),
        "timings_ms": {"total": elapsed_ms},
    }
    return EXIT_OK, report


def cmd_analyze(args) -> tuple[int, dict]:
    G, p, options = _load_job(args)
    # refuse before any work: the classes need the subgroup lattice, and G is
    # the stabilizer of 0, so mu_action resolves G itself when p divides |G|
    _check_subgroup_bound(G.order)
    if G.order % p == 0:
        _check_resolution_bounds(G.order, options["cohomology_depth"])
    profiles = element_profiles(G)
    primes = sorted({q for q in range(2, G.order + 1) if is_prime(q) and G.order % q == 0})
    sylows = {}
    for q in primes:
        P = sylow(G, q)
        sylows[str(q)] = {
            "order": P.order,
            "generators": P.elements[list(P.small_generating_indices())].tolist(),
        }
    heights = []
    for cls in subgroup_conjugacy_classes(G):
        H = cls[0]
        heights.append({
            "order": H.order,
            "class_size": len(cls),
            "fixed_rank": H.fixed_rank(),
            "height": height_ir(H),
        })
    report_iso = isotropy_subgroups(G)
    iso = [{"order": H.order, "witness": list(w)} for H, w in report_iso.entries]
    mu = mu_action(G, p, options["cohomology_depth"] - 1, isotropy=report_iso)
    report = {
        "command": "analyze",
        "group_order": G.order,
        "n": G.n,
        "p": p,
        "element_profiles": [
            {"matrix": g, "order": pr.order, "rank_drop": pr.rank_drop,
             "is_reflection": pr.is_reflection, "is_bireflection": pr.is_bireflection}
            for g, pr in zip(G.elements.tolist(), profiles)
        ],
        "sylow": sylows,
        "subgroup_heights": heights,
        "isotropy": iso,
        "mu": _mu_json(mu),
    }
    return EXIT_OK, report


def cmd_cohomology(args) -> tuple[int, dict]:
    G, p, options = _load_job(args)
    depth = args.depth if args.depth is not None else options["cohomology_depth"]
    _check_depth(depth)
    res = resolution(G, p, depth)
    dims = [res.cohomology_dim(r) for r in range(depth)]
    mu = mu_from_resolution(res)
    report = {
        "command": "cohomology",
        "group_order": G.order,
        "p": p,
        "depth": depth,
        "free_ranks": list(res.ranks),
        "dims": dims,
        "mu_p": _mu_json(mu),
    }
    return EXIT_OK, report


def cmd_invariants(args) -> tuple[int, dict]:
    G, p, options = _load_job(args)
    ball = args.ball if args.ball is not None else options["ball"]
    _require(0 <= ball <= MAX_BOX_RADIUS, f"ball must be between 0 and {MAX_BOX_RADIUS}")
    orbits, burnside = box_orbits(G, ball)
    report = {
        "command": "invariants",
        "group_order": G.order,
        "p": p,
        "ball": ball,
        "dim": len(orbits),
        "burnside": burnside,
        "orbit_sums": _orbit_sums_json(G.n, orbits),
    }
    return EXIT_OK, report


class _JsonText(str):
    """A report value already written as canonical JSON."""


def _orbit_sums_json(n: int, orbits: list) -> _JsonText:
    """The orbit sums as canonical JSON: per orbit, a list of {"coeff": 1,
    "exponents": point} objects with sorted keys, as ``json.dumps`` writes
    them.  One format string per point, repeated per orbit size, takes every
    coordinate in one pass."""
    point = '{"coeff": 1, "exponents": [%s]}' % ", ".join(["%d"] * n)
    by_size = {k: "[" + ", ".join([point] * k) + "]" for k in {len(o) for o in orbits}}
    layout = ", ".join([by_size[len(o)] for o in orbits])
    return _JsonText("[" + layout % tuple(chain.from_iterable(chain.from_iterable(orbits))) + "]")


def _canonical_json(report: dict) -> str:
    """``json.dumps(report, sort_keys=True)``, with ``_JsonText`` values
    written as they stand."""
    if not any(isinstance(v, _JsonText) for v in report.values()):
        return json.dumps(report, sort_keys=True)
    return "{" + ", ".join(
        f"{json.dumps(k)}: {v if isinstance(v, _JsonText) else json.dumps(v, sort_keys=True)}"
        for k, v in sorted(report.items())) + "}"


def cmd_selftest(_args) -> tuple[int, dict]:
    results = run_all()
    report = {
        "command": "selftest",
        "criteria": [
            {"key": r.key, "description": r.description, "passed": r.passed,
             "detail": r.detail, "elapsed_ms": r.elapsed_ms}
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    code = EXIT_OK if report["passed"] else EXIT_SELFTEST_FAILED
    return code, report


def _render_human(report: dict) -> str:
    lines = []
    cmd = report.get("command", "?")
    if cmd == "classify":
        lines.append(f"verdict : {report['status']} (rule {report['rule']})")
        lines.append(f"group   : order {report['group_order']} in GL_{report['n']}(Z), p = {report['p']}")
        lines.append(f"certificate: {json.dumps(report['certificate'], sort_keys=True)}")
        for note in report["notes"]:
            lines.append(f"note    : {note}")
    elif cmd == "analyze":
        lines.append(f"group order {report['group_order']}, rank {report['n']}, p = {report['p']}")
        lines.append(f"mu = {report['mu']['value']} (exact={report['mu']['exact']})")
        lines.append("subgroup classes (order, class size, fixed rank, height):")
        for h in report["subgroup_heights"]:
            lines.append(f"  {h['order']:>4} {h['class_size']:>4} {h['fixed_rank']:>4} {h['height']:>4}")
        lines.append("realizable stabilizers (order @ witness):")
        for entry in report["isotropy"]:
            lines.append(f"  {entry['order']} @ {tuple(entry['witness'])}")
    elif cmd == "cohomology":
        lines.append(f"dims of H^r for r = 0..{report['depth'] - 1}: {report['dims']}")
        lines.append(f"mu_p = {report['mu_p']['value']} (exact={report['mu_p']['exact']})")
    elif cmd == "invariants":
        lines.append(f"ball {report['ball']}: dimension {report['dim']} "
                     f"(averaged recount {report['burnside']})")
        lines.append(f"{report['dim']} orbit sums")
    elif cmd == "selftest":
        for c in report["criteria"]:
            mark = "PASS" if c["passed"] else "FAIL"
            lines.append(f"[{mark}] {c['key']}: {c['description']} ({c['elapsed_ms']} ms)")
            if not c["passed"]:
                lines.append(f"       {c['detail']}")
        lines.append("all criteria passed" if report["passed"] else "FAILURES present")
    return "\n".join(lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="multinv",
        description="analyze finite integer matrix group actions on Laurent "
                    "polynomial rings over F_p")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--human", action="store_true",
                        help="render a table instead of JSON")

    def add_source(sp):
        sp.add_argument("--input", help="jobspec JSON file, or - for stdin")
        sp.add_argument("--builtin", choices=corpus_names(),
                        help="use a built-in corpus group")

    sp = sub.add_parser("classify", help="Cohen-Macaulay verdict with certificate")
    add_common(sp)
    add_source(sp)
    sp.add_argument("--audit", action="store_true",
                    help="evaluate every rule and assert consistency")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("analyze", help="orders, profiles, heights, stabilizers, mu")
    add_common(sp)
    add_source(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("cohomology", help="cohomology dimension table and mu_p")
    add_common(sp)
    sp.add_argument("--group", dest="builtin", choices=corpus_names(),
                    help="built-in corpus group")
    sp.add_argument("--input", help="jobspec JSON file, or - for stdin")
    sp.add_argument("--depth", type=int, help=f"truncation depth (<= {MAX_RESOLUTION_DEPTH})")
    sp.set_defaults(func=cmd_cohomology)

    sp = sub.add_parser("invariants", help="orbit-sum basis in a box of exponents")
    add_common(sp)
    add_source(sp)
    sp.add_argument("--ball", type=int, help="infinity-norm radius of the box")
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("selftest", help="run the built-in acceptance criteria")
    add_common(sp)
    sp.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, report = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    if args.human:
        print(_render_human(report))
    else:
        print(_canonical_json(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
