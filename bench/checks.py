"""Output checks, run outside the timed region.

Each check takes the job, its exit code and its JSON report and returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import os

from multinv.action import stabilizer
from multinv.classify import Verdict, verify_certificate
from multinv.cohomology import mu_p_formula
from multinv.matgroup import generate, sylow

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


class Checker:
    """Checks reports against the jobspec's group and the reference table."""

    def __init__(self, workload: str):
        with open(REFERENCE_PATH) as fh:
            self._expected = json.load(fh).get(workload, {})
        self._groups: dict[str, object] = {}

    def group(self, job):
        # jobs sharing a key share their generators within one run
        if job.key not in self._groups:
            self._groups[job.key] = generate(job.generators)
        return self._groups[job.key]

    def check(self, job, code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"report is not JSON: {exc}"]
        G = self.group(job)
        problems = []
        if report.get("command") != job.command:
            problems.append(f"command {report.get('command')!r}")
        if report.get("group_order") != G.order or report.get("p") != job.p:
            problems.append("group order or prime differs from the jobspec")
        if problems:
            return problems
        return getattr(self, f"_{job.command}")(job, report, G)

    def _classify(self, job, report, G) -> list[str]:
        problems = []
        expected = self._expected.get(job.key)
        got = [report["status"], report["rule"]]
        if expected is None:
            problems.append("no reference verdict")
        elif got != expected:
            problems.append(f"verdict {got} differs from reference {expected}")
        verdict = Verdict(report["status"], report["rule"], report["certificate"],
                          tuple(report["notes"]))
        if not verify_certificate(G, job.p, verdict):
            problems.append("certificate does not verify")
        return problems

    def _cohomology(self, job, report, G) -> list[str]:
        depth, dims, mu = report["depth"], report["dims"], report["mu_p"]
        problems = []
        if len(dims) != depth:
            problems.append(f"{len(dims)} dims for depth {depth}")
        first = next((r for r in range(1, len(dims)) if dims[r]), None)
        if G.order % job.p:
            if mu != {"value": "infinity", "exact": True} or first is not None:
                problems.append("p does not divide |G| but cohomology is nonzero")
        elif first is not None:
            if mu != {"value": first, "exact": True}:
                problems.append(f"mu_p {mu} but first nonzero dim is in degree {first}")
        elif mu != {"value": depth, "exact": False}:
            problems.append(f"mu_p {mu} but dims vanish up to degree {depth - 1}")
        if G.order % job.p == 0 and sylow(G, job.p).order == job.p:
            formula = mu_p_formula(G, job.p)
            expect = ({"value": formula, "exact": True} if formula < depth
                      else {"value": depth, "exact": False})
            if mu != expect:
                problems.append(f"mu_p {mu} disagrees with the closed form {formula}")
        return problems

    def _invariants(self, job, report, G) -> list[str]:
        problems = []
        if report["dim"] != report["burnside"]:
            problems.append(f"dim {report['dim']} != burnside {report['burnside']}")
        if len(report["orbit_sums"]) != report["dim"]:
            problems.append(f"{len(report['orbit_sums'])} orbit sums for dim {report['dim']}")
        return problems

    def _analyze(self, job, report, G) -> list[str]:
        problems = []
        for entry in report["isotropy"]:
            order = stabilizer(G, entry["witness"]).order
            if order != entry["order"]:
                problems.append(f"witness {entry['witness']} has stabilizer of order "
                                f"{order}, reported {entry['order']}")
        return problems
