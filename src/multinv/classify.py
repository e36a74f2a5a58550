"""Cohen-Macaulay classification of F_p[Z^n]^G with checkable certificates.

The decision procedure fires the first applicable rule in a fixed order:

  R1  CM     p does not divide |G| (the averaging map splits the inclusion).
  R2  CM     G is generated by reflections (rank(g-1) <= 1); the invariants
             form an affine normal semigroup algebra.
  R3  CM     rank of A/A^P is at most 2 for a Sylow p-subgroup P.
  R4  CM     P is generated by reflections, R2 on P (indices prime to p
             transfer the property from R^P up to R^G; R1 and R3 on P are
             R1 and R3 on G).
  R5  NotCM  P is cyclic, G has a nontrivial p-group quotient, and no
             generator of P is a bireflection (rank(g-1) <= 2).
  R6  CM/NotCM  P acts fixed-point-freely; then CM holds iff n <= mu + 1,
             where mu is the least positive degree with nonvanishing
             action cohomology.  G is then the only realizable stabilizer
             of order divisible by p, so mu = mu_p(G), read with no
             subgroup lattice.
  R7  NotCM  |P| = p and n - rank A^P exceeds 2*[N_G(P):C_G(P)].
  R8  Unknown, listing why each rule was inapplicable.

The criteria overlap; audit mode evaluates every rule and raises
InconsistentRulesError if a CM rule and a NotCM rule ever both apply, which
turns the overlap into a correctness check.  A rule that passes a resource
limit is inapplicable, and a note names the limit and the skipped rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .cohomology import INFINITY, MuValue, check_resolution_order, mu_from_resolution, mu_p, resolution
from .errors import MAX_RESOLUTION_DEPTH, BoundExceededError
from .intlinalg import fixed_lattice
from .matgroup import (
    MatGroup,
    has_cyclic_sylow,
    is_fixed_point_free,
    is_prime,
    op_core,
    subgroup_structure,
    sylow,
)

CM = "CM"
NOT_CM = "NotCM"
UNKNOWN = "Unknown"


class InconsistentRulesError(RuntimeError):
    """A CM rule and a NotCM rule both applied to the same input."""


@dataclass
class ClassifyOptions:
    cohomology_depth: int = MAX_RESOLUTION_DEPTH
    audit: bool = False


@dataclass(frozen=True)
class Verdict:
    status: str
    rule: str
    certificate: dict
    notes: tuple[str, ...] = ()


class _Context:
    """Lazy per-input facts shared by the rule evaluators."""

    def __init__(self, G: MatGroup, p: int, opts: ClassifyOptions):
        self.G = G
        self.p = p
        self.opts = opts
        self.notes: list[str] = []

    @cached_property
    def sylow(self) -> MatGroup:
        return sylow(self.G, self.p)

    @cached_property
    def rank_drops(self) -> list[int]:
        n = self.G.n
        return [n - r for r in self.G.element_fixed_ranks()]

    @cached_property
    def moved_rank(self) -> int:
        """rank of A / A^P for the chosen Sylow subgroup: n - tr(S_P)/|P|."""
        return self.G.n - self.sylow.fixed_rank()


def _rule_r1(ctx: _Context):
    if ctx.G.order % ctx.p != 0:
        cert = {"group_order": ctx.G.order, "p": ctx.p}
        return (CM, cert), None
    return None, f"p = {ctx.p} divides the group order {ctx.G.order}"


def _rule_r2(ctx: _Context):
    drops = ctx.rank_drops
    reflections = [i for i in range(ctx.G.order) if drops[i] <= 1]
    span = ctx.G.closure_indices(reflections)
    if len(span) == ctx.G.order:
        chosen = list(ctx.G.small_generating_indices(reflections))
        cert = {"reflection_generators": ctx.G.elements[chosen].tolist()}
        return (CM, cert), None
    return None, (f"reflections generate a subgroup of order {len(span)} "
                  f"inside order {ctx.G.order}")


def _rule_r3(ctx: _Context):
    if ctx.moved_rank <= 2:
        P = ctx.sylow
        cert = {
            "sylow_order": P.order,
            "moved_rank": ctx.moved_rank,
            "sylow_generators": P.elements[list(P.small_generating_indices())].tolist(),
        }
        return (CM, cert), None
    return None, f"rank A/A^P = {ctx.moved_rank} > 2"


def _rule_r4(ctx: _Context):
    # R1 and R3 on P are R1 and R3 on G: P = 1 exactly when p does not
    # divide |G|, and P is its own Sylow subgroup, with G's moved rank
    outcome, reason = _rule_r2(_Context(ctx.sylow, ctx.p, ctx.opts))
    if outcome is None:
        return None, f"in the Sylow subgroup, {reason}"
    cert = {"sylow_order": ctx.sylow.order, "sylow_rule": "R2", "sylow_certificate": outcome[1]}
    return (CM, cert), None


def _rule_r5(ctx: _Context):
    P = ctx.sylow
    if P.order == 1:
        return None, "Sylow subgroup is trivial"
    if not has_cyclic_sylow(P, ctx.p):
        return None, "Sylow subgroup is not cyclic"
    core = op_core(ctx.G, ctx.p)
    if core.order == ctx.G.order:
        return None, "G has no nontrivial p-group quotient"
    # all generators of a cyclic P share the fixed lattice of P
    drop = ctx.moved_rank
    if drop <= 2:
        return None, "the Sylow generator is a bireflection"
    cert = {
        "sylow_order": P.order,
        "sylow_generator": P.elements[P.element_orders().index(P.order)].tolist(),
        "generator_rank_drop": drop,
        "p_quotient_order": ctx.G.order // core.order,
    }
    return (NOT_CM, cert), None


def _rule_r6(ctx: _Context):
    """mu of the action is mu_p(G) here, with the same value and exactness
    as ``mu_action`` on G's isotropy report, the least mu_p over the
    realizable stabilizers, since one of order prime to p gives the exact
    INFINITY.  The resolution order bound is checked first:
    ``verify_certificate`` re-reads mu from a plain resolution of G, so R6
    refuses where that would.

    Lemma: if P acts fixed-point-freely, G = Stab(0) is the only
    stabilizer of order divisible by p.  Suppose H = Stab(x) with x != 0 had
    p dividing |H|.  Then H holds an element h of order p, which lies in a
    conjugate gPg^-1 of P, so g^-1 h g, a nonidentity element of P, would
    fix g^-1 x != 0.
    """
    P = ctx.sylow
    if not is_fixed_point_free(P):
        return None, "Sylow subgroup does not act fixed-point-freely"
    check_resolution_order(ctx.G.order, ctx.p)
    mu = mu_p(ctx.G, ctx.p, ctx.opts.cohomology_depth)
    if not mu.exact:
        ctx.notes.append(
            f"mu undetermined: H^r nonzero first occurs above degree {mu.value - 1}")
        return None, "fixed-point-free, but mu exceeded the search limit"
    n = ctx.G.n
    cert = {"mu": mu.json_value, "dim": n, "fixed_point_free": True}
    status = CM if (mu.is_infinite or n <= mu.value + 1) else NOT_CM
    return (status, cert), None


def _rule_r7(ctx: _Context):
    P = ctx.sylow
    if P.order != ctx.p:
        return None, f"Sylow subgroup has order {P.order}, not exactly p"
    _, _, nc = subgroup_structure(ctx.G, P)
    height = ctx.moved_rank
    if height > 2 * nc:
        cert = {"sylow_order": P.order, "nc_index": nc, "sylow_height": height}
        return (NOT_CM, cert), None
    return None, f"height {height} <= 2*[N:C] = {2 * nc}"


_RULES = [
    ("R1", _rule_r1),
    ("R2", _rule_r2),
    ("R3", _rule_r3),
    ("R4", _rule_r4),
    ("R5", _rule_r5),
    ("R6", _rule_r6),
    ("R7", _rule_r7),
]


def _evaluate(G: MatGroup, p: int, opts: ClassifyOptions):
    """The rule evaluations up to the first hit (all when auditing), and the notes."""
    ctx = _Context(G, p, opts)
    evaluations: list[tuple[str, tuple | None, str | None]] = []
    for rule_id, fn in _RULES:
        try:
            outcome, reason = fn(ctx)
        except BoundExceededError as exc:
            outcome, reason = None, f"bound exceeded: {exc}"
            ctx.notes.append(f"{rule_id} skipped: {reason}")
        evaluations.append((rule_id, outcome, reason))
        if outcome is not None and not opts.audit:
            break
    return evaluations, tuple(ctx.notes)


def classify(G: MatGroup, p: int, opts: ClassifyOptions | None = None) -> Verdict:
    """Render the Cohen-Macaulay verdict for F_p[Z^n]^G.

    In audit mode every rule is evaluated and a CM/NotCM conflict raises
    InconsistentRulesError; otherwise evaluation stops at the first hit.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    opts = opts or ClassifyOptions()
    evaluations, notes = _evaluate(G, p, opts)
    if opts.audit:
        statuses = {out[0] for _, out, _ in evaluations if out is not None}
        if CM in statuses and NOT_CM in statuses:
            detail = {rid: out[0] for rid, out, _ in evaluations if out is not None}
            raise InconsistentRulesError(f"conflicting applicable rules: {detail}")
    for rule_id, outcome, _ in evaluations:
        if outcome is not None:
            status, cert = outcome
            return Verdict(status, rule_id, cert, notes)
    inapplicable = [{"rule": rid, "reason": reason} for rid, _, reason in evaluations]
    return Verdict(UNKNOWN, "R8", {"inapplicable": inapplicable}, notes)


def applicable_rules(G: MatGroup, p: int,
                     opts: ClassifyOptions | None = None) -> dict[str, str]:
    """Map rule id -> status for every applicable rule (audit helper)."""
    evaluations, _ = _evaluate(G, p, replace(opts or ClassifyOptions(), audit=True))
    return {rid: out[0] for rid, out, _ in evaluations if out is not None}


# the keys of each rule's certificate, each with the exact type of its value
# (None where the value is a matrix or a nested certificate, checked where it
# is read); verify_certificate rejects a missing key or a value of another
# type, so a bool or a float never stands in for an integer
_CERTIFICATE_KEYS = {
    "R1": {"group_order": int, "p": int},
    "R2": {"reflection_generators": None},
    "R3": {"sylow_order": int, "moved_rank": int, "sylow_generators": None},
    "R4": {"sylow_order": int, "sylow_rule": str, "sylow_certificate": None},
    "R5": {"sylow_order": int, "sylow_generator": None, "generator_rank_drop": int,
           "p_quotient_order": int},
    "R6": {"mu": None, "dim": int, "fixed_point_free": bool},
    "R7": {"sylow_order": int, "nc_index": int, "sylow_height": int},
    "R8": {"inapplicable": None},
}


def _cited_indices(G: MatGroup, mats) -> list[int] | None:
    """The indices in G of the cited matrices; None when one is not an
    integer matrix (ragged, say) or not an element of G."""
    try:
        idx = [G.index_of(m) for m in mats]
    except (TypeError, ValueError):
        return None
    return None if None in idx else idx


def verify_certificate(G: MatGroup, p: int, verdict: Verdict) -> bool:
    """Re-run the cited test on the certificate data.  A certificate that
    lacks a key of its rule, holds a value of the wrong type or cites a
    malformed matrix is rejected."""
    cert, keys = verdict.certificate, _CERTIFICATE_KEYS.get(verdict.rule)
    if keys is None or not isinstance(cert, dict) or not keys.keys() <= cert.keys():
        return False
    if any(t is not None and type(cert[k]) is not t for k, t in keys.items()):
        return False
    if verdict.rule == "R1":
        return (cert["group_order"] == G.order and cert["p"] == p
                and G.order % p != 0 and verdict.status == CM)
    if verdict.rule == "R2":
        idx = _cited_indices(G, cert["reflection_generators"])
        if idx is None or any(G.n - fixed_lattice([G.elements[i]]).rank > 1 for i in idx):
            return False
        return len(G.closure_indices(idx)) == G.order and verdict.status == CM
    if verdict.rule == "R3":
        P = sylow(G, p)
        idx = _cited_indices(P, cert["sylow_generators"])
        if idx is None or len(P.closure_indices(idx)) != P.order:
            return False
        moved = G.n - fixed_lattice(P.elements).rank
        return (moved == cert["moved_rank"] and moved <= 2
                and P.order == cert["sylow_order"] and verdict.status == CM)
    if verdict.rule == "R4":
        P = sylow(G, p)
        # _rule_r4 nests only these, so no chain of R4 certificates recurses
        if P.order != cert["sylow_order"] or cert["sylow_rule"] not in ("R1", "R2", "R3"):
            return False
        sub_verdict = Verdict(CM, cert["sylow_rule"], cert["sylow_certificate"])
        return verify_certificate(P, p, sub_verdict) and verdict.status == CM
    if verdict.rule == "R5":
        P = sylow(G, p)
        if P.order != cert["sylow_order"] or cert["p_quotient_order"] <= 1:
            return False
        gi = _cited_indices(P, [cert["sylow_generator"]])
        if gi is None or P.element_orders()[gi[0]] != P.order:
            return False
        drop = G.n - fixed_lattice([P.elements[gi[0]]]).rank
        core = op_core(G, p)
        return (drop == cert["generator_rank_drop"] and drop > 2
                and G.order // core.order == cert["p_quotient_order"]
                and verdict.status == NOT_CM)
    if verdict.rule == "R6":
        # a search through the claimed mu, at depth mu + 1, finds a smaller mu
        # and misses a larger one.  By _rule_r6's lemma G is then the only
        # realizable stabilizer of order divisible by p, so mu of the action
        # is mu_p(G), re-read with none of mu_p's shortcuts from a resolution
        # of G/O_p'(G), which has G's cohomology; the resolution re-checks
        # that the core is a normal subgroup of order prime to p
        claimed = 0 if cert["mu"] == "infinity" else cert["mu"]
        if type(claimed) is not int or not 0 <= claimed < MAX_RESOLUTION_DEPTH:
            return False
        P = sylow(G, p)
        if cert["fixed_point_free"] is not True or not is_fixed_point_free(P):
            return False
        try:
            mu = (MuValue(INFINITY, True) if G.order % p
                  else mu_from_resolution(resolution(G, p, claimed + 1)))
        except BoundExceededError:  # no R6 verdict is made past a limit
            return False
        if not mu.exact:
            return False
        if mu.json_value != cert["mu"] or cert["dim"] != G.n:
            return False
        cm = mu.is_infinite or G.n <= mu.value + 1
        return verdict.status == (CM if cm else NOT_CM)
    if verdict.rule == "R7":
        P = sylow(G, p)
        if P.order != p or cert["sylow_order"] != p:
            return False
        _, _, nc = subgroup_structure(G, P)
        height = G.n - fixed_lattice(P.elements).rank
        return (nc == cert["nc_index"] and height == cert["sylow_height"]
                and height > 2 * nc and verdict.status == NOT_CM)
    if verdict.rule == "R8":
        return verdict.status == UNKNOWN
    return False
