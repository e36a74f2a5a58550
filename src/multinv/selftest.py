"""Acceptance checks over the built-in corpus.

Each criterion is a self-contained function returning (passed, detail); the
runner times it and enforces the stated budget.  The same criteria back the
CLI ``selftest`` command and the pytest acceptance module.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .classify import ClassifyOptions, applicable_rules, classify, verify_certificate
from .cohomology import (
    cohomology_table,
    mu_from_resolution,
    mu_p,
    mu_p_formula,
    resolution,
)
from .corpus import classification_cases, corpus_entry, corpus_group, corpus_names
from .errors import MAX_RESOLUTION_DEPTH
from .intlinalg import (
    det,
    diagonal_of,
    fixed_lattice,
    intmat,
    moved_lattice,
    snf,
    unimodular_inverse,
)
from .laurent import box_orbits, check_g1_decomposition
from .matgroup import generate, has_cyclic_sylow, op_core, subgroups, sylow


@dataclass(frozen=True)
class CriterionResult:
    key: str
    description: str
    passed: bool
    detail: str
    elapsed_ms: int


def _inversion_family():
    expected = {1: "CM", 2: "CM", 3: "NotCM", 4: "NotCM", 5: "NotCM"}
    lines = []
    for n, status in expected.items():
        G, p = corpus_group(f"inversion{n}")
        verdict = classify(G, p)
        if verdict.status != status:
            return False, f"n={n}: got {verdict.status} ({verdict.rule}), wanted {status}"
        if not verify_certificate(G, p, verdict):
            return False, f"n={n}: certificate for {verdict.rule} failed re-verification"
        lines.append(f"n={n}:{verdict.status}/{verdict.rule}")
    return True, " ".join(lines)


def _mu_formula_agreement():
    z2, _ = corpus_group("inversion1")
    z3, _ = corpus_group("rot3")
    z4, _ = corpus_group("rot4")
    s3 = corpus_entry("s3").group()
    cases = [("Z/2", z2, 2, 1), ("Z/3", z3, 3, 1), ("Z/4", z4, 2, 1),
             ("S3", s3, 2, 1), ("S3", s3, 3, 3)]
    lines = []
    for name, G, p, expected in cases:
        # mu_p may stop before any resolution, so the full resolution is read too
        full = mu_from_resolution(resolution(G, p, MAX_RESOLUTION_DEPTH))
        for how, mu in (("mu_p", mu_p(G, p)), ("resolution", full)):
            if not mu.exact or mu.value != expected:
                return False, f"mu_{p}({name}) by {how} = {mu}, expected exact {expected}"
        if has_cyclic_sylow(G, p):
            formula = mu_p_formula(G, p)
            if formula != full.value:
                return False, (f"{name}, p={p}: resolution gives {full.value}, "
                               f"closed form gives {formula}")
            lines.append(f"{name}@{p}={full.value}(=formula)")
        else:
            lines.append(f"{name}@{p}={full.value}")
    return True, " ".join(lines)


def _cohomology_tables():
    z2, _ = corpus_group("inversion1")
    res2 = resolution(z2, 2, 9)
    dims2 = [res2.cohomology_dim(r) for r in range(9)]
    if dims2 != [1] * 9:
        return False, f"Z/2 dims {dims2}"
    z3, _ = corpus_group("rot3")
    res3 = resolution(z3, 3, 9)
    dims3 = [res3.cohomology_dim(r) for r in range(9)]
    if dims3 != [1] * 9:
        return False, f"Z/3 dims {dims3}"
    s3 = corpus_entry("s3").group()
    res = resolution(s3, 3, 7)
    dims = [res.cohomology_dim(r) for r in range(7)]
    if dims != [1, 0, 0, 1, 1, 0, 0]:
        return False, f"S3 mod 3 dims {dims}"
    return True, f"Z/2:{dims2} Z/3:{dims3} S3@3:{dims}"


def _sylow_invariants():
    cases = []
    for name in corpus_names():
        G, _ = corpus_group(name)
        for p in (2, 3):
            table = cohomology_table(G, p, 6)
            if table.route != "sylow-invariants":
                continue
            res = resolution(G, p, 6)
            dims = tuple(res.cohomology_dim(r) for r in range(6))
            mu = mu_from_resolution(res)
            if (table.dims, table.mu) != (dims, mu):
                return False, (f"{name}@{p}: Sylow invariants give {table.dims}, {table.mu}; "
                               f"the resolution gives {dims}, {mu}")
            cases.append(f"{name}@{p}")
    if not cases:
        return False, "no corpus group took the Sylow route"
    return True, f"{len(cases)} cases agree to depth 6: " + " ".join(cases)


def _rank_duality():
    instances = 0
    for name in corpus_names():
        G, _ = corpus_group(name)
        for H in subgroups(G):
            fr = fixed_lattice(H.elements).rank
            mr = moved_lattice(H.elements).rank
            if fr + mr != G.n:
                return False, f"{name}: subgroup of order {H.order} has {fr}+{mr} != {G.n}"
            instances += 1
    if instances < 50:
        return False, f"only {instances} subgroup instances"
    return True, f"{instances} subgroup instances, all dual"


def _burnside_double_count():
    checked = 0
    for name in corpus_names():
        G, _ = corpus_group(name)
        if G.n > 4:
            continue
        for B in (0, 1, 2):
            _, sizes, burn = box_orbits(G, B)
            if len(sizes) != burn:
                return False, f"{name} B={B}: orbit count {len(sizes)} != averaged count {burn}"
            checked += 1
    return True, f"{checked} (group, ball) pairs agree"


def _ball_decomposition():
    dims = []
    for B in (1, 2, 3):
        report = check_g1_decomposition(2, B)
        if not report.holds:
            return False, (f"B={B}: {report.dim_invariants} != "
                           f"{report.dim_base}+{report.dim_twisted} "
                           f"(direct={report.is_direct_sum})")
        dims.append(f"B={B}:{report.dim_invariants}={report.dim_base}+{report.dim_twisted}")
    return True, " ".join(dims)


def _sylow_order_bound():
    hits = []
    for name, G, p in classification_cases():
        P = sylow(G, p)
        if P.order == 1:
            continue
        if not has_cyclic_sylow(G, p):
            continue
        if op_core(G, p).order == G.order:
            continue
        moved = G.n - fixed_lattice(P.elements).rank
        if moved <= 2:  # generated by a bireflection
            if P.order not in (2, 3, 4):
                return False, f"{name}: bireflection-generated Sylow of order {P.order}"
            hits.append(f"{name}:{P.order}")
    if not hits:
        return False, "no corpus input exercised the bound"
    return True, " ".join(hits)


def _random_unimodular(rng: random.Random, n: int):
    mats = []
    for _ in range(6):
        kind = rng.randrange(3)
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        if kind == 0 and n >= 2:  # shear
            i, j = rng.sample(range(n), 2)
            rows[i][j] = rng.choice([-2, -1, 1, 2])
        elif kind == 1 and n >= 2:  # swap
            i, j = rng.sample(range(n), 2)
            rows[i][i] = rows[j][j] = 0
            rows[i][j] = rows[j][i] = 1
        else:  # sign flip
            i = rng.randrange(n)
            rows[i][i] = -1
        mats.append(intmat(rows))
    T = mats[0]
    for m in mats[1:]:
        T = T @ m
    return T, unimodular_inverse(T)


def _classifier_soundness():
    rng = random.Random(20250311)
    opts = ClassifyOptions(audit=True)
    lines = []
    for name, G, p in classification_cases():
        rules = applicable_rules(G, p)
        statuses = {s for s in rules.values()}
        if "CM" in statuses and "NotCM" in statuses:
            return False, f"{name}: conflicting rules {rules}"
        base = classify(G, p, opts)
        for trial in range(10):
            T, Tinv = _random_unimodular(rng, G.n)
            conj = generate([T @ g @ Tinv for g in G.generators])
            moved = classify(conj, p, opts)
            if (moved.status, moved.rule) != (base.status, base.rule):
                return False, (f"{name} trial {trial}: {base.status}/{base.rule} "
                               f"became {moved.status}/{moved.rule}")
        lines.append(f"{name}:{base.status}/{base.rule}")
    return True, " ".join(lines)


def _snf_random_properties():
    rng = random.Random(987123)
    for trial in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        M = intmat([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        S, U, V = snf(M)
        prod = U @ M @ V
        if not all(int(x) == int(y) for x, y in zip(prod.flat, S.flat)):
            return False, f"trial {trial}: U M V != S"
        for i in range(rows):
            for j in range(cols):
                if i != j and int(S[i, j]) != 0:
                    return False, f"trial {trial}: S not diagonal"
        diag = diagonal_of(S)
        for a, b in zip(diag, diag[1:]):
            if a == 0 and b != 0:
                return False, f"trial {trial}: zero before nonzero in chain"
            if a != 0 and b % a != 0:
                return False, f"trial {trial}: {a} does not divide {b}"
        if any(d < 0 for d in diag):
            return False, f"trial {trial}: negative invariant factor"
        if abs(det(U)) != 1 or abs(det(V)) != 1:
            return False, f"trial {trial}: transforms not unimodular"
    return True, "1000 random matrices"


_CRITERIA = [
    ("inversion-family", "inversion family verdicts with certificates", _inversion_family, 1.0),
    ("mu-formula", "mu from resolutions matches the closed form", _mu_formula_agreement, 10.0),
    ("cohomology-tables", "cohomology dimension tables", _cohomology_tables, None),
    ("sylow-invariants", "Sylow invariants match a plain resolution on the corpus at p = 2, 3",
     _sylow_invariants, 5.0),
    ("rank-duality", "fixed rank + moved rank = n over the subgroup lattice", _rank_duality, None),
    ("burnside", "orbit count equals averaged fixed-point count", _burnside_double_count, None),
    ("ball-decomposition", "invariant decomposition in truncation balls", _ball_decomposition, 30.0),
    ("sylow-order-bound", "bireflection-generated cyclic Sylow orders lie in {2,3,4}",
     _sylow_order_bound, None),
    ("classifier-soundness", "no rule conflicts; verdicts stable under conjugation",
     _classifier_soundness, None),
    ("snf-properties", "random Smith form transforms are exact and unimodular",
     _snf_random_properties, 5.0),
]


def criterion_keys() -> list[str]:
    return [key for key, _, _, _ in _CRITERIA]


def run_criterion(key: str) -> CriterionResult:
    for k, description, fn, budget in _CRITERIA:
        if k != key:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # honest failure, never a crash
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed > budget:
            passed = False
            detail += f" [exceeded {budget:.0f}s budget]"
        return CriterionResult(k, description, passed, detail, int(elapsed * 1000))
    raise KeyError(f"unknown criterion {key!r}")


def run_all() -> list[CriterionResult]:
    return [run_criterion(key) for key in criterion_keys()]
