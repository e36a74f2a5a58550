"""Seeded job lists for the two benchmark workloads.

A job is one ``multinv`` CLI call: an argv list whose ``--input`` names a
jobspec file written during set-up.  The seed draws a unimodular basis change
``Q`` per lattice rank, applied to every input group as ``g -> Q g Q^-1``,
and the order in which the jobs run.  Status and rule of a verdict do not
depend on the basis, so the expected verdicts in ``reference.json`` are keyed
by group and prime only.

Workloads:

* ``census``:  ``classify --audit`` on every subgroup of the four maximal
  finite subgroups of GL_3(Z), at p = 2 and p = 3 (696 short jobs).
* ``explore``: ``cohomology --depth 5``, ``analyze`` at a dividing prime and
  ``invariants --ball`` on the corpus and on the B3 conjugacy-class
  representatives of order at most 12, at p = 2 and p = 3.  Its basis change
  is a signed permutation, because ``invariants --ball`` counts orbits in a
  box of exponents and only those bases map the box onto itself.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from multinv.corpus import corpus_names, corpus_entry
from multinv.matgroup import generate, subgroup_conjugacy_classes, subgroups

PRIMES = (2, 3)
EXPLORE_DEPTH = 5
# the box has 7^n points: under a second for every explore group (n <= 5)
EXPLORE_BALL = 3
# mu search depth for explore's analyze jobs; the CLI default of 10 lets a
# single order-24 job run for seconds
EXPLORE_ANALYZE_DEPTH = 4
CENSUS_SUBGROUP_COUNTS = {"P": 98, "F": 98, "I": 98, "H": 54}


@dataclass
class Job:
    """One CLI call: ``key`` names the input up to basis change."""

    key: str
    command: str
    flags: tuple[str, ...]
    n: int
    p: int
    generators: list
    options: dict = field(default_factory=dict)
    path: str = ""

    @property
    def name(self) -> str:
        return " ".join((self.command, *self.flags, self.key))

    def argv(self) -> list[str]:
        return [self.command, *self.flags, "--input", self.path]

    def jobspec(self) -> dict:
        spec = {"n": self.n, "p": self.p, "generators": self.generators}
        if self.options:
            spec["options"] = self.options
        return spec


# -- integer matrices as lists ---------------------------------------------


def _eye(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _neg_eye(n: int) -> list[list[int]]:
    return [[-x for x in row] for row in _eye(n)]


def _mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _perm(n: int, images: dict[int, int]) -> list[list[int]]:
    # column j carries e_{images[j]} (defaults to e_j)
    return [[1 if images.get(j, j) == i else 0 for j in range(n)] for i in range(n)]


def _swaps(n: int) -> list[list[list[int]]]:
    return [_perm(n, {i: i + 1, i + 1: i}) for i in range(n - 1)]


def _diag(*entries: int) -> list[list[int]]:
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _b(n: int):
    """Signed permutation matrices (hyperoctahedral group, order 2^n n!)."""
    return _swaps(n) + [_diag(-1, *[1] * (n - 1))]


def _conjugate_rational(gens, basis):
    """basis^-1 g basis for each g; raises unless every result is integral."""
    n = len(basis)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(basis)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    basis_inv = [row[n:] for row in aug]
    out = []
    for g in gens:
        m = _mul(_mul(basis_inv, g), basis)
        if any(x.denominator != 1 for row in m for x in row):
            raise ValueError("basis change does not keep the group integral")
        out.append([[int(x) for x in row] for row in m])
    return out


def census_groups() -> dict[str, list]:
    """Generators of the four maximal finite subgroups of GL_3(Z)."""
    cubic = _b(3)
    return {
        "P": cubic,
        "F": _conjugate_rational(cubic, [[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
        "I": _conjugate_rational(cubic, [[-1, 1, 1], [1, -1, 1], [1, 1, -1]]),
        "H": [[[1, -1, 0], [1, 0, 0], [0, 0, 1]], _perm(3, {0: 1, 1: 0}), _neg_eye(3)],
    }


def _matrix(m) -> list[list[int]]:
    return [[int(x) for x in row] for row in m.tolist()]


def small_generators(H) -> list:
    idx = H.small_generating_indices() or (H.identity_index,)
    return [_matrix(H.elements[i]) for i in idx]


# -- seeded basis change ----------------------------------------------------


class BasisChange:
    """Q = S T with S a signed permutation and T an elementary transvection
    (T = I when ``transvection`` is false), one Q per lattice rank."""

    def __init__(self, rng: random.Random, transvection: bool = True):
        self._rng = rng
        self._transvection = transvection
        self._cache: dict[int, tuple[list, list]] = {}

    def _draw(self, n: int):
        rng = self._rng
        images = list(range(n))
        rng.shuffle(images)
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        s = [[signs[j] if images[j] == i else 0 for j in range(n)] for i in range(n)]
        s_inv = [list(col) for col in zip(*s)]
        t, t_inv = _eye(n), _eye(n)
        if self._transvection and n > 1:
            i, j = rng.sample(range(n), 2)
            e = rng.choice((-1, 1))
            t[i][j], t_inv[i][j] = e, -e
        return _mul(s, t), _mul(t_inv, s_inv)

    def conjugate(self, gens) -> list:
        n = len(gens[0])
        if n not in self._cache:
            self._cache[n] = self._draw(n)
        q, q_inv = self._cache[n]
        return [_mul(_mul(q, g), q_inv) for g in gens]


class _Identity:
    def conjugate(self, gens) -> list:
        return [[list(row) for row in g] for g in gens]


# -- job lists ----------------------------------------------------------------


def _census(basis) -> list[Job]:
    jobs = []
    for name, gens in census_groups().items():
        subs = subgroups(generate(gens))
        if len(subs) != CENSUS_SUBGROUP_COUNTS[name]:
            raise RuntimeError(f"census group {name} has {len(subs)} subgroups, "
                               f"expected {CENSUS_SUBGROUP_COUNTS[name]}")
        for i, H in enumerate(subs):
            conj = basis.conjugate(small_generators(H))
            for p in PRIMES:
                jobs.append(Job(f"{name}.{i}@{p}", "classify", ("--audit",), 3, p, conj))
    return jobs


def explore_groups() -> dict[str, list]:
    """The corpus plus the B3 conjugacy-class representatives of order <= 12."""
    groups = {name: [[list(row) for row in g] for g in corpus_entry(name).generators]
              for name in corpus_names()}
    B3 = generate(_b(3))
    for k, cls in enumerate(subgroup_conjugacy_classes(B3)):
        if cls[0].order <= 12:
            groups[f"B3c{k}"] = small_generators(cls[0])
    return groups


def _explore(basis) -> list[Job]:
    jobs = []
    for name, gens in explore_groups().items():
        conj = basis.conjugate(gens)
        n = len(conj[0])
        order = generate(gens).order
        for p in PRIMES:
            key = f"{name}@{p}"
            jobs.append(Job(key, "cohomology", ("--depth", str(EXPLORE_DEPTH)), n, p, conj))
            if order % p == 0:
                jobs.append(Job(key, "analyze", (), n, p, conj,
                                {"cohomology_depth": EXPLORE_ANALYZE_DEPTH}))
            jobs.append(Job(key, "invariants", ("--ball", str(EXPLORE_BALL)), n, p, conj))
    return jobs


def build_jobs(workload: str, seed: int | None) -> list[Job]:
    """The workload's job list in run order; ``seed=None`` keeps the
    identity basis and the listed order (used for the reference table)."""
    rng = random.Random(seed)
    basis = (_Identity() if seed is None
             else BasisChange(rng, transvection=workload != "explore"))
    jobs = {"census": _census, "explore": _explore}[workload](basis)
    if seed is not None:
        rng.shuffle(jobs)
    return jobs


def write_jobspecs(jobs: list[Job], directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for i, job in enumerate(jobs):
        job.path = os.path.join(directory, f"job{i:04d}.json")
        with open(job.path, "w") as fh:
            json.dump(job.jobspec(), fh)
