"""Mod-p group cohomology of finite groups, from the invariants of a Sylow
subgroup's cohomology or from truncated free resolutions.

The group is a ``MatGroup``; every finite group is one, through its
permutation matrices.

``cohomology_table``, which the ``cohomology`` command calls, takes the
first of two routes that applies:
- "sylow-invariants", when p divides |G| and the Sylow p-subgroup P is
  elementary abelian, which is asked by powers of G's elements modulo 2^64
  before any table or Sylow search.  For abelian P, restriction is an
  isomorphism of H^*(G, F_p) onto the N_G(P)-invariants of H^*(P, F_p)
  (Swan, The p-period of a finite group, Illinois J. Math. 4, 1960; Brown,
  Cohomology of Groups, III.10).  With V = Hom(P, F_p), the degree-r part
  M_r of H^*(P, F_p) is S^r V for p = 2 and the sum of Lambda^i V (x) S^j V
  over i + 2j = r for odd p, so dim H^r(G, F_p) = dim M_r less the
  ``rank_fp`` of the stack of rho_r(n) - 1 over the generators n of N_G(P)
  that act nontrivially on P.  No resolution is built.  The report keys are
  ``route`` and ``sylow_order`` = |P|.  The work bound is
  ``MAX_RESOLUTION_ENTRIES`` on (acting generators) * dim(M_r)^2 entries
  per degree, checked before anything is built; ``MAX_RESOLUTION_ORDER``
  does not apply, so ``cohomology --depth 10`` answers B4 (order 384) at
  p = 3, S5 and B5 (3840) at p = 3 and 5, S7 (5040) at p = 3, 5 and 7, and
  W(F4) (1152) at p = 3, which it refused before this route.
- "resolution" otherwise, p not dividing |G| included: the resolution
  below, under the depth and entry bounds, and under the order bound when
  p divides |G|.  The report keys are ``route``, ``free_ranks`` and
  ``resolved_order``.

F_p is resolved over F_p[G/K], where K = O_p'(G) is the largest normal
subgroup of order prime to p (``p_prime_core``).  H^r(K, F_p) = 0 for
r > 0, so the Lyndon-Hochschild-Serre spectral sequence collapses and
inflation H^*(G/K, F_p) -> H^*(G, F_p) is an isomorphism (Brown, Cohomology
of Groups, ch. VII): the smaller group gives the same dimensions and mu_p.
When p does not divide |G|, K = G, F_p[G/K] = F_p and the augmentation has
zero kernel, so the ranks are [1, 0, 0, ...]; for a p-group K = 1.
F_p[G/K] has the cosets as basis, numbered in the canonical order of their
first elements, and G's multiplication table gives their left translations.

A free resolution of the trivial module over F_p[G/K] is built degree by
degree: the kernel of each boundary map is computed as an F_p subspace, a
short list of module generators is extracted, and the next free module maps
onto them.  The generators are first a basis of the kernel modulo I*ker,
where I is the augmentation ideal; for a p-group I is the radical of its
group algebra, so by Nakayama that basis generates the kernel and the
resolution is minimal.  For other groups, kernel rows outside the module
generated so far are added until it is the whole kernel.

The picks are made in kernel coordinates.  The kernel basis that
``nullspace_fp`` returns is the identity on its free columns, so x -> x[free]
is injective on the kernel, and the kernel is a submodule, so each translate
g * v of a kernel row is known by its k free coordinates.  The spans behind
the picks (I*ker and the module generated so far) are then k wide, not
ranks[d] * |G/K|, and give the same rows in the same order.  The same holds
one degree up: the next boundary maps into that kernel, so only its rows at
the free columns are eliminated; they span the same row space as the whole
map, and ``nullspace_fp`` returns the same basis.

I*ker needs only a generating set S of G/K (the cosets of G's picks,
``small_generating_indices``), not every element: I is the sum of the right
ideals (s - 1) F_p[G/K] for s in S (Brown, ch. I-II), and the kernel is a
submodule, so I*ker is spanned by (s - 1) v for s in S and v in an F_p-basis
of the kernel.  The rows (s - 1) v of several generators go into one span
insert, in blocks of at most ``errors.BLOCK_ENTRIES`` entries.

Cohomology dimensions are read from the induced complex Hom(F_*, F_p): the
differential of that complex is the entry-wise augmentation of the boundary
matrices, so dim H^r is computed from the free ranks and the F_p ranks of two
augmented boundaries.  When G/K is a p-group the augmented boundaries vanish
and the dimensions coincide with the free ranks; otherwise a free resolution
with that property does not exist (projective covers are not free), and the
Hom complex is the honest route.  Each augmented boundary is
ranked once per resolution.

mu_p, the least r > 0 with H^r(G, F_p) != 0, takes the depth d that the
other calls take: it searches degrees 1..d-1, as ``cohomology_table`` and
``mu_from_resolution`` do, and d is its inexact marker when none of them
is nonzero; all three read it through one ``_mu``.  A negative depth is a
ValueError.  mu_p stops at its answer.  H^1(G, F_p) = Hom(G, F_p) is nonzero
exactly when G has a quotient of order p, that is when O^p(G) != G (Brown,
ch. III), so mu_p = 1 is read from ``matgroup.has_p_quotient``, with no
resolution.  When the Sylow p-subgroup P is cyclic
(``matgroup.has_cyclic_sylow``), of any order, mu_p = 2 [N_G(P):C_G(P)] - 1,
the closed form of ``mu_p_formula`` (Swan), again with no resolution.  When P
is elementary abelian, the Sylow invariants are read degree by degree up
to the first nonzero one.  Otherwise the resolution is extended one degree
at a time (``FpResolution.extend``, the step ``resolution`` repeats) until
the first nonzero H^r.  The depth limit is checked before any route, so it
trips as for a full search; the order limit only by ``FpResolution``,
before it reads G's table, so it applies where a resolution runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from .errors import (
    BLOCK_ENTRIES,
    MAX_RESOLUTION_DEPTH,
    MAX_RESOLUTION_ENTRIES,
    MAX_RESOLUTION_ORDER,
    BoundExceededError,
)
from .fparith import SpanFp, matmul_fp, nullspace_fp, rank_fp
from .matgroup import (
    MatGroup,
    has_cyclic_sylow,
    has_p_quotient,
    is_prime,
    p_part,
    p_prime_core,
    subgroup_structure,
    sylow,
)

INFINITY = math.inf


@dataclass(frozen=True)
class MuValue:
    """Least positive degree with nonvanishing cohomology.

    ``value`` is that degree, or INFINITY exactly when p does not divide the
    group order, or, inexact, the depth d of a search of degrees 1..d-1 that
    found none: the true value is at least d.
    """

    value: int | float
    exact: bool

    @property
    def is_infinite(self) -> bool:
        return self.value == INFINITY

    @property
    def json_value(self) -> int | str:
        """``value`` as every report writes it: "infinity" or an int."""
        return "infinity" if self.is_infinite else int(self.value)


def _check_input(group, p: int) -> None:
    """Refuse a group that is not a MatGroup, and a p that is not prime."""
    if not isinstance(group, MatGroup):
        raise TypeError("expected a MatGroup")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def check_resolution_order(order: int, p: int) -> None:
    """Refuse to resolve G when p divides |G| = ``order`` past
    ``MAX_RESOLUTION_ORDER``: |G| is the order of the table ``FpResolution``
    reads to find O_p'(G), which is G, with no table, when p does not."""
    if order % p == 0 and order > MAX_RESOLUTION_ORDER:
        raise BoundExceededError(f"group order {order} exceeds the resolution "
                                 f"order bound {MAX_RESOLUTION_ORDER}")


def check_resolution_depth(depth: int) -> None:
    """Refuse a negative depth (ValueError) and one past ``MAX_RESOLUTION_DEPTH``."""
    if depth < 0:
        raise ValueError(f"depth {depth} is negative")
    if depth > MAX_RESOLUTION_DEPTH:
        raise BoundExceededError(f"depth {depth} exceeds the resolution bound {MAX_RESOLUTION_DEPTH}")


class FpResolution:
    """Truncated free resolution of the trivial module over F_p[G/K], where
    K = O_p'(G) is the largest normal subgroup of order prime to p.

    H^*(G, F_p) is read from it: inflation from G/K is an isomorphism (see
    the module docstring), so ``cohomology_dim`` gives dim H^r(G, F_p).  K
    comes from ``p_prime_core`` and is re-checked here: a subgroup, normal
    under G's generators and of order prime to p, or a ValueError.  The
    cosets are numbered in the canonical order of their first elements, and
    the cosets of G's picks generate G/K.  ``resolved_order`` is |G/K|, the
    order of the group algebra the ``ranks`` are over; ``group_order`` is
    |G|.  When p does not divide |G|, K = G and the ranks are [1, 0, 0, ...];
    when K = 1 this is the resolution over F_p[G] itself.

    ``ranks[r]`` is the rank of the free module in homological degree r;
    ``generator_images[r-1]`` holds the images of the free basis of degree r
    in degree r-1, one column per module generator, in the coset basis.
    Only these are stored: ``boundary(r)``, the full F_p matrix of the
    boundary map, is rebuilt from them by translation when needed.  A new
    resolution has depth 0 (F_0 = F_p[G/K] with the augmentation); ``extend``
    adds one degree.
    """

    def __init__(self, p: int, G: MatGroup):
        self.p = p
        self.group_order = G.order
        check_resolution_order(G.order, p)
        core = p_prime_core(G, p)
        if len(core) == G.order and G.order % p:  # K = G: one coset, and no table
            self._perms, picks = np.zeros((1, 1), dtype=np.intp), {}
        else:
            _check_core(G, p, core)
            # number the cosets gK in the canonical order of their first elements
            table = G.mult_table()
            labels = [-1] * G.order
            reps: list[int] = []
            for g in range(G.order):
                if labels[g] < 0:
                    for k in core:
                        labels[table[g][k]] = len(reps)
                    reps.append(g)
            labels = np.array(labels, dtype=np.intp)
            self._perms = labels[np.array(table, dtype=np.intp)[np.ix_(reps, reps)]]
            picks = dict.fromkeys(labels[list(G.small_generating_indices())].tolist())
            picks.pop(int(labels[G.identity_index]), None)
        self.resolved_order = len(self._perms)
        self._inverse_perms = np.argsort(self._perms, axis=1)
        self._gen_perms = self._perms[list(picks)]
        self.ranks = [1]
        self.generator_images: list[np.ndarray] = []
        self._augmented_ranks: list[int | None] = []
        self._free = np.zeros(0, dtype=np.intp)

    @property
    def depth(self) -> int:
        return len(self.ranks) - 1

    def extend(self) -> None:
        """Add degree depth + 1: module generators of the kernel of the last
        map (the augmentation at depth 0), which the new free basis maps onto.

        The last map's image lies in the previous kernel, whose basis is the
        identity on its free columns, so an image vector is zero exactly when
        it is zero there: the rows of the last map at those columns have the
        same row space as the whole map, and only they are eliminated.

        The last map has ranks[d-1] * ranks[d] * |G/K|^2 entries at depth d;
        past ``MAX_RESOLUTION_ENTRIES`` it raises before it is built.
        """
        m, p = self.resolved_order, self.p
        if self.depth:
            entries = self.ranks[-2] * self.ranks[-1] * m * m
            if entries > MAX_RESOLUTION_ENTRIES:
                raise BoundExceededError(
                    f"degree {self.depth + 1} eliminates {entries} entries, past the "
                    f"resolution entry bound {MAX_RESOLUTION_ENTRIES}")
        if not self.ranks[-1]:  # the last module is 0, and so is every later one
            images = np.zeros((0, 0), dtype=np.int64)
        else:
            last = (self.boundary(self.depth, self._free) if self.depth
                    else np.ones((1, m), dtype=np.int64))
            kernel, self._free = nullspace_fp(last, p)
            images = _module_generators(kernel, self._free, self._perms, self._gen_perms, p).T
        self.ranks.append(images.shape[1])
        self.generator_images.append(images)
        self._augmented_ranks.append(None)

    def boundary(self, r: int, rows=None) -> np.ndarray:
        """The boundary map from degree r to degree r-1, or its ``rows`` only
        (row indices into degree r-1): column (i, g), in that order, is the
        translate g * v of the i-th generator image v.  In each block of
        |G/K| coordinates g * v holds at h the entry of v at g^-1 h."""
        if not 1 <= r <= self.depth:
            raise ValueError(f"no boundary in degree {r}")
        gens = self.generator_images[r - 1].T
        k, width = gens.shape
        m = self.resolved_order
        rows = np.arange(width) if rows is None else np.asarray(rows, dtype=np.intp)
        coords = rows - rows % m + self._inverse_perms[:, rows % m]  # (g, row)
        return gens[np.arange(k)[:, None], coords.T[:, None, :]].reshape(rows.size, k * m)

    def augmented_boundary(self, r: int) -> np.ndarray:
        """Entry-wise augmentation of the degree-r boundary map.

        Shape (ranks[r-1], ranks[r]); entry (j, i) is the coefficient sum of
        the j-th module-entry of the i-th generator image.
        """
        if not 1 <= r <= self.depth:
            raise ValueError(f"no boundary in degree {r}")
        gi = self.generator_images[r - 1]
        shape = (self.ranks[r - 1], self.resolved_order, self.ranks[r])
        return gi.reshape(shape).sum(axis=1) % self.p

    def augmented_rank(self, r: int) -> int:
        """F_p rank of ``augmented_boundary(r)``, computed once per degree."""
        rank = self._augmented_ranks[r - 1] if 1 <= r <= self.depth else None
        if rank is None:
            rank = rank_fp(self.augmented_boundary(r), self.p)
            self._augmented_ranks[r - 1] = rank
        return rank

    def cohomology_dim(self, r: int) -> int:
        """dim H^r(G, F_p), extending the resolution to depth r + 1 if needed."""
        if r < 0:
            raise ValueError("negative degree")
        while self.depth <= r:
            self.extend()
        rk_in = self.augmented_rank(r) if r >= 1 else 0
        return self.ranks[r] - self.augmented_rank(r + 1) - rk_in

    def is_minimal(self) -> bool:
        """All boundary entries lie in the augmentation ideal."""
        return all(not self.augmented_boundary(r).any() for r in range(1, self.depth + 1))

    def check_complex(self) -> None:
        """Assert that consecutive boundaries compose to zero."""
        for r in range(1, self.depth):
            prod = matmul_fp(self.boundary(r), self.boundary(r + 1), self.p)
            assert not prod.any(), f"d_{r} . d_{r + 1} != 0"


def _check_core(G: MatGroup, p: int, core: frozenset[int]) -> None:
    """Refuse a core that is not a subgroup, not normal under G's generators,
    or of order divisible by p: the quotient would not give H^*(G, F_p)."""
    if G.closure_indices(core) != core:
        raise ValueError("the p'-core is not a subgroup")
    if any(G.conjugate_indices(g, core) != core for g in G.small_generating_indices()):
        raise ValueError("the p'-core is not normal")
    if len(core) % p == 0:
        raise ValueError(f"the p'-core has order {len(core)}, divisible by {p}")


def _module_generators(kernel_rows: np.ndarray, free: np.ndarray, perms: np.ndarray,
                       gen_perms: np.ndarray, p: int) -> np.ndarray:
    """Module generators of the kernel, picked greedily in row order.

    The work is done in kernel coordinates.  The rows are the identity on the
    ``free`` columns, so a kernel vector x is the combination of the rows with
    coefficients x[free]; the kernel is a submodule, so g * x has the
    coordinates (g * x)[free], read off x at the columns that g moves onto
    the free ones.  Row i has coordinates e_i.

    First each row outside I*ker plus the rows picked before it.  e_i lies in
    that sum exactly when some vector of I*ker has its last nonzero coordinate
    at i, that is when i is a pivot of the echelon form of I*ker with its
    columns reversed.  Then, unless the group of ``perms`` is a p-group, each
    first row outside the module generated so far.
    """
    k = kernel_rows.shape[0]
    if k == 0:
        return kernel_rows
    n = perms.shape[0]
    # in each block, g * x holds at h the entry of x at g^-1 h, so
    # (g * x)[free] = x[blocks + inverse[positions]] for g's inverse row
    blocks, positions = free - free % n, free % n
    identity = np.eye(k, dtype=np.int64)
    ideal = SpanFp(p, k)
    # the k rows of each generator, stacked in blocks of at most BLOCK_ENTRIES entries
    inverses = np.argsort(gen_perms, axis=1)[:, positions]
    step = max(1, BLOCK_ENTRIES // (k * k))
    for s in range(0, len(inverses), step):
        moved = kernel_rows[:, blocks + inverses[s:s + step]] - identity[:, None]
        ideal.add(moved.transpose(1, 0, 2)[..., ::-1])
    reversed_pivots = set(ideal.pivots)
    picks = [i for i in range(k) if k - 1 - i not in reversed_pivots]
    if p_part(n, p) != n:
        # the rows of perms are also the inverse rows, in another order
        every = blocks + perms[:, positions]
        span = SpanFp(p, k)
        for i in picks:
            span.add(kernel_rows[i, every])
        rest = np.flatnonzero(~span.contains(identity))
        while rest.size:
            picks.append(int(rest[0]))
            span.add(kernel_rows[rest[0], every])
            rest = rest[~span.contains(identity[rest])]
    return kernel_rows[picks]


def resolution(group: MatGroup, p: int, depth: int) -> FpResolution:
    """Free resolution of F_p over F_p[G/O_p'(G)], truncated at ``depth``.
    The order bound is checked by ``FpResolution``, before the p'-core is
    sought."""
    _check_input(group, p)
    check_resolution_depth(depth)
    res = FpResolution(p, group)
    for _ in range(depth):
        res.extend()
    return res


def mu_p(group: MatGroup, p: int, depth: int = MAX_RESOLUTION_DEPTH) -> MuValue:
    """inf { r > 0 : H^r(G, F_p) != 0 }, searched in degrees 1..depth-1.

    Equal to ``cohomology_table(G, p, depth).mu`` and to
    ``mu_from_resolution(resolution(G, p, depth))`` wherever they answer,
    but it stops at the answer: INFINITY when p does not divide |G|, and
    below depth 2 the marker, with nothing built; else 1 when G has a
    p-quotient; else, when the Sylow p-subgroup is cyclic, the closed form
    ``mu_p_formula``, exact when it is below ``depth`` and the inexact
    marker ``depth`` otherwise; else the first nonzero degree on the route of
    ``cohomology_table``.  The depth bound is checked first, as for a full
    search; the order bound only where a resolution is built.
    """
    _check_input(group, p)
    check_resolution_depth(depth)
    if group.order % p or depth <= 1:  # no degree is searched
        return _mu(group.order, p, (), depth)
    if has_p_quotient(group, p):
        return MuValue(1, True)
    if has_cyclic_sylow(group, p):
        mu = mu_p_formula(group, p)
        return MuValue(mu, True) if mu < depth else MuValue(depth, False)
    return _mu(group.order, p, map(_route(group, p, depth).cohomology_dim, range(1, depth)), depth)


def mu_from_resolution(res: FpResolution) -> MuValue:
    """mu_p read from a resolution of depth d, searching degrees 1..d-1."""
    return _mu(res.group_order, res.p, map(res.cohomology_dim, range(1, res.depth)), res.depth)


def _mu(order: int, p: int, dims, depth: int) -> MuValue:
    """mu_p of a group of the given order: exactly INFINITY, with no dim
    read, when p does not divide it (the positive-degree cohomology of a
    p'-group vanishes); else the degree of the first nonzero one of dim H^1,
    dim H^2, ..., read one at a time, or the inexact marker ``depth``."""
    if order % p:
        return MuValue(INFINITY, True)
    for r, dim in enumerate(dims, 1):
        if dim:
            return MuValue(r, True)
    return MuValue(depth, False)


def mu_p_formula(G: MatGroup, p: int) -> int:
    """mu_p(G) = 2*[N_G(P):C_G(P)] - 1 for a nontrivial cyclic Sylow
    p-subgroup P, of any order.

    H^*(G, F_p) is the N_G(P)-invariant part of H^*(P, F_p) (Swan, The
    p-period of a finite group, 1960), which is nonzero in every degree.
    N_G(P)/C_G(P) = E has order e prime to p and acts faithfully on P, so
    through its reduction mod p, by a character of order e, on the
    generator x of H^1 and y of H^2; the first invariant of positive
    degree is x y^(e-1), in degree 2e - 1.
    """
    if G.order % p != 0:
        raise ValueError(f"{p} does not divide the group order {G.order}")
    if not has_cyclic_sylow(G, p):
        raise ValueError(f"the Sylow {p}-subgroup is not cyclic")
    _, _, nc = subgroup_structure(G, sylow(G, p))
    return 2 * nc - 1


@dataclass(frozen=True)
class CohomologyTable:
    """dim H^r(G, F_p) for r < depth, mu_p read from them, the route that
    found them, and that route's own report keys (``details``)."""

    route: str
    dims: tuple[int, ...]
    mu: MuValue
    details: dict


def cohomology_table(group: MatGroup, p: int, depth: int) -> CohomologyTable:
    """dim H^r(G, F_p) for r < ``depth``, and mu_p searched in degrees
    1..depth-1, on the route ``_route`` takes:
    - "sylow-invariants", with the details {"sylow_order": |P|};
    - "resolution", a resolution of depth ``depth``, with the details
      {"free_ranks", "resolved_order"}.
    The depth bound holds on both routes and the entry bound on each in its
    own count; the order bound only where ``FpResolution`` reads G's table,
    so not when p does not divide |G|.
    """
    _check_input(group, p)
    check_resolution_depth(depth)
    source = _route(group, p, depth)
    dims = tuple(map(source.cohomology_dim, range(depth)))
    mu = _mu(group.order, p, dims[1:], depth)
    if isinstance(source, FpResolution):
        return CohomologyTable("resolution", dims, mu, {"free_ranks": list(source.ranks),
                                                        "resolved_order": source.resolved_order})
    return CohomologyTable("sylow-invariants", dims, mu, {"sylow_order": p ** source.rank})


def _route(G: MatGroup, p: int, depth: int) -> "_SylowInvariants | FpResolution":
    """What gives dim H^r(G, F_p) for r < ``depth`` on demand, by its
    ``cohomology_dim(r)``: the N_G(P)-invariants of H^*(P, F_p) when p
    divides |G| and the Sylow p-subgroup P is elementary abelian, else a
    resolution over F_p[G/O_p'(G)], extended as far as a degree needs."""
    if G.order % p == 0:
        action = _elementary_abelian_sylow(G, p, depth)
        if action is not None:
            return action
    return FpResolution(p, G)


def _elementary_abelian_sylow(G: MatGroup, p: int, depth: int) -> "_SylowInvariants | None":
    """The action of N_G(P) on H^*(P, F_p) below ``depth``, for P =
    ``sylow(G, p)`` elementary abelian; None when P is not.

    P is elementary abelian when it has exponent p (``_has_exponent_p``,
    asked before ``sylow``, so a P of larger exponent costs no Sylow search)
    and its greedy generators (a basis x_1..x_k, since each one multiplies
    the span by p) commute.  n in N_G(P) acts on P = F_p^k by the matrix A_n
    whose column i holds the coordinates of n x_i n^-1, and on V = Hom(P,
    F_p) by the inverse transpose of A_n.  The A_n^T of N_G(P)'s generators
    generate the same set of matrices, with the same invariants, so those of
    them that are not the identity are kept.

    The entry bound is checked for every degree below ``depth`` before any
    matrix is built, with the true rank and count of acting generators.
    When ``check_resolution_order`` refuses G, no route is left if this one
    is not taken, so before the exponent test, unless G is a p-group (where
    N_G(P) = P acts trivially), the entry bound is checked with the rank
    log_p |G|_p of an elementary abelian P and one acting generator.
    """
    q = p_part(G.order, p)
    try:
        check_resolution_order(G.order, p)
    except BoundExceededError as refusal:
        past = _entries_past_bound(p, round(math.log(q, p)), 1, depth) if q < G.order else None
        if past is not None:
            raise BoundExceededError(
                f"{refusal}, and degree {past[0]} of H^*(P, F_{p}) for an "
                f"elementary abelian P of order {q} ranks at least {past[1]} entries, "
                f"past the resolution entry bound {MAX_RESOLUTION_ENTRIES}") from None
    if not _has_exponent_p(G, p):
        return None
    basis = G.small_generating_indices(sorted(G.indices_of_subgroup(sylow(G, p))))
    table = G.mult_table()
    if any(table[a][b] != table[b][a] for a, b in combinations(basis, 2)):
        return None
    k = len(basis)
    coords = {G.identity_index: (0,) * k}
    for i, x in enumerate(basis):
        row = table[x]
        for h, c in list(coords.items()):  # c is 0 from coordinate i on
            for t in range(1, p):
                h = row[h]  # x_i^t times the element at c
                coords[h] = c[:i] + (t,) + c[i + 1:]
    inverse = G.inverse_indices()

    def conjugates(n: int) -> list[int]:
        return [table[table[n][x]][inverse[n]] for x in basis]

    normalizer = [n for n in range(G.order) if all(c in coords for c in conjugates(n))]
    identity = np.eye(k, dtype=np.int64)
    matrices = []
    for n in G.small_generating_indices(normalizer):
        transpose = np.array([coords[c] for c in conjugates(n)], dtype=np.int64)
        if not np.array_equal(transpose, identity):
            matrices.append(transpose)
    past = _entries_past_bound(p, k, len(matrices), depth)
    if past is not None:
        raise BoundExceededError(
            f"degree {past[0]} of H^*(P, F_{p}) for P of order {p ** k} ranks {past[1]} "
            f"entries, past the resolution entry bound {MAX_RESOLUTION_ENTRIES}")
    return _SylowInvariants(p, k, matrices)


def _has_exponent_p(G: MatGroup, p: int) -> bool:
    """Whether the Sylow p-subgroup has exponent p: g^e = 1 for every g in G,
    for e = p |G| / |G|_p, as the part of g of order prime to p has an order
    dividing e / p.  Powers are taken by squaring in uint64 blocks, modulo
    2^64, with no table.  That is exact both ways: reduction is a ring map,
    so g^e != 1 modulo 2^64 gives g^e != 1 over Z; and reduction modulo
    m >= 3 is injective on a finite subgroup of GL_n(Z) (Minkowski), so
    g^e = 1 modulo 2^64 gives g^e = 1."""
    mats = (G.elements % 2**64).astype(np.uint64)
    identity = np.eye(G.n, dtype=np.uint64)
    exponent = p * G.order // p_part(G.order, p)
    step = max(1, BLOCK_ENTRIES // G.n ** 2)
    for start in range(0, G.order, step):
        base, power, e = mats[start:start + step], identity, exponent
        while e:
            if e & 1:
                power = power @ base
            e >>= 1
            base = base @ base
        if (power != identity).any():
            return False
    return True


def _blocks(p: int, k: int, r: int) -> list[tuple[int, int]]:
    """The (i, j) with H^r(P, F_p) = sum of Lambda^i V (x) S^j V, for P
    elementary abelian of rank k: (0, r) for p = 2, where H^* is the
    polynomial ring on V in degree 1; for odd p, H^* is the exterior algebra
    on V in degree 1 tensor the polynomial ring on its Bocksteins in degree
    2, so i + 2j = r."""
    if p == 2:
        return [(0, r)]
    return [(i, (r - i) // 2) for i in range(r % 2, min(k, r) + 1, 2)]


def _entries_past_bound(p: int, k: int, acting: int, depth: int) -> tuple[int, str] | None:
    """The first degree r below ``depth`` whose invariants stack ``acting``
    square matrices of side dim H^r(P, F_p), P elementary abelian of rank k,
    past ``MAX_RESOLUTION_ENTRIES`` entries, and that count as a product;
    None if none does."""
    for r in range(depth):
        size = sum(math.comb(k, i) * math.comb(j + k - 1, j) for i, j in _blocks(p, k, r))
        if acting * size * size > MAX_RESOLUTION_ENTRIES:
            return r, f"{acting} x {size}^2 = {acting * size * size}"
    return None


class _SylowInvariants:
    """dim H^r(G, F_p) = dim H^r(P, F_p)^{N_G(P)} for an elementary abelian
    Sylow p-subgroup P of rank k (Swan, The p-period of a finite group,
    1960; Brown, Cohomology of Groups, III.10).

    ``matrices`` substitute the degree-1 generators f_1..f_k of H^*(P, F_p):
    column i of a matrix M is the image of f_i.  On each block Lambda^i V (x)
    S^j V of degree r (``_blocks``) M acts by the Kronecker product of its
    i-th exterior and j-th symmetric powers, and the invariants of the block
    are the common kernel of (power - 1) over the matrices: the block's
    dimension less the ``rank_fp`` of their stack.
    """

    def __init__(self, p: int, k: int, matrices: list[np.ndarray]):
        self.p, self.rank = p, k
        self._matrices = matrices
        # (exterior, degree) -> the power of each matrix, built on first use
        self._powers: dict[tuple[bool, int], list[np.ndarray]] = {}

    def cohomology_dim(self, r: int) -> int:
        total = 0
        for i, j in _blocks(self.p, self.rank, r):
            size = math.comb(self.rank, i) * math.comb(j + self.rank - 1, j)
            total += size
            if self._matrices:
                eye = np.eye(size, dtype=np.int64)
                stack = [(a[:, None, :, None] * b[None, :, None, :]).reshape(size, size) - eye
                         for a, b in zip(self._power(True, i), self._power(False, j))]
                total -= rank_fp(np.vstack(stack), self.p)
        return total

    def _power(self, exterior: bool, d: int) -> list[np.ndarray]:
        """The d-th exterior or symmetric power of each matrix, on the sorted
        index tuples of ``_monomials`` as basis; column m is the image of
        monomial m, the product of the image of m[:-1] with that of f_m[-1]."""
        key = (exterior, d)
        if key not in self._powers:
            if d == 0:
                self._powers[key] = [np.ones((1, 1), dtype=np.int64)] * len(self._matrices)
            else:
                previous = self._power(exterior, d - 1)
                steps = _product_steps(self.rank, d, exterior)
                self._powers[key] = [_raise_power(C, M, steps, self.p)
                                     for C, M in zip(previous, self._matrices)]
        return self._powers[key]


def _monomials(k: int, d: int, exterior: bool) -> list[tuple[int, ...]]:
    """The basis of Lambda^d or S^d of F_p^k: sorted index tuples, strictly
    increasing for the exterior power."""
    return list((combinations if exterior else combinations_with_replacement)(range(k), d))


def _product_steps(k: int, d: int, exterior: bool):
    """How degree d - 1 times degree 1 lands in degree d: per monomial m of
    degree d, its head m[:-1] and last index m[-1]; per variable v, the
    degree d - 1 monomials a with a * f_v != 0, the index of a * f_v, and
    its sign (f_a ^ f_v moves f_v past the indices of a above v)."""
    lower, upper = _monomials(k, d - 1, exterior), _monomials(k, d, exterior)
    lower_index = {m: a for a, m in enumerate(lower)}
    upper_index = {m: b for b, m in enumerate(upper)}
    head = np.array([lower_index[m[:-1]] for m in upper], dtype=np.intp)
    last = np.array([m[-1] for m in upper], dtype=np.intp)
    by_variable = []
    for v in range(k):
        rows = [a for a, m in enumerate(lower) if not (exterior and v in m)]
        targets = [upper_index[tuple(sorted(lower[a] + (v,)))] for a in rows]
        signs = [(-1) ** sum(u > v for u in lower[a]) if exterior else 1 for a in rows]
        by_variable.append((np.array(rows, dtype=np.intp), np.array(targets, dtype=np.intp),
                            np.array(signs, dtype=np.int64)[:, None]))
    return head, last, by_variable


def _raise_power(previous: np.ndarray, M: np.ndarray, steps, p: int) -> np.ndarray:
    """The degree-d power of M from its degree d - 1 power ``previous``:
    column m is the image of m[:-1] (a column of ``previous``) times the
    image of f_m[-1] (a column of M).  For each variable v the rows a land
    on distinct monomials a * f_v, so each v is one indexed add."""
    head, last, by_variable = steps
    images, linear = previous[:, head], M[:, last]
    out = np.zeros((len(head), len(head)), dtype=np.int64)
    for v, (rows, targets, signs) in enumerate(by_variable):
        out[targets] = (out[targets] + signs * images[rows] * linear[v]) % p
    return out
