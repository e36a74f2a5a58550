"""Mod-p group cohomology of small finite groups via truncated free resolutions.

The group is a ``MatGroup``; every finite group is one, through its
permutation matrices.

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
insert, in blocks of at most ``fparith._BLOCK_ENTRIES`` entries.

Cohomology dimensions are read from the induced complex Hom(F_*, F_p): the
differential of that complex is the entry-wise augmentation of the boundary
matrices, so dim H^r is computed from the free ranks and the F_p ranks of two
augmented boundaries.  When G/K is a p-group the augmented boundaries vanish
and the dimensions coincide with the free ranks; otherwise a free resolution
with that property does not exist (projective covers are not free), and the
Hom complex is the honest route.  Each augmented boundary is
ranked once per resolution.

mu_p, the least r > 0 with H^r(G, F_p) != 0, stops at its answer.
H^1(G, F_p) = Hom(G, F_p) is nonzero exactly when G has a quotient of order
p, that is when O^p(G) != G (Brown, ch. III), so mu_p = 1 is read from the
closure that ``op_core`` uses, with no resolution.  When the Sylow
p-subgroup P is cyclic, of any order, mu_p = 2 [N_G(P):C_G(P)] - 1, the
closed form of ``mu_p_formula`` (Swan, The p-period of a finite group,
Illinois J. Math. 4, 1960), again with no resolution.  Otherwise the
resolution is extended one degree at a time (``FpResolution.extend``, the
step ``resolution`` repeats) until the first nonzero H^r.  The order and
depth limits are checked before any route, so they trip as for a full
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    MAX_RESOLUTION_DEPTH,
    MAX_RESOLUTION_ENTRIES,
    MAX_RESOLUTION_ORDER,
    BoundExceededError,
)
from .fparith import _BLOCK_ENTRIES, SpanFp, matmul_fp, nullspace_fp, rank_fp
from .matgroup import (
    MatGroup,
    _op_core_indices,
    _p_part,
    is_prime,
    p_prime_core,
    subgroup_structure,
    sylow,
)

INFINITY = math.inf


@dataclass(frozen=True)
class MuValue:
    """Least positive degree with nonvanishing cohomology.

    ``value`` is that degree, or INFINITY exactly when p does not divide the
    group order, or ``search_limit + 1`` as an inexact marker meaning the true
    value exceeds the searched range.
    """

    value: int | float
    exact: bool

    @property
    def is_infinite(self) -> bool:
        return self.value == INFINITY


def _check_group(group) -> None:
    if not isinstance(group, MatGroup):
        raise TypeError("expected a MatGroup")


def _check_resolution_bounds(order: int, depth: int) -> None:
    """Refuse a resolution past ``MAX_RESOLUTION_ORDER`` or ``MAX_RESOLUTION_DEPTH``."""
    if order > MAX_RESOLUTION_ORDER:
        raise BoundExceededError(f"group order {order} exceeds the resolution "
                                 f"order bound {MAX_RESOLUTION_ORDER}")
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
        core = p_prime_core(G, p)
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
        self.resolved_order = len(reps)
        labels = np.array(labels, dtype=np.intp)
        self._perms = labels[np.array(table, dtype=np.intp)[np.ix_(reps, reps)]]
        self._inverse_perms = np.argsort(self._perms, axis=1)
        picks = dict.fromkeys(labels[list(G.small_generating_indices())].tolist())
        picks.pop(int(labels[G.identity_index]), None)
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
        """dim H^r(G, F_p); requires depth >= r + 1."""
        if r < 0:
            raise ValueError("negative degree")
        if self.depth < r + 1:
            raise ValueError(f"resolution depth {self.depth} too shallow for H^{r}")
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
    # the k rows of each generator, stacked in blocks of at most _BLOCK_ENTRIES entries
    inverses = np.argsort(gen_perms, axis=1)[:, positions]
    step = max(1, _BLOCK_ENTRIES // (k * k))
    for s in range(0, len(inverses), step):
        moved = kernel_rows[:, blocks + inverses[s:s + step]] - identity[:, None]
        ideal.add(moved.transpose(1, 0, 2)[..., ::-1])
    reversed_pivots = set(ideal.pivots)
    picks = [i for i in range(k) if k - 1 - i not in reversed_pivots]
    if _p_part(n, p) != n:
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
    The order bound is on |G|, checked before the p'-core is sought."""
    _check_group(group)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    _check_resolution_bounds(group.order, depth)
    res = FpResolution(p, group)
    for _ in range(depth):
        res.extend()
    return res


def h_dim(group: MatGroup, p: int, r: int) -> int:
    """dim_{F_p} H^r(G, F_p)."""
    res = resolution(group, p, r + 1)
    return res.cohomology_dim(r)


def has_p_quotient(group: MatGroup, p: int) -> bool:
    """O^p(G) != G, that is H^1(G, F_p) = Hom(G, F_p) != 0."""
    return len(_op_core_indices(group, p)) < group.order


def mu_p(group: MatGroup, p: int, search_limit: int = MAX_RESOLUTION_DEPTH - 1) -> MuValue:
    """inf { r > 0 : H^r(G, F_p) != 0 }, searched up to ``search_limit``.

    Equal to ``mu_from_resolution(resolution(G, p, search_limit + 1))``, and
    the same order and depth limits trip, but it stops at the answer: 1 with
    no resolution when G has a p-quotient; else, when the Sylow p-subgroup is
    cyclic, the closed form ``mu_p_formula``, exact when it is at most
    ``search_limit`` and the inexact marker ``search_limit + 1`` otherwise;
    else the first degree with nonzero cohomology as the resolution is
    extended.  When p does not divide |G| no resolution is built and no limit
    applies.
    """
    _check_group(group)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if group.order % p != 0:
        return MuValue(INFINITY, True)
    _check_resolution_bounds(group.order, search_limit + 1)
    if search_limit >= 1 and has_p_quotient(group, p):
        return MuValue(1, True)
    marker = max(search_limit + 1, 0)
    if _has_cyclic_sylow(group, p):
        mu = mu_p_formula(group, p)
        return MuValue(mu, True) if mu < marker else MuValue(marker, False)
    return _first_nonzero_degree(FpResolution(p, group), marker)


def mu_from_resolution(res: FpResolution) -> MuValue:
    """mu_p read from a resolution of depth d, searching degrees 1..d-1.

    Exactly INFINITY when p does not divide the group order (positive-degree
    cohomology of a p'-group vanishes); otherwise the least degree with
    nonzero cohomology, or the inexact marker d when there is none.
    """
    if res.group_order % res.p != 0:
        return MuValue(INFINITY, True)
    return _first_nonzero_degree(res, res.depth)


def _first_nonzero_degree(res: FpResolution, depth: int) -> MuValue:
    """The least r in 1..depth-1 with H^r != 0, extending ``res`` one degree
    at a time as far as it needs; the inexact marker ``depth`` if none."""
    for r in range(1, depth):
        while res.depth <= r:
            res.extend()
        if res.cohomology_dim(r) != 0:
            return MuValue(r, True)
    return MuValue(depth, False)


def _has_cyclic_sylow(G: MatGroup, p: int) -> bool:
    """Whether the Sylow p-subgroups of G are cyclic: some element has the
    order q of the p-part of |G|, and it generates a subgroup of order q."""
    return _p_part(G.order, p) in G.element_orders()


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
    if not _has_cyclic_sylow(G, p):
        raise ValueError(f"the Sylow {p}-subgroup is not cyclic")
    _, _, nc = subgroup_structure(G, sylow(G, p))
    return 2 * nc - 1
