"""Mod-p group cohomology of small finite groups via truncated free resolutions.

The group is a ``MatGroup``; every finite group is one, through its
permutation matrices.  F_p[G] has the group's elements as basis, in canonical
order, and its multiplication table gives the left translations.

A free resolution of the trivial module over F_p[G] is built degree by
degree: the kernel of each boundary map is computed as an F_p subspace, a
short list of module generators is extracted, and the next free module maps
onto them.  The generators are first a basis of the kernel modulo I*ker,
where I is the augmentation ideal; for a p-group I is the radical of F_p[G],
so by Nakayama that basis generates the kernel and the resolution is minimal.
For other groups, kernel rows outside the module generated so far are added
until it is the whole kernel.

The picks are made in kernel coordinates.  The kernel basis that
``nullspace_fp`` returns is the identity on its free columns, so x -> x[free]
is injective on the kernel, and the kernel is a submodule, so each translate
g * v of a kernel row is known by its k free coordinates.  The spans behind
the picks (I*ker and the module generated so far) are then k wide, not
ranks[d] * |G|, and give the same rows in the same order.

When p does not divide |G| > 1 (the non-modular case) no kernel is computed.
e = |G|^-1 * sum_g g is a central idempotent of F_p[G] with augmentation 1,
so F_p = e F_p[G]; multiplication by e has kernel (1 - e) F_p[G], and
multiplication by 1 - e has kernel e F_p[G].  The resolution has rank 1 in
every degree, with generator image 1 - e in odd degrees and e in even ones.
Its Hom complex gives H^0 = F_p and H^r = 0 for r > 0, as Maschke's theorem
requires.  The trivial group keeps the elimination route: F_p[G] = F_p, and
the augmentation has zero kernel.

I*ker needs only a generating set S of G (``small_generating_indices``), not
every element: I is the sum of the right ideals (s - 1) F_p[G] for s in S
(Brown, Cohomology of Groups, ch. I-II), and the kernel is a submodule, so
I*ker is spanned by (s - 1) v for s in S and v in an F_p-basis of the kernel.

Cohomology dimensions are read from the induced complex Hom(F_*, F_p): the
differential of that complex is the entry-wise augmentation of the boundary
matrices, so dim H^r is computed from the free ranks and the F_p ranks of two
augmented boundaries.  For p-groups the augmented boundaries vanish and the
dimensions coincide with the free ranks; for groups that are not p-groups a
free resolution with that property does not exist (projective covers are not
free), and the Hom complex is the honest route.  Each augmented boundary is
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
from .fparith import SpanFp, matmul_fp, nullspace_fp, rank_fp
from .matgroup import (
    MatGroup,
    _op_core_indices,
    _p_part,
    is_prime,
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
    """Truncated free resolution of the trivial module over F_p[G].

    ``ranks[r]`` is the rank of the free module in homological degree r;
    ``generator_images[r-1]`` holds the images of the free basis of degree r
    in degree r-1, one column per module generator, in the group-element
    basis.  Only these are stored: ``boundary(r)``, the full F_p matrix of the
    boundary map, is rebuilt from them by translation when needed.  A new
    resolution has depth 0 (F_0 = F_p[G] with the augmentation); ``extend``
    adds one degree.  When p does not divide |G| > 1 every degree has rank 1
    and its generator image is one of the two idempotents 1 - e and e,
    e = |G|^-1 * sum_g g, taken in turn; otherwise kernels are eliminated.
    """

    def __init__(self, p: int, G: MatGroup):
        self.p = p
        self.group_order = G.order
        self.ranks = [1]
        self.generator_images: list[np.ndarray] = []
        self._augmented_ranks: list[int | None] = []
        self._perms = np.array(G.mult_table(), dtype=np.intp)
        self._gen_perms = self._perms[list(G.small_generating_indices())]
        self._idempotents = _idempotent_images(G, p)

    @property
    def depth(self) -> int:
        return len(self.ranks) - 1

    def extend(self) -> None:
        """Add degree depth + 1: module generators of the kernel of the last
        map (the augmentation at depth 0), which the new free basis maps onto.
        In the non-modular case the generator is 1 - e in odd degrees and e in
        even ones, with no kernel computed.

        The last map has ranks[d-1] * ranks[d] * |G|^2 entries at depth d; past
        ``MAX_RESOLUTION_ENTRIES`` it raises before it is built.
        """
        n, p = self.group_order, self.p
        if self.depth:
            entries = self.ranks[-2] * self.ranks[-1] * n * n
            if entries > MAX_RESOLUTION_ENTRIES:
                raise BoundExceededError(
                    f"degree {self.depth + 1} eliminates {entries} entries, past the "
                    f"resolution entry bound {MAX_RESOLUTION_ENTRIES}")
        if self._idempotents is not None:
            images = self._idempotents[self.depth % 2]
        else:
            last = self.boundary(self.depth) if self.depth else np.ones((1, n), dtype=np.int64)
            kernel, free = nullspace_fp(last, p)
            images = _module_generators(kernel, free, self._perms, self._gen_perms, p).T
        self.ranks.append(images.shape[1])
        self.generator_images.append(images)
        self._augmented_ranks.append(None)

    def boundary(self, r: int) -> np.ndarray:
        """The full boundary map from degree r to degree r-1: the translates
        g * v of every generator image v, in columns ordered (generator, g)."""
        if not 1 <= r <= self.depth:
            raise ValueError(f"no boundary in degree {r}")
        gens = self.generator_images[r - 1].T
        k, width = gens.shape
        return _translates(gens, self._perms).transpose(2, 1, 0).reshape(width, k * self.group_order)

    def augmented_boundary(self, r: int) -> np.ndarray:
        """Entry-wise augmentation of the degree-r boundary map.

        Shape (ranks[r-1], ranks[r]); entry (j, i) is the coefficient sum of
        the j-th module-entry of the i-th generator image.
        """
        if not 1 <= r <= self.depth:
            raise ValueError(f"no boundary in degree {r}")
        gi = self.generator_images[r - 1]
        shape = (self.ranks[r - 1], self.group_order, self.ranks[r])
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


def _idempotent_images(G: MatGroup, p: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The columns 1 - e and e, e = |G|^-1 * sum_g g in F_p[G], when p does
    not divide |G| > 1; None otherwise.  Every coordinate of e is |G|^-1 mod
    p, and 1 - e is -e with 1 added at the identity."""
    n = G.order
    if n == 1 or n % p == 0:
        return None
    inverse = pow(n, -1, p)
    e = np.full((n, 1), inverse, dtype=np.int64)
    one_minus_e = np.full((n, 1), -inverse % p, dtype=np.int64)
    one_minus_e[G.identity_index] = (1 - inverse) % p
    for image in (one_minus_e, e):
        image.setflags(write=False)
    return one_minus_e, e


def _translates(rows: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """g * row for every left multiplication g in ``perms`` and every row.

    A row is a run of blocks of |G| coordinates; g moves the coordinate of h
    to that of g h in each block.  Shape (len(perms), len(rows), width).
    """
    k, width = rows.shape
    m, n = perms.shape
    src = rows.reshape(k, width // n, n)
    out = np.empty((m, k, width // n, n), dtype=rows.dtype)
    for j, perm in enumerate(perms):
        out[j][..., perm] = src
    return out.reshape(m, k, width)


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
    columns reversed.  Then, unless G is a p-group, each first row outside
    the module generated so far.
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
    for inverse in np.argsort(gen_perms, axis=1):
        ideal.add((kernel_rows[:, blocks + inverse[positions]] - identity)[:, ::-1])
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
    """Free resolution of the trivial F_p[G]-module, truncated at ``depth``."""
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
