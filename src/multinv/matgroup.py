"""Finite subgroups of GL_n(Z): closure, subgroup lattice, Sylow theory.

A group is one read-only (order, n, n) array of Python ints (``dtype=object``,
as in ``intlinalg``), ``MatGroup.elements``: every element once, in canonical
order (lexicographic on the row-major entries, whose tuple is the element's
key), which makes every "first subgroup" style choice deterministic.  A
subgroup is its parent's array at sorted indices, so it keeps that order, and
it reads its keys, and on first use its multiplication table, off its parent.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    MAX_GROUP_ORDER,
    MAX_PRIMALITY,
    MAX_SUBGROUP_ENUMERATION,
    BoundExceededError,
    NonUnimodularError,
)
from .intlinalg import (
    Sublattice,
    fixed_lattice,
    identity_matrix,
    intmat,
    is_unimodular,
    rank,
)

# finite-order integer matrices have bounded powers; runaway growth is a
# fast certificate of infinite order
_ENTRY_GUARD = 10**60


# strong-probable-prime bases: together they admit no composite below MAX_PRIMALITY
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 prime bases.

    Exact below ``MAX_PRIMALITY``, the least composite that is a strong
    probable prime to every base 2..41 (Sorenson and Webster, 2015); from
    there on it raises BoundExceededError rather than guess.
    """
    if p >= MAX_PRIMALITY:
        raise BoundExceededError(f"p = {p} is past the primality bound {MAX_PRIMALITY}")
    if p < 2:
        return False
    for q in _PRIME_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class ElementProfile:
    """Order of a finite-order element together with rank(g - 1)."""

    order: int
    rank_drop: int
    is_reflection: bool
    is_bireflection: bool

    @classmethod
    def of(cls, order: int, rank_drop: int) -> "ElementProfile":
        return cls(order, rank_drop, rank_drop <= 1, rank_drop <= 2)


@dataclass(frozen=True)
class GroupTable:
    """Multiplication table (mult[i][j] indexes g_i * g_j) and a generating set."""

    order: int
    mult: tuple[tuple[int, ...], ...]
    identity: int
    generators: tuple[int, ...]

    @classmethod
    def cyclic(cls, m: int) -> "GroupTable":
        mult = tuple(tuple((i + j) % m for j in range(m)) for i in range(m))
        return cls(m, mult, 0, (1,) if m > 1 else ())

    def validate(self) -> None:
        n = self.order
        assert len(self.mult) == n and all(len(r) == n for r in self.mult)
        assert all(self.mult[self.identity][j] == j for j in range(n))
        assert all(self.mult[i][self.identity] == i for i in range(n))

    def element_orders(self) -> tuple[int, ...]:
        """The order of each element, by walking its powers through the table."""
        orders = []
        for i in range(self.order):
            k, o = i, 1
            while k != self.identity:
                k = self.mult[k][i]
                o += 1
            orders.append(o)
        return tuple(orders)

    def closure_indices(self, seed) -> frozenset[int]:
        """Indices of the subgroup generated by the given element indices."""
        return _closure(self.mult, self.identity, seed)


def _closure(table, identity: int, seed) -> frozenset[int]:
    """Indices of the subgroup generated by ``seed`` in the multiplication
    table ``table`` (a finite group, so products alone close it)."""
    found = {identity} | set(seed)
    frontier = list(found)
    gens = list(set(seed))
    while frontier:
        new = []
        for g in gens:
            for b in frontier:
                c = table[g][b]
                if c not in found:
                    found.add(c)
                    new.append(c)
        frontier = new
    return frozenset(found)


class MatGroup:
    """A finite subgroup of GL_n(Z), stored as all elements in canonical order."""

    def __init__(self, n: int, elements: np.ndarray, generator_indices=None):
        """``elements``: the (order, n, n) object array of all elements in canonical
        order; without ``generator_indices`` a generating set is found on first use."""
        self.n = n
        self.elements = elements
        elements.setflags(write=False)
        self._generator_indices = (None if generator_indices is None
                                   else tuple(generator_indices))
        self._table: tuple[tuple[int, ...], ...] | None = None
        self._inverses: tuple[int, ...] | None = None
        self._orders: tuple[int, ...] | None = None
        self._fixed_ranks: tuple[int, ...] | None = None
        self._lattice: Sublattice | None = None
        self._subgroups: list["MatGroup"] | None = None
        # (weak reference to G, sorted indices) for a subgroup of G
        self._parent: tuple[weakref.ref, list[int]] | None = None

    # -- basic structure ----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def identity_index(self) -> int:
        return self.index_of(identity_matrix(self.n))

    @property
    def generator_indices(self) -> tuple[int, ...]:
        if self._generator_indices is None:
            self._generator_indices = self.small_generating_indices()
        return self._generator_indices

    @property
    def generators(self) -> list[np.ndarray]:
        return [self.elements[i] for i in self.generator_indices]

    @cached_property
    def _keys(self) -> tuple[tuple, ...]:
        return tuple(_keys_of(self.elements))

    @cached_property
    def _index(self) -> dict[tuple, int]:
        return {k: i for i, k in enumerate(self._keys)}

    def canonical_key(self) -> tuple[tuple, ...]:
        """The row-major entries of each element, in canonical order."""
        return self._keys

    def index_of(self, mat) -> int | None:
        """The index of the element ``mat``; None when G does not hold it."""
        m = intmat(mat)
        return self._index.get(_keys_of(m[None])[0]) if m.shape == (self.n, self.n) else None

    def mult_table(self) -> tuple[tuple[int, ...], ...]:
        if self._table is None:
            parent = self._parent[0]() if self._parent is not None else None
            if parent is not None and parent._table is not None:
                self._restrict_parent_table(parent, self._parent[1])
            else:
                index = self._index.__getitem__
                self._table = tuple(tuple(map(index, _keys_of(a @ self.elements)))
                                    for a in self.elements)
        return self._table

    def _restrict_parent_table(self, parent: "MatGroup", idx: list[int]) -> None:
        """Take the parent's table on the rows and columns ``idx``, renumbered
        to this group's indices, and the identity's index with it."""
        at = dict(zip(idx, range(len(idx)))).__getitem__
        rows = map(parent._table.__getitem__, idx)
        self._table = tuple(tuple(map(at, [row[j] for j in idx])) for row in rows)
        self.__dict__.setdefault("identity_index", at(parent.identity_index))

    def inverse_indices(self) -> tuple[int, ...]:
        if self._inverses is None:
            e = self.identity_index
            self._inverses = tuple(row.index(e) for row in self.mult_table())
        return self._inverses

    @cached_property
    def _traces(self) -> tuple[int, ...]:
        step = self.n + 1  # the diagonal of a row-major key
        return tuple(sum(k[::step]) for k in self._keys)

    def element_orders(self) -> tuple[int, ...]:
        if self._orders is None:
            self._walk_powers()
        return self._orders

    def element_fixed_ranks(self) -> tuple[int, ...]:
        """rank Fix(g) for each element g, in canonical element order.

        (1/|g|)·Σ_k g^k projects Q^n onto Fix(g) ⊗ Q, so its trace
        (1/|g|)·Σ_k tr(g^k) is the rank of the fixed lattice."""
        if self._fixed_ranks is None:
            self._walk_powers()
        return self._fixed_ranks

    def _walk_powers(self) -> None:
        """Walk the powers g, g^2, ..., g^|g| = 1 of every element through the
        table, counting them for the order and summing their traces."""
        table = self.mult_table()
        e = self.identity_index
        traces = self._traces
        orders, ranks = [], []
        for i in range(self.order):
            k, o, t = i, 1, traces[i]
            while k != e:
                k = table[k][i]
                o += 1
                t += traces[k]
            orders.append(o)
            ranks.append(t // o)
        self._orders, self._fixed_ranks = tuple(orders), tuple(ranks)

    def fixed_rank(self) -> int:
        """rank of the lattice fixed by every element: tr(S)/|G| for the
        Reynolds sum S = Σ_g g, which is |G| times the projection onto it."""
        return sum(self._traces) // self.order

    def fixed_lattice(self) -> Sublattice:
        """The lattice fixed by every element of the group."""
        if self._lattice is None:
            self._lattice = (fixed_lattice(self.elements) if self.order > 1
                             else Sublattice.full(self.n))
        return self._lattice

    def to_table(self) -> GroupTable:
        return GroupTable(self.order, self.mult_table(), self.identity_index,
                          self.small_generating_indices())

    # -- subgroup plumbing ---------------------------------------------------

    def subgroup_from_indices(self, indices) -> "MatGroup":
        """The subgroup with the given element indices.  G's canonical order
        restricted to them is H's, so H takes G's keys.  H also records where
        it sits in G: its first ``mult_table`` call restricts G's table when
        G has one by then.  That stays lazy, since most subgroups made (by
        ``subgroups``, say) never need a table."""
        idx = sorted(set(indices))
        H = MatGroup(self.n, self.elements[idx])
        H._keys = tuple(map(self._keys.__getitem__, idx))
        H._parent = (weakref.ref(self), idx)
        return H

    def closure_indices(self, seed) -> frozenset[int]:
        """Indices of the subgroup generated by the given element indices."""
        return _closure(self.mult_table(), self.identity_index, seed)

    def contains_subgroup(self, H: "MatGroup") -> bool:
        return self.n == H.n and self._index.keys() >= set(H._keys)

    def indices_of_subgroup(self, H: "MatGroup") -> frozenset[int]:
        return frozenset(map(self._index.__getitem__, H._keys))

    def conjugate_indices(self, g: int, indices) -> frozenset[int]:
        table = self.mult_table()
        ginv = self.inverse_indices()[g]
        return frozenset(table[table[g][h]][ginv] for h in indices)

    def small_generating_indices(self, indices=None) -> tuple[int, ...]:
        """A short generating list found greedily in canonical order."""
        target = frozenset(indices) if indices is not None else frozenset(range(self.order))
        gens: list[int] = []
        span = self.closure_indices(())
        for i in sorted(target):
            if i not in span:
                gens.append(i)
                span = self.closure_indices(gens)
                if span == target:
                    break
        return tuple(gens)

    # -- identity/equality ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, MatGroup) and self.n == other.n
                and self._keys == other._keys)

    def __hash__(self):
        return hash((self.n, self._keys))

    def __repr__(self):
        return f"MatGroup(n={self.n}, order={self.order})"

    def validate(self) -> None:
        """Re-check the group axioms and element invariants (used in tests)."""
        assert list(self._keys) == sorted(set(self._keys)), "elements repeated or out of order"
        assert all(is_unimodular(m) for m in self.elements), "non-unimodular element"
        # checked before mult_table, whose lookups would raise KeyError instead
        assert all(k in self._index for a in self.elements for k in _keys_of(a @ self.elements)), \
            "not closed under products"
        self.inverse_indices()
        for o in self.element_orders():
            assert self.order % o == 0, "element order does not divide group order"


def _keys_of(mats: np.ndarray) -> list[tuple]:
    """The key of each matrix in an (m, n, n) stack: its row-major entries."""
    return list(map(tuple, mats.reshape(len(mats), -1).tolist()))


def trivial_group(n: int) -> MatGroup:
    return MatGroup(n, identity_matrix(n)[None], (0,))


def generate(gens, max_order: int = MAX_GROUP_ORDER) -> MatGroup:
    """Close a list of unimodular matrices under multiplication.

    Raises NonUnimodularError for a generator outside GL_n(Z) and
    BoundExceededError when the closure passes ``max_order`` (the group is
    infinite or larger than requested).
    """
    mats = [intmat(g) for g in gens]
    if not mats:
        raise ValueError("need at least one generator (use trivial_group(n) otherwise)")
    n = mats[0].shape[0]
    for g in mats:
        if g.shape != (n, n):
            raise ValueError("generators of mixed dimensions")
        if not is_unimodular(g):
            raise NonUnimodularError("generator has |det| != 1")
    frontier = identity_matrix(n)[None]
    found = set(_keys_of(frontier))
    while len(frontier):
        new = []
        for g in mats:
            for k in _keys_of(g @ frontier):
                if k not in found:
                    found.add(k)
                    new.append(k)
                    if len(found) > max_order:
                        raise BoundExceededError(
                            f"closure exceeded max_order={max_order}")
        frontier = np.array(new, dtype=object).reshape(-1, n, n)
    keys = sorted(found)
    return MatGroup(n, np.array(keys, dtype=object).reshape(-1, n, n),
                    [bisect_left(keys, k) for k in _keys_of(np.stack(mats))])


def subgroups(G: MatGroup) -> list[MatGroup]:
    """All subgroups of G, canonically ordered by (order, element keys).

    Enumeration closes unions of cyclic subgroups, which is feasible well past
    the group orders this package targets.
    """
    if G.order > MAX_SUBGROUP_ENUMERATION:
        raise BoundExceededError(f"group order {G.order} exceeds the subgroup "
                                 f"enumeration bound {MAX_SUBGROUP_ENUMERATION}")
    if G._subgroups is not None:
        return list(G._subgroups)
    table = G.mult_table()
    e = G.identity_index
    cyclics = set()
    for i in range(G.order):
        cyc = {e}
        k = i
        while k != e:
            cyc.add(k)
            k = table[k][i]
        cyclics.add(frozenset(cyc))
    found = set(cyclics)
    found.add(frozenset({e}))
    work = list(found)
    cyclics = sorted(cyclics, key=sorted)
    while work:
        S = work.pop()
        for C in cyclics:
            if C <= S:
                continue
            J = G.closure_indices(S | C)
            if J not in found:
                found.add(J)
                work.append(J)
    # sorted index sets order subgroups of equal order as their canonical keys do
    subs = [G.subgroup_from_indices(s) for s in sorted(found, key=lambda s: (len(s), sorted(s)))]
    G._subgroups = subs
    return list(subs)


def subgroup_conjugacy_classes(G: MatGroup) -> list[list[MatGroup]]:
    """Partition of the subgroup list into conjugacy classes.

    Each class is sorted canonically, classes ordered by their first member.
    """
    subs = subgroups(G)
    by_indices = {G.indices_of_subgroup(H): H for H in subs}
    seen = set()
    classes = []
    for H in subs:
        idx = G.indices_of_subgroup(H)
        if idx in seen:
            continue
        orbit = {G.conjugate_indices(g, idx) for g in range(G.order)}
        seen |= orbit
        cls = [by_indices[o] for o in sorted(orbit, key=sorted)]
        classes.append(cls)
    return classes


def _p_part(m: int, p: int) -> int:
    q = 1
    while m % p == 0:
        m //= p
        q *= p
    return q


def sylow(G: MatGroup, p: int) -> MatGroup:
    """A deterministic Sylow p-subgroup of G.

    One Sylow subgroup is grown through normalizers; since all Sylow
    p-subgroups are conjugate, taking the canonical minimum over the
    conjugates of the result gives the first Sylow subgroup in canonical
    subgroup order without enumerating the full subgroup lattice.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = _p_part(G.order, p)
    if q == 1:
        return G.subgroup_from_indices([G.identity_index])
    table = G.mult_table()
    e = G.identity_index
    orders = G.element_orders()

    def p_power_part(i: int) -> int:
        o = orders[i]
        k = i
        step = o // _p_part(o, p)
        # i ** step has order equal to the p-part of o
        out = e
        for _ in range(step):
            out = table[out][i]
        return out

    seed = next(i for i in range(G.order) if orders[i] % p == 0)
    P = G.closure_indices([p_power_part(seed)])
    while len(P) < q:
        normalizer = [g for g in range(G.order)
                      if G.conjugate_indices(g, P) == P]
        grown = False
        for h in normalizer:
            if h in P:
                continue
            hp = p_power_part(h)
            if hp in P:
                continue
            J = G.closure_indices(P | {hp})
            if len(J) == _p_part(len(J), p):
                P = J
                grown = True
                break
        if not grown:  # cannot happen for a correct table
            raise AssertionError("Sylow growth stalled")
    conjugates = {G.conjugate_indices(g, P) for g in range(G.order)}
    return G.subgroup_from_indices(min(conjugates, key=sorted))


def subgroup_structure(G: MatGroup, H: MatGroup) -> tuple[MatGroup, MatGroup, int]:
    """Normalizer, centralizer, and the index [N_G(H) : C_G(H)]."""
    if not G.contains_subgroup(H):
        raise ValueError("H is not a subgroup of G")
    table = G.mult_table()
    hidx = sorted(G.indices_of_subgroup(H))
    hset = frozenset(hidx)
    normalizer = [g for g in range(G.order) if G.conjugate_indices(g, hset) == hset]
    centralizer = [g for g in range(G.order)
                   if all(table[g][h] == table[h][g] for h in hidx)]
    N = G.subgroup_from_indices(normalizer)
    C = G.subgroup_from_indices(centralizer)
    return N, C, N.order // C.order


def _op_core_indices(G: MatGroup | GroupTable, p: int) -> frozenset[int]:
    """The element indices of O^p(G), the smallest normal subgroup with
    p-group quotient.

    It is generated by the elements of order prime to p; the p-power index is
    re-checked after closure.
    """
    orders = G.element_orders()
    core = G.closure_indices([i for i in range(G.order) if orders[i] % p != 0])
    quotient = G.order // len(core)
    assert quotient == _p_part(quotient, p), "core index is not a p-power"
    return core


def op_core(G: MatGroup, p: int) -> MatGroup:
    """O^p(G), the smallest normal subgroup with p-group quotient."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return G.subgroup_from_indices(_op_core_indices(G, p))


def element_order(g: np.ndarray) -> int:
    mat = intmat(g)
    ident = identity_matrix(mat.shape[0])
    power = mat
    for o in range(1, MAX_GROUP_ORDER + 1):
        if np.array_equal(power, ident):
            return o
        if any(abs(int(x)) > _ENTRY_GUARD for x in power.flat):
            raise BoundExceededError("entry growth certifies infinite order")
        power = power @ mat
    raise BoundExceededError(f"element order exceeds the bound {MAX_GROUP_ORDER}")


def classify_element(g) -> ElementProfile:
    """Order and rank(g - 1) of a finite-order unimodular matrix."""
    mat = intmat(g)
    if not is_unimodular(mat):
        raise NonUnimodularError("element has |det| != 1")
    order = element_order(mat)
    return ElementProfile.of(order, rank(mat - identity_matrix(len(mat))))


def element_profiles(G: MatGroup) -> list[ElementProfile]:
    """``classify_element`` of every element of G, in canonical order, read
    from the group's element orders and fixed ranks."""
    return [ElementProfile.of(o, G.n - r)
            for o, r in zip(G.element_orders(), G.element_fixed_ranks())]


def is_fixed_point_free(H: MatGroup) -> bool:
    """True when no nonidentity element fixes a nonzero lattice vector."""
    e = H.identity_index
    return all(r == 0 for i, r in enumerate(H.element_fixed_ranks()) if i != e)
