"""Finite subgroups of GL_n(Z): closure, subgroup lattice, Sylow theory.

A group is one read-only (order, n, n) array of Python ints (``dtype=object``,
as in ``intlinalg``), ``MatGroup.elements``: every element once, in canonical
order (lexicographic on the row-major entries, whose tuple is the element's
key), which makes every "first subgroup" style choice deterministic.  A
subgroup is its parent's array at sorted indices, so it keeps that order and
reads its keys off its parent.  The multiplication table is built on first
use by composing rows: only the rows of the group's one short generating
list (``generators``, the picks of ``small_generating_indices()``) are matrix
products, and every other row is the composite row(h·b) = row(h) ∘ row(b).
Element orders, fixed ranks, inverses and cyclic subgroups are all read from
one cached walk of the powers of each element through the table.  Subgroups
are grown from short generator lists, and conjugacy orbits of subgroups are
closed under conjugation by the picks.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import (
    MAX_GROUP_ORDER,
    MAX_PRIMALITY,
    MAX_SUBGROUP_ENUMERATION,
    MAX_SUBGROUPS,
    BoundExceededError,
    NonUnimodularError,
)
from .intlinalg import det, identity_matrix, intmat

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


class MatGroup:
    """A finite subgroup of GL_n(Z), stored as all elements in canonical order."""

    def __init__(self, n: int, elements: np.ndarray, keys=None):
        """``elements``: the (order, n, n) object array of all elements in
        canonical order; ``keys``: their keys, read off them when not given."""
        self.n = n
        self.elements = elements
        elements.setflags(write=False)
        self._keys: tuple[tuple, ...] = tuple(_keys_of(elements) if keys is None else keys)
        self._table: tuple[tuple[int, ...], ...] | None = None
        self._picks: tuple[int, ...] | None = None
        self._subgroups: list["MatGroup"] | None = None
        self._classes: list[list["MatGroup"]] | None = None

    # -- basic structure ----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def identity_index(self) -> int:
        n = self.n
        return self._index[tuple(int(i == j) for i in range(n) for j in range(n))]

    @property
    def generators(self) -> list[np.ndarray]:
        """The elements at ``small_generating_indices()`` (none for the trivial group)."""
        return [self.elements[i] for i in self.small_generating_indices()]

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
        """``table[a][b]`` is the index of a·b.  Row a is the index of a·x for
        every element x, in canonical order.

        The elements are walked in canonical order.  Each one outside the
        span of the picks so far is picked, and its row is looked up from the
        products a @ elements.  The span is then closed under left
        multiplication by the picks: c = g·b for a pick g gets the row
        row(g) ∘ row(b), since c·x = g·(b·x).  This assumes that the elements
        are closed under products and so form a group; ``validate()`` checks
        every row against its products."""
        if self._table is None:
            N, e = self.order, self.identity_index
            index = self._index.__getitem__
            rows: list[tuple[int, ...] | None] = [None] * N
            rows[e] = tuple(range(N))
            picks, span = [], [e]
            for a in range(N):
                if rows[a] is not None:
                    continue
                rows[a] = tuple(map(index, _keys_of(self.elements[a] @ self.elements)))
                picks.append(a)
                span.append(a)
                # the new pick moves every element spanned so far; the old
                # picks move only what it adds
                frontier = span
                while frontier:
                    new = []
                    for g in picks:
                        row_g = rows[g]
                        for b in frontier:
                            c = row_g[b]
                            if rows[c] is None:
                                rows[c] = tuple(map(row_g.__getitem__, rows[b]))
                                new.append(c)
                    span += new
                    frontier = new
            self._picks = tuple(picks)
            self._table = tuple(rows)
        return self._table

    @cached_property
    def _powers(self) -> tuple[tuple[int, ...], ...]:
        """(g, g^2, ..., g^|g| = 1) for each element g, as indices: the one
        walk of powers through the table that orders, fixed ranks, inverses
        and cyclic subgroups all read.  An element order divides |G|, so a
        walk that has not reached the identity after |G| steps means the
        table is not a group's, and it raises."""
        e, N = self.identity_index, self.order
        powers = []
        for i, row in enumerate(self.mult_table()):
            c, k = [i], i
            while k != e:
                if len(c) == N:
                    raise ValueError(f"the powers of element {i} do not reach the "
                                     f"identity within the group order {N}")
                k = row[k]
                c.append(k)
            powers.append(tuple(c))
        return tuple(powers)

    @cached_property
    def _inverses(self) -> tuple[int, ...]:
        return tuple(c[-2] if len(c) > 1 else c[0] for c in self._powers)

    @cached_property
    def _orders(self) -> tuple[int, ...]:
        return tuple(map(len, self._powers))

    @cached_property
    def _fixed_ranks(self) -> tuple[int, ...]:
        traces = self._traces
        return tuple(sum(map(traces.__getitem__, c)) // len(c) for c in self._powers)

    @cached_property
    def _traces(self) -> tuple[int, ...]:
        step = self.n + 1  # the diagonal of a row-major key
        return tuple(sum(k[::step]) for k in self._keys)

    def inverse_indices(self) -> tuple[int, ...]:
        return self._inverses

    def element_orders(self) -> tuple[int, ...]:
        return self._orders

    def element_fixed_ranks(self) -> tuple[int, ...]:
        """rank Fix(g) for each element g, in canonical element order.

        (1/|g|)·Σ_k g^k projects Q^n onto Fix(g) ⊗ Q, so its trace
        (1/|g|)·Σ_k tr(g^k) is the rank of the fixed lattice."""
        return self._fixed_ranks

    def fixed_rank(self) -> int:
        """rank of the lattice fixed by every element: tr(S)/|G| for the
        Reynolds sum S = Σ_g g, which is |G| times the projection onto it."""
        return sum(self._traces) // self.order

    # -- subgroup plumbing ---------------------------------------------------

    def subgroup_from_indices(self, indices) -> "MatGroup":
        """The subgroup with the given element indices.  G's canonical order
        restricted to them is H's, so H takes G's keys.  H builds its own
        table, by composing rows, on its first ``mult_table`` call; most
        subgroups made (by ``subgroups``, say) never need one."""
        idx = sorted(set(indices))
        return MatGroup(self.n, self.elements[idx], map(self._keys.__getitem__, idx))

    def closure_indices(self, seed) -> frozenset[int]:
        """Indices of the subgroup generated by the given element indices
        (a finite group, so products alone close it)."""
        table = self.mult_table()
        found = {self.identity_index} | set(seed)
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

    def contains_subgroup(self, H: "MatGroup") -> bool:
        return self.n == H.n and self._index.keys() >= set(H._keys)

    def indices_of_subgroup(self, H: "MatGroup") -> frozenset[int]:
        return frozenset(map(self._index.__getitem__, H._keys))

    def conjugate_indices(self, g: int, indices) -> frozenset[int]:
        table = self.mult_table()
        ginv = self.inverse_indices()[g]
        return frozenset(table[table[g][h]][ginv] for h in indices)

    def small_generating_indices(self, indices=None) -> tuple[int, ...]:
        """A short list of ``indices`` (by default every element, in canonical
        order) that generates the same subgroup: each index not yet in the
        span of those picked before it is picked, in the order given.  Once
        the span is the subgroup ``indices`` generate, nothing more is picked.
        With no ``indices`` these are the picks that ``mult_table`` makes."""
        if indices is None:
            self.mult_table()
            return self._picks
        gens: list[int] = []
        span = self.closure_indices(())
        for i in indices:
            if i not in span:
                gens.append(i)
                span = self.closure_indices(gens)
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
        assert all(abs(det(m)) == 1 for m in self.elements), "non-unimodular element"
        # checked before mult_table, whose lookups would raise KeyError instead
        index = self._index.get
        products = [tuple(map(index, _keys_of(a @ self.elements))) for a in self.elements]
        assert all(None not in row for row in products), "not closed under products"
        table, e = self.mult_table(), self.identity_index
        assert tuple(products) == table, "table row differs from the products"
        inv = self.inverse_indices()
        assert all(table[i][inv[i]] == e for i in range(self.order)), "missing inverse"
        for o in self.element_orders():
            assert self.order % o == 0, "element order does not divide group order"


def _keys_of(mats: np.ndarray) -> list[tuple]:
    """The key of each matrix in an (m, n, n) stack: its row-major entries."""
    return list(map(tuple, mats.reshape(len(mats), -1).tolist()))


def trivial_group(n: int) -> MatGroup:
    return MatGroup(n, identity_matrix(n)[None])


def generate(gens, max_order: int = MAX_GROUP_ORDER) -> MatGroup:
    """Close a list of unimodular matrices under multiplication.

    Every generator is read first, so a malformed one raises ValueError
    before any is checked.  Then, in order, each must be n x n, for the n of
    the first, and lie in GL_n(Z): NonUnimodularError for |det| != 1.
    BoundExceededError when the closure, the identity included, passes
    ``max_order`` (the group is infinite or larger than requested).
    """
    mats = [intmat(g) for g in gens]
    if not mats:
        raise ValueError("need at least one generator (use trivial_group(n) otherwise)")
    n = len(mats[0])
    for g in mats:
        if g.shape != (n, n):
            raise ValueError("generators of mixed dimensions")
        if abs(det(g)) != 1:
            raise NonUnimodularError("generator has |det| != 1")
    if max_order < 1:  # the identity alone passes it
        raise BoundExceededError(f"closure exceeded max_order={max_order}")
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
    return MatGroup(n, np.array(keys, dtype=object).reshape(-1, n, n), keys)


def check_subgroup_enumeration(order: int) -> None:
    """Refuse to enumerate the subgroups of a group past ``MAX_SUBGROUP_ENUMERATION``."""
    if order > MAX_SUBGROUP_ENUMERATION:
        raise BoundExceededError(f"group order {order} exceeds the subgroup "
                                 f"enumeration bound {MAX_SUBGROUP_ENUMERATION}")


def subgroups(G: MatGroup) -> list[MatGroup]:
    """All subgroups of G, canonically ordered by (order, element keys).

    Every subgroup is a join of cyclic subgroups.  Starting from the trivial
    group, each subgroup found is joined with each cyclic subgroup it does
    not hold, by ``_join_indices`` on its own short generator list plus one
    generator of the cyclic subgroup.  Past ``MAX_SUBGROUPS`` subgroups it
    raises.
    """
    check_subgroup_enumeration(G.order)
    if G._subgroups is not None:
        return list(G._subgroups)
    # one generator per cyclic subgroup; each join adds one to a short list
    cyclic_gens = {frozenset(c): c[0] for c in G._powers}.values()
    table = G.mult_table()
    trivial = G.closure_indices(())
    found, work = {trivial}, [((), trivial)]
    while work:
        gens, S = work.pop()
        for c in cyclic_gens:
            if c in S:
                continue
            J = _join_indices(table, S, gens, c)
            if J not in found:
                found.add(J)
                if len(found) > MAX_SUBGROUPS:
                    raise BoundExceededError(f"the subgroup lattice passes the subgroup "
                                             f"count bound {MAX_SUBGROUPS}")
                work.append((gens + (c,), J))
    # sorted index sets order subgroups of equal order as their canonical keys do
    subs = [G.subgroup_from_indices(s) for s in sorted(found, key=lambda s: (len(s), sorted(s)))]
    G._subgroups = subs
    return list(subs)


def _join_indices(table, S: frozenset[int], gens: tuple[int, ...], c: int) -> frozenset[int]:
    """Indices of the subgroup generated by the subgroup S, which ``gens``
    generate, and the element c, closed from S rather than from the identity.

    Start from S ∪ c·S and multiply every element outside S on the left by
    each of ``gens + (c,)`` until nothing new appears.  The result is closed
    under those generators: gens maps S into S, c maps S onto c·S, and every
    other element has met each generator.  It holds the identity and only
    products of the generators, so it is the subgroup they generate.
    ``table`` is the multiplication table of the group that holds them."""
    found = set(S)
    frontier = [x for x in map(table[c].__getitem__, S) if x not in found]
    found.update(frontier)
    rows = [table[g] for g in gens + (c,)]
    while frontier:
        new = []
        for row in rows:
            for b in frontier:
                x = row[b]
                if x not in found:
                    found.add(x)
                    new.append(x)
        frontier = new
    return frozenset(found)


def _conjugates(G: MatGroup, S: frozenset[int]) -> set[frozenset[int]]:
    """The conjugacy orbit {gSg^-1 : g in G} of the index set S, closed
    under conjugation by G's short generating list: a set of subsets that
    conjugation by the generators maps into itself is mapped into itself by
    all of G, since every element is a product of generators."""
    orbit, frontier = {S}, [S]
    for T in frontier:
        for g in G.small_generating_indices():
            R = G.conjugate_indices(g, T)
            if R not in orbit:
                orbit.add(R)
                frontier.append(R)
    return orbit


def subgroup_conjugacy_classes(G: MatGroup) -> list[list[MatGroup]]:
    """Partition of the subgroup list into conjugacy classes.

    Each class is sorted canonically, classes ordered by their first member.
    The partition is computed once per group.
    """
    if G._classes is None:
        subs = subgroups(G)
        by_indices = {G.indices_of_subgroup(H): H for H in subs}
        seen, classes = set(), []
        for H in subs:
            idx = G.indices_of_subgroup(H)
            if idx in seen:
                continue
            orbit = _conjugates(G, idx)
            seen |= orbit
            classes.append([by_indices[o] for o in sorted(orbit, key=sorted)])
        G._classes = classes
    return [list(cls) for cls in G._classes]


def p_part(m: int, p: int) -> int:
    """The largest power of p that divides m."""
    q = 1
    while m % p == 0:
        m //= p
        q *= p
    return q


def sylow(G: MatGroup, p: int) -> MatGroup:
    """A deterministic Sylow p-subgroup of G.

    One Sylow subgroup is grown from a list of generators: while |P| is below
    the p-part q of |G|, the first element h (in canonical order) outside P
    whose order is a power of p and which normalizes P is appended, and P
    becomes the closure of the list.  h normalizes P when it conjugates P's
    generators into P, since then hPh^-1 <= P and the two have one order.
    - P<h> is a p-group: P is normal in it and P<h>/P is cyclic, generated by
      the image of h, of p-power order.
    - Some h exists while |P| < q: P lies in a Sylow subgroup S != P, and a
      proper subgroup of a p-group is proper in its normalizer, so
      N_S(P) > P; every element of N_S(P) outside P will do.
    Since all Sylow p-subgroups are conjugate, taking the canonical minimum
    over the conjugates of the result (``_conjugates``) gives the first Sylow
    subgroup in canonical subgroup order without enumerating the full
    subgroup lattice.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = p_part(G.order, p)
    if q == G.order:
        return G
    if q == 1:
        return G.subgroup_from_indices([G.identity_index])
    # an element order divides |G|, so it is a power of p iff it divides q
    p_elements = [i for i, o in enumerate(G.element_orders()) if q % o == 0]
    gens: list[int] = []
    P = G.closure_indices(())
    while len(P) < q:
        gens.append(next(h for h in p_elements
                         if h not in P and G.conjugate_indices(h, gens) <= P))
        P = G.closure_indices(gens)
    return G.subgroup_from_indices(min(_conjugates(G, P), key=sorted))


def subgroup_structure(G: MatGroup, H: MatGroup) -> tuple[MatGroup, MatGroup, int]:
    """Normalizer, centralizer, and the index [N_G(H) : C_G(H)].

    Both are read from H's short generating list in G: g normalizes H when
    it conjugates those generators into H (then gHg^-1 <= H, and the two
    have one order), and centralizes H when it commutes with them."""
    if not G.contains_subgroup(H):
        raise ValueError("H is not a subgroup of G")
    table = G.mult_table()
    hset = G.indices_of_subgroup(H)
    gens = G.small_generating_indices(sorted(hset))
    normalizer = [g for g in range(G.order) if G.conjugate_indices(g, gens) <= hset]
    centralizer = [g for g in range(G.order) if all(table[g][h] == table[h][g] for h in gens)]
    N = G.subgroup_from_indices(normalizer)
    C = G.subgroup_from_indices(centralizer)
    return N, C, N.order // C.order


def _op_core_indices(G: MatGroup, p: int) -> frozenset[int]:
    """The element indices of O^p(G), the smallest normal subgroup with
    p-group quotient.

    It is generated by the elements of order prime to p; the p-power index is
    re-checked after closure.
    """
    orders = G.element_orders()
    core = G.closure_indices([i for i in range(G.order) if orders[i] % p != 0])
    quotient = G.order // len(core)
    assert quotient == p_part(quotient, p), "core index is not a p-power"
    return core


def p_prime_core(G: MatGroup, p: int) -> frozenset[int]:
    """The element indices of O_p'(G), the largest normal subgroup of order
    prime to p.

    The product NM of two normal p'-subgroups is again one, of order
    |N||M|/|N ∩ M|, so O_p'(G) holds every normal p'-subgroup.  An element
    x lies in it exactly when its normal closure, the closure of its
    conjugacy class, has order prime to p, so O_p'(G) is the union of the
    classes of the p'-elements with that property.  K = G at once when p does
    not divide |G|, which reads no table.  ``FpResolution`` re-checks K (a
    subgroup, normal, of order prime to p), so a fault here can cost speed,
    never a wrong dimension or a wrong R6 certificate.
    """
    if G.order % p:
        return frozenset(range(G.order))
    orders, seen, core = G.element_orders(), set(), set()
    for x in range(G.order):
        if x in seen or orders[x] % p == 0:
            continue
        cls = frozenset().union(*_conjugates(G, frozenset((x,))))
        seen |= cls
        if len(G.closure_indices(cls)) % p:
            core |= cls
    return frozenset(core)


def has_p_quotient(G: MatGroup, p: int) -> bool:
    """O^p(G) != G, that is H^1(G, F_p) = Hom(G, F_p) != 0."""
    return len(_op_core_indices(G, p)) < G.order


def has_cyclic_sylow(G: MatGroup, p: int) -> bool:
    """Whether the Sylow p-subgroups of G are cyclic: some element has the
    order q of the p-part of |G|, and it generates a subgroup of order q."""
    return p_part(G.order, p) in G.element_orders()


def op_core(G: MatGroup, p: int) -> MatGroup:
    """O^p(G), the smallest normal subgroup with p-group quotient."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return G.subgroup_from_indices(_op_core_indices(G, p))


def is_fixed_point_free(H: MatGroup) -> bool:
    """True when no nonidentity element fixes a nonzero lattice vector."""
    e = H.identity_index
    return all(r == 0 for i, r in enumerate(H.element_fixed_ranks()) if i != e)
