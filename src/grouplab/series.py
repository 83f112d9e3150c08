"""Subgroup lattice computations and descending series.

A subgroup is a read-only boolean mask over its parent group's element
indices, verified at construction over rows of the Cayley table: closed
under products, with a normality flag from conjugation by each generator.
Closures, commutator and power subgroups, normal closures and centralizers
are computed on index arrays, reading products from the table T and
inverses from the inverse array, never one element handle at a time.
Series are descending chains of such subgroups; the dimension series is
assembled directly from its defining product of power subgroups of the
lower central terms.  Quotients come back as full FiniteGroup instances over
canonical (minimal-key) coset representatives, so every series computation
can recurse into them, which is how Fitting heights are measured; the
projection onto a quotient is verified a homomorphism on every pair of
elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    ForeignElement,
    MismatchedParent,
    NotAPGroup,
    NotNormal,
    NotSolvable,
)
from .groups import (
    Automorphism,
    FiniteGroup,
    GroupElement,
    _CosetBackend,
    inner_automorphism,
)

__all__ = [
    "Subgroup",
    "NormalSeries",
    "QuotientGroup",
    "NpVerdict",
    "GroupProfile",
    "trivial_subgroup",
    "whole_subgroup",
    "generated_subgroup",
    "normal_closure",
    "commutator_subgroup",
    "power_subgroup",
    "lower_central_series",
    "derived_series",
    "dimension_series",
    "verify_np_series",
    "quotient_group",
    "centralizer",
    "element_centralizer",
    "is_nilpotent_subgroup",
    "fitting_subgroup",
    "fitting_height",
    "is_powerful",
    "structure_predicates",
]

SERIES_LENGTH_CAP = 4096


class Subgroup:
    """Verified subgroup of a FiniteGroup, stored as a boolean mask over its indices.

    The mask is read-only; ``idx`` is the sorted index array it marks.  At
    construction closure is verified over table rows (every product a·b with
    a, b in the subgroup stays inside) and normality over conjugation by each
    generator of the parent.
    """

    __slots__ = ("group", "mask", "idx", "is_normal")

    def __init__(self, group: FiniteGroup, mask):
        mask = np.array(mask, dtype=bool)
        if mask.shape != (group.order,):
            raise ForeignElement(
                f"mask of shape {mask.shape} does not index a group of order {group.order}"
            )
        mask.flags.writeable = False
        idx = np.flatnonzero(mask)
        idx.flags.writeable = False
        self.group = group
        self.mask = mask
        self.idx = idx
        if not mask[group.index_of(group.identity)]:
            raise ForeignElement("subgroup candidate is missing the identity")
        T = group.table()
        for a in idx:
            inside = mask[T[a, idx]]
            if not inside.all():
                b = idx[np.argmin(inside)]
                raise ForeignElement(
                    f"candidate set is not closed: {group.element_at(a)!r} * "
                    f"{group.element_at(b)!r} escapes"
                )
        inv = group.inverse_indices()
        gens = [group.index_of(x) for x in group.generators]
        self.is_normal = all(mask[T[T[inv[g], idx], g]].all() for g in gens)

    @property
    def order(self) -> int:
        return len(self.idx)

    @property
    def is_trivial(self) -> bool:
        return len(self.idx) == 1

    @property
    def is_whole(self) -> bool:
        return len(self.idx) == self.group.order

    def elements(self) -> tuple:
        return tuple(self.group.element_at(i) for i in self.idx)

    def contains(self, x: GroupElement) -> bool:
        return bool(self.mask[self.group.index_of(x)])

    def __contains__(self, x: GroupElement) -> bool:
        return self.contains(x)

    def __le__(self, other: "Subgroup") -> bool:
        if not isinstance(other, Subgroup) or other.group is not self.group:
            raise MismatchedParent("cannot compare subgroups of different groups")
        return not np.any(self.mask & ~other.mask)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.group is other.group
            and np.array_equal(self.mask, other.mask)
        )

    def __hash__(self):
        return hash((id(self.group), self.mask.tobytes()))

    def __repr__(self):
        tag = ", normal" if self.is_normal else ""
        return f"Subgroup(order={self.order}{tag})"


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, _closure(G, ()))


def whole_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, np.ones(G.order, dtype=bool))


def _closure(G: FiniteGroup, gens) -> np.ndarray:
    """Mask of the subgroup generated by the given element indices.

    A generator already inside the span so far is dropped, so each one kept
    at least doubles the span and at most log2|G| are kept.  The span grows
    breadth-first by right multiplication with the kept generators, one
    table block |frontier| x |kept| per layer.
    """
    T = G.table()
    gens = np.asarray(gens, dtype=np.int64)
    mask = np.zeros(G.order, dtype=bool)
    mask[G.index_of(G.identity)] = True
    kept = []
    while True:
        outside = gens[~mask[gens]]
        if not outside.size:
            return mask
        kept.append(outside[0])
        frontier = np.flatnonzero(mask)
        while frontier.size:
            fresh = np.zeros(G.order, dtype=bool)
            fresh[T[np.ix_(frontier, kept)]] = True
            fresh &= ~mask
            mask |= fresh
            frontier = np.flatnonzero(fresh)


def _power_map(G: FiniteGroup, k: int) -> np.ndarray:
    """P[x] = index of x^k for every element index x (k >= 0), by repeated squaring."""
    T = G.table()
    result = np.full(G.order, G.index_of(G.identity), dtype=np.int64)
    base = np.arange(G.order)
    while k > 0:
        if k & 1:
            result = T[result, base]
        base = T[base, base]
        k >>= 1
    return result


def _commutator_values(G: FiniteGroup, hs, ks) -> np.ndarray:
    """Mask of the values [h, k] = (kh)^-1 (hk) over h in hs and k in ks."""
    T = G.table()
    inv = G.inverse_indices()
    ks = np.asarray(ks, dtype=np.int64)
    values = np.zeros(G.order, dtype=bool)
    for h in hs:
        values[T[inv[T[ks, h]], T[h, ks]]] = True
    return values


def generated_subgroup(G: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup of G containing the given elements."""
    return Subgroup(G, _closure(G, [G.index_of(x) for x in gens]))


def normal_closure(G: FiniteGroup, gens) -> Subgroup:
    """Smallest normal subgroup of G containing the given elements.

    It is generated by the conjugates s^x = x^-1 s x of the given elements s
    over every x in G, read from the table as one |G| x len(gens) block.
    """
    T = G.table()
    inv = G.inverse_indices()
    given = np.array([G.index_of(s) for s in gens], dtype=np.int64)
    conjugates = T[T[inv[:, None], given], np.arange(G.order)[:, None]]
    sub = Subgroup(G, _closure(G, conjugates.ravel()))
    if not sub.is_normal:
        raise NotNormal("normal closure failed to stabilize")  # unreachable guard
    return sub


def _same_parent(G: FiniteGroup, H: Subgroup, what: str):
    if H.group is not G:
        raise MismatchedParent(f"{what} lives in a different group")


def commutator_subgroup(G: FiniteGroup, H: Subgroup, K: Subgroup) -> Subgroup:
    """Subgroup generated by all [h, k] with h in H, k in K."""
    _same_parent(G, H, "first subgroup")
    _same_parent(G, K, "second subgroup")
    values = _commutator_values(G, H.idx, K.idx)
    return Subgroup(G, _closure(G, np.flatnonzero(values)))


def power_subgroup(G: FiniteGroup, H: Subgroup, n: int) -> Subgroup:
    """Subgroup generated by the n-th powers of the elements of H."""
    _same_parent(G, H, "subgroup")
    if n < 1:
        raise ValueError(f"power subgroup needs a positive exponent, got {n}")
    return Subgroup(G, _closure(G, _power_map(G, n)[H.idx]))


@dataclass(frozen=True)
class NormalSeries:
    """Descending chain of verified-normal subgroups starting at the group."""

    group: FiniteGroup
    kind: str
    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a series needs at least one term")
        if not self.terms[0].is_whole:
            raise ValueError("a series must start at the whole group")
        prev = None
        for t in self.terms:
            _same_parent(self.group, t, "series term")
            if not t.is_normal:
                raise NotNormal(f"series term of order {t.order} is not normal in the parent")
            if prev is not None and not (t <= prev):
                raise ValueError("series terms must be descending")
            prev = t

    def __len__(self):
        return len(self.terms)

    def term(self, i: int) -> Subgroup:
        """1-based term; indices beyond the chain return the stabilized tail."""
        if i < 1:
            raise ValueError(f"series indices are 1-based, got {i}")
        if i <= len(self.terms):
            return self.terms[i - 1]
        return self.terms[-1]

    def orders(self) -> list[int]:
        return [t.order for t in self.terms]

    def reaches_trivial(self) -> bool:
        return self.terms[-1].is_trivial

    def __repr__(self):
        return f"NormalSeries({self.kind}, orders={self.orders()})"


def lower_central_series(G: FiniteGroup) -> NormalSeries:
    """G = γ_1 ≥ γ_2 ≥ ..., γ_{i+1} = [γ_i, G], cut at stabilization."""
    whole = whole_subgroup(G)
    terms = [whole]
    while True:
        nxt = commutator_subgroup(G, terms[-1], whole)
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return NormalSeries(G, "lower-central", tuple(terms))


def derived_series(G: FiniteGroup) -> NormalSeries:
    """G ≥ [G,G] ≥ [[G,G],[G,G]] ≥ ..., cut at stabilization."""
    terms = [whole_subgroup(G)]
    while True:
        nxt = commutator_subgroup(G, terms[-1], terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return NormalSeries(G, "derived", tuple(terms))


def _p_of(G: FiniteGroup, p) -> int:
    pk = G.is_p_group()
    if pk is None:
        raise NotAPGroup(f"group order {G.order} is not a prime power")
    if p is not None and p != pk[0]:
        raise NotAPGroup(f"group order {G.order} is a power of {pk[0]}, not of {p}")
    return pk[0]


def dimension_series(G: FiniteGroup, p: int | None = None) -> NormalSeries:
    """D_i = product of all γ_j^{p^k} with j·p^k ≥ i, down to the trivial subgroup."""
    p = _p_of(G, p)
    gamma = lower_central_series(G)
    terms = [gamma.terms[0]]
    power_maps = {}
    i = 2
    while not terms[-1].is_trivial:
        if i > SERIES_LENGTH_CAP:
            raise BudgetExceeded("dimension series failed to reach the trivial subgroup")
        gens = []
        for j in range(1, len(gamma.terms) + 1):
            k = 0
            while j * p**k < i:
                k += 1
            q = p**k
            if q not in power_maps:
                power_maps[q] = _power_map(G, q)
            gens.append(power_maps[q][gamma.term(j).idx])
        terms.append(Subgroup(G, _closure(G, np.concatenate(gens))))
        i += 1
    return NormalSeries(G, "dimension", tuple(terms))


@dataclass(frozen=True)
class NpVerdict:
    """Outcome of a series-condition scan; failure names the first bad index pair."""

    ok: bool
    failure: str | None = None

    def __bool__(self):
        return self.ok


def verify_np_series(G: FiniteGroup, series: NormalSeries, p: int) -> NpVerdict:
    """Check [S_i, S_j] ≤ S_{i+j} and S_i^p ≤ S_{pi}, trivial beyond the chain."""
    terms = series.terms
    m = len(terms)
    triv = trivial_subgroup(G)

    def at(i: int) -> Subgroup:
        return terms[i - 1] if i <= m else triv

    pairs = sorted(
        ((i, j) for i in range(1, m + 1) for j in range(i, m + 1)),
        key=lambda ij: (ij[0] + ij[1], ij[0]),
    )
    for i, j in pairs:
        if not (commutator_subgroup(G, at(i), at(j)) <= at(i + j)):
            return NpVerdict(False, f"[S_{i}, S_{j}] is not inside S_{i + j}")
    for i in range(1, m + 1):
        if not (power_subgroup(G, at(i), p) <= at(p * i)):
            return NpVerdict(False, f"S_{i}^{p} is not inside S_{p * i}")
    return NpVerdict(True)


class QuotientGroup:
    """G/N as a FiniteGroup over minimal-key coset representatives."""

    __slots__ = ("parent", "normal", "group", "_backend")

    def __init__(self, parent: FiniteGroup, normal: Subgroup):
        _same_parent(parent, normal, "normal subgroup")
        if not normal.is_normal:
            raise NotNormal(f"subgroup of order {normal.order} is not normal")
        backend = _CosetBackend(parent, normal.idx)
        group = FiniteGroup(backend)
        if group.order * normal.order != parent.order:
            raise NotNormal("coset decomposition does not partition the group")
        self.parent = parent
        self.normal = normal
        self.group = group
        self._backend = backend
        self._verify_projection()

    def _verify_projection(self):
        """The projection G -> G/N is a homomorphism, checked on every pair."""
        tp = self.parent.table()
        tq = self.group.table()
        keys = self.parent._keys
        proj = np.array(
            [self.group._index[keys[r]] for r in self._backend.rep], dtype=np.int64
        )
        for x in range(self.parent.order):
            if not np.array_equal(proj[tp[x]], tq[proj[x], proj]):
                raise NotNormal("projection fails to be a homomorphism")

    def project(self, x: GroupElement) -> GroupElement:
        rep = self._backend.rep[self.parent.index_of(x)]
        return self.group.element(self.parent._keys[rep])

    def lift(self, qx: GroupElement) -> GroupElement:
        self.group._check(qx)
        return self.parent.element(qx.key)

    def __repr__(self):
        return f"QuotientGroup(order={self.group.order}, modulus={self.normal.order})"


def quotient_group(G: FiniteGroup, N: Subgroup) -> QuotientGroup:
    return QuotientGroup(G, N)


def centralizer(G: FiniteGroup, phis) -> Subgroup:
    """Joint fixed-point subgroup {g : φ(g) = g for every φ}."""
    phis = tuple(phis)
    for phi in phis:
        if not isinstance(phi, Automorphism) or phi.source is not G:
            raise MismatchedParent("centralizer needs automorphisms of the same group")
    mask = np.ones(G.order, dtype=bool)
    for phi in phis:
        mask &= np.asarray(phi.image_indices) == np.arange(G.order)
    return Subgroup(G, mask)


def element_centralizer(G: FiniteGroup, g: GroupElement) -> Subgroup:
    """C_G(g) via the inner automorphism of g."""
    return centralizer(G, [inner_automorphism(G, g)])


def is_nilpotent_subgroup(G: FiniteGroup, H: Subgroup) -> bool:
    """Lower central series of H (inside G's arithmetic) reaches the identity."""
    _same_parent(G, H, "subgroup")
    cur = H.mask
    while True:
        nxt = _closure(G, np.flatnonzero(_commutator_values(G, np.flatnonzero(cur), H.idx)))
        if np.array_equal(nxt, cur):
            return bool(cur.sum() == 1)
        cur = nxt


def fitting_subgroup(G: FiniteGroup) -> Subgroup:
    """Largest normal nilpotent subgroup, assembled element by element."""
    good = []
    for x in G.elements():
        if is_nilpotent_subgroup(G, normal_closure(G, [x])):
            good.append(x)
    fit = generated_subgroup(G, good)
    if not (fit.is_normal and is_nilpotent_subgroup(G, fit)):
        raise NotNormal("fitting candidate failed verification")  # unreachable guard
    return fit


def fitting_height(G: FiniteGroup) -> int:
    """Number of Fitting-quotient steps from G down to the trivial group."""
    if not derived_series(G).reaches_trivial():
        raise NotSolvable(f"group of order {G.order} is not solvable")
    height = 0
    cur = G
    while cur.order > 1:
        fit = fitting_subgroup(cur)
        cur = QuotientGroup(cur, fit).group
        height += 1
    return height


def is_powerful(G: FiniteGroup, p: int | None = None) -> bool:
    """[G,G] ≤ G^p for odd p; [G,G] ≤ G^4 for p = 2."""
    p = _p_of(G, p)
    whole = whole_subgroup(G)
    derived = commutator_subgroup(G, whole, whole)
    target = power_subgroup(G, whole, 4 if p == 2 else p)
    return derived <= target


@dataclass(frozen=True)
class GroupProfile:
    """Structural summary derived from series terminations."""

    order: int
    exponent: int
    is_nilpotent: bool
    nilpotency_class: int | None
    is_solvable: bool
    derived_length: int | None
    p_group: tuple | None


def structure_predicates(G: FiniteGroup) -> GroupProfile:
    lcs = lower_central_series(G)
    der = derived_series(G)
    nilpotent = lcs.reaches_trivial()
    solvable = der.reaches_trivial()
    return GroupProfile(
        order=G.order,
        exponent=G.exponent(),
        is_nilpotent=nilpotent,
        nilpotency_class=len(lcs.terms) - 1 if nilpotent else None,
        is_solvable=solvable,
        derived_length=len(der.terms) - 1 if solvable else None,
        p_group=G.is_p_group(),
    )
