"""Subgroup lattice computations and descending series.

Subgroups are verified closed sets of elements of a fixed parent group, with
a normality flag established by explicit conjugation checks.  Series are
descending chains of such subgroups; the dimension series is assembled
directly from its defining product of power subgroups of the lower central
terms.  Quotients come back as full FiniteGroup instances over canonical
(minimal-key) coset representatives, so every series computation can recurse
into them, which is how Fitting heights are measured; the projection onto a
quotient is verified a homomorphism on every pair of elements.
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
    """Verified subgroup of a FiniteGroup: closure and normality are checked."""

    __slots__ = ("group", "keys", "gens", "is_normal")

    def __init__(self, group: FiniteGroup, keys, gens=()):
        self.group = group
        self.keys = frozenset(keys)
        self.gens = tuple(gens)
        e = group.identity.key
        if e not in self.keys:
            raise ForeignElement("subgroup candidate is missing the identity")
        for k in self.keys:
            if k not in group._index:
                raise ForeignElement(f"key {k!r} is not an element of the parent group")
        for k1 in self.keys:
            for k2 in self.keys:
                if group._mul_keys(k1, k2) not in self.keys:
                    raise ForeignElement(
                        f"candidate set is not closed: {group._repr_key(k1)} * {group._repr_key(k2)} escapes"
                    )
        normal = True
        for g in group.generators:
            for k in self.keys:
                if group.conjugate(group.element(k), g).key not in self.keys:
                    normal = False
                    break
            if not normal:
                break
        self.is_normal = normal

    @property
    def order(self) -> int:
        return len(self.keys)

    @property
    def is_trivial(self) -> bool:
        return len(self.keys) == 1

    @property
    def is_whole(self) -> bool:
        return len(self.keys) == self.group.order

    def elements(self) -> tuple:
        return tuple(self.group.element(k) for k in sorted(self.keys))

    def contains(self, x: GroupElement) -> bool:
        self.group._check(x)
        return x.key in self.keys

    def __contains__(self, x: GroupElement) -> bool:
        return self.contains(x)

    def __le__(self, other: "Subgroup") -> bool:
        if not isinstance(other, Subgroup) or other.group is not self.group:
            raise MismatchedParent("cannot compare subgroups of different groups")
        return self.keys <= other.keys

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.group is other.group
            and self.keys == other.keys
        )

    def __hash__(self):
        return hash((id(self.group), self.keys))

    def __repr__(self):
        tag = ", normal" if self.is_normal else ""
        return f"Subgroup(order={self.order}{tag})"


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, [G.identity.key])


def whole_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, G._keys, gens=G.generators)


def _closure_keys(G: FiniteGroup, gen_keys) -> frozenset:
    seen = {G.identity.key}
    gen_keys = [k for k in gen_keys if k != G.identity.key]
    frontier = [G.identity.key]
    while frontier:
        fresh = []
        for k in frontier:
            for gk in gen_keys:
                prod = G._mul_keys(k, gk)
                if prod not in seen:
                    seen.add(prod)
                    fresh.append(prod)
        frontier = fresh
    return frozenset(seen)


def generated_subgroup(G: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup of G containing the given elements."""
    gens = tuple(gens)
    for x in gens:
        G._check(x)
    return Subgroup(G, _closure_keys(G, [x.key for x in gens]), gens=gens)


def normal_closure(G: FiniteGroup, gens) -> Subgroup:
    """Smallest normal subgroup of G containing the given elements."""
    gens = tuple(gens)
    for x in gens:
        G._check(x)
    keys = _closure_keys(G, [x.key for x in gens])
    while True:
        extra = []
        for k in keys:
            x = G.element(k)
            for g in G.generators:
                ck = G.conjugate(x, g).key
                if ck not in keys:
                    extra.append(ck)
        if not extra:
            break
        keys = _closure_keys(G, list(keys) + extra)
    sub = Subgroup(G, keys, gens=gens)
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
    comms = set()
    for h in H.elements():
        for k in K.elements():
            comms.add(G.commutator(h, k).key)
    return Subgroup(G, _closure_keys(G, comms), gens=tuple(G.element(c) for c in sorted(comms)))


def power_subgroup(G: FiniteGroup, H: Subgroup, n: int) -> Subgroup:
    """Subgroup generated by the n-th powers of the elements of H."""
    _same_parent(G, H, "subgroup")
    if n < 1:
        raise ValueError(f"power subgroup needs a positive exponent, got {n}")
    powers = {G.power(h, n).key for h in H.elements()}
    return Subgroup(G, _closure_keys(G, powers), gens=tuple(G.element(k) for k in sorted(powers)))


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
    i = 2
    while not terms[-1].is_trivial:
        if i > SERIES_LENGTH_CAP:
            raise BudgetExceeded("dimension series failed to reach the trivial subgroup")
        gen_keys = set()
        for j in range(1, len(gamma.terms) + 1):
            gj = gamma.term(j)
            k = 0
            while j * p**k < i:
                k += 1
            q = p**k
            for x in gj.elements():
                gen_keys.add(G.power(x, q).key)
        terms.append(Subgroup(G, _closure_keys(G, gen_keys)))
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
        backend = _CosetBackend(parent, normal.keys)
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
        proj = np.array(
            [self.group._index[self._backend.rep_of[k]] for k in self.parent._keys],
            dtype=np.int64,
        )
        if not np.array_equal(proj[tp], tq[np.ix_(proj, proj)]):
            raise NotNormal("projection fails to be a homomorphism")

    def project(self, x: GroupElement) -> GroupElement:
        self.parent._check(x)
        return self.group.element(self._backend.rep_of[x.key])

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
    keys = [
        x.key for x in G.elements() if all(phi(x) == x for phi in phis)
    ]
    return Subgroup(G, keys)


def element_centralizer(G: FiniteGroup, g: GroupElement) -> Subgroup:
    """C_G(g) via the inner automorphism of g."""
    return centralizer(G, [inner_automorphism(G, g)])


def is_nilpotent_subgroup(G: FiniteGroup, H: Subgroup) -> bool:
    """Lower central series of H (inside G's arithmetic) reaches the identity."""
    _same_parent(G, H, "subgroup")
    cur = H.keys
    while True:
        comms = set()
        for hk in cur:
            h = G.element(hk)
            for x in H.elements():
                comms.add(G.commutator(h, x).key)
        nxt = _closure_keys(G, comms)
        if nxt == cur:
            return len(cur) == 1
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
