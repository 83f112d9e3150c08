"""Subgroup lattice computations and descending series.

A subgroup is a read-only boolean mask over its parent group's element
indices.  Whether it is normal is read from conjugation by each generator
the first time is_normal is asked, and kept.  A public Subgroup(G, mask)
verifies that every product of two members stays inside; the library's
subgroups are closed by construction (closure spans, the whole group, fixed
points of automorphisms) and skip that scan.  Closures, commutator and
power subgroups, normal closures and centralizers are computed on index
arrays by the table kernels (kernels), never one element handle at a time.
A normal closure conjugates only the generators its span keeps.  Series
are descending chains of normal subgroups.  A public NormalSeries verifies
each term normal and the chain descending; the lower central, derived and
dimension series are normal and descending by construction and skip those
checks (NormalSeries._trusted).  The dimension series follows Lazard's
recurrence D_i = [D_{i-1}, G]·D_{⌈i/p⌉}^p, one normal closure of generator
commutators and p-th powers per term, and never walks the lower central
series.

A commutator subgroup [H, K], and the N_p-series containment [S_i, S_j] ≤
S_{i+j}, work from generators X of H and Y of K: [H, K] is the normal
closure in <H, K> of the [x, y] over X x Y, and a normal subgroup contains
[H, K] exactly when it contains those.  The whole group is generated by its
own generators, and every subgroup that the series kernels close keeps the
generators kernels._close kept for it, so neither needs an extra closure.

Each group carries one store, filled only through FiniteGroup._keep.
The library builds every subgroup through _subgroup, which keeps it there
under its mask, so each distinct mask is built once per group; a public
Subgroup(G, mask) verifies on every call.  The store also keeps the
lower central, derived and dimension series, commutator subgroups by their
operands, the generators of the subgroups closed here by their masks, and
the kernels' kept maps.  Power subgroups are not kept apart from their
masks, because no caller asks for the same one twice.  A call that raises
keeps nothing.

The upper Fitting series, and with it the Fitting height, is built inside
the group on masks: each term is the set of left Engel elements modulo the
term before (Baer's theorem), found by one walk g -> [g, x] modulo it
(kernels._engel_walk, which also gives Engel indices) per class of cyclic
subgroups, and the Fitting subgroup is its first term, _fitting_mod modulo
the trivial subgroup.  A QuotientGroup(G, N) is a full FiniteGroup over
canonical (minimal-key) coset representatives, with the projection a
homomorphism because N is normal; it serves callers of the public API, and
nothing in the library builds one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    BudgetExceeded,
    ForeignElement,
    MalformedSpec,
    MismatchedParent,
    NotAPGroup,
    NotNormal,
    NotSolvable,
)
from .groups import Automorphism, FiniteGroup, GroupElement

__all__ = [
    "Subgroup",
    "NormalSeries",
    "QuotientGroup",
    "Verdict",
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
    "centralizer",
    "is_nilpotent_subgroup",
    "fitting_height",
    "is_powerful",
    "structure_predicates",
]

SERIES_LENGTH_CAP = 4096


class Subgroup:
    """Subgroup of a FiniteGroup, stored as a boolean mask over its indices.

    The mask is read-only; ``idx`` is the sorted index array it marks.  A
    public Subgroup(G, mask) verifies closure on every pair (every product
    a·b with a, b in the candidate stays inside, kernels._first_escape).
    Every subgroup checks that it holds the identity.  The library builds
    its subgroups, which are closed by construction, through _subgroup
    (Subgroup._closed), which skips the pair scan and keeps each one on the
    parent group.  No subgroup scans for normality when it is built:
    is_normal conjugates its members by each generator of the parent
    (kernels._normalized) on first read and keeps the answer.
    """

    __slots__ = ("group", "mask", "idx", "_normal")

    def __init__(self, group: FiniteGroup, mask):
        self._adopt(group, mask)
        escape = kernels._first_escape(group, self.mask, self.idx)
        if escape is not None:
            a, b = escape
            raise ForeignElement(
                f"candidate set is not closed: {group.element_at(a)!r} * "
                f"{group.element_at(b)!r} escapes"
            )

    @classmethod
    def _closed(cls, group: FiniteGroup, mask) -> "Subgroup":
        """The subgroup with this mask, which the caller has closed by construction."""
        sub = cls.__new__(cls)
        sub._adopt(group, mask)
        return sub

    def _adopt(self, group: FiniteGroup, mask):
        """Everything but the closure scan: the mask's shape and the identity."""
        mask = np.array(mask, dtype=bool)
        if mask.shape != (group.order,):
            raise ForeignElement(
                f"mask of shape {mask.shape} does not index a group of order {group.order}"
            )
        mask.flags.writeable = False
        idx = mask.nonzero()[0]
        idx.flags.writeable = False
        self.group = group
        self.mask = mask
        self.idx = idx
        self._normal = None
        if not mask[group._e]:
            raise ForeignElement("subgroup candidate is missing the identity")

    @property
    def is_normal(self) -> bool:
        """Whether conjugation by every generator of the parent keeps it; scanned once."""
        if self._normal is None:
            self._normal = kernels._normalized(self.group, self.mask, self.idx)
        return self._normal

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


def _subgroup(G: FiniteGroup, mask) -> Subgroup:
    """The subgroup of G with this mask, kept on G.

    Every mask given here is a subgroup by construction: a kernels._close
    span, a union of cosets of the span before each kept generator whose
    walk ends only once every representative times every kept generator
    lies inside, so span·kept ⊆ span; the whole group; or the fixed points
    of automorphisms (centralizer).  So no pair is scanned; the identity is
    checked the first time a mask is asked for on G, and later calls return
    that Subgroup.  The library builds every subgroup here; a public
    Subgroup(G, mask) verifies closure anew.
    """
    mask = np.asarray(mask, dtype=bool)
    return G._keep(("subgroup", mask.tobytes()), lambda: Subgroup._closed(G, mask))


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return _subgroup(G, _closure(G, ()))


def whole_subgroup(G: FiniteGroup) -> Subgroup:
    return _subgroup(G, np.ones(G.order, dtype=bool))


def _closure(G: FiniteGroup, gens) -> np.ndarray:
    """Mask of the subgroup generated by the given element indices (_close)."""
    return kernels._close(G, gens)[0]


def _read_only(a) -> np.ndarray:
    a = np.array(a, dtype=np.int64)
    a.flags.writeable = False
    return a


def _spanned(G: FiniteGroup, mask: np.ndarray, kept) -> Subgroup:
    """The subgroup with this mask, kept on G, and under it the generators _close kept for it."""
    sub = _subgroup(G, mask)
    G._keep(("generators", mask.tobytes()), lambda: _read_only(kept))
    return sub


def _generators(G: FiniteGroup, H: Subgroup) -> np.ndarray:
    """Element indices generating H, kept on G under its mask.

    The whole group is generated by G's own generators, and a subgroup built
    through _spanned has its generators kept already; any other subgroup is
    closed from its elements once.
    """

    def find() -> np.ndarray:
        if H.is_whole:
            return G._gens
        return _read_only(kernels._close(G, H.idx)[1])

    return G._keep(("generators", H.mask.tobytes()), find)


def _commutator_span(G: FiniteGroup, H: Subgroup, K: Subgroup) -> tuple:
    """(mask, kept) of [H, K] as _close returns them.

    With H = <X> and K = <Y> (_generators), [H, K] is the normal closure in
    <H, K> of the [x, y] over X x Y (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 2005, ch. 3), closed under conjugation by X
    and Y (kernels._normal_span).
    """
    xs, ys = _generators(G, H), _generators(G, K)
    brackets = kernels._commutators(G, xs, ys).ravel()
    return kernels._normal_span(G, brackets, np.concatenate([xs, ys]))


def _commutators_inside(G: FiniteGroup, H: Subgroup, K: Subgroup, target: np.ndarray) -> bool:
    """[H, K] ≤ N, for N a normal subgroup of G given by its mask ``target``.

    Only the [x, y] over generators X of H and Y of K are read, which decides
    it, because N is normal: [H, K] is their normal closure in <H, K>.
    """
    return bool(target[kernels._commutators(G, _generators(G, H), _generators(G, K))].all())


def generated_subgroup(G: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup of G containing the given elements."""
    return _spanned(G, *kernels._close(G, [G.index_of(x) for x in gens]))


def normal_closure(G: FiniteGroup, gens) -> Subgroup:
    """Smallest normal subgroup of G containing the given elements.

    The given elements are closed and the span is closed under conjugation
    by G's generators (kernels._normal_span), so only the generators kept, at most
    log2|G| of them, are ever conjugated.
    """
    given = [G.index_of(s) for s in gens]
    return _spanned(G, *kernels._normal_span(G, given, G._gens))


def _same_parent(G: FiniteGroup, H: Subgroup, what: str):
    if H.group is not G:
        raise MismatchedParent(f"{what} lives in a different group")


def commutator_subgroup(G: FiniteGroup, H: Subgroup, K: Subgroup) -> Subgroup:
    """Subgroup generated by all [h, k] with h in H, k in K; kept on G."""
    _same_parent(G, H, "first subgroup")
    _same_parent(G, K, "second subgroup")
    return G._keep(
        ("commutator subgroup", H.mask.tobytes(), K.mask.tobytes()),
        lambda: _spanned(G, *_commutator_span(G, H, K)),
    )


def power_subgroup(G: FiniteGroup, H: Subgroup, n: int) -> Subgroup:
    """Subgroup generated by the n-th powers of the elements of H."""
    _same_parent(G, H, "subgroup")
    if n < 1:
        raise MalformedSpec(f"power subgroup needs a positive exponent, got {n}")
    return _spanned(G, *kernels._close(G, kernels._power_map(G, n)[H.idx]))


@dataclass(frozen=True)
class NormalSeries:
    """Descending chain of normal subgroups starting at the group.

    A public NormalSeries(G, kind, terms) verifies that the chain starts at
    G, descends, and that every term lies in G and is normal in it.  The
    lower central, derived and dimension series are normal and descending
    by construction, each term a normal closure under G's generators or a
    commutator subgroup of normal ones, so their builders skip those checks
    (_trusted).
    """

    group: FiniteGroup
    kind: str
    terms: tuple

    @classmethod
    def _trusted(cls, group: FiniteGroup, kind: str, terms: tuple) -> "NormalSeries":
        """The series with these terms, which the caller built normal and descending."""
        series = cls.__new__(cls)
        for name, value in (("group", group), ("kind", kind), ("terms", terms)):
            object.__setattr__(series, name, value)
        return series

    def __post_init__(self):
        if not self.terms:
            raise MalformedSpec("a series needs at least one term")
        if not self.terms[0].is_whole:
            raise MalformedSpec("a series must start at the whole group")
        prev = None
        for t in self.terms:
            _same_parent(self.group, t, "series term")
            if not t.is_normal:
                raise NotNormal(f"series term of order {t.order} is not normal in the parent")
            if prev is not None and not (t <= prev):
                raise MalformedSpec("series terms must be descending")
            prev = t

    def __len__(self):
        return len(self.terms)

    def term(self, i: int) -> Subgroup:
        """1-based term; indices beyond the chain return the stabilized tail."""
        if i < 1:
            raise MalformedSpec(f"series indices are 1-based, got {i}")
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
    """G = γ_1 ≥ γ_2 ≥ ..., γ_{i+1} = [γ_i, G], cut at stabilization; kept on G."""

    def build() -> NormalSeries:
        whole = whole_subgroup(G)
        terms = [whole]
        while True:
            nxt = commutator_subgroup(G, terms[-1], whole)
            if nxt == terms[-1]:
                return NormalSeries._trusted(G, "lower-central", tuple(terms))
            terms.append(nxt)

    return G._keep(("series", "lower-central"), build)


def derived_series(G: FiniteGroup) -> NormalSeries:
    """G ≥ [G,G] ≥ [[G,G],[G,G]] ≥ ..., cut at stabilization; kept on G."""

    def build() -> NormalSeries:
        terms = [whole_subgroup(G)]
        while True:
            nxt = commutator_subgroup(G, terms[-1], terms[-1])
            if nxt == terms[-1]:
                return NormalSeries._trusted(G, "derived", tuple(terms))
            terms.append(nxt)

    return G._keep(("series", "derived"), build)


def _p_of(G: FiniteGroup) -> int:
    pk = G.is_p_group()
    if pk is None:
        raise NotAPGroup(f"group order {G.order} is not a prime power")
    return pk[0]


def dimension_series(G: FiniteGroup) -> NormalSeries:
    """D_1 = G, D_i = [D_{i-1}, G]·D_{⌈i/p⌉}^p, down to the trivial subgroup; kept on G.

    Lazard's recurrence gives the product of all γ_j^{p^k} with j·p^k ≥ i
    without the lower central series (Groupes analytiques p-adiques, Publ.
    IHÉS 26, 1965; Dixon, du Sautoy, Mann and Segal, Analytic pro-p Groups,
    Thm 11.2).  D_i is the normal closure (kernels._normal_span) of the [x, y] over
    generators x of D_{i-1} and y of G and of the p-th powers of the normal
    D_{⌈i/p⌉}.  The terms become subgroups only once the series reaches the
    trivial subgroup, so a call that raises keeps nothing.
    """
    p = _p_of(G)

    def build() -> NormalSeries:
        whole = whole_subgroup(G)
        power = kernels._power_map(G, p)
        spans = [(whole.mask, G._gens)]  # (mask, kept) of D_1, D_2, ... as _close returns them
        while np.count_nonzero(spans[-1][0]) > 1:
            i = len(spans) + 1
            if i > SERIES_LENGTH_CAP:
                raise BudgetExceeded("dimension series failed to reach the trivial subgroup")
            brackets = kernels._commutators(G, spans[-1][1], G._gens).ravel()
            powers = power[spans[(i - 1) // p][0]]  # of D_{⌈i/p⌉}, ⌈i/p⌉ - 1 = ⌊(i-1)/p⌋
            spans.append(kernels._normal_span(G, np.concatenate([brackets, powers]), G._gens))
        terms = (whole, *(_spanned(G, *s) for s in spans[1:]))
        return NormalSeries._trusted(G, "dimension", terms)

    return G._keep(("series", "dimension"), build)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a check: ok, an account of what was compared, and how.

    mode is "exhaustive" (every element, pair or assignment) or "basis" (a
    multilinear identity checked on basis tuples, which decides it on every
    element).  witness carries a falsifying input, if any.  It lives here, in
    the lowest module whose checks return one; liering, identities and the
    catalog return the same type.
    """

    ok: bool
    detail: str = ""
    mode: str = "exhaustive"
    witness: object = None

    def __bool__(self):
        return self.ok


def verify_np_series(G: FiniteGroup, series: NormalSeries, p: int) -> Verdict:
    """Check [S_i, S_j] ≤ S_{i+j} and S_i^p ≤ S_{pi}, trivial beyond the chain.

    A subgroup lies in a series term exactly when its generators do, so each
    containment is decided on the p-th powers of S_i and, by
    _commutators_inside, on generator pairs of S_i and S_j, read from the
    target term's mask.  The chain descends, so when S_i = S_i' with i < i'
    every condition on i follows from the same one on i' (S_{i'+j} ≤ S_{i+j},
    S_{pi'} ≤ S_{pi}): both families are decided on the last index of each
    run of equal terms, and only a failure walks every index, in (i+j, i)
    order, to name the least failing one.
    """
    terms = series.terms
    m = len(terms)
    trivial = _closure(G, ())
    lasts = [i for i in range(1, m + 1) if i == m or terms[i].order < terms[i - 1].order]

    def mask(i: int) -> np.ndarray:
        return terms[i - 1].mask if i <= m else trivial

    def bracket_ok(ij) -> bool:
        i, j = ij
        return _commutators_inside(G, terms[i - 1], terms[j - 1], mask(i + j))

    if not all(map(bracket_ok, itertools.combinations_with_replacement(lasts, 2))):
        pairs = sorted(
            ((i, j) for i in range(1, m + 1) for j in range(i, m + 1)),
            key=lambda ij: (ij[0] + ij[1], ij[0]),
        )
        i, j = next(ij for ij in pairs if not bracket_ok(ij))
        return Verdict(False, f"[S_{i}, S_{j}] is not inside S_{i + j}")
    power = kernels._power_map(G, p)

    def power_ok(i: int) -> bool:
        return mask(p * i)[power[terms[i - 1].idx]].all()

    if not all(map(power_ok, lasts)):
        i = next(i for i in range(1, m + 1) if not power_ok(i))
        return Verdict(False, f"S_{i}^{p} is not inside S_{p * i}")
    return Verdict(True)


class QuotientGroup:
    """G/N as a FiniteGroup over minimal-key coset representatives."""

    __slots__ = ("parent", "normal", "group", "_proj")

    def __init__(self, parent: FiniteGroup, normal: Subgroup):
        _same_parent(parent, normal, "normal subgroup")
        if not normal.is_normal:
            raise NotNormal(f"subgroup of order {normal.order} is not normal")
        rep = kernels._coset_reps(parent, normal.idx)
        reps = np.flatnonzero(rep == np.arange(parent.order))  # each its own representative
        pos = np.empty(parent.order, dtype=np.int64)
        pos[reps] = np.arange(len(reps))
        proj = pos[rep]  # parent index -> index of its coset in G/N
        keys = parent._keys
        e = proj[parent._e]
        gens = {}  # key -> name of the first parent generator in a nontrivial coset
        for name, g in zip(parent.generator_names, parent._gens.tolist()):
            q = proj[g]
            if q != e:
                gens.setdefault(keys[reps[q]], name)
        table = proj[kernels._product(parent, reps[:, None], reps)]
        self.parent = parent
        self.normal = normal
        # the parent's generators span G/N through the projection, a
        # homomorphism because N is normal
        self.group = FiniteGroup._built(
            "quotient",
            [keys[r] for r in reps],
            table,
            [(name, key) for key, name in gens.items()],
            parent._repr_key,
        )
        self._proj = proj

    def project(self, x: GroupElement) -> GroupElement:
        return self.group.element_at(self._proj[self.parent.index_of(x)])

    def lift(self, qx: GroupElement) -> GroupElement:
        self.group._check(qx)
        return self.parent.element(qx.key)

    def __repr__(self):
        return f"QuotientGroup(order={self.group.order}, modulus={self.normal.order})"


def centralizer(G: FiniteGroup, phis) -> Subgroup:
    """Joint fixed-point subgroup {g : φ(g) = g for every φ}.

    The fixed points of a homomorphism are closed under products, so the
    mask is a subgroup by construction (_subgroup).
    """
    phis = tuple(phis)
    for phi in phis:
        if not isinstance(phi, Automorphism) or phi.source is not G:
            raise MismatchedParent("centralizer needs automorphisms of the same group")
    mask = np.ones(G.order, dtype=bool)
    for phi in phis:
        mask &= np.asarray(phi.image_indices) == np.arange(G.order)
    return _subgroup(G, mask)


def is_nilpotent_subgroup(G: FiniteGroup, H: Subgroup) -> bool:
    """Lower central series of H (inside G's arithmetic) reaches the identity.

    γ_{i+1}(H) = [γ_i(H), H], normal in H, is the normal closure in H of the [x, y]
    over generators x of γ_i(H) and y of H (kernels._normal_span), walked until it stabilizes.
    """
    _same_parent(G, H, "subgroup")
    mask = H.mask
    kept = ys = _generators(G, H)
    while True:
        nxt, kept = kernels._normal_span(G, kernels._commutators(G, kept, ys).ravel(), ys)
        if np.array_equal(nxt, mask):
            return bool(np.count_nonzero(mask) == 1)
        mask = nxt


def _class_closure(G: FiniteGroup, x: int) -> np.ndarray:
    """Mask of the normal closure of element index x: the span of its class (_class_labels)."""
    label = kernels._class_labels(G)
    return _closure(G, (label == label[x]).nonzero()[0])


def _fitting_mod(G: FiniteGroup, F: np.ndarray) -> np.ndarray:
    """Mask of the preimage in G of the Fitting subgroup of G/F, F a normal subgroup mask.

    By Baer's theorem Fit(G/F) is the set of left Engel elements of G/F (R.
    Baer, Math. Ann. 133, 1957; Robinson, A Course in the Theory of Groups,
    ch. 12), a union of classes of cyclic subgroups.  So one x per such class
    outside F (_cyclic_class_representatives) is walked modulo F (_engel_walk),
    and F is closed with the conjugacy classes of the Engel ones, read off
    _class_labels: each representative is its class minimum, so its label.
    """
    reps = kernels._cyclic_class_representatives(G).tolist()
    engel = np.zeros(G.order, dtype=bool)
    engel[[x for x in reps if not F[x] and kernels._engel_walk(G, x, F)[1]]] = True
    return _closure(G, (F | engel[kernels._class_labels(G)]).nonzero()[0])


def fitting_height(G: FiniteGroup) -> int:
    """Length h of the upper Fitting series 1 = F_0 < F_1 < ... < F_h = G.

    F_{i+1}/F_i is the Fitting subgroup of G/F_i, the left Engel elements
    of G/F_i by Baer's theorem, walked inside G modulo F_i (_fitting_mod);
    no quotient group is built.  A nontrivial nilpotent G, whose kept lower
    central series reaches the trivial subgroup, has height 1.  A nontrivial
    solvable group has a nontrivial Fitting subgroup, so G is refused as not
    solvable as soon as a step stalls below G.
    """
    if G.order == 1:
        return 0
    if lower_central_series(G).reaches_trivial():
        return 1
    F = _closure(G, ())
    height = 0
    while not F.all():
        nxt = _fitting_mod(G, F)
        if np.array_equal(nxt, F):
            raise NotSolvable(f"group of order {G.order} is not solvable")
        F = nxt
        height += 1
    return height


def is_powerful(G: FiniteGroup) -> bool:
    """[G,G] ≤ G^p for odd p; [G,G] ≤ G^4 for p = 2."""
    p = _p_of(G)
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
