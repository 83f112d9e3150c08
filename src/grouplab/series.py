"""Subgroup lattice computations and descending series.

A subgroup is a read-only boolean mask over its parent group's element
indices, verified at construction in table blocks: every product of two
members stays inside, and a normality flag comes from conjugation by each
generator.  Closures, commutator and power subgroups, normal closures and
centralizers are computed on index arrays, reading products from the table
T and inverses from the inverse array, never one element handle at a time.
The pairwise kernels (subgroup verification, commutator values, products of
index sets, the projection check of a quotient) read the table in blocks of
at most groups._BLOCK entries, so their temporaries stay small however large
the group.  Series are descending chains of such subgroups; the dimension
series is assembled directly from its defining product of power subgroups
of the lower central terms.

Each group carries one store (FiniteGroup._lattice) that this module fills.
The library builds every subgroup through _subgroup, which keeps it there
under its mask, so each distinct mask is verified in full once per group; a
public Subgroup(G, mask) verifies on every call.  The store also keeps the
lower central, derived and dimension series, commutator subgroups by their
operands, and the read-only commutator value masks by their index arrays:
the G x G commutator scan that the series, the N_p-series check, the
weight-k commutators and the powerful test share runs once per group.  Power
subgroups are not kept apart from their masks, because no caller asks for
the same one twice.  A call that raises keeps nothing.

The upper Fitting series, and with it the Fitting height, is built inside
the group on masks: each term is the product of the normal closures, one
per conjugacy class of cyclic subgroups and each times the term before,
that are nilpotent modulo the term before (Fitting's theorem), and the
Fitting subgroup is its first term.  Quotients come back as full
FiniteGroup instances over canonical (minimal-key) coset representatives,
with the projection verified a homomorphism on every pair of elements; they
serve callers of the public API, and nothing in the library builds one.
"""

from __future__ import annotations

import math
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
    _blocks,
)

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
    "quotient_group",
    "centralizer",
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
    construction closure is verified on every pair (every product a·b with
    a, b in the subgroup stays inside) and normality over conjugation by each
    generator of the parent, both in table blocks of at most _BLOCK entries.
    The library builds subgroups through _subgroup, which keeps each one on
    the parent group.
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
        for rows in _blocks(idx, len(idx)):
            inside = mask[T[rows[:, None], idx]]
            if not inside.all():
                r, c = divmod(int(np.argmin(inside)), len(idx))  # first escape, row-major
                raise ForeignElement(
                    f"candidate set is not closed: {group.element_at(rows[r])!r} * "
                    f"{group.element_at(idx[c])!r} escapes"
                )
        inv = group.inverse_indices()
        gens = np.array([group.index_of(x) for x in group.generators], dtype=np.int64)
        self.is_normal = all(
            mask[T[T[inv[gens][:, None], cols], gens[:, None]]].all()
            for cols in _blocks(idx, len(gens))
        )

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


def _keep(G: FiniteGroup, key: tuple, compute):
    """The value kept on G under key, computed once; a compute that raises keeps nothing."""
    value = G._lattice.get(key)
    if value is None:
        value = G._lattice[key] = compute()
    return value


def _subgroup(G: FiniteGroup, mask) -> Subgroup:
    """The verified subgroup of G with this mask, kept on G.

    A mask is verified in full (closure on every pair, normality) the first
    time it is asked for on G; later calls return that Subgroup.  The library
    builds every subgroup here; a public Subgroup(G, mask) verifies anew.
    """
    mask = np.asarray(mask, dtype=bool)
    return _keep(G, ("subgroup", mask.tobytes()), lambda: Subgroup(G, mask))


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return _subgroup(G, _closure(G, ()))


def whole_subgroup(G: FiniteGroup) -> Subgroup:
    return _subgroup(G, np.ones(G.order, dtype=bool))


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
            fresh[T[frontier[:, None], kept]] = True
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
    """Mask of the values [h, k] = (kh)^-1 (hk) over h in hs and k in ks.

    The scan reads the table in blocks; its mask is read-only and kept on G
    under the two index arrays, so each scan runs once per group.
    """
    hs = np.asarray(hs, dtype=np.int64)
    ks = np.asarray(ks, dtype=np.int64)

    def scan() -> np.ndarray:
        T = G.table()
        inv = G.inverse_indices()
        values = np.zeros(G.order, dtype=bool)
        for h in _blocks(hs, len(ks)):
            h = h[:, None]
            values[T[inv[T[ks, h]], T[h, ks]]] = True
        values.flags.writeable = False
        return values

    return _keep(G, ("commutator values", hs.tobytes(), ks.tobytes()), scan)


def _product_mask(G: FiniteGroup, left, right) -> np.ndarray:
    """Mask of the products a·b over a in left and b in right, in table blocks."""
    T = G.table()
    left = np.asarray(left, dtype=np.int64)
    values = np.zeros(G.order, dtype=bool)
    for b in _blocks(np.asarray(right, dtype=np.int64), len(left)):
        values[T[left[:, None], b]] = True
    return values


def generated_subgroup(G: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup of G containing the given elements."""
    return _subgroup(G, _closure(G, [G.index_of(x) for x in gens]))


def normal_closure(G: FiniteGroup, gens) -> Subgroup:
    """Smallest normal subgroup of G containing the given elements.

    It is generated by the conjugates s^x = x^-1 s x of the given elements s
    over every x in G, read from the table as one |G| x len(gens) block.
    """
    T = G.table()
    inv = G.inverse_indices()
    given = np.array([G.index_of(s) for s in gens], dtype=np.int64)
    conjugates = T[T[inv[:, None], given], np.arange(G.order)[:, None]]
    sub = _subgroup(G, _closure(G, conjugates.ravel()))
    if not sub.is_normal:
        raise NotNormal("normal closure failed to stabilize")  # unreachable guard
    return sub


def _same_parent(G: FiniteGroup, H: Subgroup, what: str):
    if H.group is not G:
        raise MismatchedParent(f"{what} lives in a different group")


def commutator_subgroup(G: FiniteGroup, H: Subgroup, K: Subgroup) -> Subgroup:
    """Subgroup generated by all [h, k] with h in H, k in K; kept on G."""
    _same_parent(G, H, "first subgroup")
    _same_parent(G, K, "second subgroup")
    return _keep(
        G,
        ("commutator subgroup", H.mask.tobytes(), K.mask.tobytes()),
        lambda: _subgroup(G, _closure(G, np.flatnonzero(_commutator_values(G, H.idx, K.idx)))),
    )


def power_subgroup(G: FiniteGroup, H: Subgroup, n: int) -> Subgroup:
    """Subgroup generated by the n-th powers of the elements of H."""
    _same_parent(G, H, "subgroup")
    if n < 1:
        raise ValueError(f"power subgroup needs a positive exponent, got {n}")
    return _subgroup(G, _closure(G, _power_map(G, n)[H.idx]))


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
    """G = γ_1 ≥ γ_2 ≥ ..., γ_{i+1} = [γ_i, G], cut at stabilization; kept on G."""

    def build() -> NormalSeries:
        whole = whole_subgroup(G)
        terms = [whole]
        while True:
            nxt = commutator_subgroup(G, terms[-1], whole)
            if nxt == terms[-1]:
                return NormalSeries(G, "lower-central", tuple(terms))
            terms.append(nxt)

    return _keep(G, ("series", "lower-central"), build)


def derived_series(G: FiniteGroup) -> NormalSeries:
    """G ≥ [G,G] ≥ [[G,G],[G,G]] ≥ ..., cut at stabilization; kept on G."""

    def build() -> NormalSeries:
        terms = [whole_subgroup(G)]
        while True:
            nxt = commutator_subgroup(G, terms[-1], terms[-1])
            if nxt == terms[-1]:
                return NormalSeries(G, "derived", tuple(terms))
            terms.append(nxt)

    return _keep(G, ("series", "derived"), build)


def _p_of(G: FiniteGroup) -> int:
    pk = G.is_p_group()
    if pk is None:
        raise NotAPGroup(f"group order {G.order} is not a prime power")
    return pk[0]


def dimension_series(G: FiniteGroup) -> NormalSeries:
    """D_i = product of all γ_j^{p^k} with j·p^k ≥ i, down to the trivial subgroup.

    Kept on G.  The terms are closed as masks first and become subgroups
    only once the series reaches the trivial subgroup, so a call that raises
    keeps nothing.
    """
    p = _p_of(G)

    def build() -> NormalSeries:
        gamma = lower_central_series(G)
        masks = [gamma.terms[0].mask]
        power_maps = {}
        i = 2
        while np.count_nonzero(masks[-1]) > 1:
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
            masks.append(_closure(G, np.concatenate(gens)))
            i += 1
        return NormalSeries(G, "dimension", tuple(_subgroup(G, m) for m in masks))

    return _keep(G, ("series", "dimension"), build)


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
    containment is decided on the values [s, t] over S_i x S_j and on the
    p-th powers of S_i, read from the target term's mask.
    """
    terms = series.terms
    m = len(terms)
    trivial = _closure(G, ())

    def mask(i: int) -> np.ndarray:
        return terms[i - 1].mask if i <= m else trivial

    pairs = sorted(
        ((i, j) for i in range(1, m + 1) for j in range(i, m + 1)),
        key=lambda ij: (ij[0] + ij[1], ij[0]),
    )
    for i, j in pairs:
        if not mask(i + j)[_commutator_values(G, terms[i - 1].idx, terms[j - 1].idx)].all():
            return Verdict(False, f"[S_{i}, S_{j}] is not inside S_{i + j}")
    power = _power_map(G, p)
    for i in range(1, m + 1):
        if not mask(p * i)[power[terms[i - 1].idx]].all():
            return Verdict(False, f"S_{i}^{p} is not inside S_{p * i}")
    return Verdict(True)


def _coset_reps(G: FiniteGroup, kernel_idx: np.ndarray) -> np.ndarray:
    """rep[x] = the minimal element index in the coset x·N, N given by its indices.

    Index order is key order, so this is also the minimal-key representative.
    """
    T = G.table()
    rep = np.full(G.order, -1, dtype=np.int64)
    for x in range(G.order):
        if rep[x] < 0:
            coset = T[x, kernel_idx]
            rep[coset] = coset.min()
    return rep


class QuotientGroup:
    """G/N as a FiniteGroup over minimal-key coset representatives."""

    __slots__ = ("parent", "normal", "group", "_proj")

    def __init__(self, parent: FiniteGroup, normal: Subgroup):
        _same_parent(parent, normal, "normal subgroup")
        if not normal.is_normal:
            raise NotNormal(f"subgroup of order {normal.order} is not normal")
        rep = _coset_reps(parent, normal.idx)
        reps = np.flatnonzero(rep == np.arange(parent.order))  # each its own representative
        if len(reps) * normal.order != parent.order:
            raise NotNormal("coset decomposition does not partition the group")
        pos = np.empty(parent.order, dtype=np.int64)
        pos[reps] = np.arange(len(reps))
        proj = pos[rep]  # parent index -> index of its coset in G/N
        keys = parent._keys
        e = proj[parent.index_of(parent.identity)]
        gens = {}  # key -> name of the first parent generator in a nontrivial coset
        for name, gen in zip(parent.generator_names, parent.generators):
            q = proj[parent.index_of(gen)]
            if q != e:
                gens.setdefault(keys[reps[q]], name)
        table = proj[parent.table()[reps[:, None], reps]]
        self.parent = parent
        self.normal = normal
        self.group = FiniteGroup(
            "quotient",
            [keys[r] for r in reps],
            table,
            [(name, key) for key, name in gens.items()],
            parent._repr_key,
        )
        self._proj = proj
        self._verify_projection()

    def _verify_projection(self):
        """The projection G -> G/N is a homomorphism, checked on every pair in table blocks."""
        tp = self.parent.table()
        tq = self.group.table()
        proj = self._proj
        n = self.parent.order
        for rows in _blocks(np.arange(n), n):
            if not np.array_equal(proj[tp[rows]], tq[proj[rows][:, None], proj]):
                raise NotNormal("projection fails to be a homomorphism")

    def project(self, x: GroupElement) -> GroupElement:
        return self.group.element_at(self._proj[self.parent.index_of(x)])

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
    return _subgroup(G, mask)


def _nilpotent_mod(G: FiniteGroup, M: np.ndarray, F: np.ndarray) -> bool:
    """M/F is nilpotent, for masks of normal subgroups F ≤ M of G.

    The lower central series of M modulo F, M ≥ [M, M]F ≥ [[M, M]F, M]F ...,
    is walked on masks until it stabilizes; M/F is nilpotent exactly when it
    stabilizes at F.
    """
    M_idx = np.flatnonzero(M)
    cur = M
    while True:
        values = _commutator_values(G, np.flatnonzero(cur), M_idx)
        nxt = _closure(G, np.flatnonzero(values | F))
        if np.array_equal(nxt, cur):
            return bool(np.array_equal(cur, F))
        cur = nxt


def is_nilpotent_subgroup(G: FiniteGroup, H: Subgroup) -> bool:
    """Lower central series of H (inside G's arithmetic) reaches the identity."""
    _same_parent(G, H, "subgroup")
    return _nilpotent_mod(G, H.mask, _closure(G, ()))


def _conjugacy_class(G: FiniteGroup, x: int) -> np.ndarray:
    """x^g = g^-1 x g over every g in G, read from the table as one vector."""
    T = G.table()
    return T[T[G.inverse_indices(), x], np.arange(G.order)]


def _class_representatives(G: FiniteGroup) -> np.ndarray:
    """Minimal element index of each conjugacy class, in increasing order."""
    unseen = np.ones(G.order, dtype=bool)
    reps = []
    while unseen.any():
        x = int(np.argmax(unseen))
        reps.append(x)
        unseen[_conjugacy_class(G, x)] = False
    return np.array(reps, dtype=np.int64)


def _cyclic_class_representatives(G: FiniteGroup) -> np.ndarray:
    """One element index per conjugacy class of cyclic subgroups, kept on G.

    These are the class minima of _class_representatives, in increasing
    order, less each class that holds a generator x^k (k prime to |x|) of an
    earlier minimum x kept here: <x^k> = <x>, so both have one normal
    closure, and one product of it with any normal subgroup.
    """

    def build() -> np.ndarray:
        T = G.table()
        orders = G.element_orders()
        reps = _class_representatives(G)
        rep_of = np.empty(G.order, dtype=np.int64)  # element index -> its class minimum
        for r in reps:
            rep_of[_conjugacy_class(G, r)] = r
        kept, covered = [], set()
        for x in reps.tolist():
            if x in covered:
                continue
            kept.append(x)
            n = int(orders[x])
            power = x
            for k in range(1, n + 1):  # power = x^k
                if math.gcd(k, n) == 1:
                    covered.add(int(rep_of[power]))
                power = T[power, x]
        kept = np.array(kept, dtype=np.int64)
        kept.flags.writeable = False
        return kept

    return _keep(G, ("cyclic class representatives",), build)


def _class_closure(G: FiniteGroup, x: int, base: np.ndarray | None = None) -> np.ndarray:
    """Mask of the normal closure of element index x: the span of its class.

    With the mask of a normal subgroup ``base``, the span of the class and
    base together: the normal closure of x times base.
    """
    gens = _conjugacy_class(G, x)
    if base is not None:
        gens = np.concatenate([np.flatnonzero(base), gens])
    return _closure(G, gens)


def _fitting_mod(G: FiniteGroup, F: np.ndarray) -> np.ndarray:
    """Mask of the preimage in G of the Fitting subgroup of G/F, F a normal subgroup mask.

    By Fitting's theorem the product of two nilpotent normal subgroups is
    nilpotent, so Fit(G/F) is the product of the nilpotent normal closures of
    single cosets xF.  That closure is NF/F with N the normal closure of x in
    G, which depends only on the class of the cyclic subgroup <x>, so one
    closure times F is taken per such class (_cyclic_class_representatives)
    and merged into the product when it is nilpotent modulo F.  A class
    already inside the product is skipped: its closure lies there.
    """
    fit = F
    for x in _cyclic_class_representatives(G):
        if fit[x]:
            continue
        M = _class_closure(G, x, F)
        if _nilpotent_mod(G, M, F):
            fit = _closure(G, np.flatnonzero(fit | M))
    return fit


def fitting_subgroup(G: FiniteGroup) -> Subgroup:
    """Largest normal nilpotent subgroup: the Fitting subgroup of G/1."""
    fit = _subgroup(G, _fitting_mod(G, _closure(G, ())))
    if not (fit.is_normal and is_nilpotent_subgroup(G, fit)):
        raise NotNormal("fitting candidate failed verification")  # unreachable guard
    return fit


def fitting_height(G: FiniteGroup) -> int:
    """Length h of the upper Fitting series 1 = F_0 < F_1 < ... < F_h = G.

    F_{i+1}/F_i is the Fitting subgroup of G/F_i, computed inside G on masks
    (_fitting_mod); no quotient group is built.  A nontrivial nilpotent G,
    whose kept lower central series reaches the trivial subgroup, has height
    1.  A nontrivial solvable group has a nontrivial Fitting subgroup, so G
    is refused as not solvable as soon as a step stalls below G.
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
