"""Graded Lie algebras built from the p-power descending series of a p-group.

Each component L_i is the elementary abelian quotient of consecutive series
terms, coordinatized over F_p by a deterministic greedy basis (elements are
scanned in sorted key order and kept when independent of the span so far,
the concrete realization of a row-echelon choice).  Brackets come from group
commutators of coset representatives, tabulated as structure constants and
extended bilinearly.  At construction, representative independence is
verified on every coset member: [x·n1, y·n2] must lie in [x, y]·D_{i+j+1}
for each basis pair (x, y) and every n1 in D_{i+1}, n2 in D_{j+1}.  An
induced action is independent of the representatives exactly when the
automorphism maps each series term into itself, which is checked on every
element of the term.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ActionNotWellDefined,
    EvenCharacteristic,
    InconsistentPresentation,
    MalformedSpec,
    MismatchedAlgebra,
    MismatchedParent,
    NonElementaryQuotient,
    NotInvolution,
    TrivialImage,
)
from .gfp import (
    in_row_space,
    is_invertible,
    mat_pow,
    nullspace,
    row_space_equal,
    rref,
    solve_in_row_space,
)
from .groups import Automorphism, FiniteGroup, GroupElement, _coset_reps
from .series import (
    NormalSeries,
    Subgroup,
    Verdict,
    _closure,
    _p_of,
    _product_mask,
    dimension_series,
    generated_subgroup,
)

__all__ = [
    "GradedLieRing",
    "LieElement",
    "GradedAutomorphism",
    "GradedSubspace",
    "LpSubalgebra",
    "CentralizerResult",
    "PMSplit",
    "DecompositionWitness",
    "build_dl",
    "lp_subalgebra",
    "induced_action",
    "centralizer_subalgebra",
    "subgroup_graded_algebra",
    "plus_minus_split",
    "lazard_check",
    "commutator_shapes",
    "decomposition_witness",
    "check_prop_2_11",
    "check_cor_2_14",
]

class _ComponentData:
    """Coset bookkeeping for one homogeneous component D_i/D_{i+1}."""

    __slots__ = ("rep_of", "coord_of", "basis_reps")

    def __init__(self, rep_of: dict, coord_of: dict, basis_reps: tuple):
        self.rep_of = rep_of
        self.coord_of = coord_of
        self.basis_reps = basis_reps


class LieElement:
    """Element of a GradedLieRing: one F_p coordinate vector across components."""

    __slots__ = ("algebra", "vec")

    def __init__(self, algebra: "GradedLieRing", vec):
        self.algebra = algebra
        v = np.asarray(vec, dtype=np.int64) % algebra.p
        if v.shape != (algebra.total_dim,):
            raise MalformedSpec(
                f"coordinate vector must have length {algebra.total_dim}, got {v.shape}"
            )
        self.vec = v

    def component(self, i: int) -> np.ndarray:
        lo, hi = self.algebra._span(i)
        return self.vec[lo:hi]

    @property
    def degree(self) -> int | None:
        """Homogeneity degree, or None for zero or mixed elements."""
        live = [
            i
            for i in range(1, self.algebra.m + 1)
            if self.component(i).any()
        ]
        return live[0] if len(live) == 1 else None

    def is_zero(self) -> bool:
        return not self.vec.any()

    def _same(self, other):
        if not isinstance(other, LieElement) or other.algebra is not self.algebra:
            raise MismatchedAlgebra("operands live in different algebras")

    def __add__(self, other):
        self._same(other)
        return LieElement(self.algebra, self.vec + other.vec)

    def __sub__(self, other):
        self._same(other)
        return LieElement(self.algebra, self.vec - other.vec)

    def __neg__(self):
        return LieElement(self.algebra, -self.vec)

    def __rmul__(self, c: int):
        return LieElement(self.algebra, c * self.vec)

    def __eq__(self, other):
        return (
            isinstance(other, LieElement)
            and other.algebra is self.algebra
            and np.array_equal(self.vec, other.vec)
        )

    def __hash__(self):
        return hash((id(self.algebra), self.vec.tobytes()))

    def __repr__(self):
        parts = []
        for i in range(1, self.algebra.m + 1):
            comp = self.component(i)
            if comp.any():
                parts.append(f"{i}:[" + " ".join(str(int(c)) for c in comp) + "]")
        return "Lie{" + ", ".join(parts) + "}" if parts else "Lie{0}"


class GradedLieRing:
    """Finite-dimensional graded Lie algebra over F_p with tabulated brackets.

    sc[(i, j)] is a (dim L_i, dim L_j, dim L_{i+j}) table giving the bracket
    of basis pairs; pairs with i + j beyond the top degree are implicitly
    zero.  The constructor verifies antisymmetry, [x, x] = 0 on basis
    vectors, grading, and the Jacobi identity on all basis triples.
    """

    def __init__(
        self,
        p: int,
        dims,
        sc: dict,
        *,
        group: FiniteGroup | None = None,
        series: NormalSeries | None = None,
        components: list | None = None,
    ):
        self.p = p
        self.dims = tuple(int(d) for d in dims)
        self.m = len(self.dims)
        offsets = [0]
        for d in self.dims:
            offsets.append(offsets[-1] + d)
        self.offsets = tuple(offsets)
        self.total_dim = offsets[-1]
        self.sc = {
            pair: np.asarray(table, dtype=np.int64) % p for pair, table in sc.items()
        }
        self.group = group
        self.series = series
        self.components = components
        self._verify_tables()

    # -- bookkeeping -----------------------------------------------------

    def _span(self, i: int) -> tuple:
        if not (1 <= i <= self.m):
            raise MalformedSpec(f"component index {i} outside 1..{self.m}")
        return self.offsets[i - 1], self.offsets[i]

    def zero(self) -> LieElement:
        return LieElement(self, np.zeros(self.total_dim, dtype=np.int64))

    def element(self, vec) -> LieElement:
        return LieElement(self, vec)

    def from_component(self, i: int, coords) -> LieElement:
        lo, hi = self._span(i)
        coords = np.asarray(coords, dtype=np.int64)
        if coords.shape != (hi - lo,):
            raise MalformedSpec(
                f"component {i} expects {hi - lo} coordinates, got {coords.shape}"
            )
        vec = np.zeros(self.total_dim, dtype=np.int64)
        vec[lo:hi] = coords
        return LieElement(self, vec)

    def basis(self) -> list:
        out = []
        for t in range(self.total_dim):
            vec = np.zeros(self.total_dim, dtype=np.int64)
            vec[t] = 1
            out.append(LieElement(self, vec))
        return out

    def component_basis(self, i: int) -> list:
        lo, hi = self._span(i)
        out = []
        for t in range(lo, hi):
            vec = np.zeros(self.total_dim, dtype=np.int64)
            vec[t] = 1
            out.append(LieElement(self, vec))
        return out

    def all_elements(self):
        """Iterate every element; intended for exhaustively small algebras."""
        for combo in itertools.product(range(self.p), repeat=self.total_dim):
            yield LieElement(self, np.array(combo, dtype=np.int64))

    def degree_index(self, t: int) -> int:
        """Degree of the t-th total basis vector."""
        for i in range(1, self.m + 1):
            if self.offsets[i - 1] <= t < self.offsets[i]:
                return i
        raise MalformedSpec(f"basis index {t} outside 0..{self.total_dim - 1}")

    # -- bracket ----------------------------------------------------------

    def bracket(self, u: LieElement, v: LieElement) -> LieElement:
        if u.algebra is not self or v.algebra is not self:
            raise MismatchedAlgebra("bracket operands must belong to this algebra")
        out = np.zeros(self.total_dim, dtype=np.int64)
        for (i, j), table in self.sc.items():
            ui = u.component(i)
            vj = v.component(j)
            if not (ui.any() and vj.any()):
                continue
            lo, hi = self._span(i + j)
            out[lo:hi] += np.einsum("a,b,abk->k", ui, vj, table)
        return LieElement(self, out)

    def ad_matrix(self, a: LieElement) -> np.ndarray:
        """Matrix A with vec([x, a]) = A @ vec(x)."""
        if a.algebra is not self:
            raise MismatchedAlgebra("ad requires an element of this algebra")
        A = np.zeros((self.total_dim, self.total_dim), dtype=np.int64)
        for t, b in enumerate(self.basis()):
            A[:, t] = self.bracket(b, a).vec
        return A

    def ad_nilpotency_index(self, a: LieElement) -> int:
        """Least n with (ad a)^n = 0; exists since the algebra is graded."""
        A = self.ad_matrix(a)
        power = A.copy()
        n = 1
        while power.any():
            power = power @ A % self.p
            n += 1
            if n > self.total_dim + 1:
                raise InconsistentPresentation("ad map failed to nilpotize")
        return n

    def nilpotency_class(self) -> int:
        """Largest k with the k-th lower-central span nonzero (abelian: 1)."""
        cur = np.eye(self.total_dim, dtype=np.int64)
        basis = self.basis()
        k = 1
        while True:
            rows = []
            for r in range(cur.shape[0]):
                u = LieElement(self, cur[r])
                for b in basis:
                    w = self.bracket(u, b)
                    if not w.is_zero():
                        rows.append(w.vec)
            if not rows:
                return k
            reduced, pivots = rref(np.array(rows, dtype=np.int64), self.p)
            cur = reduced[: len(pivots)]
            k += 1

    def is_abelian(self) -> bool:
        return all(not t.any() for t in self.sc.values())

    # -- group payload ------------------------------------------------------

    def _need_group(self):
        if self.group is None or self.components is None or self.series is None:
            raise MalformedSpec("this algebra was not built from a group")

    def degree_of(self, x: GroupElement) -> int:
        """Largest i with x in the i-th series term (its homogeneous depth)."""
        self._need_group()
        self.group._check(x)
        if x.is_identity():
            raise TrivialImage("the identity has no homogeneous degree")
        deg = 0
        for i, term in enumerate(self.series.terms, start=1):
            if x in term:
                deg = i
        if deg == 0 or deg > self.m:
            raise TrivialImage(f"{x!r} has no nontrivial image in the graded algebra")
        return deg

    def star(self, x: GroupElement) -> LieElement:
        """Canonical image of a group element in the component of its depth."""
        deg = self.degree_of(x)
        comp = self.components[deg - 1]
        coords = comp.coord_of[comp.rep_of[x.key]]
        return self.from_component(deg, np.array(coords, dtype=np.int64))

    # -- construction-time verification --------------------------------------

    def _verify_tables(self):
        for (i, j), table in self.sc.items():
            if i + j > self.m:
                raise InconsistentPresentation(
                    f"stored bracket table for degrees ({i},{j}) beyond top degree {self.m}"
                )
            want = (self.dims[i - 1], self.dims[j - 1], self.dims[i + j - 1])
            if table.shape != want:
                raise InconsistentPresentation(
                    f"bracket table ({i},{j}) has shape {table.shape}, expected {want}"
                )
            mirror = self.sc.get((j, i))
            if mirror is None:
                raise InconsistentPresentation(f"missing mirror table for ({j},{i})")
            if not np.array_equal(table, (-mirror.transpose(1, 0, 2)) % self.p):
                raise InconsistentPresentation(
                    f"bracket tables for ({i},{j}) are not antisymmetric"
                )
            if i == j:
                for a in range(self.dims[i - 1]):
                    if table[a, a].any():
                        raise InconsistentPresentation(
                            f"[x, x] is nonzero for basis vector {a} of component {i}"
                        )
        basis = self.basis()
        for u in basis:
            for v in basis:
                for w in basis:
                    acc = (
                        self.bracket(self.bracket(u, v), w).vec
                        + self.bracket(self.bracket(v, w), u).vec
                        + self.bracket(self.bracket(w, u), v).vec
                    ) % self.p
                    if acc.any():
                        raise InconsistentPresentation("Jacobi identity fails on a basis triple")

    def __repr__(self):
        return f"GradedLieRing(p={self.p}, dims={list(self.dims)})"


def build_dl(G: FiniteGroup, p: int | None = None) -> GradedLieRing:
    """Graded Lie algebra of a finite p-group from its p-power descending series."""
    p = _p_of(G, p)
    series = dimension_series(G, p)
    terms = series.terms
    m = len(terms) - 1
    components = []
    dims = []
    for i in range(1, m + 1):
        D, N = terms[i - 1], terms[i]
        rep = _coset_reps(G, N.idx)
        rep_of = {G._keys[x]: G._keys[rep[x]] for x in D.idx}
        id_rep = rep_of[G.identity.key]
        reps = sorted(set(rep_of.values()))
        q = len(reps)

        def qmul(r1, r2):
            return rep_of[G._mul_keys(r1, r2)]

        for r1 in reps:
            acc = id_rep
            for _ in range(p):
                acc = qmul(acc, r1)
            if acc != id_rep:
                raise NonElementaryQuotient(f"component {i} has exponent above {p}")
            for r2 in reps:
                if qmul(r1, r2) != qmul(r2, r1):
                    raise NonElementaryQuotient(f"component {i} is not abelian")
        d = 0
        while p**d < q:
            d += 1
        if p**d != q:
            raise NonElementaryQuotient(f"component {i} has size {q}, not a power of {p}")
        basis = []
        span = {id_rep}
        for r in reps:
            if r in span:
                continue
            basis.append(r)
            grown = set()
            for s in span:
                acc = s
                for _ in range(p):
                    grown.add(acc)
                    acc = qmul(acc, r)
            span = grown
            if len(basis) == d:
                break
        if len(basis) != d or len(span) != q:
            raise NonElementaryQuotient(f"component {i} admits no {d}-element basis")
        coord_of = {}
        for combo in itertools.product(range(p), repeat=d):
            acc = id_rep
            for b, e in zip(basis, combo):
                for _ in range(e):
                    acc = qmul(acc, b)
            coord_of[acc] = combo
        if len(coord_of) != q:
            raise NonElementaryQuotient(f"component {i} coordinates are not bijective")
        components.append(
            _ComponentData(rep_of, coord_of, tuple(G.element(b) for b in basis))
        )
        dims.append(d)

    sc = {}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i + j > m:
                continue
            k = i + j
            comp_k = components[k - 1]
            table = np.zeros((dims[i - 1], dims[j - 1], dims[k - 1]), dtype=np.int64)
            for a, x in enumerate(components[i - 1].basis_reps):
                for b, y in enumerate(components[j - 1].basis_reps):
                    c = G.commutator(x, y)
                    if c not in terms[k - 1]:
                        raise InconsistentPresentation(
                            f"commutator of degrees ({i},{j}) escapes series term {k}"
                        )
                    table[a, b, :] = comp_k.coord_of[comp_k.rep_of[c.key]]
            sc[(i, j)] = table

    L = GradedLieRing(p, dims, sc, group=G, series=series, components=components)
    _verify_well_definedness(G, L)
    return L


def _verify_well_definedness(G: FiniteGroup, L: GradedLieRing):
    """Structure constants must not depend on the coset representatives.

    For basis representatives x of degree i and y of degree j, every n1 in
    D_{i+1} and n2 in D_{j+1} must give [x·n1, y·n2] in [x, y]·D_{i+j+1}.
    Degrees i < j follow by inversion, [y·n2, x·n1] = [x·n1, y·n2]^-1, so
    only i >= j is scanned: one n1 of the smaller term D_{i+1} at a time, as
    a block over the basis pairs and every n2.
    """
    T = G.table()
    inv = G.inverse_indices()
    terms = L.series.terms
    for i, j in sorted(L.sc):
        if i < j:
            continue
        modulus = terms[i + j].mask
        xs = np.array([G.index_of(x) for x in L.components[i - 1].basis_reps], dtype=np.int64)
        ys = np.array([G.index_of(y) for y in L.components[j - 1].basis_reps], dtype=np.int64)
        xs, ys = xs[:, None, None], ys[None, :, None]
        undo = inv[T[inv[T[ys, xs]], T[xs, ys]]]  # [x, y]^-1 per basis pair
        yn = T[ys, terms[j].idx]  # y·n2 for every n2
        for n1 in terms[i].idx:
            xn = T[xs, n1]
            moved = T[inv[T[yn, xn]], T[xn, yn]]  # [x·n1, y·n2]
            if not modulus[T[undo, moved]].all():
                raise InconsistentPresentation(
                    f"bracket of degrees ({i},{j}) depends on representatives"
                )


# -- subspaces ----------------------------------------------------------


class GradedSubspace:
    """Componentwise row-space inside a GradedLieRing, stored in echelon form."""

    __slots__ = ("algebra", "bases")

    def __init__(self, algebra: GradedLieRing, bases):
        self.algebra = algebra
        clean = []
        for i in range(1, algebra.m + 1):
            d = algebra.dims[i - 1]
            mat = np.asarray(bases[i - 1], dtype=np.int64)
            if mat.ndim != 2 or mat.shape[1] != d:
                if mat.size == 0:
                    mat = np.zeros((0, d), dtype=np.int64)
                else:
                    mat = mat.reshape(-1, d)
            mat = mat % algebra.p
            reduced, pivots = rref(mat, algebra.p)
            clean.append(reduced[: len(pivots)])
        self.bases = tuple(clean)

    @classmethod
    def whole(cls, algebra: GradedLieRing) -> "GradedSubspace":
        return cls(algebra, [np.eye(d, dtype=np.int64) for d in algebra.dims])

    @classmethod
    def zero(cls, algebra: GradedLieRing) -> "GradedSubspace":
        return cls(algebra, [np.zeros((0, d), dtype=np.int64) for d in algebra.dims])

    def dims(self) -> tuple:
        return tuple(b.shape[0] for b in self.bases)

    def total_dim(self) -> int:
        return sum(self.dims())

    def contains(self, u: LieElement) -> bool:
        if u.algebra is not self.algebra:
            raise MismatchedAlgebra("element belongs to a different algebra")
        return all(
            in_row_space(self.bases[i - 1], u.component(i), self.algebra.p)
            for i in range(1, self.algebra.m + 1)
        )

    def is_bracket_closed(self) -> bool:
        L = self.algebra
        for (i, j), table in L.sc.items():
            target = self.bases[i + j - 1]
            for u in self.bases[i - 1]:
                for v in self.bases[j - 1]:
                    w = np.einsum("a,b,abk->k", u, v, table) % L.p
                    if w.any() and not in_row_space(target, w, L.p):
                        return False
        return True

    def __eq__(self, other):
        if not isinstance(other, GradedSubspace) or other.algebra is not self.algebra:
            return NotImplemented
        return all(
            row_space_equal(a, b, self.algebra.p)
            for a, b in zip(self.bases, other.bases)
        )

    def __hash__(self):
        return hash((id(self.algebra), tuple(b.tobytes() for b in self.bases)))

    def __repr__(self):
        return f"GradedSubspace(dims={list(self.dims())})"


# -- the subalgebra generated by degree one ------------------------------


@dataclass(frozen=True)
class LpSubalgebra:
    """Standalone copy of the degree-one-generated subalgebra plus embeddings."""

    algebra: GradedLieRing
    parent: GradedLieRing
    embeddings: tuple  # embeddings[i-1]: rows = sub-basis of degree i in parent coords

    def dims(self) -> tuple:
        return self.algebra.dims


def lp_subalgebra(L: GradedLieRing) -> LpSubalgebra:
    """Subalgebra generated by L_1: M_1 = L_1, M_k = span [M_{k-1}, L_1]."""
    p = L.p
    bases = [np.eye(L.dims[0], dtype=np.int64)]
    for k in range(2, L.m + 1):
        prev = bases[-1]
        table = L.sc.get((k - 1, 1))
        rows = []
        if table is not None and prev.shape[0]:
            for u in prev:
                for b in range(L.dims[0]):
                    w = (u @ table[:, b, :]) % p
                    if w.any():
                        rows.append(w)
        if rows:
            reduced, pivots = rref(np.array(rows, dtype=np.int64), p)
            bases.append(reduced[: len(pivots)])
        else:
            bases.append(np.zeros((0, L.dims[k - 1]), dtype=np.int64))
    dims = tuple(b.shape[0] for b in bases)
    sc = {}
    for (i, j), table in L.sc.items():
        k = i + j
        sub = np.zeros((dims[i - 1], dims[j - 1], dims[k - 1]), dtype=np.int64)
        for a, u in enumerate(bases[i - 1]):
            for b, v in enumerate(bases[j - 1]):
                w = np.einsum("a,b,abk->k", u, v, table) % p
                coords = solve_in_row_space(bases[k - 1], w, p)
                if coords is None:
                    raise InconsistentPresentation(
                        f"degree-one closure is not bracket-closed at degrees ({i},{j})"
                    )
                sub[a, b, :] = coords
        sc[(i, j)] = sub
    return LpSubalgebra(GradedLieRing(p, dims, sc), L, tuple(bases))


# -- automorphism actions -------------------------------------------------


class GradedAutomorphism:
    """Degree-preserving algebra automorphism: one invertible matrix per component."""

    __slots__ = ("algebra", "mats")

    def __init__(self, algebra: GradedLieRing, mats, *, verify: bool = True):
        self.algebra = algebra
        clean = []
        for i in range(1, algebra.m + 1):
            d = algebra.dims[i - 1]
            mat = np.asarray(mats[i - 1], dtype=np.int64).reshape(d, d) % algebra.p
            clean.append(mat)
        self.mats = tuple(clean)
        if verify:
            self._verify()

    def _verify(self):
        L = self.algebra
        for i, mat in enumerate(self.mats, start=1):
            if not is_invertible(mat, L.p):
                raise ActionNotWellDefined(f"component {i} matrix is singular")
        for (i, j), table in L.sc.items():
            k = i + j
            for a in range(L.dims[i - 1]):
                for b in range(L.dims[j - 1]):
                    lhs = (self.mats[k - 1] @ table[a, b]) % L.p
                    rhs = (
                        np.einsum(
                            "a,b,abk->k", self.mats[i - 1][:, a], self.mats[j - 1][:, b], table
                        )
                        % L.p
                    )
                    if not np.array_equal(lhs, rhs):
                        raise ActionNotWellDefined(
                            f"action does not respect the bracket at degrees ({i},{j})"
                        )

    def apply(self, u: LieElement) -> LieElement:
        if u.algebra is not self.algebra:
            raise MismatchedAlgebra("element belongs to a different algebra")
        out = np.zeros(self.algebra.total_dim, dtype=np.int64)
        for i in range(1, self.algebra.m + 1):
            lo, hi = self.algebra._span(i)
            out[lo:hi] = self.mats[i - 1] @ u.component(i)
        return LieElement(self.algebra, out)

    def __call__(self, u: LieElement) -> LieElement:
        return self.apply(u)

    def compose(self, other: "GradedAutomorphism") -> "GradedAutomorphism":
        """Apply self first, then other."""
        if other.algebra is not self.algebra:
            raise MismatchedAlgebra("cannot compose actions on different algebras")
        mats = [
            (b @ a) % self.algebra.p for a, b in zip(self.mats, other.mats)
        ]
        return GradedAutomorphism(self.algebra, mats, verify=False)

    def is_identity(self) -> bool:
        return all(
            np.array_equal(mat, np.eye(mat.shape[0], dtype=np.int64)) for mat in self.mats
        )

    def order(self) -> int:
        acc = self
        n = 1
        while not acc.is_identity():
            acc = acc.compose(self)
            n += 1
            if n > 10**6:
                raise ActionNotWellDefined("action order exceeds sanity bound")
        return n

    def __eq__(self, other):
        return (
            isinstance(other, GradedAutomorphism)
            and other.algebra is self.algebra
            and all(np.array_equal(a, b) for a, b in zip(self.mats, other.mats))
        )

    def __hash__(self):
        return hash((id(self.algebra), tuple(m.tobytes() for m in self.mats)))

    def __repr__(self):
        return f"GradedAutomorphism(dims={list(self.algebra.dims)})"


def induced_action(phi: Automorphism, L: GradedLieRing) -> GradedAutomorphism:
    """Push a group automorphism down to per-component matrices on the algebra.

    phi(x·n) = phi(x)·phi(n), so the matrix of component i does not depend on
    the representatives exactly when phi maps D_{i+1} into itself, which is
    checked on every element of D_{i+1}.  With D_1 = G, that also keeps the
    image of every degree-i representative inside D_i.
    """
    L._need_group()
    G = L.group
    if phi.source is not G:
        raise MismatchedAlgebra("automorphism acts on a different group")
    terms = L.series.terms
    image = np.asarray(phi.image_indices)
    mats = []
    for i in range(1, L.m + 1):
        if not terms[i].mask[image[terms[i].idx]].all():
            raise ActionNotWellDefined(
                f"induced action on component {i} depends on representatives"
            )
        comp = L.components[i - 1]
        mat = np.zeros((L.dims[i - 1],) * 2, dtype=np.int64)
        for b, x in enumerate(comp.basis_reps):
            mat[:, b] = comp.coord_of[comp.rep_of[G._keys[image[G.index_of(x)]]]]
        mats.append(mat)
    return GradedAutomorphism(L, mats)


@dataclass(frozen=True)
class CentralizerResult:
    """Joint fixed subspace of a set of graded actions, with closure verdict."""

    space: GradedSubspace
    bracket_closed: bool


def centralizer_subalgebra(L: GradedLieRing, phis) -> CentralizerResult:
    """Componentwise joint fixed spaces of the given graded automorphisms."""
    phis = tuple(phis)
    for phi in phis:
        if not isinstance(phi, GradedAutomorphism) or phi.algebra is not L:
            raise MismatchedAlgebra("centralizer needs actions on this algebra")
    if not phis:
        space = GradedSubspace.whole(L)
        return CentralizerResult(space, space.is_bracket_closed())
    bases = []
    for i in range(1, L.m + 1):
        d = L.dims[i - 1]
        stacked = np.vstack(
            [phi.mats[i - 1] - np.eye(d, dtype=np.int64) for phi in phis]
        )
        bases.append(nullspace(stacked, L.p))
    space = GradedSubspace(L, bases)
    return CentralizerResult(space, space.is_bracket_closed())


def subgroup_graded_algebra(G: FiniteGroup, L: GradedLieRing, H: Subgroup) -> GradedSubspace:
    """Componentwise span of the images of H ∩ D_i, verified bracket-closed."""
    L._need_group()
    if L.group is not G:
        raise MismatchedAlgebra("algebra was built from a different group")
    if H.group is not G:
        raise MismatchedParent("subgroup lives in a different group")
    terms = L.series.terms
    bases = []
    for i in range(1, L.m + 1):
        comp = L.components[i - 1]
        d = L.dims[i - 1]
        rows = [np.zeros(d, dtype=np.int64)]
        for k in np.flatnonzero(H.mask & terms[i - 1].mask):
            rows.append(np.array(comp.coord_of[comp.rep_of[G._keys[k]]], dtype=np.int64))
        bases.append(np.array(rows, dtype=np.int64))
    space = GradedSubspace(L, bases)
    if not space.is_bracket_closed():
        raise InconsistentPresentation("subgroup-derived subspace is not bracket-closed")
    return space


@dataclass(frozen=True)
class PMSplit:
    """Fixed and negated subspaces of an involution, with verified direct sum."""

    plus: GradedSubspace
    minus: GradedSubspace


def plus_minus_split(L: GradedLieRing, phi: GradedAutomorphism) -> PMSplit:
    """Split L into the ±1 eigenspaces of an involution (odd characteristic)."""
    if L.p == 2:
        raise EvenCharacteristic("eigenspace split needs odd characteristic")
    if phi.algebra is not L:
        raise MismatchedAlgebra("involution acts on a different algebra")
    if not phi.compose(phi).is_identity():
        raise NotInvolution("action does not square to the identity")
    plus_bases, minus_bases = [], []
    for i in range(1, L.m + 1):
        d = L.dims[i - 1]
        eye = np.eye(d, dtype=np.int64)
        plus_bases.append(nullspace((phi.mats[i - 1] - eye) % L.p, L.p))
        minus_bases.append(nullspace((phi.mats[i - 1] + eye) % L.p, L.p))
    plus = GradedSubspace(L, plus_bases)
    minus = GradedSubspace(L, minus_bases)
    for i in range(L.m):
        if plus.bases[i].shape[0] + minus.bases[i].shape[0] != L.dims[i]:
            raise InconsistentPresentation(
                f"eigenspaces of component {i + 1} do not span it"
            )
        stacked = np.vstack([plus.bases[i], minus.bases[i]])
        reduced, pivots = rref(stacked, L.p)
        if len(pivots) != L.dims[i]:
            raise InconsistentPresentation(
                f"eigenspaces of component {i + 1} overlap"
            )
    _check_pm_brackets(L, plus, minus)
    return PMSplit(plus, minus)


def _check_pm_brackets(L: GradedLieRing, plus: GradedSubspace, minus: GradedSubspace):
    """[P,P] ⊆ P, [P,M] ⊆ M, [M,M] ⊆ P, componentwise across the grading."""
    cases = [(plus, plus, plus), (plus, minus, minus), (minus, minus, plus)]
    for left, right, target in cases:
        for (i, j), table in L.sc.items():
            tgt = target.bases[i + j - 1]
            for u in left.bases[i - 1]:
                for v in right.bases[j - 1]:
                    w = np.einsum("a,b,abk->k", u, v, table) % L.p
                    if w.any() and not in_row_space(tgt, w, L.p):
                        raise InconsistentPresentation(
                            f"eigenspace bracket rule fails at degrees ({i},{j})"
                        )


# -- the two decomposition statements -------------------------------------


def lazard_check(G: FiniteGroup, L: GradedLieRing, x: GroupElement) -> Verdict:
    """(ad x*)^p must equal ad((x^p)*), and the ad-index stays within the order."""
    L._need_group()
    if L.group is not G:
        raise MismatchedAlgebra("algebra was built from a different group")
    G._check(x)
    if x.is_identity():
        raise TrivialImage("the identity has no graded image")
    xs = L.star(x)
    lhs = mat_pow(L.ad_matrix(xs), L.p, L.p)
    xp = G.power(x, L.p)
    if xp.is_identity():
        rhs = np.zeros((L.total_dim, L.total_dim), dtype=np.int64)
    else:
        rhs = L.ad_matrix(L.star(xp))
    power_ok = np.array_equal(lhs, rhs)
    index = L.ad_nilpotency_index(xs)
    order = G.element_order(x)
    index_ok = index <= order
    ok = power_ok and index_ok
    detail = (
        f"(ad x*)^{L.p} {'==' if power_ok else '!='} ad((x^{L.p})*); "
        f"ad-index {index} {'<=' if index_ok else '>'} element order {order}"
    )
    return Verdict(ok, detail)


@dataclass(frozen=True)
class DecompositionWitness:
    """Left-normed commutator data certifying a cyclic-product covering."""

    generators: tuple
    c: int  # nilpotency class of the degree-one-generated subalgebra
    shapes: tuple  # 1-based generator index tuples, weight-lexicographic
    rhos: tuple  # group elements, aligned with shapes
    K: int  # maximal element order among the rhos
    s: int  # number of shapes


def commutator_shapes(m: int, c: int) -> tuple:
    """Index tuples of weight ≤ c: weight 1 singles, then tuples with i1 ≠ i2."""
    if m < 1 or c < 1:
        raise MalformedSpec(f"need m >= 1 and c >= 1, got m={m}, c={c}")
    shapes = [(i,) for i in range(1, m + 1)]
    for w in range(2, c + 1):
        for tup in itertools.product(range(1, m + 1), repeat=w):
            if tup[0] != tup[1]:
                shapes.append(tup)
    return tuple(shapes)


def decomposition_witness(G: FiniteGroup, gens=None) -> DecompositionWitness:
    """Enumerate the left-normed commutators of weight up to the subalgebra class."""
    _p_of(G, None)
    gens = tuple(gens) if gens is not None else tuple(G.generators)
    for g in gens:
        G._check(g)
    if not generated_subgroup(G, gens).is_whole:
        raise MalformedSpec("the given elements do not generate the group")
    c = lp_subalgebra(build_dl(G)).algebra.nilpotency_class()
    shapes = commutator_shapes(len(gens), c)
    rhos = tuple(
        G.long_commutator([gens[t - 1] for t in shape]) for shape in shapes
    )
    K = max(G.element_order(r) for r in rhos)
    return DecompositionWitness(gens, c, shapes, rhos, K, len(shapes))


def _ordered_cyclic_product(G: FiniteGroup, rhos) -> np.ndarray:
    """Mask of the ordered product ⟨ρ_1⟩⟨ρ_2⟩···⟨ρ_s⟩."""
    acc = _closure(G, ())
    for rho in rhos:
        powers = np.flatnonzero(_closure(G, [G.index_of(rho)]))
        acc = _product_mask(G, np.flatnonzero(acc), powers)
    return acc


def check_prop_2_11(G: FiniteGroup, w: DecompositionWitness) -> Verdict:
    """Ordered cyclic product times each series tail must cover the group."""
    series = dimension_series(G)
    product = np.flatnonzero(_ordered_cyclic_product(G, w.rhos))
    for i in range(1, len(series.terms) + 1):
        covered = _product_mask(G, product, series.term(i + 1).idx)
        if not covered.all():
            return Verdict(
                False,
                f"product of {w.s} cyclic factors misses "
                f"{G.order - int(covered.sum())} elements at depth {i}",
            )
    return Verdict(
        True, f"{w.s} cyclic factors cover the group at every depth (class {w.c})"
    )


def check_cor_2_14(G: FiniteGroup, w: DecompositionWitness) -> Verdict:
    """Every series-term index must stay within K^s."""
    series = dimension_series(G)
    bound = w.K**w.s
    worst = 1
    for term in series.terms:
        index = G.order // term.order
        worst = max(worst, index)
        if index > bound:
            return Verdict(
                False,
                f"series index {index} exceeds K^s = {w.K}^{w.s} = {bound}",
            )
    return Verdict(True, f"max series index {worst} <= K^s = {w.K}^{w.s} = {bound}")
