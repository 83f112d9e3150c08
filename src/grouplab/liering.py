"""Graded Lie algebras built from the p-power descending series of a p-group.

Component L_i is D_i/D_{i+1}, coordinatized over F_p by a greedy basis: the
elements of D_i are scanned in index (= key) order, and each one outside the
span so far is kept.  It is elementary abelian when the basis elements have
p-th powers in D_{i+1} and commute modulo it, since with D_{i+1} they
generate D_i.  One breadth-first pass over the basis on Cayley-table rows
gives the (|G|, dim L) coordinate array, whose row x is the image x*.  All
brackets live in one F_p tensor C[a, b, :] = [e_a, e_b] over the total
basis, read from commutators of the basis representatives; it is the one
input a GradedLieRing is built from, and brackets, ad matrices, Jacobi,
subspace closure and actions are contractions of it.  Elements are
coordinate vectors; arithmetic on them is arithmetic on .vec.
Representative independence is verified on every coset member, in table
blocks, and an induced action on every element of each series term.
build_dl keeps its algebra on the group, so every caller shares one algebra
per group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import kernels
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
from .gfp import is_invertible, mat_pow, nullspace, row_space_equal, rref
from .groups import Automorphism, FiniteGroup, GroupElement
from .series import NormalSeries, Subgroup, Verdict, _closure, _p_of, dimension_series

__all__ = [
    "GradedLieRing",
    "LieElement",
    "GradedAutomorphism",
    "GradedSubspace",
    "CentralizerResult",
    "PMSplit",
    "DecompositionWitness",
    "build_dl",
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
        return self.vec[self.algebra._slice(i)]

    @property
    def degree(self) -> int | None:
        """Homogeneity degree, or None for zero or mixed elements."""
        live = set(self.algebra.degrees[np.flatnonzero(self.vec)].tolist())
        return live.pop() if len(live) == 1 else None

    def is_zero(self) -> bool:
        return not self.vec.any()

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
    """Finite-dimensional graded Lie algebra over F_p, stored as one tensor.

    C[a, b, :] = [e_a, e_b] over the total basis (components in degree order)
    is read-only and zero outside the grading; sc holds its blocks of nonzero
    degree pairs, sc[(i, j)] for dims d_i, d_j > 0 and i + j <= m in sorted
    order.  The constructor takes C, the one input format, and verifies
    [e_a, e_a] = 0, antisymmetry, the grading and Jacobi on all basis
    triples, each as one tensor identity.
    An algebra built from a group also carries coords (row x is x*), depth
    (the largest i with x in D_i; m + 1 for the identity) and reps (the
    element index behind each basis vector).
    """

    def __init__(
        self,
        p: int,
        dims,
        C,
        *,
        group: FiniteGroup | None = None,
        series: NormalSeries | None = None,
        coords: np.ndarray | None = None,
        depth: np.ndarray | None = None,
        reps: np.ndarray | None = None,
    ):
        self.p = p
        self.dims = tuple(int(d) for d in dims)
        self.m = len(self.dims)
        self.offsets = tuple(np.cumsum((0,) + self.dims).tolist())
        self.total_dim = n = self.offsets[-1]
        self.degrees = np.repeat(np.arange(1, self.m + 1), self.dims)
        self.degrees.flags.writeable = False
        C = np.asarray(C, dtype=np.int64) % p
        if C.shape != (n, n, n):
            raise InconsistentPresentation(
                f"structure tensor has shape {C.shape}, expected {(n, n, n)}"
            )
        C.flags.writeable = False
        self.C = C
        nonzero = [i for i, d in enumerate(self.dims, 1) if d]
        self.sc = {
            (i, j): C[self._slice(i), self._slice(j), self._slice(i + j)]
            for i in nonzero for j in nonzero if i + j <= self.m
        }
        self.group = group
        self.series = series
        self.coords = coords
        self.depth = depth
        self.reps = reps
        self._verify_tensor()

    # -- bookkeeping -----------------------------------------------------

    def _slice(self, i: int) -> slice:
        if not (1 <= i <= self.m):
            raise MalformedSpec(f"component index {i} outside 1..{self.m}")
        return slice(self.offsets[i - 1], self.offsets[i])

    def element(self, vec) -> LieElement:
        return LieElement(self, vec)

    def basis(self) -> list:
        return [LieElement(self, row) for row in np.eye(self.total_dim, dtype=np.int64)]

    def component_basis(self, i: int) -> list:
        return self.basis()[self._slice(i)]

    def all_vectors(self) -> np.ndarray:
        """Every coordinate vector, one per row, in lexicographic order."""
        n = self.total_dim
        return np.indices((self.p,) * n).reshape(n, self.p**n).T

    def degree_index(self, t: int) -> int:
        """Degree of the t-th total basis vector."""
        if not (0 <= t < self.total_dim):
            raise MalformedSpec(f"basis index {t} outside 0..{self.total_dim - 1}")
        return int(self.degrees[t])

    # -- bracket ----------------------------------------------------------

    def bracket(self, u: LieElement, v: LieElement) -> LieElement:
        if u.algebra is not self or v.algebra is not self:
            raise MismatchedAlgebra("bracket operands must belong to this algebra")
        return LieElement(self, np.einsum("a,b,abk->k", u.vec, v.vec, self.C))

    def brackets(self, us, vs) -> np.ndarray:
        """All brackets [u_r, v_s] of two stacks of coordinate rows, shape (r, s, n)."""
        return np.einsum("ra,sb,abk->rsk", us, vs, self.C) % self.p

    def ads(self, vecs) -> np.ndarray:
        """Stacked ad matrices: ads(vecs)[r] @ vec(x) = vec([x, a_r]), a_r = vecs[r]."""
        return np.einsum("rb,tbk->rkt", vecs, self.C) % self.p

    def ad_nilpotency_indices(self, ads: np.ndarray) -> np.ndarray:
        """Least n with ads[r]^n = 0, for every matrix of the stack."""
        index = np.zeros(len(ads), dtype=np.int64)
        power = ads
        for n in range(1, self.total_dim + 2):
            index[(index == 0) & ~power.reshape(len(ads), -1).any(axis=1)] = n
            if index.all():
                return index
            power = power @ ads % self.p
        raise InconsistentPresentation("ad map failed to nilpotize")

    def nilpotency_class(self) -> int:
        """Largest k with the k-th lower-central span nonzero (abelian: 1)."""
        cur = np.eye(self.total_dim, dtype=np.int64)
        k = 1
        while True:
            rows = np.einsum("ra,abk->rbk", cur, self.C)
            rows = rows.reshape(len(cur) * self.total_dim, self.total_dim)
            reduced, pivots = rref(rows, self.p)
            if not pivots:
                return k
            cur = reduced[: len(pivots)]
            k += 1

    # -- group payload ------------------------------------------------------

    def _need_group(self):
        if self.group is None or self.coords is None or self.series is None:
            raise MalformedSpec("this algebra was not built from a group")

    def degree_of(self, x: GroupElement) -> int:
        """Largest i with x in the i-th series term (its homogeneous depth)."""
        self._need_group()
        self.group._check(x)
        if x.is_identity():
            raise TrivialImage("the identity has no homogeneous degree")
        return int(self.depth[self.group.index_of(x)])  # at most m: D_{m+1} is trivial

    def star(self, x: GroupElement) -> LieElement:
        """Canonical image of a group element in the component of its depth."""
        self.degree_of(x)
        return LieElement(self, self.coords[self.group.index_of(x)])

    # -- construction-time verification --------------------------------------

    def _verify_tensor(self):
        C, p, deg = self.C, self.p, self.degrees
        graded = deg[:, None, None] + deg[None, :, None] == deg[None, None, :]
        if C[~graded].any():
            raise InconsistentPresentation("a bracket of basis vectors leaves the grading")
        diagonal = C[np.arange(self.total_dim), np.arange(self.total_dim)].any(axis=1)
        if diagonal.any():
            t = int(np.argmax(diagonal))
            i = self.degree_index(t)
            raise InconsistentPresentation(
                f"[x, x] is nonzero for basis vector {t - self.offsets[i - 1]} of component {i}"
            )
        skew = ((C + C.transpose(1, 0, 2)) % p).any(axis=2)
        if skew.any():
            raise InconsistentPresentation(
                "bracket tables for ({},{}) are not antisymmetric".format(
                    *_first_pair(skew, deg, deg)
                )
            )
        jacobi = (
            np.einsum("abk,kcl->abcl", C, C)
            + np.einsum("bck,kal->abcl", C, C)
            + np.einsum("cak,kbl->abcl", C, C)
        ) % p
        if jacobi.any():
            raise InconsistentPresentation("Jacobi identity fails on a basis triple")

    def __repr__(self):
        return f"GradedLieRing(p={self.p}, dims={list(self.dims)})"


def _first_pair(bad: np.ndarray, left: np.ndarray, right: np.ndarray) -> tuple:
    """Least degree pair (i, j) over the marked pairs (a, b), a of degree left[a]."""
    a, b = np.nonzero(bad)
    return min(zip(left[a].tolist(), right[b].tolist()))


def build_dl(G: FiniteGroup) -> GradedLieRing:
    """Graded Lie algebra of a finite p-group from its p-power descending series.

    The algebra is kept on G, so later calls return the same object.
    """
    p = _p_of(G)
    return G._keep(("lie ring",), lambda: _build_dl(G, p))


def _build_dl(G: FiniteGroup, p: int) -> GradedLieRing:
    """The graded Lie algebra of build_dl, built anew; p is the prime of the p-group G."""
    series = dimension_series(G)
    terms = series.terms
    m = len(terms) - 1
    power = kernels._power_map(G, p)
    depth = np.sum([t.mask for t in terms], axis=0)
    coords = np.zeros((G.order, G.is_p_group()[1]), dtype=np.int64)
    reps, dims = [], []
    for i in range(1, m + 1):
        D, N = terms[i - 1], terms[i]
        lo = len(reps)
        span = N.mask.copy()  # N times the powers of the basis so far: a union of N-cosets
        while True:
            outside = D.idx[~span[D.idx]]
            if not outside.size:
                break
            b = int(outside[0])  # the least element, so the least key, of its coset
            # with the basis so far, b spans an elementary abelian D/N as long as
            # every basis element has its p-th power in N and they commute modulo N
            if not N.mask[power[b]]:
                raise NonElementaryQuotient(f"component {i} has exponent above {p}")
            if not N.mask[kernels._commutators(G, [b], reps[lo:])].all():
                raise NonElementaryQuotient(f"component {i} is not abelian")
            col = len(reps)
            reps.append(b)
            base = span.nonzero()[0]
            layer = base
            for e in range(1, p):
                layer = kernels._product(G, layer, b)  # base · b^e
                coords[layer, lo:col] = coords[base, lo:col]
                coords[layer, col] = e
                span[layer] = True
        dims.append(len(reps) - lo)
    reps = np.array(reps, dtype=np.int64)
    degrees = np.repeat(np.arange(1, m + 1), dims)
    comm = kernels._commutators(G, reps, reps)  # comm[a, b] = [x_a, x_b] for the basis reps
    want = degrees[:, None] + degrees[None, :]
    escaped = (want <= m) & (depth[comm] < want)
    if escaped.any():
        i, j = _first_pair(escaped, degrees, degrees)
        raise InconsistentPresentation(
            f"commutator of degrees ({i},{j}) escapes series term {i + j}"
        )
    C = coords[comm] * (want[:, :, None] == degrees[None, None, :])
    for shared in (coords, depth, reps):
        shared.flags.writeable = False
    L = GradedLieRing(
        p, dims, C, group=G, series=series, coords=coords, depth=depth, reps=reps
    )
    _verify_well_definedness(G, L)
    return L


def _verify_well_definedness(G: FiniteGroup, L: GradedLieRing):
    """Structure constants must not depend on the coset representatives.

    For basis representatives x of degree i and y of degree j, every n1 in
    D_{i+1} and n2 in D_{j+1} must give [x·n1, y·n2] in [x, y]·D_{i+j+1}
    (kernels._brackets_within).  Degrees i < j follow by inversion,
    [y·n2, x·n1] = [x·n1, y·n2]^-1, so only i >= j is scanned; the pairs are
    the keys of L.sc, since a degree of dimension 0 has no representative.
    """
    terms = L.series.terms
    for i, j in L.sc:
        if i < j:
            continue
        xs, ys = L.reps[L._slice(i)], L.reps[L._slice(j)]
        if not kernels._brackets_within(G, xs, ys, terms[i].idx, terms[j].idx, terms[i + j].mask):
            raise InconsistentPresentation(
                f"bracket of degrees ({i},{j}) depends on representatives"
            )


# -- subspaces ----------------------------------------------------------


class GradedSubspace:
    """Componentwise row-space inside a GradedLieRing, stored in echelon form.

    rows is the basis in total coordinates, components in degree order; it is
    in reduced echelon form too, with pivot columns pivots.
    """

    __slots__ = ("algebra", "bases", "rows", "pivots")

    def __init__(self, algebra: GradedLieRing, bases):
        self.algebra = algebra
        clean = []
        for i in range(1, algebra.m + 1):
            d = algebra.dims[i - 1]
            mat = np.asarray(bases[i - 1], dtype=np.int64) % algebra.p
            mat = mat.reshape(mat.size // d if d else 0, d)
            reduced, pivots = rref(mat, algebra.p)
            clean.append(reduced[: len(pivots)])
        self.bases = tuple(clean)
        eye = np.eye(algebra.total_dim, dtype=np.int64)
        self.rows = np.concatenate(
            [eye[:0]] + [b @ eye[algebra._slice(i)] for i, b in enumerate(clean, start=1)]
        )
        self.pivots = (self.rows != 0).argmax(axis=1) if self.rows.size else np.zeros(0, int)

    @classmethod
    def whole(cls, algebra: GradedLieRing) -> "GradedSubspace":
        return cls(algebra, [np.eye(d, dtype=np.int64) for d in algebra.dims])

    @classmethod
    def zero(cls, algebra: GradedLieRing) -> "GradedSubspace":
        return cls(algebra, [np.zeros((0, d), dtype=np.int64) for d in algebra.dims])

    def dims(self) -> tuple:
        return tuple(b.shape[0] for b in self.bases)

    def degrees(self) -> np.ndarray:
        """Degree of each row of rows."""
        return np.repeat(np.arange(1, self.algebra.m + 1), self.dims())

    def outside(self, vecs) -> np.ndarray:
        """Which vectors of vecs (coordinates on the last axis) lie outside the space.

        A vector lies inside exactly when it is its entries at the pivots times rows.
        """
        p = self.algebra.p
        back = np.einsum("...q,qk->...k", vecs[..., self.pivots], self.rows) % p
        return (back != vecs % p).any(axis=-1)

    def is_bracket_closed(self) -> bool:
        return not self.outside(self.algebra.brackets(self.rows, self.rows)).any()

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


def _degree_one_closure(L: GradedLieRing) -> tuple:
    """The subalgebra M generated by L_1, checked bracket-closed, as (bases, space, W).

    bases[k-1] spans M_k = [M_{k-1}, L_1]; space is M inside L; W its rows' brackets.
    """
    bases = [np.eye(L.dims[0], dtype=np.int64)]
    for k in range(2, L.m + 1):
        # every basis row of M_{k-1} against every degree-one basis vector, by C's
        # (k - 1, 1) block: sc lacks it when degree k - 1 has dimension 0
        block = L.C[L._slice(k - 1), L._slice(1), L._slice(k)]
        rows = np.einsum("ra,abc->rbc", bases[-1], block)
        reduced, pivots = rref(rows.reshape(len(rows) * L.dims[0], L.dims[k - 1]), L.p)
        bases.append(reduced[: len(pivots)])
    space = GradedSubspace(L, bases)
    W = L.brackets(space.rows, space.rows)
    bad = space.outside(W)
    if bad.any():
        i, j = _first_pair(bad, space.degrees(), space.degrees())
        raise InconsistentPresentation(
            f"degree-one closure is not bracket-closed at degrees ({i},{j})"
        )
    return bases, space, W


# -- automorphism actions -------------------------------------------------


class GradedAutomorphism:
    """Degree-preserving algebra automorphism: one invertible matrix per component.

    GradedAutomorphism(L, mats) verifies that every matrix is invertible and
    that the action respects the bracket (_verify).  Only the library skips
    that, through _trusted, for results that are graded automorphisms by
    construction: a composite of two (compose) and the action a group
    automorphism induces (induced_action).
    """

    __slots__ = ("algebra", "mats")

    def __init__(self, algebra: GradedLieRing, mats):
        self._adopt(algebra, mats)
        self._verify()

    @classmethod
    def _trusted(cls, algebra: GradedLieRing, mats) -> "GradedAutomorphism":
        """The action of these matrices, which the caller built a graded automorphism."""
        phi = cls.__new__(cls)
        phi._adopt(algebra, mats)
        return phi

    def _adopt(self, algebra: GradedLieRing, mats):
        self.algebra = algebra
        clean = []
        for i in range(1, algebra.m + 1):
            d = algebra.dims[i - 1]
            mat = np.asarray(mats[i - 1], dtype=np.int64).reshape(d, d) % algebra.p
            clean.append(mat)
        self.mats = tuple(clean)

    def matrix(self) -> np.ndarray:
        """The action on the total basis: one block-diagonal matrix."""
        L = self.algebra
        out = np.zeros((L.total_dim, L.total_dim), dtype=np.int64)
        for i, mat in enumerate(self.mats, start=1):
            out[L._slice(i), L._slice(i)] = mat
        return out

    def _verify(self):
        """phi([e_a, e_b]) = [phi(e_a), phi(e_b)] on every basis pair, at once."""
        L = self.algebra
        for i, mat in enumerate(self.mats, start=1):
            if not is_invertible(mat, L.p):
                raise ActionNotWellDefined(f"component {i} matrix is singular")
        phi = self.matrix()
        lhs = np.einsum("lk,abk->abl", phi, L.C) % L.p
        bad = (lhs != L.brackets(phi.T, phi.T)).any(axis=2)
        if bad.any():
            i, j = _first_pair(bad, L.degrees, L.degrees)
            raise ActionNotWellDefined(
                f"action does not respect the bracket at degrees ({i},{j})"
            )

    def compose(self, other: "GradedAutomorphism") -> "GradedAutomorphism":
        """Apply self first, then other."""
        if other.algebra is not self.algebra:
            raise MismatchedAlgebra("cannot compose actions on different algebras")
        mats = [
            (b @ a) % self.algebra.p for a, b in zip(self.mats, other.mats)
        ]
        return GradedAutomorphism._trusted(self.algebra, mats)

    def is_identity(self) -> bool:
        return all(
            np.array_equal(mat, np.eye(mat.shape[0], dtype=np.int64)) for mat in self.mats
        )

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

    Once that check passes, the result is a graded automorphism by
    construction, so it is not verified again: phi is a verified bijective
    automorphism of the finite group G that maps each D_i into, hence onto,
    itself, so it permutes each D_i/D_{i+1} and each matrix is invertible;
    and build_dl verified that the bracket of L does not depend on the coset
    representatives, so phi([x, y]) = [phi(x), phi(y)] passes to L.  A
    public GradedAutomorphism(L, mats) still verifies both.
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
        # column b: the coordinates of phi(x_b) for the b-th basis representative
        mats.append(L.coords[image[L.reps[L._slice(i)]], L._slice(i)].T)
    return GradedAutomorphism._trusted(L, mats)


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
    bases = []
    for i in range(1, L.m + 1):
        eye = np.eye(L.dims[i - 1], dtype=np.int64)
        stacked = np.concatenate([eye[:0]] + [phi.mats[i - 1] - eye for phi in phis])
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
    bases = [
        L.coords[np.flatnonzero(H.mask & terms[i - 1].mask), L._slice(i)]
        for i in range(1, L.m + 1)
    ]
    space = GradedSubspace(L, bases)
    if not space.is_bracket_closed():
        raise InconsistentPresentation("subgroup-derived subspace is not bracket-closed")
    return space


@dataclass(frozen=True)
class PMSplit:
    """Fixed and negated subspaces of an involution: complementary in odd characteristic."""

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
    # phi^2 = 1 and 2 is invertible mod p: x = (x + phi x)/2 + (x - phi x)/2,
    # so the two eigenspaces are complementary in every component
    plus = GradedSubspace(L, plus_bases)
    minus = GradedSubspace(L, minus_bases)
    _check_pm_brackets(L, plus, minus)
    return PMSplit(plus, minus)


def _check_pm_brackets(L: GradedLieRing, plus: GradedSubspace, minus: GradedSubspace):
    """[P,P] ⊆ P, [P,M] ⊆ M, [M,M] ⊆ P, componentwise across the grading."""
    cases = [(plus, plus, plus), (plus, minus, minus), (minus, minus, plus)]
    for left, right, target in cases:
        bad = target.outside(L.brackets(left.rows, right.rows))
        if bad.any():
            i, j = _first_pair(bad, left.degrees(), right.degrees())
            raise InconsistentPresentation(
                f"eigenspace bracket rule fails at degrees ({i},{j})"
            )


# -- the two decomposition statements -------------------------------------


def _lazard_table(G: FiniteGroup, L: GradedLieRing, xs) -> tuple:
    """Lazard's power law on the elements with indices xs, batched.

    Returns three arrays aligned with xs: whether (ad x*)^p = ad((x^p)*), the
    ad-nilpotency index of x*, and the order of x.
    """
    xs = np.asarray(xs, dtype=np.int64)
    power = kernels._power_map(G, L.p)
    ads = L.ads(L.coords[xs])
    power_ok = (mat_pow(ads, L.p, L.p) == L.ads(L.coords[power[xs]])).all(axis=(1, 2))
    return power_ok, L.ad_nilpotency_indices(ads), G.element_orders()[xs]


def _lazard_verdict(p: int, power_ok, index, order) -> Verdict:
    """One element's verdict from its entries of _lazard_table."""
    return Verdict(
        bool(power_ok and index <= order),
        f"(ad x*)^{p} {'==' if power_ok else '!='} ad((x^{p})*); "
        f"ad-index {index} {'<=' if index <= order else '>'} element order {order}",
    )


def lazard_check(G: FiniteGroup, L: GradedLieRing, x: GroupElement) -> Verdict:
    """(ad x*)^p must equal ad((x^p)*), and the ad-index stays within the order."""
    L._need_group()
    if L.group is not G:
        raise MismatchedAlgebra("algebra was built from a different group")
    G._check(x)
    if x.is_identity():
        raise TrivialImage("the identity has no graded image")
    return _lazard_verdict(L.p, *(int(v[0]) for v in _lazard_table(G, L, [G.index_of(x)])))


@dataclass(frozen=True)
class DecompositionWitness:
    """Left-normed commutator data certifying a cyclic-product covering, on element indices."""

    generators: tuple  # element indices
    c: int  # nilpotency class of the degree-one-generated subalgebra
    shapes: tuple  # 1-based generator index tuples, weight-lexicographic
    rhos: tuple  # element indices, aligned with shapes
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
    """Enumerate the left-normed commutators of weight up to the subalgebra class.

    The class c of the subalgebra M generated by L_1 is its top nonzero
    degree, since M_k = [M_{k-1}, M_1], read off _degree_one_closure with no
    second ring.  Given elements must generate G; G's own generators do.
    The weight-w shapes are the weight-(w-1) ones, each followed by every
    generator in turn, so each weight's values are one commutator grid of
    the layer before (rows) against the generators (columns), read in row
    order.  At w = 2 the prefixes are the generators, and the diagonal
    pairs (i, i) are dropped.
    """
    _p_of(G)
    ys = G._gens
    if gens is not None:
        ys = np.array([G.index_of(g) for g in gens], dtype=np.int64)
        if not _closure(G, ys).all():
            raise MalformedSpec("the given elements do not generate the group")
    c = sum(1 for basis in _degree_one_closure(build_dl(G))[0] if len(basis))
    shapes = commutator_shapes(len(ys), c)
    layers = [ys]
    for w in range(2, c + 1):
        grid = kernels._commutators(G, layers[-1], ys)  # rows: weight-(w-1) values; columns: gens
        layers.append(grid[~np.eye(len(ys), dtype=bool)] if w == 2 else grid.ravel())
    values = np.concatenate(layers)
    K = int(G.element_orders()[values].max())
    rhos = tuple(values.tolist())
    return DecompositionWitness(tuple(ys.tolist()), c, shapes, rhos, K, len(shapes))


def _ordered_cyclic_product(G: FiniteGroup, rhos) -> np.ndarray:
    """Mask of the ordered product ⟨ρ_1⟩⟨ρ_2⟩···⟨ρ_s⟩, each factor ρ's powers (kernels).

    A factor ρ = 1 adds nothing, so it is skipped, and once the product is
    the whole group the later factors cannot change it (G·X = G).
    """
    acc = _closure(G, ())
    for r in rhos:
        if r == G._e:
            continue
        if acc.all():
            break
        acc = kernels._product_mask(G, acc.nonzero()[0], kernels._cyclic_powers(G, r))
    return acc


def check_prop_2_11(G: FiniteGroup, w: DecompositionWitness) -> Verdict:
    """Ordered cyclic product times each series tail must cover the group.

    A product that is already the whole group covers it at every depth.
    """
    series = build_dl(G).series
    product = _ordered_cyclic_product(G, w.rhos)
    if not product.all():
        for i in range(1, len(series.terms) + 1):
            covered = kernels._product_mask(G, product.nonzero()[0], series.term(i + 1).idx)
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
    series = build_dl(G).series
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
