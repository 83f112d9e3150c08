"""Finite groups with exact arithmetic.

Every FiniteGroup is its sorted element keys plus an integer-indexed Cayley
table, whose layout and every read of which live in kernels.  Three
builders fill the table:

- power-commutator presentations of finite p-groups, by iterated cyclic
  extensions (_pc_table), which also decide consistency exactly, with one
  test per extension;
- permutation groups, enumerated breadth-first from their generators
  (_perm_table), among them each group A of automorphisms acting on a
  group, on that group's element indices (actions.ActionFixture);
- quotient groups, from the parent's table on coset representatives
  (series.QuotientGroup, for callers of the public API).

An element is its index; a GroupElement handle, a view of (group, index)
for the public API, is made on each request and never kept.  Every
derived value (element orders, the subgroup lattice, the graded Lie ring)
is kept in one store (FiniteGroup._keep).  A homomorphism is decided on
the generators of its source, every element against every generator,
after each generator's given image is compared with the one the others
send it to; only a failure scans every pair, to name the first one.  The
public constructor checks with the closure kernel (kernels._close) that a
group's generators generate it; the three builders span their groups by
construction and skip that check (FiniteGroup._built).  Groups are capped
at TABLE_CAP elements; a pc presentation over the cap is refused before
any table work.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from . import kernels
from .errors import (
    BudgetExceeded,
    EmptySequence,
    ForeignElement,
    InconsistentPresentation,
    MalformedSpec,
)

__all__ = [
    "PcPresentation",
    "PermutationGenSet",
    "GroupElement",
    "FiniteGroup",
    "GroupHomomorphism",
    "Automorphism",
    "build_group",
    "inner_automorphism",
    "perm_from_cycles",
    "cycles_of",
    "is_prime",
]

TABLE_CAP = 2048

# A normal word is a tuple of (generator index, exponent) factors with
# strictly increasing indices; the empty tuple is the identity.
NormalWord = tuple


def is_prime(n: int) -> bool:
    """Trial-division primality test; ample for desk-scale moduli."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_power(n: int):
    """(p, k) with n = p^k for a prime p, or None if n is not a prime power, by trial division."""
    if n == 1:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            break
        p += 1
    else:
        return (n, 1)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


def _validate_word(word, p: int, ngens: int, floor: int, where: str) -> NormalWord:
    """Check a normal word against the presentation grammar."""
    seen = 0
    out = []
    for factor in word:
        try:
            idx, exp = factor
        except (TypeError, ValueError):
            raise MalformedSpec(f"{where}: factor {factor!r} is not an (index, exponent) pair")
        if not (1 <= idx <= ngens):
            raise MalformedSpec(f"{where}: generator index {idx} out of range 1..{ngens}")
        if idx <= seen:
            raise MalformedSpec(f"{where}: index not increasing at generator {idx}")
        if idx <= floor:
            raise MalformedSpec(
                f"{where}: right-hand side may only mention indices above {floor}, got {idx}"
            )
        if not (1 <= exp <= p - 1):
            raise MalformedSpec(f"{where}: exponent {exp} outside 1..{p - 1}")
        seen = idx
        out.append((idx, exp))
    return tuple(out)


@dataclass(frozen=True)
class PcPresentation:
    """Power-commutator presentation of a finite p-group.

    Generators are g_1..g_ngens.  ``powers[i]`` is the normal word for
    g_i^p (missing means trivial) and ``commutators[(j, i)]`` with j > i is
    the normal word for [g_j, g_i] (missing means the pair commutes).  Every
    right-hand side may mention only generators with index strictly greater
    than the smaller index on its left-hand side.
    """

    p: int
    ngens: int
    powers: dict = field(default_factory=dict)
    commutators: dict = field(default_factory=dict)

    def __post_init__(self):
        # Bounded before the trial division and before p^ngens is formed: one
        # generator of order p, or 2^ngens elements, already pass the cap.
        if self.p > TABLE_CAP:
            raise BudgetExceeded(
                f"a modulus above {TABLE_CAP} passes the cap of {TABLE_CAP} elements"
            )
        if not is_prime(self.p):
            raise MalformedSpec(f"modulus {self.p} is not prime")
        if self.ngens < 1:
            raise MalformedSpec(f"need at least one generator, got {self.ngens}")
        if self.ngens > TABLE_CAP.bit_length():
            raise BudgetExceeded(
                f"more than {TABLE_CAP.bit_length()} generators pass the cap of "
                f"{TABLE_CAP} elements"
            )
        clean_pow = {}
        for i, word in self.powers.items():
            if not (1 <= i <= self.ngens):
                raise MalformedSpec(f"power relation for unknown generator {i}")
            clean_pow[i] = _validate_word(word, self.p, self.ngens, i, f"pow {i}")
        clean_comm = {}
        for pair, word in self.commutators.items():
            j, i = pair
            if not (1 <= i < j <= self.ngens):
                raise MalformedSpec(f"commutator relation [{j},{i}] needs 1 <= i < j <= ngens")
            clean_comm[(j, i)] = _validate_word(word, self.p, self.ngens, i, f"comm {j} {i}")
        object.__setattr__(self, "powers", clean_pow)
        object.__setattr__(self, "commutators", clean_comm)

    @property
    def order(self) -> int:
        return self.p**self.ngens


def _check_degree(degree: int, where: str) -> None:
    """Refuse a degree below 1, or above TABLE_CAP before a list of its length is built."""
    if degree < 1:
        raise MalformedSpec(f"{where}: degree must be positive, got {degree}")
    if degree > TABLE_CAP:
        raise BudgetExceeded(f"{where}: degree {degree} is above the cap of {TABLE_CAP} points")


def perm_from_cycles(degree: int, cycles, where: str = "permutation") -> tuple:
    """Image tuple (0-based) of a product of disjoint cycles on 1..degree."""
    _check_degree(degree, where)
    images = list(range(degree))
    touched = set()
    for cycle in cycles:
        pts = list(cycle)
        if len(pts) != len(set(pts)):
            raise MalformedSpec(f"{where}: repeated point inside cycle {tuple(cycle)}")
        for a in pts:
            if not (1 <= a <= degree):
                raise MalformedSpec(f"{where}: point {a} outside 1..{degree}")
            if a in touched:
                raise MalformedSpec(f"{where}: point {a} appears in two cycles")
            touched.add(a)
        for k, a in enumerate(pts):
            images[a - 1] = pts[(k + 1) % len(pts)] - 1
    return tuple(images)


def cycles_of(images: tuple) -> list[tuple]:
    """Disjoint cycle decomposition (1-based, fixed points omitted)."""
    seen = set()
    cycles = []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            seen.add(start)
            continue
        cyc = [start]
        seen.add(start)
        nxt = images[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = images[nxt]
        cycles.append(tuple(x + 1 for x in cyc))
    return cycles


@dataclass(frozen=True)
class PermutationGenSet:
    """Named permutation generators acting on the points 1..degree."""

    degree: int
    generators: tuple = ()  # of (name, image tuple)

    def __post_init__(self):
        _check_degree(self.degree, "permutation group")
        names = set()
        for name, images in self.generators:
            if name in names:
                raise MalformedSpec(f"duplicate generator name {name!r}")
            names.add(name)
            if len(images) != self.degree or sorted(images) != list(range(self.degree)):
                raise MalformedSpec(f"generator {name!r} is not a bijection on {self.degree} points")


class GroupElement:
    """Element of a FiniteGroup: a view of its element index, with its canonical key."""

    __slots__ = ("group", "idx", "key")

    def __init__(self, group: "FiniteGroup", idx: int):
        self.group = group
        self.idx = idx
        self.key = group._keys[idx]

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.group is other.group
            and self.idx == other.idx
        )

    def __hash__(self):
        return hash((id(self.group), self.idx))

    def __mul__(self, other):
        return self.group.multiply(self, other)

    def __pow__(self, k: int):
        return self.group.power(self, k)

    def inverse(self) -> "GroupElement":
        return self.group.inverse(self)

    def order(self) -> int:
        return self.group.element_order(self)

    def is_identity(self) -> bool:
        return self.idx == self.group._e

    def __repr__(self):
        return self.group._repr_key(self.key)


def _pc_repr(key: tuple) -> str:
    parts = []
    for i, e in enumerate(key):
        if e == 1:
            parts.append(f"g{i + 1}")
        elif e > 1:
            parts.append(f"g{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def _perm_repr(key: tuple) -> str:
    cycles = cycles_of(key)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x) for x in cyc) + ")" for cyc in cycles)


def _word_index(word: NormalWord, p: int, n: int) -> int:
    """Index of a normal word: the base-p value of its exponent vector."""
    return sum(exp * p ** (n - idx) for idx, exp in word)


def _pc_table(pres: PcPresentation) -> np.ndarray:
    """Cayley table of a pc presentation, built by iterated cyclic extensions.

    G_k = <g_k, ..., g_n> is built from G_{k+1} for k = n down to 1; its
    element g_k^a h, h in G_{k+1}, has index a |G_{k+1}| + index(h), so
    indices run in the base-p order of the exponent vectors.  With phi the
    conjugation by g_k, phi(g_j) = g_j [g_j, g_k], and w = g_k^p in G_{k+1},

        (g_k^a h)(g_k^b h') = g_k^(a+b) phi^b(h) h',

    where g_k^p is replaced by w when a + b >= p.  This is a group of order
    p |G_{k+1}| exactly when phi is an automorphism of G_{k+1}, phi(w) = w
    and phi^p is conjugation by w (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 2005, ch. 8), so the presentation is
    consistent exactly when that holds at every k.

    Each G_j, j > k, is a subgroup of G_{k+1} made of its first p^(n-j+1)
    indices, and phi on G_j is the prefix of phi on G_{k+1}.  So one test on
    G_{k+1} (phi injective, phi(xg) = phi(x) phi(g) for every x and every
    generator g) decides the same test on every G_j at once; only a failure
    walks j = n down to k + 1 (_failed_relation), to name the first relation
    [g_j, g_k] that fails.  The new table is filled by one gather of rows of
    the old one straight into its contiguous memory, then offset to the
    cosets in place: its index arrays hold p |G_k| entries, and no m x m
    array is built besides the two tables.
    """
    p, n = pres.p, pres.ngens
    T = np.zeros((1, 1), dtype=np.int64)
    for k in range(n, 0, -1):
        m = len(T)
        gens = p ** np.arange(n - k)  # g_n, ..., g_{k+1}
        # phi on the normal words of G_j, for j = n down to k + 1
        phi = np.zeros(1, dtype=np.int64)
        for j in range(n, k, -1):
            image = T[p ** (n - j), _word_index(pres.commutators.get((j, k), ()), p, n)]
            powers = [0]
            for _ in range(p - 1):
                powers.append(T[powers[-1], image])
            phi = T[np.array(powers)[:, None], phi].ravel()
        if not _embeds(T, phi, gens):
            raise _failed_relation(pres, T, phi, k)
        pw = pres.powers.get(k, ())
        w = _word_index(pw, p, n)
        if phi[w] != w:
            raise InconsistentPresentation(
                f"relation g{k}^{p} = {_word_repr(pw, n)} fails: g{k} does not commute with it"
            )
        w_inv = int(np.argmax(T[w] == 0))
        phi_p = np.arange(m)
        for _ in range(p):
            phi_p = phi[phi_p]
        if not np.array_equal(phi_p, T[T[w_inv], w]):
            raise InconsistentPresentation(
                f"relation g{k}^{p} = {_word_repr(pw, n)} fails: conjugation by g{k}^{p} "
                "is not conjugation by it"
            )
        # rows[a, i, b] is the row of T that block (a, b) of the new table
        # reads at its row i: phi^b(h_i), or w phi^b(h_i) past g_k^p
        phi_b = np.empty((m, p), dtype=np.int64)
        phi_b[:, 0] = np.arange(m)
        for b in range(1, p):
            phi_b[:, b] = phi[phi_b[:, b - 1]]
        a_plus_b = np.add.outer(np.arange(p), np.arange(p))
        rows = np.where((a_plus_b >= p)[:, None, :], T[w, phi_b], phi_b)
        table = np.empty((p * m, p * m), dtype=np.int64)
        # every index is below m, so "clip" changes none and spares take a
        # buffered copy of its output
        blocks = np.take(T, rows, axis=0, out=table.reshape(p, m, p, m), mode="clip")
        blocks += (a_plus_b % p * m)[:, None, :, None]
        T = table
    return T


def _word_repr(w: NormalWord, n: int) -> str:
    key = [0] * n
    for idx, exp in w:
        key[idx - 1] = exp
    return _pc_repr(tuple(key))


def _embeds(T: np.ndarray, phi: np.ndarray, gens: np.ndarray) -> bool:
    """phi is injective and a homomorphism on the subgroup of T's first len(phi) indices.

    gens generate that subgroup, so kernels._respects decides every pair, as
    in GroupHomomorphism._verify.
    """
    return np.count_nonzero(np.bincount(phi)) == len(phi) and kernels._respects(T, T, phi, gens)


def _failed_relation(pres: PcPresentation, T: np.ndarray, phi: np.ndarray, k: int):
    """The error naming the first j = n, ..., k + 1 at which conjugation by g_k fails on G_j.

    phi fails on G_{k+1}, so some j fails; G_j is the first p^(n-j+1)
    indices of T, generated by g_n, ..., g_j.
    """
    p, n = pres.p, pres.ngens
    gens = p ** np.arange(n - k)
    j = next(
        j for j in range(n, k, -1)
        if not _embeds(T, phi[: p ** (n - j + 1)], gens[: n - j + 1])
    )
    span = ", ".join(f"g{i}" for i in range(j, n + 1))
    comm = pres.commutators.get((j, k), ())
    return InconsistentPresentation(
        f"relation [g{j}, g{k}] = {_word_repr(comm, n)} fails: conjugation by "
        f"g{k} is no automorphism of <{span}>"
    )


def _perm_table(genset: PermutationGenSet) -> tuple:
    """Sorted keys and Cayley table of a permutation group, by enumeration.

    The elements are reached breadth-first from the identity.  Column z of
    the table is x -> x*z; where the enumeration reached z as y*g, that
    column is g's right multiplication applied to column y, since
    x*(y*g) = (x*y)*g, and the tree's insertion order fills y first.
    """
    e = tuple(range(genset.degree))
    gen_keys = [images for _, images in genset.generators]
    tree = {e: None}  # key -> (parent key, generator position) it was reached from
    right = {}  # key -> [key * g for each generator g]
    frontier = [e]
    while frontier:
        fresh = []
        for key in frontier:
            # a*b means "apply a, then b": (a*b)[x] = b[a[x]]
            compose = itemgetter(*key)
            prods = [compose(gk) for gk in gen_keys]
            if genset.degree == 1:  # itemgetter of one index returns the bare item
                prods = [(prod,) for prod in prods]
            right[key] = prods
            for pos, prod in enumerate(prods):
                if prod not in tree:
                    tree[prod] = (key, pos)
                    fresh.append(prod)
                    if len(tree) > TABLE_CAP:
                        raise BudgetExceeded(
                            f"group enumeration passed the cap of {TABLE_CAP} elements"
                        )
        frontier = fresh
    keys = sorted(tree)
    index = {key: i for i, key in enumerate(keys)}
    n = len(keys)
    # right_perms[pos][i] = index of (element i) * (generator pos)
    right_perms = np.array(
        [[index[right[key][pos]] for key in keys] for pos in range(len(gen_keys))],
        dtype=np.int64,
    ).reshape(len(gen_keys), n)
    cols = np.empty((n, n), dtype=np.int64)
    for key, link in tree.items():
        if link is None:
            cols[index[key]] = np.arange(n)
        else:
            parent, pos = link
            cols[index[key]] = right_perms[pos][cols[index[parent]]]
    return keys, np.ascontiguousarray(cols.T)


class FiniteGroup:
    """A finite group given by its sorted element keys and its Cayley table.

    An element is its index into the sorted keys; a GroupElement handle is a
    view of (group, index) with the canonical key (exponent vector, image
    tuple, or coset representative key).  Products and inverses are read
    from the table.  No handle is kept: identity, generators, elements(),
    element_at and handle arithmetic make fresh ones on each call.  A group
    is immutable once built and keeps the identity's index, a read-only
    array of the generators' indices, and one store (_keep) of every
    derived value, which never changes an observable value.
    """

    def __init__(self, kind: str, keys, table: np.ndarray, generators, repr_key):
        """``table[i, j]`` is the index of keys[i] * keys[j], for sorted keys;
        ``generators`` are (name, key) pairs of elements that generate the
        group, which is checked once by closing them (kernels._close), and
        ``repr_key`` prints a key."""
        self._adopt(kind, keys, table, generators, repr_key)
        if not kernels._close(self, self._gens)[0].all():
            raise MalformedSpec("the generators do not generate the group")

    @classmethod
    def _built(cls, kind: str, keys, table: np.ndarray, generators, repr_key) -> "FiniteGroup":
        """The group of this table, which the calling builder made from its generators.

        The generators span it by construction, so the generator check is skipped.
        """
        G = cls.__new__(cls)
        G._adopt(kind, keys, table, generators, repr_key)
        return G

    def _adopt(self, kind: str, keys, table: np.ndarray, generators, repr_key):
        """Everything but the generator check: keys, table, identity, generators, inverses."""
        self._kind = kind
        self._keys = tuple(keys)
        self._index = index = {key: i for i, key in enumerate(self._keys)}
        self._repr_key = repr_key
        self._e = e = int(np.flatnonzero(np.diagonal(table) == np.arange(len(table)))[0])
        self._gens = np.array([index[key] for _, key in generators], dtype=np.int64)
        self._gens.flags.writeable = False
        self.generator_names = tuple(name for name, _ in generators)
        # the one store of derived values by key, filled through _keep
        self._lattice = {}
        self._table = table
        self._inv = np.argmax(table == e, axis=1)
        self._table.flags.writeable = False
        self._inv.flags.writeable = False

    def _keep(self, key: tuple, compute):
        """The value kept under key, computed once; a compute that raises keeps nothing."""
        if key not in self._lattice:
            self._lattice[key] = compute()
        return self._lattice[key]

    # -- elements ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._keys)

    @property
    def backend(self) -> str:
        return self._kind

    @property
    def identity(self) -> GroupElement:
        return GroupElement(self, self._e)

    @property
    def generators(self) -> tuple:
        return tuple(GroupElement(self, i) for i in self._gens.tolist())

    def elements(self) -> tuple:
        return tuple(GroupElement(self, i) for i in range(self.order))

    def element(self, key: tuple) -> GroupElement:
        idx = self._index.get(key)
        if idx is None:
            raise ForeignElement(f"key {key!r} does not name an element of this group")
        return GroupElement(self, idx)

    def element_at(self, idx: int) -> GroupElement:
        return GroupElement(self, int(idx))

    def index_of(self, a: GroupElement) -> int:
        self._check(a)
        return a.idx

    def generator_by_name(self, name: str) -> GroupElement:
        for gname, i in zip(self.generator_names, self._gens.tolist()):
            if gname == name:
                return GroupElement(self, i)
        raise ForeignElement(f"no generator named {name!r}")

    def _check(self, a: GroupElement):
        if not isinstance(a, GroupElement) or a.group is not self:
            raise ForeignElement(f"{a!r} does not belong to this group")

    # -- arithmetic ----------------------------------------------------

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        self._check(a)
        self._check(b)
        return GroupElement(self, self._table.item(a.idx, b.idx))

    def inverse(self, a: GroupElement) -> GroupElement:
        self._check(a)
        return GroupElement(self, self._inv.item(a.idx))

    def power(self, a: GroupElement, k: int) -> GroupElement:
        self._check(a)
        if k < 0:
            return self.power(self.inverse(a), -k)
        result = self.identity
        base = a
        while k > 0:
            if k & 1:
                result = self.multiply(result, base)
            base = self.multiply(base, base)
            k >>= 1
        return result

    def commutator(self, x: GroupElement, y: GroupElement) -> GroupElement:
        """[x, y] = x^-1 y^-1 x y."""
        xy = self.multiply(x, y)
        yx = self.multiply(y, x)
        return self.multiply(self.inverse(yx), xy)

    def long_commutator(self, seq) -> GroupElement:
        """Left-normed [x1, x2, ..., xk]; a single element is returned as is."""
        seq = list(seq)
        if not seq:
            raise EmptySequence("long commutator of an empty sequence")
        acc = seq[0]
        self._check(acc)
        for y in seq[1:]:
            acc = self.commutator(acc, y)
        return acc

    def conjugate(self, x: GroupElement, g: GroupElement) -> GroupElement:
        """x^g = g^-1 x g."""
        return self.multiply(self.multiply(self.inverse(g), x), g)

    def element_orders(self) -> np.ndarray:
        """orders[i] = order of element i, read-only and kept on the group (kernels)."""
        return self._keep(("element orders",), lambda: kernels._element_orders(self))

    def element_order(self, a: GroupElement) -> int:
        return int(self.element_orders()[self.index_of(a)])

    def exponent(self) -> int:
        return self._keep(
            ("exponent",),
            lambda: math.lcm(*np.flatnonzero(np.bincount(self.element_orders())).tolist()),
        )

    def is_p_group(self):
        """(p, k) with |G| = p^k, or None if the order is not a prime power; kept on the group."""
        return self._keep(("prime power",), lambda: _prime_power(self.order))

    # -- tables and consistency -----------------------------------------

    def table(self) -> np.ndarray:
        """Full Cayley table over element indices (rows act first), read-only."""
        return self._table

    def inverse_indices(self) -> np.ndarray:
        """inv[i] = index of the inverse of element i, read-only."""
        return self._inv

    def __repr__(self):
        return f"FiniteGroup({self.backend}, order={self.order})"


def build_group(spec) -> FiniteGroup:
    """Build a FiniteGroup from a PcPresentation or a PermutationGenSet.

    Raises BudgetExceeded for a group of more than TABLE_CAP elements and
    InconsistentPresentation for a pc presentation that defines no group of
    order p^n.  The generators span the group by construction (every
    element is a normal word in g_1..g_n, or was enumerated from the
    permutation generators), so the constructor's generator check is
    skipped (FiniteGroup._built).
    """
    if isinstance(spec, PcPresentation):
        if spec.order > TABLE_CAP:
            raise BudgetExceeded(
                f"presentation of order {spec.order} passes the cap of {TABLE_CAP} elements"
            )
        n, p = spec.ngens, spec.p
        keys = itertools.product(range(p), repeat=n)
        gens = [(f"g{i}", tuple(int(k == i - 1) for k in range(n))) for i in range(1, n + 1)]
        return FiniteGroup._built("pc", keys, _pc_table(spec), gens, _pc_repr)
    if isinstance(spec, PermutationGenSet):
        keys, table = _perm_table(spec)
        return FiniteGroup._built("perm", keys, table, spec.generators, _perm_repr)
    raise MalformedSpec(f"cannot build a group from {type(spec).__name__}")


class GroupHomomorphism:
    """Group map determined by generator images, verified on every pair."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup, images):
        self.source = source
        self.target = target
        gen_images = self._normalize_images(images)
        image_idx = kernels._extend_images(source, target, [(g.idx, h.idx) for g, h in gen_images])
        # a generator reached before its own column (a repeat, or the
        # identity) took its image from the others; it must be the one given
        for name, (g, h) in zip(source.generator_names, gen_images):
            got = image_idx[g.idx]
            if got != h.idx:
                raise MalformedSpec(
                    f"images do not extend to a homomorphism: generator {name} = {g!r} is "
                    f"given {h!r}, but the images of the others send it to "
                    f"{target.element_at(got)!r}"
                )
        self.image_indices = tuple(image_idx)
        self._verify()

    def _normalize_images(self, images):
        src_gens = self.source.generators
        if isinstance(images, dict):
            pairs = []
            for gen in src_gens:
                if gen not in images:
                    raise MalformedSpec(f"missing image for generator {gen!r}")
                pairs.append((gen, images[gen]))
        else:
            images = list(images)
            if len(images) != len(src_gens):
                raise MalformedSpec(
                    f"expected {len(src_gens)} generator images, got {len(images)}"
                )
            pairs = list(zip(src_gens, images))
        for gen, img in pairs:
            self.source._check(gen)
            self.target._check(img)
        return pairs

    def _verify(self):
        """phi(ab) = phi(a) phi(b) on every pair, decided on the source generators.

        phi(xg) = phi(x) phi(g) is compared for every x and every generator g
        of the source, as one |G| x |gens| block.  That decides every pair:
        each b is a positive word in the generators of a finite group, so
        phi(xb) = phi(x) phi(b) follows by induction on its length, and x = 1
        gives phi(1) = 1 for the empty word.  Only a failure scans all pairs
        (kernels._first_failing_pair), to name the first one in row-major order.
        """
        src = self.source
        phi = np.asarray(self.image_indices)
        if kernels._homomorphic(src, self.target, phi):
            return
        a, b = kernels._first_failing_pair(src, self.target, phi)
        raise MalformedSpec(
            "images do not extend to a homomorphism: fails at "
            f"({src.element_at(a)!r}, {src.element_at(b)!r})"
        )

    @property
    def is_bijective(self) -> bool:
        return (
            self.source.order == self.target.order
            and len(set(self.image_indices)) == self.source.order
        )

    def __call__(self, a: GroupElement) -> GroupElement:
        self.source._check(a)
        return self.target.element_at(self.image_indices[self.source.index_of(a)])


class Automorphism(GroupHomomorphism):
    """Bijective homomorphism of a group onto itself."""

    def __init__(self, group: FiniteGroup, images):
        super().__init__(group, group, images)
        if not self.is_bijective:
            raise MalformedSpec("generator images define a non-bijective endomorphism")

    @property
    def group(self) -> FiniteGroup:
        return self.source

    @classmethod
    def _trusted(cls, group: FiniteGroup, image_indices):
        """The map with these element images, which the caller knows is an automorphism."""
        obj = cls.__new__(cls)
        obj.source = obj.target = group
        obj.image_indices = tuple(image_indices)
        return obj

    @classmethod
    def identity_of(cls, group: FiniteGroup):
        return cls._trusted(group, range(group.order))

    def compose(self, other: "Automorphism") -> "Automorphism":
        """Apply self first, then other (same order convention as a*b)."""
        if other.source is not self.source:
            raise ForeignElement("cannot compose automorphisms of different groups")
        mapped = tuple(other.image_indices[i] for i in self.image_indices)
        return Automorphism._trusted(self.source, mapped)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.image_indices))

    def order(self) -> int:
        """The lcm of the cycle lengths of the index map."""
        return math.lcm(*map(len, cycles_of(self.image_indices)))

    def __eq__(self, other):
        return (
            isinstance(other, Automorphism)
            and self.source is other.source
            and self.image_indices == other.image_indices
        )

    def __hash__(self):
        return hash((id(self.source), self.image_indices))

    def __repr__(self):
        moved = sum(1 for i, j in enumerate(self.image_indices) if i != j)
        return f"Automorphism(moves {moved} of {self.source.order})"


def inner_automorphism(G: FiniteGroup, g: GroupElement) -> Automorphism:
    """Conjugation x -> g^-1 x g, read from the table; an automorphism by construction."""
    mapped = kernels._conjugates(G, np.arange(G.order), np.array([G.index_of(g)]))[0]
    return Automorphism._trusted(G, mapped.tolist())
