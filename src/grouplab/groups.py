"""Finite groups with exact arithmetic.

Every FiniteGroup is its sorted element keys plus an integer-indexed Cayley
table, from which every product and inverse is read.  Three builders fill
the table:

- power-commutator presentations of finite p-groups, by iterated cyclic
  extensions (_pc_table), which also decide consistency exactly;
- permutation groups on a small number of points, enumerated breadth-first
  from their generators (_perm_table);
- quotient groups, from the parent's table on coset representatives
  (series.QuotientGroup, for callers of the public API).

The orders of all elements come from one pass over the table and are kept
on the group.  GroupElement handles and their arithmetic serve the public
API; the library's computations read the table and index arrays.  A
homomorphism is decided on the generators of its source, every element
against every generator; only a failure scans every pair, to name the first
one.  Pairwise scans read the table in blocks of at most _BLOCK entries
(_blocks).  Groups are capped at TABLE_CAP elements; a pc presentation over
the cap is refused before any table work.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

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
_BLOCK = 8192  # table entries read per block by the pairwise kernels

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


def _blocks(items: np.ndarray, width: int):
    """Consecutive runs of items, each with at most _BLOCK // width of them (at least one)."""
    step = max(1, _BLOCK // max(width, 1))
    for start in range(0, len(items), step):
        yield items[start : start + step]


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
        if not is_prime(self.p):
            raise MalformedSpec(f"modulus {self.p} is not prime")
        if self.ngens < 1:
            raise MalformedSpec(f"need at least one generator, got {self.ngens}")
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


def perm_from_cycles(degree: int, cycles, where: str = "permutation") -> tuple:
    """Image tuple (0-based) of a product of disjoint cycles on 1..degree."""
    if degree < 1:
        raise MalformedSpec(f"{where}: degree must be positive, got {degree}")
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
        if self.degree < 1:
            raise MalformedSpec(f"degree must be positive, got {self.degree}")
        names = set()
        for name, images in self.generators:
            if name in names:
                raise MalformedSpec(f"duplicate generator name {name!r}")
            names.add(name)
            if len(images) != self.degree or sorted(images) != list(range(self.degree)):
                raise MalformedSpec(f"generator {name!r} is not a bijection on {self.degree} points")


class GroupElement:
    """Element of a FiniteGroup, identified by its canonical key."""

    __slots__ = ("group", "key")

    def __init__(self, group: "FiniteGroup", key: tuple):
        self.group = group
        self.key = key

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.group is other.group
            and self.key == other.key
        )

    def __hash__(self):
        return hash((id(self.group), self.key))

    def __mul__(self, other):
        return self.group.multiply(self, other)

    def __pow__(self, k: int):
        return self.group.power(self, k)

    def inverse(self) -> "GroupElement":
        return self.group.inverse(self)

    def order(self) -> int:
        return self.group.element_order(self)

    def is_identity(self) -> bool:
        return self.key == self.group.identity.key

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
    """
    p, n = pres.p, pres.ngens

    def word(w: NormalWord) -> str:
        key = [0] * n
        for idx, exp in w:
            key[idx - 1] = exp
        return _pc_repr(tuple(key))

    T = np.zeros((1, 1), dtype=np.int64)
    for k in range(n, 0, -1):
        m = len(T)
        # phi on the normal words of G_j, for j = n down to k + 1, checked on
        # each G_j in turn so that a failure names the relation [g_j, g_k]
        phi = np.zeros(1, dtype=np.int64)
        for j in range(n, k, -1):
            comm = pres.commutators.get((j, k), ())
            image = T[p ** (n - j), _word_index(comm, p, n)]
            powers = [0]
            for _ in range(p - 1):
                powers.append(T[powers[-1], image])
            phi = T[np.ix_(powers, phi)].ravel()
            size = len(phi)
            gens = [p ** (n - i) for i in range(j, n + 1)]
            if np.count_nonzero(np.bincount(phi)) < size or any(
                not np.array_equal(phi[T[:size, g]], T[phi, phi[g]]) for g in gens
            ):
                span = ", ".join(f"g{i}" for i in range(j, n + 1))
                raise InconsistentPresentation(
                    f"relation [g{j}, g{k}] = {word(comm)} fails: conjugation by "
                    f"g{k} is no automorphism of <{span}>"
                )
        pw = pres.powers.get(k, ())
        w = _word_index(pw, p, n)
        if phi[w] != w:
            raise InconsistentPresentation(
                f"relation g{k}^{p} = {word(pw)} fails: g{k} does not commute with it"
            )
        w_inv = int(np.argmax(T[w] == 0))
        phi_p = np.arange(m)
        for _ in range(p):
            phi_p = phi[phi_p]
        if not np.array_equal(phi_p, T[T[w_inv], w]):
            raise InconsistentPresentation(
                f"relation g{k}^{p} = {word(pw)} fails: conjugation by g{k}^{p} "
                "is not conjugation by it"
            )
        # block (a, b) holds the rows phi^b(h), or w phi^b(h) past g_k^p, of
        # T, offset to the coset of g_k^(a+b); no other m x m array is built
        table = np.empty((p * m, p * m), dtype=np.int64)
        phi_b = np.arange(m)
        for b in range(p):
            for a in range(p):
                block = table[a * m : (a + 1) * m, b * m : (b + 1) * m]
                np.take(T, T[w, phi_b] if a + b >= p else phi_b, axis=0, out=block)
                block += (a + b) % p * m
            phi_b = phi[phi_b]
        T = table
    return T


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
            # a*b means "apply a, then b"
            right[key] = prods = [tuple(gk[x] for x in key) for gk in gen_keys]
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

    Elements are exposed as GroupElement handles; the canonical key (exponent
    vector, image tuple, or coset representative key) doubles as the lookup
    key everywhere.  Products and inverses are read from the Cayley table.
    Instances are immutable once built; the caches populated lazily (element
    orders, the subgroup-lattice store, the graded Lie ring) never change
    observable values.
    """

    def __init__(self, kind: str, keys, table: np.ndarray, generators, repr_key):
        """``table[i, j]`` is the index of keys[i] * keys[j], for sorted keys;
        ``generators`` are (name, key) pairs of elements that generate the
        group, and ``repr_key`` prints a key."""
        self._kind = kind
        self._keys = tuple(keys)
        self._index = index = {key: i for i, key in enumerate(self._keys)}
        self._repr_key = repr_key
        self._elements = tuple(GroupElement(self, key) for key in self._keys)
        e = int(np.flatnonzero(np.diagonal(table) == np.arange(len(table)))[0])
        self.identity = self._elements[e]
        self.generators = tuple(self._elements[index[key]] for _, key in generators)
        self.generator_names = tuple(name for name, _ in generators)
        self._orders = None  # order of every element, kept by element_orders
        self._lie_ring = None  # the graded Lie ring, kept by liering.build_dl
        # subgroups, series and kernel results by key, kept by the series module
        self._lattice = {}
        self._table = table
        self._inv = np.argmax(table == e, axis=1)
        self._table.flags.writeable = False
        self._inv.flags.writeable = False

    # -- elements ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._keys)

    @property
    def backend(self) -> str:
        return self._kind

    def elements(self) -> tuple:
        return self._elements

    def element(self, key: tuple) -> GroupElement:
        idx = self._index.get(key)
        if idx is None:
            raise ForeignElement(f"key {key!r} does not name an element of this group")
        return self._elements[idx]

    def element_at(self, idx: int) -> GroupElement:
        return self._elements[idx]

    def index_of(self, a: GroupElement) -> int:
        self._check(a)
        return self._index[a.key]

    def generator_by_name(self, name: str) -> GroupElement:
        for gname, gen in zip(self.generator_names, self.generators):
            if gname == name:
                return gen
        raise ForeignElement(f"no generator named {name!r}")

    def _check(self, a: GroupElement):
        if not isinstance(a, GroupElement) or a.group is not self:
            raise ForeignElement(f"{a!r} does not belong to this group")

    # -- arithmetic ----------------------------------------------------

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        self._check(a)
        self._check(b)
        return self._elements[self._table[self._index[a.key], self._index[b.key]]]

    def inverse(self, a: GroupElement) -> GroupElement:
        self._check(a)
        return self._elements[self._inv[self._index[a.key]]]

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
        """orders[i] = order of element i, read-only and kept on the group.

        One pass steps every element's powers x^k -> x^(k+1) along the table
        at once, retiring each element when its power reaches the identity.
        """
        if self._orders is None:
            e = self.index_of(self.identity)
            orders = np.ones(self.order, dtype=np.int64)
            live = np.flatnonzero(np.arange(self.order) != e)
            power = live
            k = 1
            while live.size:
                k += 1
                power = self._table[power, live]
                done = power == e
                orders[live[done]] = k
                live, power = live[~done], power[~done]
            orders.flags.writeable = False
            self._orders = orders
        return self._orders

    def element_order(self, a: GroupElement) -> int:
        return int(self.element_orders()[self.index_of(a)])

    def exponent(self) -> int:
        return math.lcm(*np.flatnonzero(np.bincount(self.element_orders())).tolist())

    def is_p_group(self):
        """(p, k) with |G| = p^k, or None if the order is not a prime power."""
        n = self.order
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
    order p^n.
    """
    if isinstance(spec, PcPresentation):
        if spec.order > TABLE_CAP:
            raise BudgetExceeded(
                f"presentation of order {spec.order} passes the cap of {TABLE_CAP} elements"
            )
        n, p = spec.ngens, spec.p
        keys = itertools.product(range(p), repeat=n)
        gens = [(f"g{i}", tuple(int(k == i - 1) for k in range(n))) for i in range(1, n + 1)]
        return FiniteGroup("pc", keys, _pc_table(spec), gens, _pc_repr)
    if isinstance(spec, PermutationGenSet):
        keys, table = _perm_table(spec)
        return FiniteGroup("perm", keys, table, spec.generators, _perm_repr)
    raise MalformedSpec(f"cannot build a group from {type(spec).__name__}")


def _first_failing_pair(t_src: np.ndarray, t_tgt: np.ndarray, phi: np.ndarray):
    """First (a, b) in row-major order with phi[ab] != phi[a] phi[b], or None.

    The witness search of a failed homomorphism check: every pair is read, in
    table blocks of at most _BLOCK entries.
    """
    n = len(phi)
    for rows in _blocks(np.arange(n), n):
        bad = phi[t_src[rows]] != t_tgt[phi[rows][:, None], phi]
        if bad.any():
            r, b = divmod(int(np.argmax(bad)), n)
            return int(rows[r]), b
    return None


class GroupHomomorphism:
    """Group map determined by generator images, verified on every pair."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup, images):
        self.source = source
        self.target = target
        gen_images = self._normalize_images(images)
        image_idx = [-1] * source.order
        e_src = source.index_of(source.identity)
        image_idx[e_src] = target.index_of(target.identity)
        frontier = [e_src]
        # breadth-first: image[x*g] = image[x]*h, read from table columns
        gen_cols = [
            (source.table()[:, source.index_of(g)].tolist(),
             target.table()[:, target.index_of(h)].tolist())
            for g, h in gen_images
        ]
        while frontier:
            fresh = []
            for x in frontier:
                for src_col, tgt_col in gen_cols:
                    xg = src_col[x]
                    if image_idx[xg] < 0:
                        image_idx[xg] = tgt_col[image_idx[x]]
                        fresh.append(xg)
            frontier = fresh
        if any(i < 0 for i in image_idx):
            raise MalformedSpec("generator images must cover every group generator")
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
        (_first_failing_pair), to name the first one in row-major order.
        """
        src = self.source
        t_src, t_tgt = src.table(), self.target.table()
        phi = np.asarray(self.image_indices)
        gens = np.array([src.index_of(g) for g in src.generators], dtype=np.int64)
        if np.array_equal(phi[t_src[:, gens]], t_tgt[phi[:, None], phi[gens]]):
            return
        a, b = _first_failing_pair(t_src, t_tgt, phi)
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
    def from_index_map(cls, group: FiniteGroup, image_indices, *, verify: bool = True):
        obj = cls.__new__(cls)
        obj.source = group
        obj.target = group
        obj.image_indices = tuple(image_indices)
        if sorted(obj.image_indices) != list(range(group.order)):
            raise MalformedSpec("index map is not a bijection")
        if verify:
            obj._verify()
        return obj

    @classmethod
    def identity_of(cls, group: FiniteGroup):
        return cls.from_index_map(group, range(group.order), verify=False)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """Apply self first, then other (same order convention as a*b)."""
        if other.source is not self.source:
            raise ForeignElement("cannot compose automorphisms of different groups")
        mapped = tuple(other.image_indices[i] for i in self.image_indices)
        return Automorphism.from_index_map(self.source, mapped, verify=False)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.image_indices))

    def order(self) -> int:
        n = 1
        acc = self
        while not acc.is_identity():
            acc = acc.compose(self)
            n += 1
        return n

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
    """Conjugation x -> g^-1 x g as a verified automorphism, read from the table."""
    gi = G.index_of(g)
    T = G.table()
    mapped = T[T[G.inverse_indices()[gi]], gi]  # row g^-1 is x -> g^-1 x
    return Automorphism.from_index_map(G, mapped.tolist(), verify=True)
