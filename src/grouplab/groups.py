"""Finite groups with exact arithmetic.

Two primary backends: power-commutator presentations of finite p-groups
(multiplied by collection from the left) and permutation groups on a small
number of points.  Quotient groups reuse the same machinery through an
internal coset backend, so every operation in the package works uniformly on
all three.

Every group is enumerated breadth-first from its generators.  Each
generator's right multiplication, kept as a permutation of the elements,
fills the integer-indexed Cayley table from which every product and inverse
is read.  Groups are capped at TABLE_CAP elements.  A pc presentation is
decided exactly from its defining relations (FiniteGroup._verify_relations).
"""

from __future__ import annotations

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

COLLECTION_STEP_BUDGET = 200_000
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

    def __lt__(self, other):
        if not isinstance(other, GroupElement) or self.group is not other.group:
            return NotImplemented
        return self.key < other.key

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


class _PcBackend:
    kind = "pc"

    def __init__(self, pres: PcPresentation):
        self.presentation = pres
        self.p = pres.p
        self.n = pres.ngens
        self.identity_key = (0,) * self.n
        self.generator_keys = []
        self.generator_names = []
        for i in range(1, self.n + 1):
            key = tuple(1 if k == i - 1 else 0 for k in range(self.n))
            self.generator_keys.append(key)
            self.generator_names.append(f"g{i}")
        self._power_letters = {}
        for i in range(1, self.n + 1):
            word = pres.powers.get(i, ())
            self._power_letters[i] = self._flatten(word)
        self._comm_letters = {}
        for (j, i), word in pres.commutators.items():
            self._comm_letters[(j, i)] = self._flatten(word)

    @staticmethod
    def _flatten(word: NormalWord) -> tuple:
        letters = []
        for idx, exp in word:
            letters.extend([idx] * exp)
        return tuple(letters)

    def _letters(self, key: tuple) -> list[int]:
        out = []
        for i, e in enumerate(key):
            out.extend([i + 1] * e)
        return out

    def multiply(self, k1: tuple, k2: tuple) -> tuple:
        return self._collect(self._letters(k1) + self._letters(k2))

    def _collect(self, word: list[int]) -> tuple:
        """Collection from the left, always moving the minimal-index letter."""
        p = self.p
        counts = [0] * (self.n + 1)
        work = word
        steps = 0
        while work:
            steps += 1
            if steps > COLLECTION_STEP_BUDGET:
                raise BudgetExceeded(
                    f"collection exceeded {COLLECTION_STEP_BUDGET} steps; presentation unlikely to be consistent"
                )
            i = min(work)
            k = work.index(i)
            if k == 0:
                work.pop(0)
                counts[i] += 1
                if counts[i] == p:
                    counts[i] = 0
                    work[0:0] = self._power_letters[i]
            else:
                j = work[k - 1]
                # g_j g_i = g_i g_j [g_j, g_i]
                work[k - 1 : k + 1] = [i, j, *self._comm_letters.get((j, i), ())]
        return tuple(counts[1:])

    def repr_key(self, key: tuple) -> str:
        parts = []
        for i, e in enumerate(key):
            if e == 1:
                parts.append(f"g{i + 1}")
            elif e > 1:
                parts.append(f"g{i + 1}^{e}")
        return "*".join(parts) if parts else "1"


class _PermBackend:
    kind = "perm"

    def __init__(self, genset: PermutationGenSet):
        self.genset = genset
        self.degree = genset.degree
        self.identity_key = tuple(range(self.degree))
        self.generator_keys = [images for _, images in genset.generators]
        self.generator_names = [name for name, _ in genset.generators]

    def multiply(self, k1: tuple, k2: tuple) -> tuple:
        # a*b means "apply a, then b"
        return tuple(k2[x] for x in k1)

    def repr_key(self, key: tuple) -> str:
        cycles = cycles_of(key)
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(x) for x in cyc) + ")" for cyc in cycles)


def _coset_reps(G: "FiniteGroup", kernel_idx: np.ndarray) -> np.ndarray:
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


class _CosetBackend:
    kind = "quotient"

    def __init__(self, parent: "FiniteGroup", kernel_idx: np.ndarray):
        self.parent = parent
        self.rep = rep = _coset_reps(parent, kernel_idx)
        keys = parent._keys
        self.identity_key = keys[rep[parent.index_of(parent.identity)]]
        gen_keys = []
        gen_names = []
        for name, gen in zip(parent.generator_names, parent.generators):
            rk = keys[rep[parent.index_of(gen)]]
            if rk != self.identity_key and rk not in gen_keys:
                gen_keys.append(rk)
                gen_names.append(name)
        self.generator_keys = gen_keys
        self.generator_names = gen_names

    def multiply(self, k1: tuple, k2: tuple) -> tuple:
        parent = self.parent
        prod = parent._table[parent._index[k1], parent._index[k2]]
        return parent._keys[self.rep[prod]]

    def repr_key(self, key: tuple) -> str:
        return self.parent._repr_key(key)


class FiniteGroup:
    """A finite group, fully enumerated at construction.

    Elements are exposed as GroupElement handles; the canonical key (exponent
    vector, image tuple, or coset representative key) doubles as the lookup
    key everywhere.  Products and inverses are read from the Cayley table
    filled at construction.  Instances are immutable once built; the caches
    populated lazily (element orders, exponent, the graded Lie ring) never
    change observable values.
    """

    def __init__(self, backend, *, budget: int = TABLE_CAP):
        self._backend = backend
        e = backend.identity_key
        gen_keys = list(backend.generator_keys)
        tree = {e: None}  # key -> (parent key, generator position) it was reached from
        right = {}  # key -> [key * g for each generator g]
        frontier = [e]
        while frontier:
            fresh = []
            for key in frontier:
                right[key] = prods = [backend.multiply(key, gk) for gk in gen_keys]
                for pos, prod in enumerate(prods):
                    if prod not in tree:
                        tree[prod] = (key, pos)
                        fresh.append(prod)
                        if len(tree) > budget:
                            raise BudgetExceeded(
                                f"group enumeration passed the budget of {budget} elements"
                            )
            frontier = fresh
        self._keys = tuple(sorted(tree))
        self._index = index = {key: i for i, key in enumerate(self._keys)}
        n = len(self._keys)
        # right_perms[pos][i] = index of (element i) * (generator pos)
        right_perms = np.array(
            [[index[right[key][pos]] for key in self._keys] for pos in range(len(gen_keys))],
            dtype=np.int64,
        ).reshape(len(gen_keys), n)
        self._elements = tuple(GroupElement(self, key) for key in self._keys)
        self.identity = self._elements[index[e]]
        self.generators = tuple(self._elements[index[key]] for key in gen_keys)
        self.generator_names = tuple(backend.generator_names)
        self._order_memo = {}
        self._exponent = None
        self._lie_ring = None  # the graded Lie ring, kept by liering.build_dl
        if backend.kind == "pc":
            pres = backend.presentation
            if n != pres.order:
                raise InconsistentPresentation(
                    f"collection enumerates {n} elements, presentation claims {pres.order}"
                )
            self._verify_relations(right_perms)
        self._table = self._fill_table(tree, right_perms)
        self._inv = np.argmax(self._table == index[e], axis=1)
        self._table.flags.writeable = False
        self._inv.flags.writeable = False

    # -- enumeration ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._keys)

    @property
    def backend(self) -> str:
        return self._backend.kind

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

    def _repr_key(self, key: tuple) -> str:
        return self._backend.repr_key(key)

    # -- arithmetic ----------------------------------------------------

    def _mul_keys(self, k1: tuple, k2: tuple) -> tuple:
        return self._keys[self._table[self._index[k1], self._index[k2]]]

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

    def engel_word(self, g: GroupElement, x: GroupElement, n: int) -> GroupElement:
        """[g, n x]: iterated commutator with x; n = 0 returns g."""
        if n < 0:
            raise ValueError(f"engel depth must be non-negative, got {n}")
        acc = g
        self._check(acc)
        for _ in range(n):
            acc = self.commutator(acc, x)
        return acc

    def conjugate(self, x: GroupElement, g: GroupElement) -> GroupElement:
        """x^g = g^-1 x g."""
        return self.multiply(self.multiply(self.inverse(g), x), g)

    def element_order(self, a: GroupElement) -> int:
        self._check(a)
        cached = self._order_memo.get(a.key)
        if cached is not None:
            return cached
        n = 1
        x = a
        while not x.is_identity():
            x = self.multiply(x, a)
            n += 1
        self._order_memo[a.key] = n
        return n

    def exponent(self) -> int:
        if self._exponent is None:
            self._exponent = math.lcm(*(self.element_order(a) for a in self._elements))
        return self._exponent

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

    def _fill_table(self, tree: dict, right_perms: np.ndarray) -> np.ndarray:
        """Cayley table from the generators' right multiplications.

        Column z of the table is x -> x*z.  Where the enumeration reached z as
        y*g, that column is g's right multiplication applied to column y,
        since x*(y*g) = (x*y)*g; the tree's insertion order fills y first.
        """
        n = self.order
        index = self._index
        cols = np.empty((n, n), dtype=np.int64)
        for key, link in tree.items():
            if link is None:
                cols[index[key]] = np.arange(n)
            else:
                parent, pos = link
                cols[index[key]] = right_perms[pos][cols[index[parent]]]
        return np.ascontiguousarray(cols.T)

    def _verify_relations(self, right_perms: np.ndarray):
        """Decide a pc presentation from its defining relations.

        The enumeration has reached all p^n normal words.  If every power
        and commutator relation holds between the generators' right
        multiplications of the words, those maps are bijections (g_n^p = 1,
        and g_i^p is a word in later generators) and define an action of the
        presented group (von Dyck's theorem), transitive on p^n points.  That
        group has at most p^n elements, so the action is regular and the
        presentation consistent.  In a consistent presentation every
        relation holds, so a failing one proves it inconsistent.
        """
        backend = self._backend
        pres = backend.presentation
        n = self.order

        def act(letters) -> np.ndarray:
            x = np.arange(n)
            for i in letters:
                x = right_perms[i - 1][x]
            return x

        def word(w: NormalWord) -> str:
            key = [0] * pres.ngens
            for idx, exp in w:
                key[idx - 1] = exp
            return backend.repr_key(tuple(key))

        for i in range(pres.ngens, 0, -1):
            if not np.array_equal(act([i] * pres.p), act(backend._power_letters[i])):
                raise InconsistentPresentation(
                    f"relation g{i}^{pres.p} = {word(pres.powers.get(i, ()))} fails"
                )
        for j in range(2, pres.ngens + 1):
            for i in range(1, j):
                rhs = [i, j, *backend._comm_letters.get((j, i), ())]
                if not np.array_equal(act([j, i]), act(rhs)):
                    raise InconsistentPresentation(
                        f"relation [g{j}, g{i}] = {word(pres.commutators.get((j, i), ()))} fails"
                    )

    def __repr__(self):
        return f"FiniteGroup({self.backend}, order={self.order})"


def build_group(spec, *, budget: int = TABLE_CAP) -> FiniteGroup:
    """Build a FiniteGroup from a PcPresentation or a PermutationGenSet.

    Raises BudgetExceeded once the enumeration passes ``budget`` elements and
    InconsistentPresentation for a pc presentation whose relations fail.
    """
    if isinstance(spec, PcPresentation):
        return FiniteGroup(_PcBackend(spec), budget=budget)
    if isinstance(spec, PermutationGenSet):
        return FiniteGroup(_PermBackend(spec), budget=budget)
    raise MalformedSpec(f"cannot build a group from {type(spec).__name__}")


class GroupHomomorphism:
    """Group map determined by generator images, verified on all pairs."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup, images, *, verify: bool = True):
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
        if verify:
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
        """phi(ab) = phi(a) phi(b) on every pair, one table row at a time."""
        t_src = self.source.table()
        t_tgt = self.target.table()
        phi = np.asarray(self.image_indices)
        for a in range(self.source.order):
            bad = phi[t_src[a]] != t_tgt[phi[a], phi]
            if bad.any():
                b = int(np.argmax(bad))
                raise MalformedSpec(
                    "images do not extend to a homomorphism: fails at "
                    f"({self.source.element_at(a)!r}, {self.source.element_at(b)!r})"
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

    def __init__(self, group: FiniteGroup, images, *, verify: bool = True):
        super().__init__(group, group, images, verify=verify)
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

    def __mul__(self, other):
        return self.compose(other)

    def inverse_automorphism(self) -> "Automorphism":
        out = [0] * len(self.image_indices)
        for i, j in enumerate(self.image_indices):
            out[j] = i
        return Automorphism.from_index_map(self.source, out, verify=False)

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
    """Conjugation x -> g^-1 x g as a verified automorphism."""
    G._check(g)
    ginv = G.inverse(g)
    mapped = tuple(
        G.index_of(G.multiply(G.multiply(ginv, x), g)) for x in G.elements()
    )
    return Automorphism.from_index_map(G, mapped, verify=True)
