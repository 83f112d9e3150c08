"""Table kernels: the one module that reads a group's Cayley table and inverse array.

An element is its index.  T = G.table() is an int64 array with T[x, y] the
index of x·y, so rows act first, and inv = G.inverse_indices() has inv[x]
the index of x^-1; the builders in groups fill both, and every other read
of either is here.  x^z = z^-1 x z and [x, y] = x^-1 y^-1 x y = (yx)^-1 (xy),
left-normed (Holt, Eick and O'Brien, Handbook of Computational Group
Theory, 2005), are each written once (_conjugates, _commutator).  A kernel
takes the group as the carrier of its table and reads only its table,
inverse array, identity (_e), generators (_gens) and order; a subgroup
comes as its index array or mask.  What a kernel keeps is read-only and
kept on the group (G._keep), as are the element orders that FiniteGroup
keeps.  Pairwise kernels read the table in blocks of at most _BLOCK
entries (_blocks), so their temporaries stay small, and a scan that names
a failure names the first in row-major order.
"""

from __future__ import annotations

import math

import numpy as np

_BLOCK = 8192  # table entries read per block by the pairwise kernels


def _blocks(items, width: int):
    """Consecutive runs of items, each with at most _BLOCK // width of them (at least one)."""
    step = max(1, _BLOCK // max(width, 1))
    for start in range(0, len(items), step):
        yield items[start : start + step]


def _first_failure(rows, width: int, failing):
    """First (row, column) in row-major order that failing, on a block of rows, marks; or None."""
    for block in _blocks(rows, width):
        bad = failing(block)
        if bad.any():
            r, c = divmod(int(np.argmax(bad)), width)
            return int(block[r]), c
    return None


def _product(G, x, y):
    """x·y, elementwise over broadcast index arrays (or ints)."""
    return G.table()[x, y]


def _inverse(G, x):
    """x^-1, elementwise over an index array (or an int)."""
    return G.inverse_indices()[x]


def _conjugates(G, xs, zs: np.ndarray) -> np.ndarray:
    """Row k holds x^z = z^-1 x z for every x in xs, z = zs[k]."""
    T = G.table()
    return T[T[G.inverse_indices()[zs][:, None], xs], zs[:, None]]


def _commutator(G, x, y):
    """[x, y] = (yx)^-1 (xy), elementwise over broadcast index arrays (or a full slice)."""
    T = G.table()
    return T[G.inverse_indices()[T[y, x]], T[x, y]]


def _commutators(G, xs, ys) -> np.ndarray:
    """Array of [x, y], row x in xs and column y in ys."""
    return _commutator(G, np.asarray(xs, dtype=np.int64)[:, None], np.asarray(ys, dtype=np.int64))


def _commutators_with(G, image: np.ndarray) -> np.ndarray:
    """[y, a] = y^-1 a(y) for every element y, a given by its index map image."""
    return G.table()[G.inverse_indices(), image]


def _cyclic_powers(G, x) -> list:
    """[x, x^2, ..., x^n = 1]: the powers of element index x, walked along the table."""
    T = G.table()
    powers = [x]
    while powers[-1] != G._e:
        powers.append(int(T[powers[-1], x]))
    return powers


def _close(G, gens, mask=None, kept=None) -> tuple:
    """(mask, kept): the subgroup generated by the given element indices and the generators kept.

    A generator already inside the span so far is dropped, so each one kept
    at least doubles the span and at most log2|G| are kept.  Keeping one
    grows the span S so far by whole cosets (Dimino's algorithm; G. Butler,
    Fundamental Algorithms for Permutation Groups, 1991): coset
    representatives are walked from the identity, each times every kept
    generator (S need not be normal), and a product x outside the span adds
    the coset S·x with one table gather and becomes a representative; the
    walk ends on a union of cosets of S closed under every kept generator.
    Given a subgroup's mask and its kept generators, the span grows in place.
    """
    T = G.table()
    gens = np.asarray(gens, dtype=np.int64)
    if mask is None:
        mask = np.zeros(G.order, dtype=bool)
        mask[G._e] = True
        kept = []
    while True:
        outside = gens[~mask[gens]]
        if not outside.size:
            return mask, kept
        kept.append(outside[0])
        span = mask.nonzero()[0]
        gen_idx = np.array(kept)
        reps = [G._e]
        for r in reps:
            for x in T[r, gen_idx].tolist():
                if not mask[x]:
                    mask[T[span, x]] = True
                    reps.append(x)


def _respects(t_src: np.ndarray, t_tgt: np.ndarray, phi: np.ndarray, gens) -> bool:
    """phi(xg) = phi(x) phi(g) for every x < len(phi) and g in gens; on tables, for _pc_table."""
    return np.array_equal(phi[t_src[: len(phi), gens]], t_tgt[phi[:, None], phi[gens]])


def _homomorphic(src, tgt, phi: np.ndarray) -> bool:
    """phi, an index map of src into tgt, is a homomorphism: _respects on src's generators."""
    return _respects(src.table(), tgt.table(), phi, src._gens)


def _first_failing_pair(src, tgt, phi: np.ndarray):
    """First (a, b) in row-major order with phi[ab] != phi[a] phi[b], or None."""
    t_src, t_tgt = src.table(), tgt.table()
    n = len(phi)
    return _first_failure(np.arange(n), n, lambda x: phi[t_src[x]] != t_tgt[phi[x][:, None], phi])


def _extend_images(src, tgt, pairs) -> list:
    """image[x] for every x of src, breadth-first from (g, h) pairs: image[x·g] = image[x]·h.

    A generator reached before its own column takes its image from the others.
    """
    image = [-1] * src.order
    image[src._e] = tgt._e
    frontier = [src._e]
    cols = [(src.table()[:, g].tolist(), tgt.table()[:, h].tolist()) for g, h in pairs]
    while frontier:
        fresh = []
        for x in frontier:
            for src_col, tgt_col in cols:
                xg = src_col[x]
                if image[xg] < 0:
                    image[xg] = tgt_col[image[x]]
                    fresh.append(xg)
        frontier = fresh
    return image


def _element_orders(G) -> np.ndarray:
    """orders[i] = order of element i, read-only: every x^k -> x^(k+1) at once, until 1."""
    T = G.table()
    orders = np.ones(G.order, dtype=np.int64)
    live = np.flatnonzero(np.arange(G.order) != G._e)
    power = live
    k = 1
    while live.size:
        k += 1
        power = T[power, live]
        done = power == G._e
        orders[live[done]] = k
        live, power = live[~done], power[~done]
    orders.flags.writeable = False
    return orders


def _power_map(G, k: int) -> np.ndarray:
    """P[x] = index of x^k for every element index x (k >= 0), read-only and kept on G."""

    def powers() -> np.ndarray:
        T = G.table()
        result = np.full(G.order, G._e, dtype=np.int64)
        base = np.arange(G.order)
        n = k
        while n > 0:  # repeated squaring
            if n & 1:
                result = T[result, base]
            base = T[base, base]
            n >>= 1
        result.flags.writeable = False
        return result

    return G._keep(("power map", k), powers)


def _first_escape(G, mask: np.ndarray, idx: np.ndarray):
    """First (a, b) in row-major order over idx x idx with a·b outside mask, or None."""
    T = G.table()
    found = _first_failure(idx, len(idx), lambda rows: ~mask[T[rows[:, None], idx]])
    return None if found is None else (found[0], int(idx[found[1]]))


def _normalized(G, mask: np.ndarray, idx: np.ndarray) -> bool:
    """Whether h^g stays in mask for every h in idx and generator g: whether it is normal."""
    return all(mask[_conjugates(G, cols, G._gens)].all() for cols in _blocks(idx, len(G._gens)))


def _normal_span(G, gens, zs: np.ndarray) -> tuple:
    """(mask, kept) of the closure of the given element indices under conjugation by zs.

    The given elements are closed (_close), each generator kept is
    conjugated by every z, and the conjugates outside the span are added,
    until a round adds none: the span is then normalized by <zs>.
    """
    mask, kept = _close(G, gens)
    fresh = kept
    while fresh:
        before = len(kept)
        _close(G, _conjugates(G, fresh, zs).ravel(), mask, kept)
        fresh = kept[before:]
    return mask, kept


def _product_mask(G, left, right) -> np.ndarray:
    """Mask of the products a·b over a in left and b in right, in table blocks."""
    T = G.table()
    left = np.asarray(left, dtype=np.int64)
    values = np.zeros(G.order, dtype=bool)
    for b in _blocks(np.asarray(right, dtype=np.int64), len(left)):
        values[T[left[:, None], b]] = True
    return values


def _coset_reps(G, kernel_idx: np.ndarray) -> np.ndarray:
    """rep[x] = the minimal element index, so the minimal key, in the coset x·N (N's indices)."""
    T = G.table()
    rep = np.full(G.order, -1, dtype=np.int64)
    for x in range(G.order):
        if rep[x] < 0:
            coset = T[x, kernel_idx]
            rep[coset] = coset.min()
    return rep


def _class_labels(G) -> np.ndarray:
    """label[x] = least element index in the conjugacy class of x, read-only and kept on G.

    Every label starts as its own index.  A round takes the least label over
    conjugation by each generator and its inverse, then jumps each label to
    its label's (label[label]), until a round changes nothing.  A label only
    moves within its class, and at the fixpoint it is no greater than its
    label under each generator's conjugation, a permutation: the minimum.
    """

    def build() -> np.ndarray:
        everything = np.arange(G.order)
        zs = np.concatenate([G._gens, _inverse(G, G._gens)])
        conjugates = _conjugates(G, everything, zs)  # row z: x -> x^z
        label = everything
        while True:
            nxt = label
            for row in conjugates:
                nxt = np.minimum(nxt, nxt[row])
            nxt = nxt[nxt]
            if np.array_equal(nxt, label):
                break
            label = nxt
        label.flags.writeable = False
        return label

    return G._keep(("class labels",), build)


def _class_representatives(G) -> np.ndarray:
    """Minimal element index of each conjugacy class, ascending: the fixed points of the labels."""
    return np.flatnonzero(_class_labels(G) == np.arange(G.order))


def _cyclic_class_representatives(G) -> np.ndarray:
    """One element index per conjugacy class of cyclic subgroups, kept on G.

    These are the class minima (_class_representatives), less each class
    holding a generator x^k (k prime to |x|) of an earlier minimum x kept:
    <x^k> = <x>, so both have one normal closure, and one product of it with
    any normal subgroup.  Each minimum kept walks its powers once.
    """

    def build() -> np.ndarray:
        label = _class_labels(G)
        kept, covered = [], np.zeros(G.order, dtype=bool)  # covered[m]: class minimum m is named
        for x in _class_representatives(G).tolist():
            if covered[x]:
                continue
            kept.append(x)
            powers = _cyclic_powers(G, x)
            n = len(powers)
            covered[label[[y for k, y in enumerate(powers, 1) if math.gcd(k, n) == 1]]] = True
        kept = np.array(kept, dtype=np.int64)
        kept.flags.writeable = False
        return kept

    return G._keep(("cyclic class representatives",), build)


def _engel_walk(G, x: int, F: np.ndarray) -> tuple:
    """(steps taken, whether every start reached F) for element index x, F a normal subgroup mask.

    Every g is stepped at once by c(y) = [y, x].  c maps each coset of F into
    one coset and F into itself, so a start that reaches F does so within
    |G:F| - 1 steps and stays.  The walk stops at the first repeat of the
    vector c^k, which then cycles outside F, found by hash and checked.
    """
    step = _commutator(G, slice(None), x)  # step[y] = [y, x], y over every row

    def step_power(j: int) -> np.ndarray:
        out, base = np.arange(G.order), step
        while j:
            if j & 1:
                out = base[out]
            base = base[base]
            j >>= 1
        return out

    seen: dict = {}  # hash of c^j -> the steps j with that hash
    y = np.arange(G.order)
    index = G.order // np.count_nonzero(F)
    for k in range(1, index + 1):
        y = step[y]
        if F[y].all():
            return k, True
        h = hash(y.tobytes())
        if any(np.array_equal(step_power(j), y) for j in seen.get(h, ())):
            return k, False
        seen.setdefault(h, []).append(k)
    return index, False


def _power_law_failure(G, P: np.ndarray, modulus: np.ndarray):
    """First (x, y) in row-major order with (xy)^q outside x^q y^q·modulus, or None; P: x -> x^q.

    The modulus is normal and x -> x^q commutes with conjugation, so the
    failing pairs are closed under simultaneous conjugation: the least one
    has a class minimum as its x, and only those rows are scanned.
    """
    T, inv, reps = G.table(), G.inverse_indices(), _class_representatives(G)
    return _first_failure(reps, G.order, lambda x: ~modulus[T[P[T[x]], inv[T[P[x][:, None], P]]]])

