"""Formal Lie polynomials and group words, with identity-satisfaction checks.

A Lie monomial is a binary bracket tree stored as nested pairs whose leaves
are variable indices: ``((0, 1), 2)`` is the left-normed ``[x0, x1, x2]``.
Polynomials carry integer coefficients that are reduced mod p only when
evaluated, so one formal object serves every characteristic.  Polynomials
are evaluated on all assignments at once, one array axis per variable, each
bracket a contraction of the structure tensor; nothing is sampled.

Group words are small expression trees built from variables, inverses,
products, powers, and left-normed commutators.  One evaluator reads them on
index arrays from the Cayley table, a block of assignments at a time, for
the exhaustive check.

Each enumeration refuses, with BudgetExceeded, work beyond its module
constant, read at call time: HIGMAN_MONOMIAL_BUDGET monomials,
IDENTITY_EVAL_BUDGET polynomial assignments, ENGEL_EXACT_LIMIT algebra
elements, WORD_EVAL_BUDGET group-word assignments.
"""

import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kernels
from .errors import BudgetExceeded, ForeignElement, MalformedSpec
from .gfp import mat_pow
from .groups import FiniteGroup, GroupElement
from .liering import GradedLieRing, LieElement
from .series import Verdict, _closure

HIGMAN_MONOMIAL_BUDGET = 5040
IDENTITY_EVAL_BUDGET = 10**6
WORD_EVAL_BUDGET = 10**8
ENGEL_EXACT_LIMIT = 10**4


# -- Lie monomials and polynomials ---------------------------------------


def left_normed(indices) -> object:
    """Bracket tree [x_{i0}, x_{i1}, ..., x_{ik}] nested to the left."""
    idx = list(indices)
    if not idx:
        raise MalformedSpec("a monomial needs at least one variable")
    tree = idx[0]
    for i in idx[1:]:
        tree = (tree, i)
    return _check_tree(tree)


def _check_tree(tree) -> object:
    if isinstance(tree, (int, np.integer)):
        if tree < 0:
            raise MalformedSpec("variable indices must be nonnegative")
        return int(tree)
    if isinstance(tree, tuple) and len(tree) == 2:
        return (_check_tree(tree[0]), _check_tree(tree[1]))
    raise MalformedSpec(f"not a bracket tree: {tree!r}")


def _tree_variables(tree, out: list) -> None:
    if isinstance(tree, int):
        out.append(tree)
    else:
        _tree_variables(tree[0], out)
        _tree_variables(tree[1], out)


def _format_tree(tree) -> str:
    if isinstance(tree, int):
        return f"x{tree}"
    # flatten the left spine so left-normed chains print as one bracket
    chain = []
    node = tree
    while isinstance(node, tuple):
        chain.append(node[1])
        node = node[0]
    chain.append(node)
    chain.reverse()
    return "[" + ",".join(_format_tree(c) for c in chain) + "]"


@dataclass(frozen=True)
class LiePolynomial:
    """Integer linear combination of bracket monomials over x0, x1, ..."""

    terms: tuple = ()
    variables: frozenset = field(init=False, compare=False)
    is_multilinear: bool = field(init=False, compare=False)

    def __post_init__(self):
        clean = []
        for term in self.terms:
            if not (isinstance(term, tuple) and len(term) == 2):
                raise MalformedSpec("each term must be a (coefficient, tree) pair")
            coeff, tree = term
            if not isinstance(coeff, (int, np.integer)):
                raise MalformedSpec("coefficients must be integers")
            tree = _check_tree(tree)
            if coeff != 0:
                clean.append((int(coeff), tree))
        object.__setattr__(self, "terms", tuple(clean))
        occurrences = []
        for _, tree in clean:
            occurrences.append([])
            _tree_variables(tree, occurrences[-1])
        seen = frozenset(v for occ in occurrences for v in occ)
        object.__setattr__(self, "variables", seen)
        # every variable exactly once in every monomial
        multilinear = all(len(occ) == len(seen) and set(occ) == seen for occ in occurrences)
        object.__setattr__(self, "is_multilinear", multilinear)

    @classmethod
    def monomial(cls, indices, coeff: int = 1) -> "LiePolynomial":
        return cls(((coeff, left_normed(indices)),))

    def __add__(self, other: "LiePolynomial") -> "LiePolynomial":
        return LiePolynomial(self.terms + other.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for coeff, tree in self.terms:
            body = _format_tree(tree)
            parts.append(body if coeff == 1 else f"{coeff}*{body}")
        return " + ".join(parts)


def higman_polynomial(n: int) -> LiePolynomial:
    """Sum over all orderings of x1..x_{n-1} of [x0, x_{pi(1)}, ..., x_{pi(n-1)}].

    n and the monomial budget are checked on every call; the polynomial of
    each degree is built once (_higman).
    """
    if n < 2:
        raise MalformedSpec("need n >= 2")
    count = 1
    for k in range(2, n):
        count *= k
    if count > HIGMAN_MONOMIAL_BUDGET:
        raise BudgetExceeded(f"{count} monomials exceed the budget of {HIGMAN_MONOMIAL_BUDGET}")
    return _higman(n)


@functools.cache
def _higman(n: int) -> LiePolynomial:
    """The Higman polynomial of degree n, kept per degree; it is immutable."""
    terms = []
    for pi in itertools.permutations(range(1, n)):
        terms.append((1, left_normed((0,) + pi)))
    return LiePolynomial(tuple(terms))


def _values(tree, L: GradedLieRing, leaves: dict, labels: dict) -> tuple:
    """The tree's variables, increasing, and its value with one axis per variable.

    leaves[v] is the (k_v, n) array of values of variable v; a variable on both
    sides of a bracket keeps one axis.  einsum labels: labels[v], 49-51 for coordinates.
    """
    if isinstance(tree, int):
        return (tree,), leaves[tree]
    lv, left = _values(tree[0], L, leaves, labels)
    rv, right = _values(tree[1], L, leaves, labels)
    out = tuple(sorted(set(lv) | set(rv)))
    la, ra, oa = ([labels[v] for v in vs] for vs in (lv, rv, out))
    half = np.einsum(left, la + [49], L.C, [49, 50, 51], la + [50, 51]) % L.p
    return out, np.einsum(half, la + [50, 51], right, ra + [50], oa + [51]) % L.p


def _shape(tree, leaves: list) -> object:
    """The tree with its leaves renumbered 0, 1, ... in reading order, appended to leaves."""
    if isinstance(tree, int):
        leaves.append(tree)
        return len(leaves) - 1
    left = _shape(tree[0], leaves)
    return (left, _shape(tree[1], leaves))


def _polynomial_values(f: "LiePolynomial", L: GradedLieRing, leaves: dict) -> np.ndarray:
    """f on every assignment: one axis per variable of f, in increasing order, then coordinates.

    A multilinear f whose variables all range over one pool, as in basis-mode
    holds_identity, is evaluated once per bracket shape (_shape), each
    monomial being that value with its axes permuted; any other f term by term.
    """
    variables = sorted(f.variables)
    labels = {v: k for k, v in enumerate(variables)}
    total = np.zeros([len(leaves[v]) for v in variables] + [L.total_dim], dtype=np.int64)
    pool = leaves[variables[0]] if variables else None
    if f.is_multilinear and all(leaves[v] is pool for v in variables):
        shapes: dict = {}
        for coeff, tree in f.terms:
            order: list = []
            shape = _shape(tree, order)
            if shape not in shapes:
                own = dict.fromkeys(range(len(order)), pool)
                shapes[shape] = _values(shape, L, own, {k: k for k in own})[1]
            axes = [order.index(v) for v in variables] + [len(order)]
            total = (total + (coeff % L.p) * shapes[shape].transpose(axes)) % L.p
        return total
    for coeff, tree in f.terms:
        own, value = _values(tree, L, leaves, labels)
        shape = [len(leaves[v]) if v in own else 1 for v in variables] + [L.total_dim]
        total = (total + (coeff % L.p) * value.reshape(shape)) % L.p
    return total


def _first_nonzero(values: np.ndarray, count: int):
    """Flat index of the first of count leading entries with a nonzero value, or None."""
    if not count:
        return None
    nonzero = values.reshape(count, -1).any(axis=1)
    return int(np.argmax(nonzero)) if nonzero.any() else None


def holds_identity(f: LiePolynomial, L: GradedLieRing) -> Verdict:
    """Does f vanish identically on L?

    Multilinear polynomials only need checking on tuples of basis elements;
    anything else is evaluated on all element tuples, within
    IDENTITY_EVAL_BUDGET.  The first nonzero tuple in lexicographic order is
    reported.
    """
    variables = sorted(f.variables)
    basis = f.is_multilinear
    mode = "basis" if basis else "exhaustive"
    size = L.total_dim if basis else L.p**L.total_dim
    total = size ** len(variables)
    if total > IDENTITY_EVAL_BUDGET:
        raise BudgetExceeded(
            f"{size}^{len(variables)} assignments exceed the budget of {IDENTITY_EVAL_BUDGET}"
        )
    pool = np.eye(size, dtype=np.int64) if basis else L.all_vectors()
    first = _first_nonzero(_polynomial_values(f, L, dict.fromkeys(variables, pool)), total)
    if first is None:
        return Verdict(True, f"zero on all {total} {mode} assignments", mode)
    combo = np.unravel_index(first, (size,) * len(variables))
    return Verdict(
        False,
        f"nonzero value at assignment {first + 1} of {total}",
        mode,
        witness=tuple(LieElement(L, pool[k]) for k in combo),
    )


def is_n_engel_algebra(L: GradedLieRing, n: int) -> Verdict:
    """Is ad(a)^n zero for every a in L?

    Every element is scanned, ad(a)^n stacked, within ENGEL_EXACT_LIMIT
    elements; a larger algebra raises BudgetExceeded for every n.  An algebra
    built from a group has p^dim = |G| <= TABLE_CAP elements, below the
    limit, so the scan decides every such algebra exactly.  The first a with
    ad(a)^n nonzero is the witness.
    """
    budget = ENGEL_EXACT_LIMIT
    if n < 1:
        raise MalformedSpec("need n >= 1")
    size = L.p**L.total_dim
    if size > budget:
        raise BudgetExceeded(f"{size} elements exceed the budget of {budget}")
    pool = L.all_vectors()
    first = _first_nonzero(mat_pow(L.ads(pool), n, L.p), size)
    if first is None:
        return Verdict(True, f"ad(a)^{n} = 0 for all {size} exhaustive elements", "exhaustive")
    a = L.element(pool[first])
    return Verdict(False, f"ad(a)^{n} != 0 at a = {a!r}", "exhaustive", witness=a)


# -- group words -----------------------------------------------------------


@dataclass(frozen=True)
class GroupWord:
    """Formal word in variables x1, x2, ... with inverses, powers, commutators."""

    kind: str
    args: tuple

    def __post_init__(self):
        k, a = self.kind, self.args
        ok = (
            (k == "var" and len(a) == 1 and isinstance(a[0], int) and a[0] >= 0)
            or (k == "inv" and len(a) == 1 and isinstance(a[0], GroupWord))
            or (
                k == "prod"
                and len(a) >= 2
                and all(isinstance(w, GroupWord) for w in a)
            )
            or (
                k == "pow"
                and len(a) == 2
                and isinstance(a[0], GroupWord)
                and isinstance(a[1], int)
            )
            or (
                k == "comm"
                and len(a) >= 2
                and all(isinstance(w, GroupWord) for w in a)
            )
        )
        if not ok:
            raise MalformedSpec(f"malformed word node {k}{a!r}")

    @classmethod
    def var(cls, i: int) -> "GroupWord":
        return cls("var", (i,))

    @classmethod
    def inverse(cls, w: "GroupWord") -> "GroupWord":
        return cls("inv", (w,))

    @classmethod
    def product(cls, *ws: "GroupWord") -> "GroupWord":
        return cls("prod", tuple(ws))

    @classmethod
    def power(cls, w: "GroupWord", k: int) -> "GroupWord":
        return cls("pow", (w, k))

    @classmethod
    def commutator(cls, *ws: "GroupWord") -> "GroupWord":
        """Left-normed [w1, w2, ..., wk]."""
        return cls("comm", tuple(ws))

    @property
    def variables(self) -> frozenset:
        if self.kind == "var":
            return frozenset(self.args)
        if self.kind == "pow":
            return self.args[0].variables
        return frozenset().union(*(w.variables for w in self.args))

    def __repr__(self) -> str:
        if self.kind == "var":
            return f"x{self.args[0]}"
        if self.kind == "inv":
            return f"{self.args[0]!r}^-1"
        if self.kind == "prod":
            return "*".join(repr(w) for w in self.args)
        if self.kind == "pow":
            return f"({self.args[0]!r})^{self.args[1]}"
        return "[" + ",".join(repr(w) for w in self.args) + "]"


def _word_values(w: GroupWord, G: FiniteGroup, leaves: dict) -> np.ndarray:
    """Element indices of w on a block of assignments, read from the table.

    leaves[v] is the array of element indices bound to x_v, one entry per
    assignment; every operation acts on the whole block at once.
    """
    if w.kind == "var":
        return leaves[w.args[0]]
    if w.kind == "inv":
        return kernels._inverse(G, _word_values(w.args[0], G, leaves))
    if w.kind == "pow":
        base, k = _word_values(w.args[0], G, leaves), w.args[1]
        if k < 0:
            base, k = kernels._inverse(G, base), -k
        return kernels._power_map(G, k)[base]
    out = _word_values(w.args[0], G, leaves)
    combine = kernels._product if w.kind == "prod" else kernels._commutator
    for part in w.args[1:]:
        out = combine(G, out, _word_values(part, G, leaves))
    return out


def group_satisfies(w: GroupWord, G: FiniteGroup) -> Verdict:
    """Exhaustively check w(g1, ..., gs) = 1 over all of G, within WORD_EVAL_BUDGET.

    Assignments are numbered in itertools.product order over the elements
    in index order, the first variable slowest, and evaluated kernels._BLOCK at a
    time on index arrays; the first failing one is the witness.
    """
    variables = sorted(w.variables)
    nvars = len(variables)
    n = G.order
    total = n**nvars
    if total > WORD_EVAL_BUDGET:
        raise BudgetExceeded(f"|G|^{nvars} = {total} exceeds the budget of {WORD_EVAL_BUDGET}")
    e = G._e
    for start in range(0, total, kernels._BLOCK):
        t = np.arange(start, min(start + kernels._BLOCK, total))
        leaves = {v: t // n ** (nvars - 1 - pos) % n for pos, v in enumerate(variables)}
        bad = _word_values(w, G, leaves) != e
        if bad.any():
            first = int(np.argmax(bad))
            combo = tuple(G.element_at(int(leaves[v][first])) for v in variables)
            names = ", ".join(f"x{v}={g!r}" for v, g in zip(variables, combo))
            return Verdict(False, f"fails at {names}", witness=combo)
    return Verdict(True, f"identity on all {total} assignments")


def engel_index_of_element(G: FiniteGroup, x: GroupElement) -> Optional[int]:
    """Least n with [g, x, ..., x] (n copies) trivial for every g, else None (_engel_walk mod 1)."""
    if not isinstance(x, GroupElement) or x.group is not G:
        raise ForeignElement("x must be an element of G")
    steps, reached = kernels._engel_walk(G, G.index_of(x), _closure(G, ()))
    return steps if reached else None
