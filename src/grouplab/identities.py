"""Formal Lie polynomials and group words, with identity-satisfaction checks.

A Lie monomial is a binary bracket tree stored as nested pairs whose leaves
are variable indices: ``((0, 1), 2)`` is the left-normed ``[x0, x1, x2]``.
Polynomials carry integer coefficients that are reduced mod p only when
evaluated, so one formal object serves every characteristic.

Group words are small expression trees built from variables, inverses,
products, powers, and left-normed commutators.
"""

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    BudgetExceeded,
    ForeignElement,
    MalformedSpec,
    MismatchedAlgebra,
    UnboundVariable,
)
from .gfp import mat_pow
from .groups import FiniteGroup, GroupElement
from .liering import GradedLieRing, LieElement
from .series import Verdict

HIGMAN_MONOMIAL_BUDGET = 5040
IDENTITY_EVAL_BUDGET = 10**6
WORD_EVAL_BUDGET = 10**8
ENGEL_EXACT_LIMIT = 10**4
ENGEL_SAMPLES = 100


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
        seen = set()
        multilinear = True
        for _, tree in clean:
            occ: list = []
            _tree_variables(tree, occ)
            if len(occ) != len(set(occ)):
                multilinear = False
            seen.update(occ)
        for _, tree in clean:
            occ = []
            _tree_variables(tree, occ)
            if set(occ) != seen:
                multilinear = False
        object.__setattr__(self, "variables", frozenset(seen))
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


def higman_polynomial(n: int, budget: int = HIGMAN_MONOMIAL_BUDGET) -> LiePolynomial:
    """Sum over all orderings of x1..x_{n-1} of [x0, x_{pi(1)}, ..., x_{pi(n-1)}]."""
    if n < 2:
        raise MalformedSpec("need n >= 2")
    count = 1
    for k in range(2, n):
        count *= k
    if count > budget:
        raise BudgetExceeded(f"{count} monomials exceed the budget of {budget}")
    terms = []
    for pi in itertools.permutations(range(1, n)):
        terms.append((1, left_normed((0,) + pi)))
    return LiePolynomial(tuple(terms))


def _eval_tree(tree, L: GradedLieRing, assignment: dict) -> LieElement:
    if isinstance(tree, int):
        return assignment[tree]
    return L.bracket(
        _eval_tree(tree[0], L, assignment), _eval_tree(tree[1], L, assignment)
    )


def evaluate_lie(f: LiePolynomial, L: GradedLieRing, assignment: dict) -> LieElement:
    """Evaluate f with variables bound to elements of L."""
    for v in sorted(f.variables):
        if v not in assignment:
            raise UnboundVariable(f"x{v} has no value")
        u = assignment[v]
        if not isinstance(u, LieElement) or u.algebra is not L:
            raise MismatchedAlgebra(f"value for x{v} is not an element of L")
    total = L.zero()
    for coeff, tree in f.terms:
        total = total + (coeff % L.p) * _eval_tree(tree, L, assignment)
    return total


def holds_identity(
    f: LiePolynomial,
    L: GradedLieRing,
    budget: int = IDENTITY_EVAL_BUDGET,
    force_exhaustive: bool = False,
) -> Verdict:
    """Does f vanish identically on L?

    Multilinear polynomials only need checking on tuples of basis elements;
    anything else is scanned over all element tuples, within budget.
    """
    variables = sorted(f.variables)
    nvars = len(variables)
    if f.is_multilinear and not force_exhaustive:
        pool = L.basis()
        mode = "basis"
    else:
        size = L.p ** L.total_dim
        if size**nvars > budget:
            raise BudgetExceeded(
                f"{size}^{nvars} assignments exceed the budget of {budget}"
            )
        pool = list(L.all_elements())
        mode = "exhaustive"
    if len(pool) ** nvars > budget:
        raise BudgetExceeded(
            f"{len(pool)}^{nvars} assignments exceed the budget of {budget}"
        )
    checked = 0
    for combo in itertools.product(pool, repeat=nvars):
        assignment = dict(zip(variables, combo))
        checked += 1
        if not evaluate_lie(f, L, assignment).is_zero():
            return Verdict(
                False,
                f"nonzero value at assignment {checked} of {len(pool) ** nvars}",
                mode,
                witness=combo,
            )
    return Verdict(True, f"zero on all {checked} {mode} assignments", mode)


def is_n_engel_algebra(
    L: GradedLieRing,
    n: int,
    budget: int = ENGEL_EXACT_LIMIT,
    seed: int = 0,
    samples: int = ENGEL_SAMPLES,
) -> Verdict:
    """Is ad(a)^n zero for every a in L?"""
    if n < 1:
        raise MalformedSpec("need n >= 1")
    size = L.p ** L.total_dim
    if size <= budget:
        pool = list(L.all_elements())
        mode = "exhaustive"
    else:
        rng = np.random.default_rng(seed)
        pool = list(L.basis())
        for _ in range(samples):
            pool.append(L.element(rng.integers(0, L.p, L.total_dim)))
        mode = "sampled"
    for a in pool:
        power = mat_pow(L.ad_matrix(a), n, L.p)
        if power.any():
            return Verdict(False, f"ad(a)^{n} != 0 at a = {a!r}", mode, witness=a)
    return Verdict(True, f"ad(a)^{n} = 0 for all {len(pool)} {mode} elements", mode)


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


def evaluate_group_word(
    w: GroupWord, G: FiniteGroup, assignment: dict
) -> GroupElement:
    """Evaluate w with variables bound to elements of G."""
    for v in sorted(w.variables):
        if v not in assignment:
            raise UnboundVariable(f"x{v} has no value")
        u = assignment[v]
        if not isinstance(u, GroupElement) or u.group is not G:
            raise ForeignElement(f"value for x{v} is not an element of G")
    return _eval_word(w, G, assignment)


def _eval_word(w: GroupWord, G: FiniteGroup, assignment: dict) -> GroupElement:
    if w.kind == "var":
        return assignment[w.args[0]]
    if w.kind == "inv":
        return G.inverse(_eval_word(w.args[0], G, assignment))
    if w.kind == "prod":
        out = _eval_word(w.args[0], G, assignment)
        for part in w.args[1:]:
            out = G.multiply(out, _eval_word(part, G, assignment))
        return out
    if w.kind == "pow":
        return G.power(_eval_word(w.args[0], G, assignment), w.args[1])
    out = _eval_word(w.args[0], G, assignment)
    for part in w.args[1:]:
        out = G.commutator(out, _eval_word(part, G, assignment))
    return out


def group_satisfies(
    w: GroupWord, G: FiniteGroup, budget: int = WORD_EVAL_BUDGET
) -> Verdict:
    """Exhaustively check w(g1, ..., gs) = 1 over all of G."""
    variables = sorted(w.variables)
    nvars = len(variables)
    total = G.order**nvars
    if total > budget:
        raise BudgetExceeded(f"|G|^{nvars} = {total} exceeds the budget of {budget}")
    elems = list(G.elements())
    for combo in itertools.product(elems, repeat=nvars):
        assignment = dict(zip(variables, combo))
        if not _eval_word(w, G, assignment).is_identity():
            names = ", ".join(
                f"x{v}={g!r}" for v, g in zip(variables, combo)
            )
            return Verdict(False, f"fails at {names}", witness=combo)
    return Verdict(True, f"identity on all {total} assignments")


def engel_index_of_element(
    G: FiniteGroup, x: GroupElement, cutoff: Optional[int] = None
) -> Optional[int]:
    """Least n with [g, x, x, ..., x] (n copies) trivial for every g, else None.

    Per starting point the iteration stops on reaching the identity or on
    revisiting an element, so termination never relies on the cutoff.
    """
    if not isinstance(x, GroupElement) or x.group is not G:
        raise ForeignElement("x must be an element of G")
    if cutoff is None:
        cutoff = G.order
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    worst = 1
    for g in G.elements():
        y = G.commutator(g, x)
        k = 1
        seen = {y.key}
        while not y.is_identity():
            if k >= cutoff:
                return None
            y = G.commutator(y, x)
            k += 1
            if y.key in seen:
                return None  # cycle that never reaches the identity
            seen.add(y.key)
        worst = max(worst, k)
    return worst
