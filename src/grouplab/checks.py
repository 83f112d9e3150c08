"""Check catalog, report assembly, and the corpus run loop.

Each public check function returns a Verdict and raises HypothesisNotMet
when its hypothesis fails on the given input: the statements are
conditionals, so a false antecedent yields a skipped row, never a fail.
A catalog check is one function registered with @check(name, on=...,
needs=...): it takes its subject (a group or an action fixture) and the
fixture parameters it reads, nothing else, so a public check of that shape
is registered as it is; the shared hypotheses it declares (p-group,
solvable, coprime, single involution) are tested in the order given and
skip the row when they fail.  run_checks drives every type-applicable
(fixture, check) pair and collects one row each; a BudgetExceeded inside a
row skips that row only.  Reports are deterministic (timings are zeroed
unless explicitly requested).
"""

import inspect
import json
import math
import time
from dataclasses import dataclass
from typing import get_args

import numpy as np

from . import kernels
from ._version import __version__
from .actions import ActionFixture, realize_actions
from .errors import (
    BudgetExceeded,
    EvenCharacteristic,
    GroupLabError,
    HypothesisNotMet,
    MalformedSpec,
    MismatchedParent,
    NotAPGroup,
    NotInvolution,
    NotSolvable,
    UnknownCheck,
)
from .fixtures import FixtureFile, _is_number, _named, _shown, realize_automorphisms, realize_groups
from .groups import Automorphism, FiniteGroup, is_prime
from .identities import higman_polynomial, holds_identity
from .liering import (
    _lazard_table,
    _lazard_verdict,
    build_dl,
    centralizer_subalgebra,
    check_cor_2_14,
    check_prop_2_11,
    decomposition_witness,
    induced_action,
    plus_minus_split,
    subgroup_graded_algebra,
)
from .series import (
    Subgroup,
    Verdict,
    _class_closure,
    _closure,
    _subgroup,
    centralizer,
    derived_series,
    dimension_series,
    fitting_height,
    is_nilpotent_subgroup,
    is_powerful,
    lower_central_series,
    verify_np_series,
)

POWER_BUDGET = 2**20


def _subgroup_exponent(G: FiniteGroup, H: Subgroup) -> int:
    return math.lcm(*np.flatnonzero(np.bincount(G.element_orders()[H.idx])).tolist())


def _check_prime(p: int) -> None:
    """Refuse a prime parameter that is not a prime, or too large to test by trial division."""
    if p > POWER_BUDGET:
        raise BudgetExceeded(f"prime exceeds the power budget of {POWER_BUDGET}")
    if not is_prime(p):
        raise MalformedSpec(f"prime must be a prime, got {p}")


def _k_commutators(G: FiniteGroup, k: int) -> np.ndarray:
    """Indices of all values of left-normed weight-k commutators, in key order.

    [x, z] = x^-1·x^z, so the values [x, z] over every z are x^-1 times the
    class of x; and [c, z]^g = [c^g, z^g], so the weight-k set C_k is a union
    of classes.  Hence C_k is the conjugation closure of the r^-1·x over x in
    C_(k-1), r = label[x] the least element of x's class (_class_labels): one
    gather and one label read per step.  C_(k-1) -> C_k is monotone and
    C_2 ⊆ C_1 = G, so the sets descend: the walk stops at the first repeated
    set, and any k takes at most one step per class.
    """
    if k < 1:
        raise MalformedSpec("need k >= 1")
    label = kernels._class_labels(G)
    values = np.ones(G.order, dtype=bool)
    for _ in range(k - 1):
        xs = values.nonzero()[0]
        hit = np.zeros(G.order, dtype=bool)
        hit[label[kernels._product(G, kernels._inverse(G, label[xs]), xs)]] = True
        values = hit[label]
        if np.count_nonzero(values) == len(xs):  # C_k ⊆ C_(k-1), so C_k = C_(k-1)
            break
    return values.nonzero()[0]


# -- the collection congruence -----------------------------------------


def check_collection_formula(G: FiniteGroup, p: int | None = None, n: int = 1) -> Verdict:
    """(xy)^q with q = p^n equals x^q y^q modulo the iterated-power subgroup."""
    if p is None:
        info = G.is_p_group()
        if info is None:
            raise NotAPGroup("no prime given and the group is not a p-group")
        p = info[0]
    _check_prime(p)
    if n < 1:
        raise MalformedSpec("need n >= 1")
    most = 0  # the largest n with p^n within POWER_BUDGET; n is bounded before p^n is formed
    while p ** (most + 1) <= POWER_BUDGET:
        most += 1
    if n > most:
        raise BudgetExceeded(f"{p}^n exceeds the power budget of {POWER_BUDGET} for n > {most}")
    q = p**n
    # the modulus γ_2^q γ_p^(p^(n-1)) ··· γ_(p^n) is generated by its factors' generators
    lcs = lower_central_series(G)
    P = kernels._power_map(G, q)
    factors = [P[lcs.term(2).idx]]
    for r in range(1, n + 1):
        factors.append(kernels._power_map(G, p ** (n - r))[lcs.term(p**r).idx])
    modulus = _closure(G, np.concatenate(factors))
    order = int(np.count_nonzero(modulus))
    failure = kernels._power_law_failure(G, P, modulus)
    if failure is not None:
        x, y = failure
        return Verdict(
            False,
            f"(xy)^{q} != x^{q} y^{q} modulo the subgroup of order "
            f"{order} at x={G.element_at(x)!r}, y={G.element_at(y)!r}",
        )
    return Verdict(
        True,
        f"q={q}; modulus subgroup order {order}; {G.order**2} pairs verified",
    )


# -- commutator-subgroup lemmas -------------------------------------------


def check_lemma_3_3(G: FiniteGroup, k: int = 2, p: int | None = None) -> Verdict:
    """If every weight-k commutator is a q-element, the k-th term is a q-group."""
    if p is not None:
        _check_prime(p)
    commutators = _k_commutators(G, k)
    if p is not None:
        candidates = [p]
    else:
        info = G.is_p_group()
        if info is not None:
            candidates = [info[0]]
        else:
            candidates = [
                q for q in range(2, G.order + 1) if G.order % q == 0 and is_prime(q)
            ]
            if not candidates:
                raise HypothesisNotMet("no prime divides |G| = 1")
    orders = G.element_orders()[commutators]
    failures = []
    for q in candidates:
        # every order divides |G|: it is a power of q exactly when it divides the q-part of |G|
        part = 1
        while G.order % (part * q) == 0:
            part *= q
        bad = (part % orders).nonzero()[0]
        if not bad.size:
            break
        failures.append((q, bad[0]))
    else:
        q, bad = failures[-1]
        witness = G.element_at(commutators[bad])
        raise HypothesisNotMet(
            f"commutator {witness!r} of order {orders[bad]} is not a "
            f"{q}-element" + ("" if p is not None else " (no prime works)"),
            witness=witness,
        )
    term = lower_central_series(G).term(k)
    ok = part % term.order == 0
    return Verdict(
        ok,
        f"all {len(commutators)} weight-{k} commutators are {q}-elements; "
        f"series term {k} has order {term.order}"
        + ("" if ok else f", which is not a power of {q}"),
    )


def check_lemma_3_4(G: FiniteGroup, k: int = 2) -> Verdict:
    """If every weight-k commutator is an Engel element, the k-th term is nilpotent."""
    commutators = _k_commutators(G, k)
    trivial = _closure(G, ())
    worst = 1
    for c in commutators.tolist():  # in key order; the first that is not Engel is the witness
        steps, reached = kernels._engel_walk(G, c, trivial)
        if not reached:
            witness = G.element_at(c)
            raise HypothesisNotMet(
                f"weight-{k} commutator {witness!r} is not an Engel element", witness=witness
            )
        worst = max(worst, steps)
    term = lower_central_series(G).term(k)
    ok = is_nilpotent_subgroup(G, term)
    return Verdict(
        ok,
        f"all {len(commutators)} weight-{k} commutators are Engel "
        f"(max index {worst}); series term {k} of order {term.order} is "
        + ("nilpotent" if ok else "NOT nilpotent"),
    )


# -- coprime-action lemmas ---------------------------------------------------


def _needs_coprime(fx: ActionFixture) -> None:
    if not fx.coprime:
        raise HypothesisNotMet(
            f"gcd(|A|, |G|) = {math.gcd(fx.order, fx.group.order)} is not 1"
        )


def _q_squared_or_raise(fx: ActionFixture) -> int:
    if not fx.nontrivial:
        raise HypothesisNotMet("A is trivial")
    q = fx.noncyclic_q_squared()
    if q is None:
        shape = "cyclic" if fx.is_cyclic() else "not of prime-square order"
        raise HypothesisNotMet(f"A has order {fx.order} and is {shape}")
    return q


def check_4_1(fx: ActionFixture) -> Verdict:
    """G is generated by the fixed-point subgroups of the nontrivial a in A."""
    _needs_coprime(fx)
    q = _q_squared_or_raise(fx)
    G = fx.group
    cents = [centralizer(G, [a]) for a in fx.nontrivial]
    span = int(np.count_nonzero(_closure(G, np.concatenate([c.idx for c in cents]))))
    orders = tuple(c.order for c in cents)
    return Verdict(
        span == G.order,
        f"q={q}; centralizer orders {orders}; generated subgroup order {span}"
        f" of {G.order}",
    )


def check_4_2(fx: ActionFixture) -> Verdict:
    """G equals the ordered product of the centralizers over A# (fixture order)."""
    _needs_coprime(fx)
    q = _q_squared_or_raise(fx)
    G = fx.group
    if G.is_p_group() is None:
        raise HypothesisNotMet("G is not a p-group")
    product = _closure(G, ())
    orders = []
    for a in fx.nontrivial:
        cent = centralizer(G, [a])
        orders.append(cent.order)
        product = kernels._product_mask(G, np.flatnonzero(product), cent.idx)
    covered = int(product.sum())
    return Verdict(
        covered == G.order,
        f"q={q}; ordered product over A# (fixture order, centralizer orders "
        f"{tuple(orders)}) covers {covered} of {G.order} elements",
    )


def _invariant_normal_family(G: FiniteGroup, images) -> list:
    """Trivial, whole, and single-element normal closures that A preserves.

    A is given by the index maps of its generators (images, one array per
    generator).  A normal closure depends only on the conjugacy class of the
    cyclic subgroup an element generates, so one mask is built per such
    class, from its minimal index, and only the distinct masks become (kept)
    subgroups; the family keeps first-occurrence order.
    """
    masks = {}  # mask bytes -> mask, in first-occurrence order
    for mask in [_closure(G, ()), np.ones(G.order, dtype=bool)]:
        masks[mask.tobytes()] = mask
    for x in kernels._cyclic_class_representatives(G):
        mask = _class_closure(G, x)
        masks.setdefault(mask.tobytes(), mask)
    family = [_subgroup(G, mask) for mask in masks.values()]
    return [N for N in family if all(N.mask[image[N.idx]].all() for image in images)]


def check_4_6(fx: ActionFixture) -> Verdict:
    """Fixed points pass to quotients: C_{G/N}(A) = image of C_G(A).

    Both sides are compared as unions of N-cosets in G, with no quotient
    group built: the preimage of the image of C_G(A) is the product C_G(A)N,
    and the preimage of C_{G/N}(A) is {x : [x, φ] = x^-1 φ(x) ∈ N for every
    φ}.  Each φ's index map, and its [x, φ] for every x, is read once.
    """
    _needs_coprime(fx)
    G = fx.group
    fixed = centralizer(G, fx.generators)
    images = [np.asarray(phi.image_indices) for phi in fx.generators]
    drifts = [kernels._commutators_with(G, image) for image in images]
    tested = []
    for N in _invariant_normal_family(G, images):
        upstairs = kernels._product_mask(G, fixed.idx, N.idx)
        downstairs = np.ones(G.order, dtype=bool)
        for drift in drifts:
            downstairs &= N.mask[drift]
        if not np.array_equal(upstairs, downstairs):
            return Verdict(
                False,
                f"fixed points disagree modulo the subgroup of order {N.order}: "
                f"image has {int(upstairs.sum()) // N.order}, quotient centralizer has "
                f"{int(downstairs.sum()) // N.order}",
            )
        tested.append(N.order)
    return Verdict(
        True,
        f"{len(tested)} invariant normal subgroups verified "
        f"(orders {tuple(tested)})",
    )


def _needs_odd_involution(G: FiniteGroup, a: Automorphism) -> None:
    """Raise unless a is an automorphism of G, |G| is odd and a∘a = 1."""
    if not isinstance(a, Automorphism) or a.source is not G:
        raise MismatchedParent("a must be an automorphism of G")
    if G.order % 2 == 0:
        raise HypothesisNotMet(f"G has even order {G.order}")
    if not a.compose(a).is_identity():
        raise HypothesisNotMet("a*a is not the identity")


def check_4_12(G: FiniteGroup, a: Automorphism) -> Verdict:
    """Odd-order G with involutory a: unique x = gh, g inverted, h fixed."""
    _needs_odd_involution(G, a)
    image = np.asarray(a.image_indices)
    inverted_mask = kernels._inverse(G, image) == np.arange(G.order)  # a(x) = x^-1
    inverted = np.flatnonzero(inverted_mask)
    fixed = centralizer(G, [a])
    # every x is g·h once exactly when the products cover G and number |G|
    unique = len(inverted) * fixed.order == G.order and bool(
        kernels._product_mask(G, inverted, fixed.idx).all()
    )
    commutator_set = np.zeros(G.order, dtype=bool)
    commutator_set[kernels._commutators_with(G, image)] = True
    inverted_matches = np.array_equal(commutator_set, inverted_mask)
    return Verdict(
        unique and inverted_matches,
        f"|inverted set| = {len(inverted)}, |C_G(a)| = {fixed.order}; "
        f"decomposition {'unique for all' if unique else 'NOT unique for some'} "
        f"{G.order} elements; inverted set "
        f"{'equals' if inverted_matches else 'differs from'} "
        "{[y,a] : y in G}",
    )


def check_theorem_4_3_instance(fx: ActionFixture) -> Verdict:
    """Record q, the centralizer-exponent bound n, and the group exponent."""
    _needs_coprime(fx)
    q = _q_squared_or_raise(fx)
    G = fx.group
    n = math.lcm(
        *(_subgroup_exponent(G, centralizer(G, [a])) for a in fx.nontrivial)
    )
    return Verdict(
        True,
        f"q={q}; centralizer exponents have lcm n={n}; exponent(G)={G.exponent()}",
    )


def check_theorem_4_4_instance(
    G: FiniteGroup, a: Automorphism, n: int | None = None
) -> Verdict:
    """Record the least valid n (centralizer exponent and [x,a] orders) vs exp(G)."""
    if n is not None and n < 1:
        raise MalformedSpec("need n >= 1")
    _needs_odd_involution(G, a)
    fixed = centralizer(G, [a])
    commutators = kernels._commutators_with(G, np.asarray(a.image_indices))
    orders = np.flatnonzero(np.bincount(G.element_orders()[commutators]))  # distinct, ascending
    computed = math.lcm(_subgroup_exponent(G, fixed), *orders.tolist())
    if n is None:
        n = computed
    elif n % computed != 0:
        raise HypothesisNotMet(
            f"given n={n} but the centralizer exponent and [x,a] orders force "
            f"a multiple of {computed}"
        )
    return Verdict(
        True,
        f"n={n}; |C_G(a)|={fixed.order}; max |[x,a]| order {int(orders[-1])}; "
        f"exponent(G)={G.exponent()}",
    )


# -- report plumbing -------------------------------------------------------


@dataclass(frozen=True)
class CheckRow:
    group: str
    check: str
    status: str  # pass | fail | skipped
    details: str
    elapsed_ms: int = 0


@dataclass(frozen=True)
class CheckReport:
    tool_version: str
    rows: tuple

    @property
    def has_failures(self) -> bool:
        return any(row.status == "fail" for row in self.rows)

    def to_json(self) -> str:
        doc = {
            "tool_version": self.tool_version,
            "seed": 0,  # kept for report compatibility; nothing is seeded
            "rows": [
                {
                    "group": row.group,
                    "check": row.check,
                    "status": row.status,
                    "details": row.details,
                    "elapsed_ms": row.elapsed_ms,
                }
                for row in self.rows
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_table(self) -> str:
        headers = ("GROUP", "CHECK", "STATUS", "DETAILS")
        data = [
            (row.group, row.check, row.status, row.details) for row in self.rows
        ]
        widths = [
            max(len(headers[c]), *(len(r[c]) for r in data)) if data else len(headers[c])
            for c in range(3)
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers[:3], widths)) + "  DETAILS"
        ]
        for r in data:
            lines.append(
                "  ".join(v.ljust(w) for v, w in zip(r[:3], widths)) + "  " + r[3]
            )
        counts: dict = {}
        for row in self.rows:
            counts[row.status] = counts.get(row.status, 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        lines.append(f"-- {len(self.rows)} rows: {summary}")
        return "\n".join(lines) + "\n"


def _witness(G: FiniteGroup, gens: str | None = None):
    """Decomposition witness of G over the comma-separated generator names, kept by gens."""

    def find():
        chosen = None if gens is None else [G.generator_by_name(n) for n in gens.split(",")]
        return decomposition_witness(G, chosen)

    return G._keep(("witness", gens), find)


class RunContext:
    """Realized fixtures and resolved check requests of one run.

    Every group, automorphism and action of the fixture is realized here,
    then every check request is resolved against the parameters its check
    declares (_resolve), before run_checks runs its first row; all of them
    live until the run returns, and run_checks runs the rows check-major.

    What depends on a group alone is kept in its one store (_keep), not
    here: build_dl keeps its graded algebra, the series module its
    subgroups, series and kernel results, and _witness each decomposition
    witness by its gens= parameter, so the checks of one run share them.
    """

    def __init__(self, fx: FixtureFile):
        self.fixture = fx
        self.groups = realize_groups(fx)
        self.automorphisms = realize_automorphisms(fx, self.groups)
        self.actions = realize_actions(fx, self.groups, self.automorphisms)
        # (check, target) -> the keyword values its row's body is called with
        self.requests = {(req.check, req.target): self._resolve(req) for req in fx.checks}

    def _resolve(self, req) -> dict:
        """A request's parameters as its check declares them; one it cannot run is refused."""
        where = f"check {_named(req.check)} on {_named(req.target)}"
        if req.check not in _DECLARED:
            raise UnknownCheck(f"{where}: unknown check")
        on, declared = _DECLARED[req.check]
        if req.target not in (self.groups if on == "group" else self.actions):
            kind = "a group" if on == "group" else "an action"
            raise MalformedSpec(f"{where}: {_named(req.target)} is not {kind}")
        values, reads = {}, ", ".join(declared) or "none"
        for key, value in req.params:
            if key not in declared:
                raise MalformedSpec(f"{where}: no parameter {_shown(key)}; it reads {reads}")
            if declared[key]:
                if not _is_number(value.removeprefix("-")):  # as the fixture grammar reads numbers
                    raise MalformedSpec(f"{where}: check parameter {key} must be an integer")
                value = int(value)
            values[key] = value
        return values


# -- the registry ------------------------------------------------------------

# check name -> handler(ctx, target name) -> Verdict; looked up per row, so a
# handler swapped in after import is the one that runs
_GROUP_HANDLERS: dict = {}
_ACTION_HANDLERS: dict = {}
# check name -> (on, {parameter: whether it is an integer}); RunContext resolves by it
_DECLARED: dict = {}


class _Skip(GroupLabError):
    """The row is skipped; the message is its whole detail."""


def check(name: str, on: str = "group", needs: tuple = ()):
    """Register the decorated function as the catalog check ``name``.

    The function takes its subject, the target's FiniteGroup (on="group") or
    ActionFixture (on="action"), and returns a Verdict.  Every parameter after
    the subject, with its default, is a fixture parameter its check reads, and
    there are no others; one annotated int (or int | None) takes an integer,
    any other the text as written.  Each predicate in ``needs`` is called on
    the subject first, in the order given, and raises to skip the row.
    """
    handlers = {"group": _GROUP_HANDLERS, "action": _ACTION_HANDLERS}[on]

    def register(body):
        _, *params = inspect.signature(body).parameters.values()
        _DECLARED[name] = on, {
            p.name: int in (p.annotation, *get_args(p.annotation)) for p in params
        }

        def handler(ctx: RunContext, target: str) -> Verdict:
            subject = (ctx.groups if on == "group" else ctx.actions)[target]
            for need in needs:
                need(subject)
            return body(subject, **ctx.requests.get((name, target), {}))

        handlers[name] = handler
        return body

    return register


def _needs_p_group(subject) -> None:
    G = subject.group if isinstance(subject, ActionFixture) else subject
    if G.is_p_group() is None:
        raise NotAPGroup("not a p-group")


def _needs_solvable(G: FiniteGroup) -> None:
    """Refuse G unless its derived series reaches 1; a p-group, nilpotent, skips that series.

    The fitting check's left Engel walk (Baer's theorem) stalls on any other G.
    """
    if G.is_p_group() is None and not derived_series(G).reaches_trivial():
        raise NotSolvable("not solvable")


def _needs_single_involution(fx: ActionFixture) -> None:
    if fx.single_involution() is None:
        raise HypothesisNotMet("needs exactly one generating automorphism of order 2")


# -- group checks ----------------------------------------------------------


@check("np_series", needs=(_needs_p_group,))
def _np_series(G: FiniteGroup) -> Verdict:
    series = dimension_series(G)
    verdict = verify_np_series(G, series, G.is_p_group()[0])
    tail = "both containment families verified" if verdict.ok else verdict.detail
    return Verdict(verdict.ok, f"series orders {series.orders()}; {tail}")


@check("lazard", needs=(_needs_p_group,))
def _lazard(G: FiniteGroup) -> Verdict:
    L = build_dl(G)
    xs = np.flatnonzero(np.arange(G.order) != G._e)
    power_ok, index, order = _lazard_table(G, L, xs)
    bad = np.flatnonzero(~power_ok | (index > order))
    if bad.size:
        k = bad[0]  # the first failure in element order
        verdict = _lazard_verdict(L.p, power_ok[k], index[k], order[k])
        return Verdict(False, f"at {G.element_at(xs[k])!r}: {verdict.detail}")
    return Verdict(True, f"{len(xs)} nontrivial elements verified (power and index bounds)")


@check("jacobi", needs=(_needs_p_group,))
def _jacobi(G: FiniteGroup) -> Verdict:
    # GradedLieRing verifies [u, u] = 0, antisymmetry, the grading and Jacobi
    # on every basis pair and triple when it is built, or refuses to exist
    n = build_dl(G).total_dim
    return Verdict(True, f"{n * n} basis pairs and {n**3} triples verified", "basis")


@check("higman", needs=(_needs_p_group,))
def _higman(G: FiniteGroup) -> Verdict:
    n = G.exponent()
    if n > 4:
        raise _Skip(f"exponent {n} is outside the checked degree range (2..4)")
    verdict = holds_identity(higman_polynomial(n), build_dl(G))
    return Verdict(verdict.ok, f"degree {n} symmetrized law: {verdict.detail}", verdict.mode)


@check("prop_2_11", needs=(_needs_p_group,))
def _prop_2_11(G: FiniteGroup, *, gens: str | None = None) -> Verdict:
    w = _witness(G, gens)
    verdict = check_prop_2_11(G, w)
    return Verdict(verdict.ok, f"c={w.c}, s={w.s}, K={w.K}; {verdict.detail}")


@check("cor_2_14", needs=(_needs_p_group,))
def _cor_2_14(G: FiniteGroup, *, gens: str | None = None) -> Verdict:
    w = _witness(G, gens)
    verdict = check_cor_2_14(G, w)
    return Verdict(verdict.ok, f"c={w.c}, s={w.s}, K={w.K}; {verdict.detail}")


@check("collection")
def _collection(G: FiniteGroup, *, prime: int | None = None, n: int = 1) -> Verdict:
    if prime is None and G.is_p_group() is None:
        raise _Skip("not a p-group and no prime parameter given")
    return check_collection_formula(G, prime, n)


@check("lemma_3_3")
def _lemma_3_3(G: FiniteGroup, *, k: int = 2, prime: int | None = None) -> Verdict:
    return check_lemma_3_3(G, k, prime)


check("lemma_3_4")(check_lemma_3_4)


@check("fitting", needs=(_needs_solvable,))
def _fitting(G: FiniteGroup) -> Verdict:
    height = fitting_height(G)
    nilpotent = lower_central_series(G).reaches_trivial()
    return Verdict(
        True,
        f"height {height}; exponent {G.exponent()}; order {G.order}"
        + ("; nilpotent" if nilpotent else ""),
    )


@check("powerful", needs=(_needs_p_group,))
def _powerful(G: FiniteGroup) -> Verdict:
    p = G.is_p_group()[0]
    flag = is_powerful(G)
    return Verdict(
        True,
        f"powerful: {'yes' if flag else 'no'} "
        f"(commutator subgroup {'inside' if flag else 'escapes'} the "
        f"{4 if p == 2 else p}-th power subgroup)",
    )


# -- action checks -----------------------------------------------------------


check("c4_1", on="action")(check_4_1)
check("c4_2", on="action")(check_4_2)
check("c4_6", on="action")(check_4_6)


@check("c4_12", on="action", needs=(_needs_single_involution,))
def _c4_12(fx: ActionFixture) -> Verdict:
    return check_4_12(fx.group, fx.single_involution())


check("t4_3", on="action")(check_theorem_4_3_instance)


@check("t4_4", on="action", needs=(_needs_single_involution,))
def _t4_4(fx: ActionFixture, *, n: int | None = None) -> Verdict:
    return check_theorem_4_4_instance(fx.group, fx.single_involution(), n)


@check("pm_split", on="action", needs=(_needs_p_group, _needs_single_involution))
def _pm_split(fx: ActionFixture) -> Verdict:
    L = build_dl(fx.group)
    split = plus_minus_split(L, induced_action(fx.single_involution(), L))
    return Verdict(
        True,
        f"plus dims {split.plus.dims()}, minus dims {split.minus.dims()}; "
        "all three bracket containments verified",
    )


@check("obs_4_8", on="action", needs=(_needs_coprime, _needs_p_group))
def _obs_4_8(fx: ActionFixture) -> Verdict:
    L = build_dl(fx.group)
    acts = [induced_action(phi, L) for phi in fx.generators]
    lie_side = centralizer_subalgebra(L, acts)
    group_side = subgroup_graded_algebra(fx.group, L, centralizer(fx.group, fx.generators))
    same = lie_side.space == group_side
    return Verdict(
        same,
        f"fixed subalgebra dims {lie_side.space.dims()} "
        f"{'==' if same else '!='} fixed-subgroup algebra dims "
        f"{group_side.dims()}",
    )


GROUP_CHECKS = tuple(_GROUP_HANDLERS)
ACTION_CHECKS = tuple(_ACTION_HANDLERS)
CHECK_CATALOG = GROUP_CHECKS + ACTION_CHECKS


# -- the run loop --------------------------------------------------------------


def _expand_selection(selection) -> list:
    if selection is None:
        return list(CHECK_CATALOG)
    requested = []
    for item in selection:
        for name in str(item).split(","):
            name = name.strip()
            if name:
                requested.append(name)
    if "all" in requested:
        return list(CHECK_CATALOG)
    unknown = sorted(set(requested) - set(CHECK_CATALOG))
    if unknown:
        raise UnknownCheck(
            f"unknown check(s) {', '.join(unknown)}; catalog: "
            + ", ".join(CHECK_CATALOG + ("all",))
        )
    return [c for c in CHECK_CATALOG if c in requested]


def _row(ctx: RunContext, target: str, name: str, handler, timings: bool) -> CheckRow:
    start = time.perf_counter()
    try:
        verdict = handler(ctx, target)
        status, details = ("pass" if verdict.ok else "fail"), verdict.detail
    except HypothesisNotMet as exc:
        status, details = "skipped", f"hypothesis not met: {exc}"
    except (NotAPGroup, NotSolvable, EvenCharacteristic, NotInvolution, _Skip) as exc:
        status, details = "skipped", str(exc)
    except BudgetExceeded as exc:
        status, details = "skipped", f"budget: {exc}"
    elapsed = int((time.perf_counter() - start) * 1000) if timings else 0
    return CheckRow(target, name, status, details, elapsed)


def run_checks(fx: FixtureFile, selection=None, *, timings: bool = False) -> CheckReport:
    """One row per selected check per type-applicable fixture entry.

    Every group is realized and every check request resolved first
    (RunContext), also the requests of checks left unselected.  Then the rows run
    check-major: each selected group check, in catalog order, on every group
    in fixture order, then each action check on every action.  That runs one
    check's code on group after group while it is warm, where group-major
    order takes turns among all the checks.  Each group still meets its
    checks in catalog order, so it keeps what the same calls make, and the
    rows are sorted, so the report does not depend on the order.
    """
    selected = _expand_selection(selection)
    ctx = RunContext(fx)
    rows = []
    for entries, handlers in ((fx.groups, _GROUP_HANDLERS), (fx.actions, _ACTION_HANDLERS)):
        for name in selected:
            if name in handlers:
                for entry in entries:
                    rows.append(_row(ctx, entry.name, name, handlers[name], timings))
    rows.sort(key=lambda row: (row.group, row.check))
    return CheckReport(__version__, tuple(rows))
