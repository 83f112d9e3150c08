"""Check catalog, report assembly, and the corpus run loop.

Each public check function returns a Verdict and raises HypothesisNotMet
when its hypothesis fails on the given input: the statements are
conditionals, so a false antecedent yields a skipped row, never a fail.
A catalog check is one function registered with @check(name, on=...,
needs=...): the shared hypotheses it declares (p-group, solvable, coprime,
single involution) are tested in the order given and skip the row when
they fail.  run_checks drives every type-applicable (fixture, check) pair
and collects one row each; a BudgetExceeded inside a row skips that row
only.  Reports are deterministic (timings are zeroed unless explicitly
requested).
"""

import json
import math
import time
from dataclasses import dataclass

import numpy as np

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
from .fixtures import FixtureFile, realize_automorphisms, realize_groups
from .groups import Automorphism, FiniteGroup, _blocks, is_prime
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
    _commutator_values,
    _cyclic_class_representatives,
    _engel_walk,
    _power_map,
    _product_mask,
    _subgroup,
    centralizer,
    derived_series,
    dimension_series,
    fitting_height,
    generated_subgroup,
    is_nilpotent_subgroup,
    is_powerful,
    lower_central_series,
    power_subgroup,
    verify_np_series,
)

SCAN_BUDGET = 10**6
POWER_BUDGET = 2**20


def _subgroup_exponent(G: FiniteGroup, H: Subgroup) -> int:
    return math.lcm(*np.flatnonzero(np.bincount(G.element_orders()[H.idx])).tolist())


def _check_prime(p: int) -> None:
    """Refuse a prime parameter that is not a prime, or too large to test by trial division."""
    if p > POWER_BUDGET:
        raise BudgetExceeded(f"prime exceeds the power budget of {POWER_BUDGET}")
    if not is_prime(p):
        raise MalformedSpec(f"prime must be a prime, got {p}")


def _k_commutators(G: FiniteGroup, k: int, budget: int) -> np.ndarray:
    """Indices of all values of left-normed weight-k commutators, in key order."""
    if k < 1:
        raise MalformedSpec("need k >= 1")
    if G.order > 1 and k > budget.bit_length():  # |G|^k > budget, without forming it
        raise BudgetExceeded(f"|G|^k exceeds the budget of {budget} for k > {budget.bit_length()}")
    if G.order**k > budget:
        raise BudgetExceeded(f"|G|^{k} = {G.order ** k} exceeds the budget of {budget}")
    # weight-k values are [c, z] for c a weight-(k-1) value and z in G
    everything = np.arange(G.order)
    values = np.ones(G.order, dtype=bool)
    for _ in range(k - 1):
        values = _commutator_values(G, values.nonzero()[0], everything)
    return values.nonzero()[0]


# -- the collection congruence -----------------------------------------


def check_collection_formula(
    G: FiniteGroup, p: int | None = None, n: int = 1, budget: int = SCAN_BUDGET
) -> Verdict:
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
    if G.order**2 > budget:
        raise BudgetExceeded(f"|G|^2 exceeds the budget of {budget}")
    lcs = lower_central_series(G)
    modulus_gens = list(power_subgroup(G, lcs.term(2), q).elements())
    for r in range(1, n + 1):
        layer = power_subgroup(G, lcs.term(p**r), p ** (n - r))
        modulus_gens.extend(layer.elements())
    modulus = generated_subgroup(G, modulus_gens)
    # row x compares (xy)^q with x^q y^q for every y, a block of rows at a time
    T = G.table()
    inv = G.inverse_indices()
    P = _power_map(G, q)
    for xs in _blocks(np.arange(G.order), G.order):
        inside = modulus.mask[T[P[T[xs]], inv[T[P[xs][:, None], P]]]]
        if not inside.all():
            r, y = divmod(int(np.argmin(inside)), G.order)  # first failure, row-major
            return Verdict(
                False,
                f"(xy)^{q} != x^{q} y^{q} modulo the subgroup of order "
                f"{modulus.order} at x={G.element_at(xs[r])!r}, y={G.element_at(y)!r}",
            )
    return Verdict(
        True,
        f"q={q}; modulus subgroup order {modulus.order}; {G.order**2} pairs verified",
    )


# -- commutator-subgroup lemmas -------------------------------------------


def check_lemma_3_3(
    G: FiniteGroup, k: int = 2, p: int | None = None, budget: int = SCAN_BUDGET
) -> Verdict:
    """If every weight-k commutator is a q-element, the k-th term is a q-group."""
    if p is not None:
        _check_prime(p)
    commutators = _k_commutators(G, k, budget)
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


def check_lemma_3_4(G: FiniteGroup, k: int = 2, budget: int = SCAN_BUDGET) -> Verdict:
    """If every weight-k commutator is an Engel element, the k-th term is nilpotent."""
    commutators = _k_commutators(G, k, budget)
    trivial = _closure(G, ())
    worst = 1
    for c in commutators.tolist():  # in key order; the first that is not Engel is the witness
        steps, reached = _engel_walk(G, c, trivial)
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
    gens: list = []
    for cent in cents:
        gens.extend(cent.elements())
    span = generated_subgroup(G, gens)
    orders = tuple(c.order for c in cents)
    return Verdict(
        span.is_whole,
        f"q={q}; centralizer orders {orders}; generated subgroup order {span.order}"
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
        product = _product_mask(G, np.flatnonzero(product), cent.idx)
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
    for x in _cyclic_class_representatives(G):
        mask = _class_closure(G, x)
        masks.setdefault(mask.tobytes(), mask)
    family = [_subgroup(G, mask) for mask in masks.values()]
    return [N for N in family if all(N.mask[image[N.idx]].all() for image in images)]


def check_4_6(fx: ActionFixture) -> Verdict:
    """Fixed points pass to quotients: C_{G/N}(A) = image of C_G(A).

    Both sides are compared as unions of N-cosets in G, with no quotient
    group built: the preimage of the image of C_G(A) is the product C_G(A)N,
    and the preimage of C_{G/N}(A) is {x : φ(x) x^-1 ∈ N for every φ}.
    Each φ's index map, and its φ(x) x^-1 for every x, is read once.
    """
    _needs_coprime(fx)
    G = fx.group
    T = G.table()
    inv = G.inverse_indices()
    fixed = centralizer(G, fx.generators)
    images = [np.asarray(phi.image_indices) for phi in fx.generators]
    drifts = [T[image, inv] for image in images]  # φ(x) x^-1, one array per φ
    tested = []
    for N in _invariant_normal_family(G, images):
        upstairs = _product_mask(G, fixed.idx, N.idx)
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
    T = G.table()
    inv = G.inverse_indices()
    image = np.asarray(a.image_indices)
    inverted = np.flatnonzero(image == inv)
    fixed = centralizer(G, [a])
    counts = np.zeros(G.order, dtype=np.int64)
    for g in _blocks(inverted, fixed.order):
        counts += np.bincount(T[g[:, None], fixed.idx].ravel(), minlength=G.order)
    unique = bool((counts == 1).all())
    commutator_set = np.zeros(G.order, dtype=bool)
    commutator_set[T[inv, image]] = True  # [y, a] = y^-1 a(y)
    inverted_matches = np.array_equal(commutator_set, image == inv)
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
    _needs_odd_involution(G, a)
    fixed = centralizer(G, [a])
    commutators = G.table()[G.inverse_indices(), np.asarray(a.image_indices)]  # y^-1 a(y)
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


class RunContext:
    """Realized fixtures plus the decomposition witnesses shared across checks.

    Every group, automorphism and action of the fixture is realized here,
    before run_checks runs its first row, and all of them live until the
    run returns; run_checks then runs the rows check-major over them.

    What depends on a group alone is kept on the group, not here: build_dl
    keeps its graded algebra, and the series module keeps every subgroup,
    series, commutator value set and commutator subgroup it computes, so
    the checks of one run share them.
    """

    def __init__(self, fx: FixtureFile, budget: int = SCAN_BUDGET):
        self.fixture = fx
        self.budget = budget
        self.groups = realize_groups(fx)
        self.automorphisms = realize_automorphisms(fx, self.groups)
        self.actions = realize_actions(fx, self.groups, self.automorphisms)
        self._witness: dict = {}

    def params(self, check: str, target: str) -> dict:
        return self.fixture.params_for(check, target)

    def int_param(self, params: dict, key: str, default: int) -> int:
        if key not in params:
            return default
        try:
            return int(params[key])
        except ValueError:
            raise MalformedSpec(f"check parameter {key} must be an integer")

    def witness(self, check: str, name: str):
        """Decomposition witness of a group, over the check's gens= parameter if bound."""
        gens = self.params(check, name).get("gens")
        key = (name, gens)
        if key not in self._witness:
            G = self.groups[name]
            chosen = None if gens is None else [G.generator_by_name(n) for n in gens.split(",")]
            self._witness[key] = decomposition_witness(G, chosen)
        return self._witness[key]


# -- the registry ------------------------------------------------------------

# check name -> handler(ctx, target name) -> Verdict; looked up per row, so a
# handler swapped in after import is the one that runs
_GROUP_HANDLERS: dict = {}
_ACTION_HANDLERS: dict = {}


class _Skip(GroupLabError):
    """The row is skipped; the message is its whole detail."""


def check(name: str, on: str = "group", needs: tuple = ()):
    """Register the decorated function as the catalog check ``name``.

    The function takes (ctx, subject, target name), where the subject is the
    target's FiniteGroup (on="group") or ActionFixture (on="action"), and
    returns a Verdict.  Each predicate in ``needs`` is called on the subject
    first, in the order given, and raises to skip the row.
    """
    handlers = {"group": _GROUP_HANDLERS, "action": _ACTION_HANDLERS}[on]

    def register(body):
        def handler(ctx: RunContext, target: str) -> Verdict:
            subject = (ctx.groups if on == "group" else ctx.actions)[target]
            for need in needs:
                need(subject)
            return body(ctx, subject, target)

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
def _np_series(ctx: RunContext, G: FiniteGroup, name: str) -> Verdict:
    series = dimension_series(G)
    verdict = verify_np_series(G, series, G.is_p_group()[0])
    tail = "both containment families verified" if verdict.ok else verdict.detail
    return Verdict(verdict.ok, f"series orders {series.orders()}; {tail}")


@check("lazard", needs=(_needs_p_group,))
def _lazard(ctx: RunContext, G: FiniteGroup, name: str) -> Verdict:
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
def _jacobi(ctx: RunContext, G: FiniteGroup, name: str) -> Verdict:
    # GradedLieRing verifies [u, u] = 0, antisymmetry, the grading and Jacobi
    # on every basis pair and triple when it is built, or refuses to exist
    n = build_dl(G).total_dim
    return Verdict(True, f"{n * n} basis pairs and {n**3} triples verified", "basis")


@check("higman", needs=(_needs_p_group,))
def _higman(ctx: RunContext, G: FiniteGroup, name: str) -> Verdict:
    n = G.exponent()
    if n > 4:
        raise _Skip(f"exponent {n} is outside the checked degree range (2..4)")
    verdict = holds_identity(higman_polynomial(n), build_dl(G))
    return Verdict(verdict.ok, f"degree {n} symmetrized law: {verdict.detail}", verdict.mode)


@check("prop_2_11", needs=(_needs_p_group,))
def _prop_2_11(ctx: RunContext, G: FiniteGroup, name: str) -> Verdict:
    w = ctx.witness("prop_2_11", name)
    verdict = check_prop_2_11(G, w)
    return Verdict(verdict.ok, f"c={w.c}, s={w.s}, K={w.K}; {verdict.detail}")


@check("cor_2_14", needs=(_needs_p_group,))
def _cor_2_14(ctx: RunContext, G: FiniteGroup, name: str) -> Verdict:
    w = ctx.witness("cor_2_14", name)
    verdict = check_cor_2_14(G, w)
    return Verdict(verdict.ok, f"c={w.c}, s={w.s}, K={w.K}; {verdict.detail}")


@check("collection")
def _collection(ctx: RunContext, G: FiniteGroup, name: str) -> Verdict:
    params = ctx.params("collection", name)
    if "prime" in params:
        p = ctx.int_param(params, "prime", 0)
    elif G.is_p_group() is not None:
        p = G.is_p_group()[0]
    else:
        raise _Skip("not a p-group and no prime parameter given")
    n = ctx.int_param(params, "n", 1)
    return check_collection_formula(G, p, n, budget=ctx.budget)


@check("lemma_3_3")
def _lemma_3_3(ctx: RunContext, G: FiniteGroup, name: str) -> Verdict:
    params = ctx.params("lemma_3_3", name)
    k = ctx.int_param(params, "k", 2)
    p = ctx.int_param(params, "prime", 0) if "prime" in params else None
    return check_lemma_3_3(G, k, p, budget=ctx.budget)


@check("lemma_3_4")
def _lemma_3_4(ctx: RunContext, G: FiniteGroup, name: str) -> Verdict:
    k = ctx.int_param(ctx.params("lemma_3_4", name), "k", 2)
    return check_lemma_3_4(G, k, budget=ctx.budget)


@check("fitting", needs=(_needs_solvable,))
def _fitting(ctx: RunContext, G: FiniteGroup, name: str) -> Verdict:
    height = fitting_height(G)
    nilpotent = lower_central_series(G).reaches_trivial()
    return Verdict(
        True,
        f"height {height}; exponent {G.exponent()}; order {G.order}"
        + ("; nilpotent" if nilpotent else ""),
    )


@check("powerful", needs=(_needs_p_group,))
def _powerful(ctx: RunContext, G: FiniteGroup, name: str) -> Verdict:
    p = G.is_p_group()[0]
    flag = is_powerful(G)
    return Verdict(
        True,
        f"powerful: {'yes' if flag else 'no'} "
        f"(commutator subgroup {'inside' if flag else 'escapes'} the "
        f"{4 if p == 2 else p}-th power subgroup)",
    )


# -- action checks -----------------------------------------------------------


@check("c4_1", on="action")
def _c4_1(ctx: RunContext, fx: ActionFixture, name: str) -> Verdict:
    return check_4_1(fx)


@check("c4_2", on="action")
def _c4_2(ctx: RunContext, fx: ActionFixture, name: str) -> Verdict:
    return check_4_2(fx)


@check("c4_6", on="action")
def _c4_6(ctx: RunContext, fx: ActionFixture, name: str) -> Verdict:
    return check_4_6(fx)


@check("c4_12", on="action", needs=(_needs_single_involution,))
def _c4_12(ctx: RunContext, fx: ActionFixture, name: str) -> Verdict:
    return check_4_12(fx.group, fx.single_involution())


@check("t4_3", on="action")
def _t4_3(ctx: RunContext, fx: ActionFixture, name: str) -> Verdict:
    return check_theorem_4_3_instance(fx)


@check("t4_4", on="action", needs=(_needs_single_involution,))
def _t4_4(ctx: RunContext, fx: ActionFixture, name: str) -> Verdict:
    params = ctx.params("t4_4", name)
    n = ctx.int_param(params, "n", 0) if "n" in params else None
    return check_theorem_4_4_instance(fx.group, fx.single_involution(), n)


@check("pm_split", on="action", needs=(_needs_p_group, _needs_single_involution))
def _pm_split(ctx: RunContext, fx: ActionFixture, name: str) -> Verdict:
    L = build_dl(fx.group)
    split = plus_minus_split(L, induced_action(fx.single_involution(), L))
    return Verdict(
        True,
        f"plus dims {split.plus.dims()}, minus dims {split.minus.dims()}; "
        "all three bracket containments verified",
    )


@check("obs_4_8", on="action", needs=(_needs_coprime, _needs_p_group))
def _obs_4_8(ctx: RunContext, fx: ActionFixture, name: str) -> Verdict:
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


def run_checks(
    fx: FixtureFile,
    selection=None,
    *,
    budget: int = SCAN_BUDGET,
    timings: bool = False,
) -> CheckReport:
    """One row per selected check per type-applicable fixture entry.

    Every group is realized first (RunContext).  Then the rows run
    check-major: each selected group check, in catalog order, on every group
    in fixture order, then each action check on every action.  That runs one
    check's code on group after group while it is warm, where group-major
    order takes turns among all the checks.  Each group still meets its
    checks in catalog order, so it keeps what the same calls make, and the
    rows are sorted, so the report does not depend on the order.
    """
    selected = _expand_selection(selection)
    ctx = RunContext(fx, budget=budget)
    rows = []
    for entries, handlers in ((fx.groups, _GROUP_HANDLERS), (fx.actions, _ACTION_HANDLERS)):
        for name in selected:
            if name in handlers:
                for entry in entries:
                    rows.append(_row(ctx, entry.name, name, handlers[name], timings))
    rows.sort(key=lambda row: (row.group, row.check))
    return CheckReport(__version__, tuple(rows))
