"""Formal polynomials and words: evaluation oracles and satisfaction checks."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grouplab import identities
from grouplab.errors import BudgetExceeded, ForeignElement, MalformedSpec
from grouplab.groups import (
    FiniteGroup,
    PcPresentation,
    PermutationGenSet,
    build_group,
    perm_from_cycles,
)
from grouplab.identities import (
    GroupWord,
    LiePolynomial,
    engel_index_of_element,
    group_satisfies,
    higman_polynomial,
    holds_identity,
    is_n_engel_algebra,
    left_normed,
)
from grouplab.liering import build_dl
from grouplab.series import _closure, _engel_walk, trivial_subgroup
from test_liering_oracle import ref_holds_identity
from test_series_oracle import cases, ref_engel_steps_mod


def pc(p, n, powers=None, comms=None):
    return build_group(PcPresentation(p, n, powers or {}, comms or {}))


def d8():
    return pc(2, 3, {2: ((3, 1),)}, {(2, 1): ((3, 1),)})


def heis27():
    return pc(3, 3, {}, {(2, 1): ((3, 1),)})


def s3():
    return build_group(
        PermutationGenSet(
            3,
            (
                ("a", perm_from_cycles(3, [[1, 2]])),
                ("b", perm_from_cycles(3, [[1, 2, 3]])),
            ),
        )
    )


# -- polynomial structure ------------------------------------------------


def test_left_normed_shape():
    assert left_normed([0, 1]) == (0, 1)
    assert left_normed([0, 1, 2]) == ((0, 1), 2)
    with pytest.raises(MalformedSpec):
        left_normed([])
    with pytest.raises(MalformedSpec):
        left_normed([-1, 0])


def test_polynomial_flags():
    f = LiePolynomial(((1, (0, 1)), (1, (1, 0))))
    assert f.is_multilinear and f.variables == frozenset({0, 1})
    g = LiePolynomial(((1, (0, (0, 1))),))  # x0 twice
    assert not g.is_multilinear
    h = LiePolynomial(((1, (0, 1)), (1, 0)))  # variable sets differ per monomial
    assert not h.is_multilinear
    assert LiePolynomial(((0, (0, 1)),)).terms == ()  # zero coefficients drop


def test_polynomial_repr():
    f = higman_polynomial(3)
    assert repr(f) == "[x0,x1,x2] + [x0,x2,x1]"
    assert repr(LiePolynomial()) == "0"


def test_higman_counts():
    assert higman_polynomial(2).terms == ((1, (0, 1)),)
    assert len(higman_polynomial(3).terms) == 2
    assert len(higman_polynomial(4).terms) == 6
    assert higman_polynomial(4).is_multilinear
    assert len(higman_polynomial(8).terms) == 5040  # exactly at the budget
    with pytest.raises(BudgetExceeded):
        higman_polynomial(9)
    with pytest.raises(MalformedSpec):
        higman_polynomial(1)


def test_higman_is_built_once_per_degree_and_keeps_its_refusals(monkeypatch):
    assert higman_polynomial(4) is higman_polynomial(4)
    # the budget is read at call time, also once the degree is built
    monkeypatch.setattr(identities, "HIGMAN_MONOMIAL_BUDGET", 5)
    with pytest.raises(BudgetExceeded, match="6 monomials exceed the budget of 5"):
        higman_polynomial(4)
    with pytest.raises(MalformedSpec):
        higman_polynomial(1)


# -- Lie evaluation -----------------------------------------------------


def lie_value(f, L, assignment) -> np.ndarray:
    """f at one assignment of elements, through _polynomial_values on one-row leaves."""
    leaves = {v: assignment[v].vec[None] for v in f.variables}
    return identities._polynomial_values(f, L, leaves).reshape(L.total_dim)


def test_evaluate_bracket_same_element():
    L = build_dl(d8())
    f = LiePolynomial.monomial([0, 1])
    u = L.basis()[0]
    assert not lie_value(f, L, {0: u, 1: u}).any()


def test_evaluate_bracket_d8():
    G = d8()
    L = build_dl(G)
    f = LiePolynomial.monomial([0, 1])
    g1, g2, g3 = G.generators
    out = lie_value(f, L, {0: L.star(g1), 1: L.star(g2)})
    assert np.array_equal(out, L.star(g3).vec)


def test_evaluate_higman3_heis27_basis_triples():
    # independent oracle: [a,b,c] + [a,c,b] assembled bracket by bracket
    L = build_dl(heis27())
    f = higman_polynomial(3)
    for a in L.basis():
        for b in L.basis():
            for c in L.basis():
                direct = L.bracket(L.bracket(a, b), c).vec + L.bracket(L.bracket(a, c), b).vec
                val = lie_value(f, L, {0: a, 1: b, 2: c})
                assert np.array_equal(val, direct % L.p)
                assert not val.any()


def test_coefficients_reduce_mod_p():
    L = build_dl(heis27())
    f = LiePolynomial(((4, (0, 1)),))  # 4 = 1 mod 3
    g = LiePolynomial.monomial([0, 1])
    a, b = L.basis()[0], L.basis()[1]
    assert np.array_equal(lie_value(f, L, {0: a, 1: b}), lie_value(g, L, {0: a, 1: b}))


# -- identity satisfaction ------------------------------------------------


def test_holds_bracket_on_abelian():
    L = build_dl(pc(3, 2))
    v = holds_identity(LiePolynomial.monomial([0, 1]), L)
    assert v.ok and v.mode == "basis"


def test_fails_bracket_on_d8_with_witness():
    L = build_dl(d8())
    v = holds_identity(LiePolynomial.monomial([0, 1]), L)
    assert not v.ok
    u, w = v.witness
    assert not L.bracket(u, w).is_zero()


def test_higman4_on_dl_d8():
    v = holds_identity(higman_polynomial(4), build_dl(d8()))
    assert v.ok and v.mode == "basis"


@pytest.mark.parametrize(
    "make,n",
    [
        (d8, 4),
        (lambda: pc(2, 2, {1: ((2, 1),)}), 4),  # C4
        (lambda: pc(2, 3, {1: ((3, 1),), 2: ((3, 1),)}, {(2, 1): ((3, 1),)}), 4),  # Q8
        (lambda: pc(3, 2), 3),  # C3xC3
        (heis27, 3),
    ],
)
def test_higman_master_property(make, n):
    # groups of p-power exponent n <= 4 satisfy the degree-n symmetrized law
    G = make()
    assert G.exponent() == n
    v = holds_identity(higman_polynomial(n), build_dl(G))
    assert v.ok, v.detail


@pytest.mark.parametrize(
    "make,f",
    [
        (d8, LiePolynomial.monomial([0, 1])),
        (lambda: pc(3, 2, {1: ((2, 1),)}), LiePolynomial.monomial([0, 1])),  # C9
        (heis27, higman_polynomial(3)),
        (d8, higman_polynomial(3)),
    ],
)
def test_basis_mode_agrees_with_exhaustive(make, f):
    L = build_dl(make())
    fast = holds_identity(f, L)
    slow = ref_holds_identity(f, L, True)
    assert fast.mode == "basis" and slow.mode == "exhaustive"
    assert fast.ok == slow.ok


def test_non_multilinear_goes_exhaustive():
    L = build_dl(heis27())
    f = LiePolynomial(((1, ((0, 1), 0)),))  # [x0, x1, x0], x0 twice
    v = holds_identity(f, L)
    assert v.mode == "exhaustive"
    assert v.ok  # class 2: every length-3 bracket vanishes


def test_holds_identity_budget(monkeypatch):
    L = build_dl(heis27())
    monkeypatch.setattr(identities, "IDENTITY_EVAL_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        holds_identity(LiePolynomial(((1, ((0, 1), 0)),)), L)  # 27^2 assignments


# -- one evaluation per bracket shape -------------------------------------------

P_GROUPS = sorted(name for name, G in cases().items() if "/" not in name and G.is_p_group())


def shaped(shape: str, order) -> object:
    """The bracket tree of one shape with the given variables in reading order."""
    if shape == "left":
        return left_normed(order)
    if shape == "right":
        tree = order[-1]
        for v in reversed(order[:-1]):
            tree = (v, tree)
        return tree
    return ((order[0], order[1]), (order[2], order[3]))  # [[a, b], [c, d]]


@st.composite
def mixed_polynomials(draw):
    """A ring, and a multilinear polynomial over it mixing bracket shapes and coefficients."""
    name = draw(st.sampled_from(P_GROUPS))
    p = cases()[name].is_p_group()[0]
    n = draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n, unique=True))
    shapes = ["left", "right"] + (["pairs"] if n == 4 else [])
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(-2, 2),
                st.integers(-2, 2),
                st.sampled_from(shapes),
                st.permutations(labels),
            ),
            min_size=1,
            max_size=6,
        )
    )
    f = LiePolynomial(tuple((a + b * p, shaped(s, order)) for a, b, s, order in terms))
    assume(f.terms)
    return name, f


def per_monomial_values(f, L, pool):
    """Sum of coefficient times _values of each monomial on its own."""
    variables = sorted(f.variables)
    labels = {v: k for k, v in enumerate(variables)}
    leaves = dict.fromkeys(variables, pool)
    return sum(c * identities._values(t, L, leaves, labels)[1] for c, t in f.terms) % L.p


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mixed_polynomials())
def test_shared_shapes_match_the_sum_of_monomials(case):
    name, f = case
    L = build_dl(cases()[name])
    pool = np.eye(L.total_dim, dtype=np.int64)
    got = identities._polynomial_values(f, L, dict.fromkeys(f.variables, pool))
    assert np.array_equal(got, per_monomial_values(f, L, pool))


@pytest.mark.parametrize("name", P_GROUPS)
def test_planted_polynomial_names_the_reference_witness(name):
    # f = M mod p, M the longest left-normed bracket (degree 2 to 4) that is
    # nonzero on L, while the other shapes and orderings cancel mod p
    L = build_dl(cases()[name])
    p = L.p
    nonzero = [
        k for k in range(2, 5) if not ref_holds_identity(LiePolynomial.monomial(range(k)), L).ok
    ]
    order = list(range(max(nonzero, default=2)))
    terms = [(1 + p, shaped("left", order)), (-p, shaped("right", order[::-1]))]
    terms += [(2 * p, shaped("left", perm)) for perm in itertools.permutations(order)]
    if len(order) == 4:
        terms.append((-3 * p, shaped("pairs", order)))
    f = LiePolynomial(tuple(terms))
    v = holds_identity(f, L)
    assert v == ref_holds_identity(f, L)
    assert v.ok == (not nonzero)


def test_planted_polynomials_are_nonzero_on_most_rings():
    nonzero = [
        name
        for name in P_GROUPS
        if not ref_holds_identity(LiePolynomial.monomial([0, 1]), build_dl(cases()[name])).ok
    ]
    assert {"D8pc", "Heis27", "D16", "ladder Heis125", "ladder C3wrC3"} <= set(nonzero)


def test_higman_4_makes_the_brackets_of_one_monomial(monkeypatch):
    calls = []
    orig = identities._values
    monkeypatch.setattr(
        identities, "_values", lambda tree, *a: calls.append(tree) or orig(tree, *a)
    )
    assert holds_identity(higman_polynomial(4), build_dl(d8())).ok
    assert sum(isinstance(t, tuple) for t in calls) == 3


# -- Engel conditions on algebras ---------------------------------------------


def test_engel_abelian():
    v = is_n_engel_algebra(build_dl(pc(3, 2)), 1)
    assert v.ok and v.mode == "exhaustive"


def test_engel_d8():
    L = build_dl(d8())
    assert is_n_engel_algebra(L, 2).ok
    bad = is_n_engel_algebra(L, 1)
    assert not bad.ok and bad.witness is not None


def test_engel_beyond_the_element_budget(monkeypatch):
    # 27 elements exceed a budget of 26: refused for every n, with one message
    L = build_dl(heis27())
    monkeypatch.setattr(identities, "ENGEL_EXACT_LIMIT", 26)
    for n in (1, 2, 3, 4):
        with pytest.raises(BudgetExceeded) as err:
            is_n_engel_algebra(L, n)
        assert str(err.value) == "27 elements exceed the budget of 26"
    monkeypatch.setattr(identities, "ENGEL_EXACT_LIMIT", 27)  # at the budget: scanned
    v = is_n_engel_algebra(L, 2)
    assert v.ok and v.detail == "ad(a)^2 = 0 for all 27 exhaustive elements"
    bad = is_n_engel_algebra(L, 1)
    assert not bad.ok and bad.mode == "exhaustive"
    assert L.ads(bad.witness.vec[None]).any()


def test_engel_rejects_bad_n():
    with pytest.raises(MalformedSpec):
        is_n_engel_algebra(build_dl(d8()), 0)


# -- group words ----------------------------------------------------------------


def word_value(w, G, assignment):
    """w at one assignment of elements, through _word_values on one-entry index arrays."""
    leaves = {v: np.array([G.index_of(assignment[v])]) for v in w.variables}
    return G.element_at(int(identities._word_values(w, G, leaves)[0]))


def test_word_validation():
    with pytest.raises(MalformedSpec):
        GroupWord("var", (-1,))
    with pytest.raises(MalformedSpec):
        GroupWord("prod", (GroupWord.var(1),))
    with pytest.raises(MalformedSpec):
        GroupWord("pow", (GroupWord.var(1), "3"))


def test_word_variables_and_repr():
    w = GroupWord.power(GroupWord.commutator(GroupWord.var(1), GroupWord.var(2)), 3)
    assert w.variables == frozenset({1, 2})
    assert repr(w) == "([x1,x2])^3"


def test_evaluate_commutator_same_value():
    G = s3()
    w = GroupWord.commutator(GroupWord.var(1), GroupWord.var(2))
    a = G.generator_by_name("b")
    assert word_value(w, G, {1: a, 2: a}).is_identity()


def test_evaluate_square_of_three_cycle():
    G = s3()
    w = GroupWord.power(GroupWord.var(1), 2)
    b = G.generator_by_name("b")  # (1 2 3)
    assert word_value(w, G, {1: b}) == G.power(b, 2)
    assert word_value(w, G, {1: b}) == G.inverse(b)


def test_word_structural_composition():
    # [w1, w2] evaluates to the commutator of the evaluations
    G = build_group(
        PermutationGenSet(
            4,
            (
                ("a", perm_from_cycles(4, [[1, 2]])),
                ("b", perm_from_cycles(4, [[1, 2, 3, 4]])),
            ),
        )
    )
    w1 = GroupWord.power(GroupWord.var(1), 2)
    w2 = GroupWord.inverse(GroupWord.var(2))
    w = GroupWord.commutator(w1, w2)
    elems = list(G.elements())
    for x in elems[::5]:
        for y in elems[::7]:
            lhs = word_value(w, G, {1: x, 2: y})
            rhs = G.commutator(G.power(x, 2), G.inverse(y))
            assert lhs == rhs


def test_left_normed_word_nesting():
    G = d8()
    g1, g2, _ = G.generators
    w = GroupWord.commutator(GroupWord.var(1), GroupWord.var(2), GroupWord.var(2))
    val = word_value(w, G, {1: g1, 2: g2})
    assert val == G.commutator(G.commutator(g1, g2), g2)


def test_s3_cubed_commutator_law():
    G = s3()
    w = GroupWord.power(
        GroupWord.commutator(GroupWord.var(1), GroupWord.var(2)), 3
    )
    v = group_satisfies(w, G)
    assert v.ok and v.mode == "exhaustive"


def test_s3_squared_commutator_fails():
    G = s3()
    w = GroupWord.power(
        GroupWord.commutator(GroupWord.var(1), GroupWord.var(2)), 2
    )
    v = group_satisfies(w, G)
    assert not v.ok
    x, y = v.witness
    assert not G.power(G.commutator(x, y), 2).is_identity()


@pytest.mark.parametrize("make", [s3, d8, heis27])
def test_exponent_law(make):
    G = make()
    w = GroupWord.power(GroupWord.var(1), G.exponent())
    assert group_satisfies(w, G).ok


def test_d8_group_level_engel_law():
    G = d8()
    w = GroupWord.commutator(GroupWord.var(1), GroupWord.var(2), GroupWord.var(2))
    assert group_satisfies(w, G).ok


def test_group_satisfies_budget(monkeypatch):
    G = s3()
    w = GroupWord.commutator(GroupWord.var(1), GroupWord.var(2))
    monkeypatch.setattr(identities, "WORD_EVAL_BUDGET", 35)
    with pytest.raises(BudgetExceeded):
        group_satisfies(w, G)


# -- group words on index arrays, against the handle evaluator --------------------


def ref_eval_word(w, G, assignment):
    """The handle evaluator: one multiply, inverse, power or commutator call per step."""
    if w.kind == "var":
        return assignment[w.args[0]]
    if w.kind == "inv":
        return G.inverse(ref_eval_word(w.args[0], G, assignment))
    if w.kind == "pow":
        return G.power(ref_eval_word(w.args[0], G, assignment), w.args[1])
    step = G.multiply if w.kind == "prod" else G.commutator
    out = ref_eval_word(w.args[0], G, assignment)
    for part in w.args[1:]:
        out = step(out, ref_eval_word(part, G, assignment))
    return out


def ref_group_satisfies(w, G) -> tuple:
    """(ok, detail, witness): the first failing assignment in itertools.product order."""
    variables = sorted(w.variables)
    for combo in itertools.product(G.elements(), repeat=len(variables)):
        if not ref_eval_word(w, G, dict(zip(variables, combo))).is_identity():
            names = ", ".join(f"x{v}={g!r}" for v, g in zip(variables, combo))
            return False, f"fails at {names}", combo
    return True, f"identity on all {G.order ** len(variables)} assignments", None


X1, X2, X3 = GroupWord.var(1), GroupWord.var(2), GroupWord.var(3)
WORDS = [
    GroupWord.commutator(X1, X2),
    GroupWord.power(GroupWord.commutator(X1, X2), 2),
    GroupWord.power(GroupWord.commutator(X1, X2), 3),
    GroupWord.commutator(X1, X2, X2),
    GroupWord.commutator(GroupWord.power(X1, 2), GroupWord.inverse(X2)),
    GroupWord.product(X1, X2, GroupWord.inverse(X1), GroupWord.inverse(X2)),
    GroupWord.power(GroupWord.product(X1, X2), -5),
    GroupWord.product(GroupWord.power(X1, 0), GroupWord.power(X1, 6)),
    GroupWord.power(X3, 4),
    GroupWord.commutator(X1, GroupWord.product(X2, X3)),
    GroupWord.commutator(X3, X1, X2),
]
WORD_GROUPS = [s3, d8, heis27, lambda: cases()["Q8pc"], lambda: cases()["S4"]]


@pytest.mark.parametrize("make", WORD_GROUPS)
def test_group_satisfies_matches_the_handle_evaluator(make):
    G = make()
    for w in WORDS:
        v = group_satisfies(w, G)
        assert (v.ok, v.detail, v.witness) == ref_group_satisfies(w, G)
        assert v.mode == "exhaustive"


def test_group_satisfies_finds_the_first_failure_across_blocks(monkeypatch):
    # blocks of 5 assignments: the first failure of a word on S4 lies many blocks in
    monkeypatch.setattr(identities, "_BLOCK", 5)
    G = cases()["S4"]
    for w in WORDS:
        v = group_satisfies(w, G)
        assert (v.ok, v.detail, v.witness) == ref_group_satisfies(w, G)


@pytest.mark.parametrize("make", [s3, d8])
def test_word_values_on_one_assignment_match_the_handle_evaluator(make):
    G = make()
    for w in WORDS:
        for x, y, z in itertools.product(G.elements()[:4], G.elements(), G.elements()[-2:]):
            assignment = {1: x, 2: y, 3: z}
            assert word_value(w, G, assignment) == ref_eval_word(w, G, assignment)


def test_word_evaluation_makes_no_handle_arithmetic(monkeypatch):
    G = cases()["S4"]
    want = [ref_group_satisfies(w, G) for w in WORDS]
    calls = dict.fromkeys(("multiply", "power", "inverse", "commutator"), 0)
    for attr in calls:

        def counted(self, *args, _orig=getattr(FiniteGroup, attr), _attr=attr):
            calls[_attr] += 1
            return _orig(self, *args)

        monkeypatch.setattr(FiniteGroup, attr, counted)
    got = [group_satisfies(w, G) for w in WORDS]
    x, y = G.generators
    word_value(WORDS[6], G, {1: x, 2: y})
    assert calls == dict.fromkeys(calls, 0)
    assert [(v.ok, v.detail, v.witness) for v in got] == want


# -- Engel indices of elements -----------------------------------------------------


def test_engel_index_identity():
    G = s3()
    assert engel_index_of_element(G, G.identity) == 1


def test_engel_index_d8():
    G = d8()
    assert engel_index_of_element(G, G.generator_by_name("g2")) == 2
    assert engel_index_of_element(G, G.generator_by_name("g1")) == 2
    assert engel_index_of_element(G, G.generator_by_name("g3")) == 1  # central


def test_engel_index_transposition_is_none():
    G = s3()
    assert engel_index_of_element(G, G.generator_by_name("a")) is None


def test_engel_index_refuses_a_foreign_element():
    G, H = d8(), s3()
    with pytest.raises(ForeignElement):
        engel_index_of_element(G, H.identity)


def ref_engel_index(G, x):
    """The handle loop modulo the trivial subgroup: one start at a time, to the identity or a revisit."""
    return ref_engel_steps_mod(G, x, trivial_subgroup(G))


@pytest.mark.parametrize("name", sorted(cases()))
def test_engel_index_matches_handle_loop(name):
    G = cases()[name]
    for x in G.elements():
        assert engel_index_of_element(G, x) == ref_engel_index(G, x)


def first_repeat(G, xi) -> int:
    """Steps until the vector of all [g, x, ..., x] is all-identity or equals an earlier one."""
    T, inv = G.table(), G.inverse_indices()
    y = list(range(G.order))
    seen = set()
    k = 0
    while True:
        y = [int(T[inv[T[xi, v]], T[v, xi]]) for v in y]
        k += 1
        if all(G.element_at(v).is_identity() for v in y) or tuple(y) in seen:
            return k
        seen.add(tuple(y))


def test_engel_walk_on_s5_stops_at_the_first_repeat():
    # only the identity is an Engel element of S5 (its Fitting subgroup is
    # trivial); every other walk cycles, and stops within 14 of the 120 steps
    G = cases()["ladder S5"]
    trivial = _closure(G, ())
    walks = [_engel_walk(G, i, trivial) for i in range(G.order)]
    assert [i for i, (_, reached) in enumerate(walks) if reached] == [G.index_of(G.identity)]
    assert [steps for steps, _ in walks] == [first_repeat(G, i) for i in range(G.order)]
    assert max(steps for steps, _ in walks) == 14


@pytest.mark.parametrize("make", [d8, heis27, lambda: pc(3, 2, {1: ((2, 1),)})])
def test_engel_bridging(make):
    # a group-level Engel bound passes to the graded algebra
    G = make()
    indices = [engel_index_of_element(G, x) for x in G.elements()]
    assert all(n is not None for n in indices)
    n = max(indices)
    assert is_n_engel_algebra(build_dl(G), n).ok
