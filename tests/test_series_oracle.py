"""Index-native series against handle-based reference algorithms and sympy.

The reference algorithms below are the textbook ones, run one GroupElement
at a time through FiniteGroup.multiply/commutator/power: breadth-first
closure, commutator and power subgroups over all pairs, normal closure by
conjugation with the generators, the lower central series of a subgroup,
weight-k commutators over every k-tuple, and the collection-formula pair
scan.  The library computes the same things over rows of the Cayley table;
every term set, verdict and message must agree.  The Fitting subgroup and the
invariant normal family of the `c4_6` check are also built element by element
here, one normal closure per element, against the library's left Engel walk
and its one closure per conjugacy class.  Fitting heights, and each step of
that walk, are checked through quotient groups and `c4_6` is
decided on quotient groups with induced automorphisms, against the library's
masks on the group's own table; element orders are stepped one handle at a
time.  The product sets of `prop_2_11` and `c4_2` are built here as key sets
through mul_keys (one table lookup per key pair), against the library's
products of index masks.
"""

import functools
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouplab import checks, groups, kernels, series
from grouplab.actions import ActionFixture, realize_actions
from grouplab.corpus import load_corpus
from grouplab.errors import (
    ForeignElement,
    HypothesisNotMet,
    InconsistentPresentation,
    NotSolvable,
)
from grouplab.fixtures import parse_fixture, realize_automorphisms, realize_groups
from grouplab.groups import (
    Automorphism,
    FiniteGroup,
    PcPresentation,
    PermutationGenSet,
    build_group,
    inner_automorphism,
    is_prime,
    perm_from_cycles,
)
from grouplab.kernels import _class_representatives, _product_mask
from grouplab.liering import _ordered_cyclic_product, check_prop_2_11, decomposition_witness
from grouplab.series import (
    QuotientGroup,
    Subgroup,
    Verdict,
    _closure,
    commutator_subgroup,
    derived_series,
    dimension_series,
    fitting_height,
    generated_subgroup,
    is_nilpotent_subgroup,
    lower_central_series,
    normal_closure,
    power_subgroup,
    whole_subgroup,
)
from test_tables import DECIDE_PRESENTATIONS, pc_presentations

# The non-corpus groups of the benchmark ladder, restated.
LADDER = """
group Heis125
backend pc
prime 5
ngens 3
comm 2 1 = 3^1
end

group C3wrC3
backend pc
prime 3
ngens 4
comm 2 1 = 3^1
comm 3 1 = 4^1
end

group S5
backend perm
degree 5
gen a = (1 2)
gen b = (1 2 3 4 5)
end

group D8xC3
backend perm
degree 7
gen r = (1 2 3 4)
gen s = (2 4)
gen c = (5 6 7)
end

aut inv125 on Heis125
image 1 = 1^4
image 2 = 2^4
image 3 = 3^1
end

action A125 on Heis125 = inv125
"""


# -- handle-based reference algorithms ----------------------------------------


def mul_keys(G, k1: tuple, k2: tuple) -> tuple:
    """Key of the product of the elements keyed k1 and k2, one table lookup."""
    return G._keys[G.table()[G._index[k1], G._index[k2]]]


def ref_closure(G, elems) -> frozenset:
    """Keys of the subgroup generated by elems, breadth-first over G.multiply."""
    gens = list({x.key: x for x in elems}.values())
    seen = {G.identity.key}
    frontier = [G.identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = G.multiply(x, g)
                if y.key not in seen:
                    seen.add(y.key)
                    fresh.append(y)
        frontier = fresh
    return frozenset(seen)


def members(G, keys) -> list:
    return [G.element(k) for k in sorted(keys)]


def keys_of(H: Subgroup) -> frozenset:
    return frozenset(x.key for x in H.elements())


def ref_commutator(G, H, K) -> frozenset:
    return ref_closure(
        G, [G.commutator(h, k) for h in members(G, H) for k in members(G, K)]
    )


def ref_power(G, H, n) -> frozenset:
    return ref_closure(G, [G.power(h, n) for h in members(G, H)])


def ref_lower_central(G) -> list:
    whole = frozenset(x.key for x in G.elements())
    terms = [whole]
    while True:
        nxt = ref_commutator(G, terms[-1], whole)
        if nxt == terms[-1]:
            return terms
        terms.append(nxt)


def ref_derived(G) -> list:
    terms = [frozenset(x.key for x in G.elements())]
    while True:
        nxt = ref_commutator(G, terms[-1], terms[-1])
        if nxt == terms[-1]:
            return terms
        terms.append(nxt)


def ref_dimension(G, p) -> list:
    gamma = ref_lower_central(G)
    terms = [gamma[0]]
    i = 2
    while len(terms[-1]) > 1:
        powers = []
        for j in range(1, len(gamma) + 1):
            k = 0
            while j * p**k < i:
                k += 1
            powers.extend(G.power(x, p**k) for x in members(G, gamma[j - 1]))
        terms.append(ref_closure(G, powers))
        i += 1
    return terms


def ref_normal_closure(G, elems) -> frozenset:
    keys = ref_closure(G, elems)
    while True:
        extra = [
            G.conjugate(x, g)
            for x in members(G, keys)
            for g in G.generators
            if G.conjugate(x, g).key not in keys
        ]
        if not extra:
            return keys
        keys = ref_closure(G, members(G, keys) + extra)


def ref_is_nilpotent(G, H) -> bool:
    cur = H
    while True:
        nxt = ref_commutator(G, cur, H)
        if nxt == cur:
            return len(cur) == 1
        cur = nxt


def ref_k_commutators(G, k) -> list:
    return sorted({G.long_commutator(t).key for t in itertools.product(G.elements(), repeat=k)})


def ref_collection(G, p, n, modulus=None) -> Verdict:
    q = p**n
    lcs = ref_lower_central(G)

    def term(j):
        return lcs[min(j, len(lcs)) - 1]

    if modulus is None:
        gens = members(G, ref_power(G, term(2), q))
        for r in range(1, n + 1):
            gens.extend(members(G, ref_power(G, term(p**r), p ** (n - r))))
        modulus = ref_closure(G, gens)
    pairs = 0
    for x in G.elements():
        xq = G.power(x, q)
        for y in G.elements():
            lhs = G.power(G.multiply(x, y), q)
            rhs = G.multiply(xq, G.power(y, q))
            if G.multiply(lhs, G.inverse(rhs)).key not in modulus:
                return Verdict(
                    False,
                    f"(xy)^{q} != x^{q} y^{q} modulo the subgroup of order "
                    f"{len(modulus)} at x={x!r}, y={y!r}",
                )
            pairs += 1
    return Verdict(True, f"q={q}; modulus subgroup order {len(modulus)}; {pairs} pairs verified")


def ref_ordered_cyclic_product_keys(G, rhos) -> set:
    """Key set of the ordered product <rho_1><rho_2>...<rho_s>."""
    acc = {G.identity.key}
    for rho in rhos:
        powers = []
        x = G.identity
        for _ in range(G.element_order(rho)):
            powers.append(x.key)
            x = G.multiply(x, rho)
        acc = {mul_keys(G, a, pk) for a in acc for pk in powers}
    return acc


def ref_prop_2_11(G, w) -> Verdict:
    """The cyclic product times each dimension-series tail, as key sets."""
    product = ref_ordered_cyclic_product_keys(G, map(G.element_at, w.rhos))
    terms = ref_dimension(G, G.is_p_group()[0])
    all_keys = set(G._keys)
    for i in range(1, len(terms) + 1):
        tail = terms[min(i + 1, len(terms)) - 1]
        covered = {mul_keys(G, a, t) for a in product for t in tail}
        if covered != all_keys:
            return Verdict(
                False,
                f"product of {w.s} cyclic factors misses "
                f"{len(all_keys) - len(covered)} elements at depth {i}",
            )
    return Verdict(True, f"{w.s} cyclic factors cover the group at every depth (class {w.c})")


def ref_check_4_2(fx) -> Verdict:
    """Ordered product of the centralizers over A#, as key sets."""
    checks._needs_coprime(fx)
    q = checks._q_squared_or_raise(fx)
    G = fx.group
    if G.is_p_group() is None:
        raise HypothesisNotMet("G is not a p-group")
    product = {G.identity.key}
    orders = []
    for a in fx.nontrivial:
        cent = [x.key for x in G.elements() if a(x) == x]
        orders.append(len(cent))
        product = {mul_keys(G, s, c) for s in product for c in cent}
    return Verdict(
        len(product) == G.order,
        f"q={q}; ordered product over A# (fixture order, centralizer orders "
        f"{tuple(orders)}) covers {len(product)} of {G.order} elements",
    )


def outcome(check, *args):
    """A check's Verdict, or the type and message of the hypothesis it refuses."""
    try:
        return check(*args)
    except HypothesisNotMet as exc:
        return type(exc), str(exc)


def ref_fitting_subgroup(G) -> Subgroup:
    """Every element whose normal closure is nilpotent, one closure per element."""
    good = [x for x in G.elements() if is_nilpotent_subgroup(G, normal_closure(G, [x]))]
    return generated_subgroup(G, good)


def fitting_mask(G) -> np.ndarray:
    """The library's Fitting subgroup: the left Engel walk modulo the trivial subgroup."""
    return series._fitting_mod(G, series._closure(G, ()))


def ref_fitting_height(G) -> int:
    """Fitting-quotient steps from G down to the trivial group, one QuotientGroup per step."""
    height = 0
    cur = G
    while cur.order > 1:
        fit = ref_fitting_subgroup(cur)
        if fit.is_trivial:
            raise NotSolvable(f"group of order {G.order} is not solvable")
        cur = QuotientGroup(cur, fit).group
        height += 1
    return height


def ref_check_4_6(fx) -> Verdict:
    """Fixed points pass to quotients, decided on each quotient group G/N."""
    checks._needs_coprime(fx)
    G = fx.group
    fixed = [x for x in G.elements() if all(phi(x) == x for phi in fx.generators)]
    tested = []
    for keys in ref_invariant_normal_family(fx):
        N = Subgroup(G, [x.key in keys for x in G.elements()])
        quot = QuotientGroup(G, N)
        induced = [
            Automorphism(
                quot.group,
                [quot.project(phi(quot.lift(qg))) for qg in quot.group.generators],
            )
            for phi in fx.generators
        ]
        upstairs = {quot.project(x).key for x in fixed}
        downstairs = {
            x.key for x in quot.group.elements() if all(psi(x) == x for psi in induced)
        }
        if upstairs != downstairs:
            return Verdict(
                False,
                f"fixed points disagree modulo the subgroup of order {N.order}: "
                f"image has {len(upstairs)}, quotient centralizer has "
                f"{len(downstairs)}",
            )
        tested.append(N.order)
    return Verdict(
        True,
        f"{len(tested)} invariant normal subgroups verified (orders {tuple(tested)})",
    )


def ref_check_4_12(G, a) -> Verdict:
    """Unique x = gh (g inverted, h fixed), over key dictionaries and handle products."""
    inverted = [g for g in G.elements() if a(g) == G.inverse(g)]
    fixed = [h for h in G.elements() if a(h) == h]
    counts: dict = {}
    for g in inverted:
        for h in fixed:
            key = G.multiply(g, h).key
            counts[key] = counts.get(key, 0) + 1
    unique = len(counts) == G.order and all(v == 1 for v in counts.values())
    commutator_set = {G.multiply(G.inverse(y), a(y)).key for y in G.elements()}
    inverted_matches = commutator_set == {g.key for g in inverted}
    return Verdict(
        unique and inverted_matches,
        f"|inverted set| = {len(inverted)}, |C_G(a)| = {len(fixed)}; "
        f"decomposition {'unique for all' if unique else 'NOT unique for some'} "
        f"{G.order} elements; inverted set "
        f"{'equals' if inverted_matches else 'differs from'} "
        "{[y,a] : y in G}",
    )


def ref_check_4_4(G, a) -> Verdict:
    """The least n: the centralizer exponent and the orders of [y, a], one handle at a time."""
    fixed = [h for h in G.elements() if a(h) == h]
    orders = [ref_element_order(G, G.multiply(G.inverse(y), a(y))) for y in G.elements()]
    n = math.lcm(*(ref_element_order(G, h) for h in fixed), *orders)
    exponent = math.lcm(*(ref_element_order(G, x) for x in G.elements()))
    return Verdict(
        True,
        f"n={n}; |C_G(a)|={len(fixed)}; max |[x,a]| order {max(orders)}; "
        f"exponent(G)={exponent}",
    )


def ref_element_order(G, a) -> int:
    """Least n with a^n = 1, one handle product per step."""
    n = 1
    x = a
    while not x.is_identity():
        x = G.multiply(x, a)
        n += 1
    return n


def ref_invariant_normal_family(fx) -> list:
    """Key sets of the trivial, whole and single-element normal closures A preserves."""
    G = fx.group
    family = [frozenset([G.identity.key]), frozenset(x.key for x in G.elements())]
    for x in G.elements():
        closure = ref_normal_closure(G, [x])
        if closure not in family:
            family.append(closure)
    return [
        N
        for N in family
        if all(phi(y).key in N for phi in fx.generators for y in members(G, N))
    ]


def ref_conjugacy_classes(G) -> list:
    """Key sets of the conjugacy classes, in order of their first element."""
    classes = []
    for x in G.elements():
        if not any(x.key in c for c in classes):
            classes.append(frozenset(G.conjugate(x, g).key for g in G.elements()))
    return classes


# -- the groups under test --------------------------------------------------------


@functools.cache
def cases() -> dict:
    """Corpus groups, one quotient of each non-abelian one, and the ladder groups."""
    out = dict(load_corpus().groups)
    for name, G in list(out.items()):
        der = derived_series(G)
        if der.terms[1].is_trivial:
            continue
        # modulo the last nontrivial derived term: a nontrivial proper quotient
        out[f"{name}/N"] = QuotientGroup(G, der.terms[-2]).group
    for name, G in ladder_groups().items():
        out[f"ladder {name}"] = G
    return out


@functools.cache
def ladder_groups() -> dict:
    return realize_groups(parse_fixture(LADDER))


@functools.cache
def action_cases() -> dict:
    """Every corpus action, and A125 on the ladder's Heis125."""
    out = dict(load_corpus().actions)
    fx = parse_fixture(LADDER)
    groups = ladder_groups()
    out.update(realize_actions(fx, groups, realize_automorphisms(fx, groups)))
    return out


NAMES = sorted(cases())


def primes_of(G) -> list:
    return [q for q in range(2, G.order + 1) if G.order % q == 0 and is_prime(q)]


@pytest.mark.parametrize("name", sorted(load_corpus().groups))
def test_kept_power_maps_match_handle_powers(name):
    G = cases()[name]
    for k in sorted({2, 3, 4} | {q**e for q in primes_of(G) for e in (1, 2)}):
        P = kernels._power_map(G, k)
        assert P is kernels._power_map(G, k) and not P.flags.writeable
        assert P.tolist() == [G.index_of(G.power(x, k)) for x in G.elements()]


def test_cases_cover_corpus_quotients_and_ladder():
    names = set(NAMES)
    assert len(load_corpus().groups) == 16
    assert {"ladder S5", "ladder Heis125", "ladder C3wrC3", "ladder D8xC3"} <= names
    assert {"S4/N", "Heis27/N", "D8pc/N"} <= names
    assert cases()["S4/N"].order == 6


@pytest.mark.parametrize("name", NAMES)
def test_series_match_reference(name):
    G = cases()[name]
    assert [keys_of(t) for t in lower_central_series(G).terms] == ref_lower_central(G)
    assert [keys_of(t) for t in derived_series(G).terms] == ref_derived(G)
    pk = G.is_p_group()
    if pk is not None:
        assert [keys_of(t) for t in dimension_series(G).terms] == ref_dimension(G, pk[0])


@pytest.mark.parametrize("name", NAMES)
def test_commutator_and_power_subgroups_match_reference(name):
    G = cases()[name]
    whole = whole_subgroup(G)
    subgroups = [whole, *lower_central_series(G).terms[1:2], *derived_series(G).terms[1:3]]
    subgroups += [generated_subgroup(G, [g]) for g in G.generators]
    for H in subgroups:
        for K in subgroups:
            assert keys_of(commutator_subgroup(G, H, K)) == ref_commutator(
                G, keys_of(H), keys_of(K)
            )
        for n in [*primes_of(G), 4]:
            assert keys_of(power_subgroup(G, H, n)) == ref_power(G, keys_of(H), n)


@pytest.mark.parametrize("name", NAMES)
def test_normal_closure_and_nilpotency_match_reference(name):
    G = cases()[name]
    step = max(1, G.order // 24)  # every element of the small groups, a spread of the rest
    for x in G.elements()[::step]:
        N = normal_closure(G, [x])
        want = ref_normal_closure(G, [x])
        assert keys_of(N) == want
        assert N.is_normal
        assert is_nilpotent_subgroup(G, N) == ref_is_nilpotent(G, want)
    whole = frozenset(x.key for x in G.elements())
    assert is_nilpotent_subgroup(G, whole_subgroup(G)) == ref_is_nilpotent(G, whole)
    assert keys_of(normal_closure(G, G.generators)) == ref_normal_closure(G, G.generators)


@pytest.mark.parametrize(
    "cycles,nilpotent",
    [(([[1, 2]], [[1, 2, 3]]), False), (([[1, 2, 3, 4]], [[1, 3]]), True)],
    ids=["S3", "D8"],
)
def test_nilpotency_of_a_non_normal_subgroup_matches_reference(cycles, nilpotent):
    G = cases()["S4"]
    H = generated_subgroup(G, [G.element(perm_from_cycles(4, c)) for c in cycles])
    assert not H.is_normal
    assert is_nilpotent_subgroup(G, H) == ref_is_nilpotent(G, keys_of(H)) == nilpotent


@pytest.mark.parametrize("name", NAMES)
def test_normal_closure_of_several_elements_matches_reference(name):
    G = cases()[name]
    elems = G.elements()
    step = max(1, G.order // 8)
    for picks in (elems[1::step][:2], elems[2::step][:3], elems[-3:], elems[::-step][:2]):
        assert keys_of(normal_closure(G, picks)) == ref_normal_closure(G, picks)


@pytest.mark.parametrize("name", NAMES)
def test_k_commutators_match_reference(name):
    G = cases()[name]
    for k in (1, 2, 3):
        if G.order**k > 20_000:  # the reference walks every k-tuple
            continue
        got = [G.element_at(i).key for i in checks._k_commutators(G, k)]
        assert got == ref_k_commutators(G, k)


def test_k_commutators_of_s5_are_a5_from_weight_three_on():
    G = cases()["ladder S5"]
    a5 = checks._k_commutators(G, 2).tolist()  # [S5, S5] = A5, and [A5, S5] = A5
    assert len(a5) == 60
    for k in range(3, 51):
        assert checks._k_commutators(G, k).tolist() == a5, k


@pytest.mark.parametrize("name", NAMES)
def test_collection_formula_matches_reference(name):
    G = cases()[name]
    for p in primes_of(G):
        for n in (1, 2):
            assert checks.check_collection_formula(G, p, n) == ref_collection(G, p, n)


FAILING_PAIR_CASES = [("S3", 2), ("D8pc", 3), ("Heis27", 2), ("S4", 3), ("ladder S5", 3)]


def assert_first_failing_pair(G, p, monkeypatch):
    # The congruence is a theorem, so the scan fails only against a smaller
    # modulus: with the trivial one it stops at the first pair where
    # (xy)^q != x^q y^q, in row-major order.
    monkeypatch.setattr(checks, "_closure", lambda G, gens: _closure(G, ()))
    got = checks.check_collection_formula(G, p, 1)
    assert not got.ok
    want = ref_collection(G, p, 1, modulus=frozenset([G.identity.key]))
    assert got == want
    return want


@pytest.mark.parametrize("name,p", FAILING_PAIR_CASES)
def test_collection_formula_reports_the_first_failing_pair(name, p, monkeypatch):
    assert_first_failing_pair(cases()[name], p, monkeypatch)


@pytest.mark.parametrize("name,p", FAILING_PAIR_CASES)
def test_collection_formula_reports_the_first_failing_pair_in_a_later_block(
    name, p, monkeypatch
):
    # one row x per table block; row x = 1 never fails, so the failure lands
    # in a later block
    G = cases()[name]
    monkeypatch.setattr(kernels, "_BLOCK", G.order)
    want = assert_first_failing_pair(G, p, monkeypatch)
    assert f"x={G.identity!r}," not in want.detail


@pytest.mark.parametrize("name", NAMES)
def test_quotient_representatives_are_minimal_keys(name):
    G = cases()[name]
    for g in G.generators:
        Q = QuotientGroup(G, normal_closure(G, [g]))
        N = Q.normal.elements()
        want = {x.key: min(G.multiply(x, n).key for n in N) for x in G.elements()}
        assert {x.key: Q.project(x).key for x in G.elements()} == want
        assert sorted(q.key for q in Q.group.elements()) == sorted(set(want.values()))


@pytest.mark.parametrize("name", NAMES)
def test_fitting_subgroup_matches_element_by_element_reference(name):
    G = cases()[name]
    fit = Subgroup(G, fitting_mask(G))
    assert np.array_equal(fit.mask, ref_fitting_subgroup(G).mask)
    assert fit.is_normal and is_nilpotent_subgroup(G, fit)


@pytest.mark.parametrize("name", NAMES)
def test_class_representatives_are_class_minima(name):
    G = cases()[name]
    reps = [int(x) for x in _class_representatives(G)]
    want = ref_conjugacy_classes(G)
    assert reps == sorted(reps)
    assert [G.element_at(r).key for r in reps] == [min(c) for c in want]


def p_group_names() -> list:
    return [name for name in NAMES if cases()[name].is_p_group() is not None]


@pytest.mark.parametrize("name", p_group_names())
def test_prop_2_11_products_match_key_set_reference(name):
    G = cases()[name]
    w = decomposition_witness(G)
    product = _ordered_cyclic_product(G, w.rhos)
    assert {G._keys[i] for i in np.flatnonzero(product)} == ref_ordered_cyclic_product_keys(
        G, map(G.element_at, w.rhos)
    )
    assert check_prop_2_11(G, w) == ref_prop_2_11(G, w)
    # a one-factor witness misses elements in most groups
    short = type(w)(w.generators, w.c, w.shapes[:1], w.rhos[:1], w.K, 1)
    assert check_prop_2_11(G, short) == ref_prop_2_11(G, short)


@pytest.mark.parametrize("name", sorted(action_cases()))
def test_c4_2_product_matches_key_set_reference(name):
    fx = action_cases()[name]
    assert outcome(checks.check_4_2, fx) == outcome(ref_check_4_2, fx)


def test_action_cases_cover_corpus_and_ladder():
    assert "A125" in action_cases()
    assert set(load_corpus().actions) < set(action_cases())


@pytest.mark.parametrize("name", sorted(action_cases()))
def test_invariant_normal_family_matches_reference(name):
    fx = action_cases()[name]
    images = [np.asarray(phi.image_indices) for phi in fx.generators]
    got = checks._invariant_normal_family(fx.group, images)
    assert [keys_of(N) for N in got] == ref_invariant_normal_family(fx)


def height_or_refusal(height, G):
    try:
        return height(G)
    except NotSolvable as exc:
        return NotSolvable, str(exc)


@pytest.mark.parametrize("name", NAMES)
def test_fitting_height_matches_quotient_walk(name):
    G = cases()[name]
    assert height_or_refusal(fitting_height, G) == height_or_refusal(ref_fitting_height, G)


def test_fitting_heights_cover_every_outcome():
    heights = {name: height_or_refusal(fitting_height, cases()[name]) for name in NAMES}
    assert heights["S4"] == 3 and heights["A4"] == 2 and heights["ladder C3wrC3"] == 1
    assert heights["ladder S5"][0] is NotSolvable


def fitting_steps_match_quotient_reference(G) -> list:
    """Orders of the upper Fitting series terms, each step checked against its quotient.

    At every term F, the left Engel walk _fitting_mod(G, F) must mark the
    preimage of ref_fitting_subgroup of the QuotientGroup G/F.  A step that
    stalls below G ends the series and is recorded as it is.
    """
    F = series._closure(G, ())
    orders = []
    while not F.all():
        Q = QuotientGroup(G, Subgroup(G, F))
        fit = ref_fitting_subgroup(Q.group)
        got = series._fitting_mod(G, F)
        assert got.tolist() == [fit.contains(Q.project(x)) for x in G.elements()]
        orders.append(int(got.sum()))
        if np.array_equal(got, F):
            break
        F = got
    return orders


def test_fitting_walk_steps_s4_through_v4_and_a4():
    G = cases()["S4"]
    assert fitting_steps_match_quotient_reference(G) == [4, 12, 24]
    assert fitting_height(G) == 3


@pytest.mark.parametrize(
    "gens",
    [
        (("a", (1, 2, 0, 3, 4)), ("b", (1, 2, 3, 4, 0))),  # A5 = <(1 2 3), (1 2 3 4 5)>
        (("a", (1, 0, 2, 3, 4)), ("b", (1, 2, 3, 4, 0))),  # S5 = <(1 2), (1 2 3 4 5)>
    ],
)
def test_fitting_walk_refuses_a5_and_s5_within_a_bound(gens):
    G = build_group(PermutationGenSet(5, gens))
    start = time.perf_counter()
    with pytest.raises(NotSolvable):
        fitting_height(G)
    assert time.perf_counter() - start < 1.0
    # every nontrivial element of a group with trivial Fitting subgroup walks
    # its full |G| - 1 steps or until it repeats, and none is Engel
    assert series._fitting_mod(G, series._closure(G, ())).sum() == 1


def ref_engel_steps_mod(G, x, F) -> int | None:
    """Steps until every [g, x, ..., x] lies in the subgroup F, one handle at a time, else None."""
    worst = 1
    for g in G.elements():
        y = G.commutator(g, x)
        k = 1
        seen = {y.key}
        while y not in F:
            y = G.commutator(y, x)
            k += 1
            if y.key in seen:
                return None  # a cycle outside F never reaches it
            seen.add(y.key)
        worst = max(worst, k)
    return worst


def fitting_and_derived_terms(G) -> dict:
    """Masks of the upper Fitting series (to its end or stall) and the derived series, by bytes."""
    F = series._closure(G, ())
    terms = {F.tobytes(): F}
    while not F.all():
        nxt = series._fitting_mod(G, F)
        if np.array_equal(nxt, F):
            break
        F = terms[nxt.tobytes()] = nxt
    for term in derived_series(G).terms:
        terms[term.mask.tobytes()] = term.mask
    return terms


@pytest.mark.parametrize("name", NAMES)
def test_engel_walk_modulo_every_series_term_matches_the_handle_loop(name):
    G = cases()[name]
    for F in fitting_and_derived_terms(G).values():
        sub = Subgroup(G, F)
        for x in G.elements():
            steps, reached = kernels._engel_walk(G, G.index_of(x), F)
            assert (steps if reached else None) == ref_engel_steps_mod(G, x, sub)


@pytest.mark.parametrize("name", sorted(action_cases()))
def test_c4_6_matches_quotient_group_route(name):
    fx = action_cases()[name]
    assert outcome(checks.check_4_6, fx) == outcome(ref_check_4_6, fx)


@functools.cache
def inner_action_cases() -> dict:
    """Conjugation by each generator of the non-abelian groups: actions that are not coprime."""
    out = {}
    for name in ("S3", "S4", "A4", "D8pc", "Q8perm", "Heis27", "D8xC3", "ladder C3wrC3"):
        G = cases()[name]
        for g in G.generators:
            out[f"{name} by {g!r}"] = ActionFixture(name, G, (inner_automorphism(G, g),))
    return out


@pytest.mark.parametrize("name", sorted(inner_action_cases()))
def test_c4_6_statement_matches_quotient_group_route_without_coprimality(name, monkeypatch):
    # without the coprime hypothesis the statement can fail, so this compares
    # the failure details as well
    monkeypatch.setattr(checks, "_needs_coprime", lambda fx: None)
    fx = inner_action_cases()[name]
    assert checks.check_4_6(fx) == ref_check_4_6(fx)


def test_c4_6_without_coprimality_fails_somewhere(monkeypatch):
    monkeypatch.setattr(checks, "_needs_coprime", lambda fx: None)
    verdicts = [checks.check_4_6(fx) for fx in inner_action_cases().values()]
    assert any(v.ok for v in verdicts) and not all(v.ok for v in verdicts)


def involution_cases() -> dict:
    """The single-involution actions, and the identity map of each odd-order group."""
    out = {}
    for name, fx in action_cases().items():
        if fx.single_involution() is not None:
            out[name] = (fx.group, fx.single_involution())
    for name in NAMES:
        G = cases()[name]
        if G.order % 2:
            out[f"{name} identity"] = (G, Automorphism.identity_of(G))
    return out


@pytest.mark.parametrize("name", sorted(involution_cases()))
def test_c4_12_and_t4_4_match_handle_references(name):
    G, a = involution_cases()[name]
    assert checks.check_4_12(G, a) == ref_check_4_12(G, a)
    assert checks.check_theorem_4_4_instance(G, a) == ref_check_4_4(G, a)


def test_involution_cases_include_nontrivial_involutions():
    assert {"A125", "invC9", "invC33"} <= set(involution_cases())


@pytest.mark.parametrize("name", p_group_names())
def test_decomposition_witness_matches_long_commutators(name):
    G = cases()[name]
    w = decomposition_witness(G)
    gens = [G.element_at(g) for g in w.generators]
    rhos = [G.element_at(r) for r in w.rhos]
    assert rhos == [G.long_commutator([gens[t - 1] for t in shape]) for shape in w.shapes]
    assert w.K == max(ref_element_order(G, r) for r in rhos)


@pytest.mark.parametrize("name", NAMES)
def test_element_orders_match_the_handle_loop(name):
    G = cases()[name]
    want = [ref_element_order(G, a) for a in G.elements()]
    orders = G.element_orders()
    assert orders.tolist() == want
    assert not orders.flags.writeable
    assert G.element_orders() is orders
    assert [G.element_order(a) for a in G.elements()] == want
    assert G.exponent() == math.lcm(*want)


def test_element_order_cases_cover_every_backend():
    assert {cases()[name].backend for name in NAMES} == {"pc", "perm", "quotient"}


def test_fitting_and_c4_6_make_one_normal_closure_per_class_at_most(monkeypatch):
    fx = action_cases()["A125"]
    G = fx.group
    n_classes = len(ref_conjugacy_classes(G))
    calls = []

    def counted(G, x, *base, _orig=series._class_closure):
        calls.append(x)
        return _orig(G, x, *base)

    monkeypatch.setattr(series, "_class_closure", counted)
    monkeypatch.setattr(checks, "_class_closure", counted)
    fitting_mask(G)
    # the Fitting subgroup is found by the left Engel walk, which closes no class
    assert calls == []
    calls.clear()
    assert checks.check_4_6(fx).ok
    assert 0 < len(calls) <= n_classes


def test_c4_6_takes_one_class_closure_per_class_of_cyclic_subgroups(monkeypatch):
    # Heis125 has 29 conjugacy classes; the powers x^k (k prime to 5) of one
    # element share its closure, which leaves 8 classes of cyclic subgroups,
    # and their 8 closures are distinct
    fx = action_cases()["A125"]
    G = fx.group
    assert len(ref_conjugacy_classes(G)) == 29
    closures = []

    def counted(G, x, *base, _orig=series._class_closure):
        closures.append(_orig(G, x, *base))
        return closures[-1]

    monkeypatch.setattr(checks, "_class_closure", counted)
    assert checks.check_4_6(fx).ok
    assert len(closures) == 8
    assert len({mask.tobytes() for mask in closures}) == 8


@pytest.mark.parametrize("name", NAMES)
def test_cyclic_class_representatives_pick_one_per_class_of_cyclic_subgroups(name):
    # <x> and <y> are conjugate exactly when y is conjugate to a generator
    # x^k of <x>, so the union of the classes of those generators names the
    # class of <x>; the representatives name each class once, as minima in order
    G = cases()[name]
    class_of = {key: c for c in ref_conjugacy_classes(G) for key in c}

    def label(x):
        n = G.element_order(x)
        gens = [G.power(x, k) for k in range(1, n + 1) if math.gcd(k, n) == 1]
        return frozenset().union(*(class_of[g.key] for g in gens))

    reps = kernels._cyclic_class_representatives(G)
    assert list(reps) == sorted(reps)
    assert set(reps.tolist()) <= set(_class_representatives(G).tolist())
    rep_labels = [label(G.element_at(r)) for r in reps]
    assert len(set(rep_labels)) == len(rep_labels)
    assert set(rep_labels) == {label(x) for x in G.elements()}


@pytest.mark.parametrize("name", sorted(load_corpus().groups))
def test_inner_automorphisms_match_handle_conjugation(name, monkeypatch):
    G = cases()[name]
    want = {
        g.key: tuple(G.index_of(G.conjugate(x, g)) for x in G.elements()) for g in G.elements()
    }
    calls = []
    orig = FiniteGroup.multiply
    monkeypatch.setattr(FiniteGroup, "multiply", lambda self, *a: calls.append(a) or orig(self, *a))
    for g in G.elements():
        assert inner_automorphism(G, g).image_indices == want[g.key]
    assert calls == []


# -- the dimension series against its defining product ----------------------------
#
# The library builds D_i by Lazard's recurrence on generators; ref_dimension
# closes, one handle at a time, the p^k-th powers of every element of every
# handle-built lower central term γ_j with j·p^k ≥ i.


def class3_order243() -> FiniteGroup:
    """The benchmark's order-243 class-3 group (perfbench/build.grp), restated."""
    return build_group(
        PcPresentation(3, 5, {}, {(2, 1): ((3, 1),), (3, 1): ((4, 1),), (3, 2): ((5, 1),)})
    )


def unitriangular_4_2() -> FiniteGroup:
    """UT(4, F_2) on E12, E23, E34, E13, E24, E14: 24 of its squares have a non-central image."""
    g = {k: ((k, 1),) for k in (4, 5, 6)}
    return build_group(
        PcPresentation(2, 6, {}, {(2, 1): g[4], (3, 2): g[5], (4, 3): g[6], (5, 1): g[6]})
    )


def assert_dimension_matches_defining_product(G):
    p = G.is_p_group()[0]
    assert [keys_of(t) for t in dimension_series(G).terms] == ref_dimension(G, p)


@pytest.mark.parametrize(
    "build,orders",
    [(class3_order243, [243, 27, 9, 1]), (unitriangular_4_2, [64, 8, 2, 1])],
)
def test_dimension_series_matches_defining_product_on_restated_groups(build, orders):
    G = build()
    assert dimension_series(G).orders() == orders
    assert_dimension_matches_defining_product(G)


def maximal_class_625_on_two_generators() -> FiniteGroup:
    """Order 5^4, class 3, exponent 5 ([b, a] = c, [c, a] = d), generated by a and b only.

    Over a and b the commutators of generators span only <c>, and no p-th
    power is nontrivial, so D_2 = <c, d> is reached only by the normal closure.
    """
    P = build_group(PcPresentation(5, 4, {}, {(2, 1): ((3, 1),), (3, 1): ((4, 1),)}))
    a, b = (x.key for x in P.generators[:2])
    return FiniteGroup("pc", P._keys, P.table(), [("a", a), ("b", b)], P._repr_key)


def test_dimension_series_closes_under_conjugation_over_few_generators():
    G = maximal_class_625_on_two_generators()
    assert len(G.generators) == 2
    dim = dimension_series(G)
    assert dim.orders() == [625, 25, 5, 1]
    # exponent 5 and class 3 < 5: every D_i is γ_i
    assert dim.terms == lower_central_series(G).terms


def accepted_decide_presentations() -> dict:
    out = {}
    for label, pres in DECIDE_PRESENTATIONS.items():
        try:
            out[label] = build_group(pres)
        except InconsistentPresentation:
            pass
    return out


def test_dimension_series_matches_defining_product_on_accepted_decide_presentations():
    accepted = accepted_decide_presentations()
    assert 0 < len(accepted) < len(DECIDE_PRESENTATIONS)
    for G in accepted.values():
        assert_dimension_matches_defining_product(G)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pc_presentations(primes=(2, 3, 5, 7)))
def test_dimension_series_matches_defining_product_on_random_pc_groups(pres):
    try:
        G = build_group(pres)
    except InconsistentPresentation:
        return
    assert_dimension_matches_defining_product(G)


def test_dimension_series_never_walks_the_lower_central_series(monkeypatch):
    def refuse(*args):
        raise AssertionError("the dimension series walked the lower central series")

    monkeypatch.setattr(series, "lower_central_series", refuse)
    monkeypatch.setattr(series, "commutator_subgroup", refuse)
    for G in (class3_order243(), unitriangular_4_2(), *accepted_decide_presentations().values()):
        dimension_series(G)
        assert ("series", "lower-central") not in G._lattice


@pytest.mark.parametrize(
    "pres,orders",
    [
        (PcPresentation(2, 11), [2048, 1]),
        (  # class 2: [g_{2i+2}, g_{2i+1}] = g11 for i = 0..4
            PcPresentation(2, 11, {}, {(2 * i + 2, 2 * i + 1): ((11, 1),) for i in range(5)}),
            [2048, 2, 1],
        ),
    ],
)
def test_dimension_series_near_the_cap_peaks_at_a_few_index_arrays(pres, orders):
    G = build_group(pres)
    G.table(), G.inverse_indices()
    tracemalloc.start()
    try:
        got = dimension_series(G).orders()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == orders
    # 32 arrays of |G| int64 entries, 0.5 MiB; the table alone is 32 MiB
    assert peak <= 32 * 8 * G.order


# -- random permutation groups on at most five points ---------------------------------


@st.composite
def perm_groups(draw):
    degree = draw(st.integers(1, 5))
    ngens = draw(st.integers(1, 3))
    gens = tuple(
        (f"x{i}", tuple(draw(st.permutations(range(degree))))) for i in range(ngens)
    )
    G = build_group(PermutationGenSet(degree, gens))
    picks = draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3))
    return G, [G.element_at(i) for i in picks]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(perm_groups())
def test_random_permutation_groups_match_reference(case):
    G, picks = case
    H = generated_subgroup(G, picks)
    assert keys_of(H) == ref_closure(G, picks)
    N = normal_closure(G, picks)
    assert keys_of(N) == ref_normal_closure(G, picks)
    whole = whole_subgroup(G)
    assert keys_of(commutator_subgroup(G, H, whole)) == ref_commutator(
        G, keys_of(H), keys_of(whole)
    )
    assert keys_of(power_subgroup(G, H, 2)) == ref_power(G, keys_of(H), 2)
    assert [keys_of(t) for t in lower_central_series(G).terms] == ref_lower_central(G)
    assert [keys_of(t) for t in derived_series(G).terms] == ref_derived(G)
    assert is_nilpotent_subgroup(G, N) == ref_is_nilpotent(G, keys_of(N))
    assert is_nilpotent_subgroup(G, H) == ref_is_nilpotent(G, keys_of(H))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(perm_groups())
def test_random_permutation_groups_fitting_matches_reference(case):
    G, _ = case
    assert np.array_equal(fitting_mask(G), ref_fitting_subgroup(G).mask)
    reps = [G.element_at(int(x)).key for x in _class_representatives(G)]
    assert reps == [min(c) for c in ref_conjugacy_classes(G)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(perm_groups())
def test_random_permutation_groups_fitting_walk_matches_quotient_reference(case):
    G, _ = case
    fitting_steps_match_quotient_reference(G)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(perm_groups())
def test_random_permutation_group_products_match_key_sets(case):
    G, picks = case
    picked = [x.idx for x in picks]
    assert {G._keys[i] for i in np.flatnonzero(_ordered_cyclic_product(G, picked))} == (
        ref_ordered_cyclic_product_keys(G, picks)
    )
    left = np.flatnonzero(generated_subgroup(G, picks[:1]).mask)
    right = [G.index_of(x) for x in picks]
    want = {mul_keys(G, G._keys[a], G._keys[b]) for a in left for b in right}
    assert {G._keys[i] for i in np.flatnonzero(_product_mask(G, left, right))} == want


# -- Subgroup refuses masks that are not subgroups ------------------------------------


def test_subgroup_mask_without_identity_raises():
    G = cases()["S3"]
    mask = whole_subgroup(G).mask.copy()
    mask[G.index_of(G.identity)] = False
    with pytest.raises(ForeignElement, match="missing the identity"):
        Subgroup(G, mask)


def test_subgroup_mask_not_closed_raises():
    G = cases()["S3"]
    mask = generated_subgroup(G, [G.generator_by_name("a")]).mask.copy()
    mask[G.index_of(G.generator_by_name("b"))] = True
    with pytest.raises(ForeignElement, match="is not closed"):
        Subgroup(G, mask)


def test_subgroup_mask_of_wrong_length_raises():
    G = cases()["S3"]
    with pytest.raises(ForeignElement, match="does not index"):
        Subgroup(G, [True] * (G.order + 1))


def test_subgroup_mask_is_read_only_and_indices_follow_it():
    G = cases()["S4"]
    H = derived_series(G).terms[1]
    assert not H.mask.flags.writeable
    assert [G.index_of(x) for x in H.elements()] == list(H.idx)
    assert all(H.mask[i] == (G.element_at(i) in H) for i in range(G.order))


# -- kernels spanning many table blocks ------------------------------------------------


@functools.cache
def c2_11() -> FiniteGroup:
    return build_group(PcPresentation(2, 11))


@functools.cache
def s6() -> FiniteGroup:
    gens = (("a", perm_from_cycles(6, [[1, 2]])), ("b", perm_from_cycles(6, [[1, 2, 3, 4, 5, 6]])))
    return build_group(PermutationGenSet(6, gens))


def ref_first_escape(G, mask):
    """The row loop: the first (a, b) in row-major order with a·b outside the mask."""
    T = G.table()
    idx = np.flatnonzero(mask)
    for a in idx:
        inside = mask[T[a, idx]]
        if not inside.all():
            return a, idx[np.argmin(inside)]
    return None


def point_images(G) -> np.ndarray:
    return np.array([key[0] for key in G._keys])


# Unions of cosets of a subgroup whose indices come first: its rows are
# closed and the first escape is on the first row of the next coset.
UNCLOSED = [
    # <g3..g11> with its cosets by g2 and g1: the first escape is in block 103 of 308
    (c2_11, lambda G: np.arange(G.order) < 1536, None),
    # the stabilizer of a point with one of its cosets: block 4 of 8
    (s6, lambda G: point_images(G) <= 1, None),
    # the same in blocks of 120 rows, so that the escapes fill the last block
    (s6, lambda G: point_images(G) <= 1, 240 * 120),
]


@pytest.mark.parametrize("make,unclosed,block", UNCLOSED)
def test_unclosed_mask_names_the_row_loops_first_escape(make, unclosed, block, monkeypatch):
    G = make()
    mask = unclosed(G)
    if block is not None:
        monkeypatch.setattr(kernels, "_BLOCK", block)
    a, b = ref_first_escape(G, mask)
    with pytest.raises(ForeignElement) as err:
        Subgroup(G, mask)
    assert str(err.value) == (
        f"candidate set is not closed: {G.element_at(a)!r} * {G.element_at(b)!r} escapes"
    )


# -- the series stay off the handle path ------------------------------------------


def test_series_make_no_handle_arithmetic(monkeypatch):
    G = cases()["ladder Heis125"]
    calls = {"multiply": 0, "commutator": 0, "power": 0}
    for attr in calls:
        orig = getattr(FiniteGroup, attr)

        def counted(self, *args, _orig=orig, _attr=attr):
            calls[_attr] += 1
            return _orig(self, *args)

        monkeypatch.setattr(FiniteGroup, attr, counted)
    lower_central_series(G)
    derived_series(G)
    dimension_series(G)
    assert fitting_height(G) == 1
    assert checks.check_collection_formula(G).ok
    assert calls == {"multiply": 0, "commutator": 0, "power": 0}


# -- sympy's permutation groups -------------------------------------------------------


def perm_cases() -> list:
    return [name for name in NAMES if cases()[name].backend == "perm"]


@pytest.mark.parametrize("name", perm_cases())
def test_series_orders_match_sympy(name):
    G = cases()[name]
    S = sympy_group(G)
    assert S.order() == G.order
    lcs = lower_central_series(G)
    der = derived_series(G)
    assert lcs.orders() == [H.order() for H in S.lower_central_series()]
    assert der.orders() == [H.order() for H in S.derived_series()]
    assert lcs.reaches_trivial() == S.is_nilpotent
    assert der.reaches_trivial() == S.is_solvable


def sympy_group(G):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    degree = len(G.identity.key)
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.key), size=degree) for g in G.generators]
    )


def assert_classes_match_sympy(G):
    """The classes of the representatives partition G as sympy's classes do."""
    T = G.table()
    inv = G.inverse_indices()
    everything = np.arange(G.order)
    covered = np.zeros(G.order, dtype=int)
    sizes = []
    for x in _class_representatives(G):
        members_of_class = np.unique(T[T[inv, x], everything])
        assert members_of_class[0] == x
        covered[members_of_class] += 1
        sizes.append(len(members_of_class))
    assert (covered == 1).all()
    want = sorted(len(c) for c in sympy_group(G).conjugacy_classes())
    assert sorted(sizes) == want


@pytest.mark.parametrize("name", perm_cases())
def test_class_representatives_match_sympy(name):
    assert_classes_match_sympy(cases()[name])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(perm_groups())
def test_random_permutation_group_classes_match_sympy(case):
    G, _ = case
    assert_classes_match_sympy(G)
