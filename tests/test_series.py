"""Series layer: frozen small-group values plus defining-formula oracles."""

import tracemalloc

import pytest

from grouplab import series
from grouplab.errors import (
    BudgetExceeded,
    MalformedSpec,
    MismatchedParent,
    NotAPGroup,
    NotNormal,
    NotSolvable,
)
from grouplab.groups import (
    Automorphism,
    PcPresentation,
    PermutationGenSet,
    build_group,
    perm_from_cycles,
)
from grouplab.liering import build_dl
from grouplab.series import (
    NormalSeries,
    QuotientGroup,
    Subgroup,
    _closure,
    _fitting_mod,
    centralizer,
    commutator_subgroup,
    derived_series,
    dimension_series,
    fitting_height,
    generated_subgroup,
    is_nilpotent_subgroup,
    is_powerful,
    lower_central_series,
    normal_closure,
    power_subgroup,
    structure_predicates,
    trivial_subgroup,
    verify_np_series,
    whole_subgroup,
)


def pc(p, n, powers=None, comms=None):
    return build_group(PcPresentation(p, n, powers or {}, comms or {}))


def d8():
    return pc(2, 3, {2: ((3, 1),)}, {(2, 1): ((3, 1),)})


def c4():
    return pc(2, 2, {1: ((2, 1),)})


def c9():
    return pc(3, 2, {1: ((2, 1),)})


def heis27():
    return pc(3, 3, {}, {(2, 1): ((3, 1),)})


def es27():
    return pc(3, 3, {1: ((3, 1),)}, {(2, 1): ((3, 1),)})


def d16():
    return pc(
        2,
        4,
        {2: ((3, 1),), 3: ((4, 1),)},
        {(2, 1): ((3, 1), (4, 1)), (3, 1): ((4, 1),)},
    )


def perm(degree, named):
    gens = tuple((n, perm_from_cycles(degree, c)) for n, c in named)
    return build_group(PermutationGenSet(degree, gens))


def s3():
    return perm(3, [("a", [[1, 2]]), ("b", [[1, 2, 3]])])


def s4():
    return perm(4, [("a", [[1, 2]]), ("b", [[1, 2, 3, 4]])])


def a4():
    return perm(4, [("a", [[1, 2, 3]]), ("b", [[2, 3, 4]])])


def a5():
    return perm(5, [("a", [[1, 2, 3, 4, 5]]), ("b", [[1, 2, 3]])])


# -- subgroup generation -----------------------------------------------


def test_generated_trivial_and_whole():
    G = s3()
    assert generated_subgroup(G, []).order == 1
    assert generated_subgroup(G, G.generators).is_whole
    assert trivial_subgroup(G).is_trivial
    assert whole_subgroup(G).is_normal


def test_generated_a3():
    G = s3()
    b = G.generator_by_name("b")
    H = generated_subgroup(G, [b])
    assert H.order == 3
    assert H.is_normal
    assert b in H and G.generator_by_name("a") not in H


def test_normal_closure_klein():
    G = s4()
    x = G.element(perm_from_cycles(4, [[1, 2], [3, 4]]))
    V = normal_closure(G, [x])
    assert V.order == 4
    assert V.is_normal
    assert all(G.element_order(e) in (1, 2) for e in V.elements())


def test_normal_closure_vs_generated():
    G = s3()
    a = G.generator_by_name("a")
    assert generated_subgroup(G, [a]).order == 2
    assert normal_closure(G, [a]).is_whole  # transpositions generate S_3


# -- commutator and power subgroups ------------------------------------


def test_commutator_subgroup_values():
    G = s3()
    W = whole_subgroup(G)
    assert commutator_subgroup(G, W, trivial_subgroup(G)).is_trivial
    assert commutator_subgroup(G, W, W).order == 3
    D = d8()
    WD = whole_subgroup(D)
    derived = commutator_subgroup(D, WD, WD)
    assert derived.order == 2
    assert derived.contains(D.generator_by_name("g3"))


def test_power_subgroup_values():
    D = d8()
    W = whole_subgroup(D)
    assert power_subgroup(D, W, 1) == W
    sq = power_subgroup(D, W, 2)
    assert sq.order == 2 and sq.contains(D.generator_by_name("g3"))
    C = c9()
    assert power_subgroup(C, whole_subgroup(C), 3).order == 3
    with pytest.raises(MalformedSpec, match="positive exponent, got 0"):
        power_subgroup(D, W, 0)


def test_mismatched_parent():
    G, H = s3(), s3()
    with pytest.raises(MismatchedParent):
        commutator_subgroup(G, whole_subgroup(G), whole_subgroup(H))
    with pytest.raises(MismatchedParent):
        power_subgroup(G, whole_subgroup(H), 2)


# -- lower central and derived series ----------------------------------


def test_lcs_abelian():
    assert lower_central_series(c9()).orders() == [9, 1]


def test_lcs_d8():
    assert lower_central_series(d8()).orders() == [8, 2, 1]


def test_lcs_s4_stabilizes():
    s = lower_central_series(s4())
    assert s.orders() == [24, 12]
    assert not s.reaches_trivial()
    assert s.term(7).order == 12  # stabilized tail


def test_derived_s4():
    assert derived_series(s4()).orders() == [24, 12, 4, 1]


def test_series_term_indexing():
    s = lower_central_series(d8())
    assert s.term(1).is_whole
    assert s.term(3).is_trivial
    assert s.term(9).is_trivial
    with pytest.raises(MalformedSpec, match="1-based, got 0"):
        s.term(0)


# -- dimension series ---------------------------------------------------


FROZEN_DIMENSION_ORDERS = [
    (d8, 2, [8, 2, 1]),
    (c4, 2, [4, 2, 1]),
    (c9, 3, [9, 3, 3, 1]),
    (heis27, 3, [27, 3, 1]),
    (es27, 3, [27, 3, 3, 1]),
    (d16, 2, [16, 4, 2, 2, 1]),
]


@pytest.mark.parametrize("make,p,expected", FROZEN_DIMENSION_ORDERS)
def test_dimension_series_frozen_orders(make, p, expected):
    G = make()
    assert G.is_p_group()[0] == p
    assert dimension_series(G).orders() == expected


def test_dimension_series_elementary_abelian():
    G = pc(3, 2)  # C_3 x C_3
    assert dimension_series(G).orders() == [9, 1]


def test_dimension_series_cp():
    assert dimension_series(pc(5, 1)).orders() == [5, 1]


@pytest.mark.parametrize("make,p", [(d8, 2), (c9, 3), (heis27, 3)])
def test_dimension_series_defining_product_oracle(make, p):
    # Recompute every D_i as the closure over ALL pairs (j, k) with j*p^k >= i,
    # not just the minimal power per term, straight from the definition.
    G = make()
    series = dimension_series(G)
    gamma = lower_central_series(G)
    kmax = 1
    while p**kmax < G.order:
        kmax += 1
    for i, term in enumerate(series.terms, start=1):
        gens = set()
        for j in range(1, len(gamma.terms) + 2):
            for k in range(0, kmax + 1):
                if j * p**k >= i:
                    for x in gamma.term(j).elements():
                        gens.add(G.power(x, p**k))
        oracle = generated_subgroup(G, gens)
        assert oracle == term, f"D_{i} disagrees with the defining product"


def test_dimension_quotients_have_exponent_p():
    for make, p in [(d8, 2), (c9, 3), (es27, 3), (d16, 2)]:
        G = make()
        series = dimension_series(G)
        for i in range(1, len(series.terms)):
            upper, lower = series.terms[i - 1], series.terms[i]
            for x in upper.elements():
                assert lower.contains(G.power(x, p))


def test_dimension_series_requires_p_group():
    with pytest.raises(NotAPGroup):
        dimension_series(s3())


def test_series_are_kept_on_the_group():
    G = heis27()
    assert dimension_series(G) is build_dl(G).series
    assert dimension_series(G) is dimension_series(G)
    assert lower_central_series(G) is lower_central_series(G)
    assert derived_series(G) is derived_series(G)


def test_dimension_series_over_budget_keeps_nothing(monkeypatch):
    G = heis27()
    monkeypatch.setattr(series, "SERIES_LENGTH_CAP", 1)
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            dimension_series(G)
    monkeypatch.undo()
    assert dimension_series(G).orders() == [27, 3, 1]


def test_lower_central_series_memory_is_bounded_by_the_block():
    G = pc(2, 11)
    assert G.order == 2048
    tracemalloc.start()
    try:
        lcs = lower_central_series(G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lcs.orders() == [2048, 1]
    assert peak < 2**20


def test_normal_closure_memory_is_bounded_by_its_generators():
    # only the generators the span keeps are conjugated, never a |G| x len(gens) block
    G = pc(2, 11)
    given = G.elements()[:512]
    tracemalloc.start()
    try:
        N = normal_closure(G, given)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert N.order == 512 and N.is_normal
    assert peak < 2 * 2**20


# -- N_p-series verification --------------------------------------------


def test_np_series_dimension_passes():
    for make, p, _ in FROZEN_DIMENSION_ORDERS:
        G = make()
        verdict = verify_np_series(G, dimension_series(G), p)
        assert verdict.ok, verdict.detail


def test_np_series_heis_lcs_passes():
    G = heis27()
    assert verify_np_series(G, lower_central_series(G), 3).ok


def test_np_series_bad_chain_fails():
    G = d8()
    W = whole_subgroup(G)
    chain = NormalSeries(G, "custom", (W, W, trivial_subgroup(G)))
    verdict = verify_np_series(G, chain, 2)
    assert not verdict.ok
    assert "S_3" in verdict.detail


def test_np_series_gamma_not_np_for_c4():
    # C_4: gamma series is [4, 1]; squares of S_1 escape S_2 = 1.
    G = c4()
    verdict = verify_np_series(G, lower_central_series(G), 2)
    assert not verdict.ok
    assert "^2" in verdict.detail


# -- quotient groups -----------------------------------------------------


def test_quotient_by_trivial():
    G = s3()
    Q = QuotientGroup(G, trivial_subgroup(G))
    assert Q.group.order == G.order


def test_quotient_s4_mod_klein():
    G = s4()
    x = G.element(perm_from_cycles(4, [[1, 2], [3, 4]]))
    V = normal_closure(G, [x])
    Q = QuotientGroup(G, V)
    assert Q.group.order == 6
    assert not structure_predicates(Q.group).is_nilpotent  # nonabelian of order 6
    assert Q.group.order * V.order == G.order


def test_quotient_d8():
    G = d8()
    Z = generated_subgroup(G, [G.generator_by_name("g3")])
    Q = QuotientGroup(G, Z)
    assert Q.group.order == 4
    assert Q.group.exponent() == 2


def test_quotient_projection_is_homomorphism():
    G = d8()
    Z = generated_subgroup(G, [G.generator_by_name("g3")])
    Q = QuotientGroup(G, Z)
    for a in G.elements():
        for b in G.elements():
            assert Q.project(G.multiply(a, b)) == Q.group.multiply(Q.project(a), Q.project(b))
    for qx in Q.group.elements():
        assert Q.project(Q.lift(qx)) == qx


def test_quotient_requires_normal():
    G = s3()
    H = generated_subgroup(G, [G.generator_by_name("a")])
    assert not H.is_normal
    with pytest.raises(NotNormal):
        QuotientGroup(G, H)


# -- centralizers --------------------------------------------------------


def test_centralizer_empty_is_whole():
    G = c9()
    assert centralizer(G, []).is_whole


def test_centralizer_inversion_on_c9():
    G = c9()
    g1, g2 = G.generators
    inv = Automorphism(G, [G.power(g1, 8), G.power(g2, 8)])
    assert centralizer(G, [inv]).is_trivial


def test_centralizer_partial_inversion_on_c3c3():
    G = pc(3, 2)
    g1, g2 = G.generators
    phi = Automorphism(G, [G.power(g1, 2), g2])  # inverts first coordinate only
    C = centralizer(G, [phi])
    assert C.order == 3
    assert g2 in C and g1 not in C


def test_centralizer_mismatched():
    G, H = c9(), c9()
    phi = Automorphism(H, [H.power(H.generators[0], 8), H.power(H.generators[1], 8)])
    with pytest.raises(MismatchedParent):
        centralizer(G, [phi])


# -- fitting subgroup and height -----------------------------------------


def fitting_term(G):
    """The Fitting subgroup, F_1 of the upper Fitting series: _fitting_mod modulo 1."""
    return Subgroup(G, _fitting_mod(G, _closure(G, ())))


def test_fitting_s3():
    G = s3()
    F = fitting_term(G)
    assert F.order == 3
    assert fitting_height(G) == 2


def test_fitting_s4():
    G = s4()
    F = fitting_term(G)
    assert F.order == 4  # the Klein four-group
    assert fitting_height(G) == 3


def test_fitting_a4():
    assert fitting_height(a4()) == 2


def test_fitting_nilpotent_is_one():
    for make in (d8, c9, heis27):
        G = make()
        assert fitting_term(G).is_whole
        assert fitting_height(G) == 1


def test_fitting_insolvable_rejected():
    with pytest.raises(NotSolvable):
        fitting_height(a5())


def test_fitting_insolvable_above_a_nontrivial_fitting_subgroup_names_the_group():
    # F(A5 x C3) = C3, and the quotient A5 has a trivial Fitting subgroup
    G = perm(8, [("a", [[1, 2, 3, 4, 5]]), ("b", [[1, 2, 3]]), ("c", [[6, 7, 8]])])
    assert fitting_term(G).order == 3
    with pytest.raises(NotSolvable, match="group of order 180 is not solvable"):
        fitting_height(G)


def test_is_nilpotent_subgroup():
    G = s4()
    x = G.element(perm_from_cycles(4, [[1, 2], [3, 4]]))
    V = normal_closure(G, [x])
    assert is_nilpotent_subgroup(G, V)
    assert not is_nilpotent_subgroup(G, whole_subgroup(G))


# -- powerful predicate ---------------------------------------------------


def test_is_powerful():
    assert is_powerful(c4())
    assert is_powerful(c9())
    assert not is_powerful(d8())
    assert not is_powerful(heis27())  # exponent 3, nontrivial derived
    assert is_powerful(es27())  # derived subgroup = cube subgroup
    with pytest.raises(NotAPGroup):
        is_powerful(s3())


# -- structure profile -----------------------------------------------------


def test_structure_predicates():
    prof = structure_predicates(c9())
    assert prof.is_nilpotent and prof.nilpotency_class == 1
    assert prof.p_group == (3, 2)

    prof = structure_predicates(d8())
    assert prof.nilpotency_class == 2 and prof.derived_length == 2

    prof = structure_predicates(s4())
    assert not prof.is_nilpotent and prof.nilpotency_class is None
    assert prof.is_solvable and prof.derived_length == 3
    assert prof.p_group is None

    prof = structure_predicates(a5())
    assert not prof.is_solvable and prof.derived_length is None


def test_fitting_height_one_iff_nilpotent():
    for make in (c9, d8, heis27, s3, s4, a4):
        G = make()
        prof = structure_predicates(G)
        assert (fitting_height(G) == 1) == prof.is_nilpotent
