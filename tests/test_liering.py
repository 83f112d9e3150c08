"""Graded algebra layer: frozen dimensions, hand-worked brackets, eigensplits."""

import numpy as np
import pytest

from grouplab import liering
from grouplab.errors import (
    ActionNotWellDefined,
    EvenCharacteristic,
    InconsistentPresentation,
    MalformedSpec,
    MismatchedAlgebra,
    MismatchedParent,
    NotAPGroup,
    NotInvolution,
    TrivialImage,
)
from grouplab.groups import (
    Automorphism,
    PcPresentation,
    PermutationGenSet,
    build_group,
    inner_automorphism,
    perm_from_cycles,
)
from grouplab.liering import (
    GradedLieRing,
    GradedSubspace,
    build_dl,
    centralizer_subalgebra,
    check_cor_2_14,
    check_prop_2_11,
    commutator_shapes,
    decomposition_witness,
    induced_action,
    lazard_check,
    plus_minus_split,
    subgroup_graded_algebra,
)
from grouplab.series import (
    NormalSeries,
    centralizer,
    generated_subgroup,
    trivial_subgroup,
    whole_subgroup,
)


def pc(p, n, powers=None, comms=None):
    return build_group(PcPresentation(p, n, powers or {}, comms or {}))


def d8():
    return pc(2, 3, {2: ((3, 1),)}, {(2, 1): ((3, 1),)})


def q8():
    return pc(2, 3, {1: ((3, 1),), 2: ((3, 1),)}, {(2, 1): ((3, 1),)})


def c4():
    return pc(2, 2, {1: ((2, 1),)})


def c9():
    return pc(3, 2, {1: ((2, 1),)})


def c3c3():
    return pc(3, 2)


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


ALL_PGROUPS = [d8, q8, c4, c9, c3c3, heis27, es27, d16]


# -- construction and dimensions -----------------------------------------


FROZEN_DIMS = [
    (d8, (2, 1)),
    (q8, (2, 1)),
    (c4, (1, 1)),
    (c9, (1, 0, 1)),
    (c3c3, (2,)),
    (heis27, (2, 1)),
    (es27, (2, 0, 1)),
    (d16, (2, 1, 0, 1)),
]


@pytest.mark.parametrize("make,dims", FROZEN_DIMS)
def test_frozen_component_dims(make, dims):
    G = make()
    L = build_dl(G)
    assert L.dims == dims
    p, k = G.is_p_group()
    assert sum(L.dims) == k  # total dim = log_p |G|


def test_cp_is_one_dimensional_abelian():
    L = build_dl(pc(5, 1))
    assert L.dims == (1,)
    assert not L.C.any()


def test_build_dl_rejects_non_p_groups():
    S3 = build_group(
        PermutationGenSet(
            3,
            (
                ("a", perm_from_cycles(3, [[1, 2]])),
                ("b", perm_from_cycles(3, [[1, 2, 3]])),
            ),
        )
    )
    with pytest.raises(NotAPGroup):
        build_dl(S3)


# -- bracket values, hand-checked ------------------------------------------


def test_d8_bracket_g1_g2_is_g3():
    G = d8()
    L = build_dl(G)
    g1, g2, g3 = G.generators
    assert L.bracket(L.star(g1), L.star(g2)) == L.star(g3)
    assert L.bracket(L.star(g2), L.star(g1)) == L.star(g3)  # char 2: -1 = 1


def test_heis27_bracket_signs():
    G = heis27()
    L = build_dl(G)
    g1, g2, g3 = G.generators
    # [g2, g1] = g3 in the group, so [g2*, g1*] = g3* and [g1*, g2*] = -g3*.
    assert L.bracket(L.star(g2), L.star(g1)) == L.star(g3)
    assert np.array_equal(L.bracket(L.star(g1), L.star(g2)).vec, 2 * L.star(g3).vec % 3)


def test_bracket_alternating_exhaustive_d8():
    L = build_dl(d8())
    elems = [L.element(vec) for vec in L.all_vectors()]
    assert len(elems) == 8
    for u in elems:
        assert L.bracket(u, u).is_zero()
        for v in elems:
            assert np.array_equal(L.bracket(u, v).vec, -L.bracket(v, u).vec % 2)


def test_bracket_bilinear_heis27():
    L = build_dl(heis27())
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = L.element(rng.integers(0, 3, L.total_dim))
        v = L.element(rng.integers(0, 3, L.total_dim))
        w = L.element(rng.integers(0, 3, L.total_dim))
        uv, vw = L.element(u.vec + v.vec), L.element(v.vec + w.vec)
        assert L.bracket(uv, w) == L.element(L.bracket(u, w).vec + L.bracket(v, w).vec)
        assert L.bracket(u, vw) == L.element(L.bracket(u, v).vec + L.bracket(u, w).vec)
        assert L.bracket(L.element(2 * u.vec), v) == L.element(2 * L.bracket(u, v).vec)


def test_grading_degrees():
    L = build_dl(d16())
    for i in range(1, L.m + 1):
        for j in range(1, L.m + 1):
            for u in L.component_basis(i):
                for v in L.component_basis(j):
                    w = L.bracket(u, v)
                    if not w.is_zero():
                        assert w.degree == i + j


def test_top_degree_bracket_is_zero():
    L = build_dl(d8())
    top = L.component_basis(L.m)[0]
    for u in L.basis():
        assert L.bracket(u, top).is_zero() or L.bracket(u, top).degree is not None
        # anything landing beyond degree m vanishes
    g3 = L.component_basis(2)[0]
    assert L.bracket(g3, g3).is_zero()
    assert L.bracket(L.component_basis(1)[0], g3).is_zero()


def test_q8_algebra_matches_d8_after_normalization():
    # Both are 2-generated with one degree-2 relation; over F_2 the only
    # invariant is whether the degree-1 pairing vanishes. It does not, in both.
    Ld, Lq = build_dl(d8()), build_dl(q8())
    assert Ld.dims == Lq.dims
    for L in (Ld, Lq):
        e1, e2 = L.component_basis(1)
        assert not L.bracket(e1, e2).is_zero()


def test_mismatched_algebra():
    L1, L2 = build_dl(d8()), build_dl(d8())
    with pytest.raises(MismatchedAlgebra):
        L1.bracket(L1.basis()[0], L2.basis()[0])


# -- star map ----------------------------------------------------------------


def test_star_depths_c9():
    G = c9()
    L = build_dl(G)
    g1, g2 = G.generators
    assert L.degree_of(g1) == 1
    assert L.degree_of(g2) == 3  # sits in the stabilized middle of [9,3,3,1]
    assert L.star(g2).degree == 3
    with pytest.raises(TrivialImage):
        L.star(G.identity)


def test_star_constant_on_cosets():
    G = d8()
    L = build_dl(G)
    g1, g3 = G.generator_by_name("g1"), G.generator_by_name("g3")
    assert L.star(g1) == L.star(G.multiply(g1, g3))  # g3 lies one level deeper


# -- ad matrices ---------------------------------------------------------------


def test_ad_matrix_column_convention():
    L = build_dl(heis27())
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = L.element(rng.integers(0, 3, L.total_dim))
        A = L.ads(a.vec[None])[0]
        for _ in range(5):
            x = L.element(rng.integers(0, 3, L.total_dim))
            assert np.array_equal(A @ x.vec % 3, L.bracket(x, a).vec)


def test_ad_nilpotency_indices():
    G = d8()
    L = build_dl(G)
    g2 = G.generator_by_name("g2")
    top = L.component_basis(L.m)[0]
    vecs = np.stack([np.zeros(L.total_dim, dtype=np.int64), L.star(g2).vec, top.vec])
    zero, star, deepest = L.ad_nilpotency_indices(L.ads(vecs)).tolist()
    assert zero == 1
    assert star == 2
    assert deepest <= 2


def test_nilpotency_class():
    assert build_dl(c3c3()).nilpotency_class() == 1
    assert build_dl(d8()).nilpotency_class() == 2
    assert build_dl(heis27()).nilpotency_class() == 2


def test_nilpotency_class_bounded_by_nonzero_components():
    for make in ALL_PGROUPS:
        L = build_dl(make())
        assert L.nilpotency_class() <= sum(1 for d in L.dims if d > 0)


# -- lemma-style power compatibility ------------------------------------------


@pytest.mark.parametrize("make", ALL_PGROUPS)
def test_lazard_check_everywhere(make):
    G = make()
    L = build_dl(G)
    for x in G.elements():
        if x.is_identity():
            continue
        verdict = lazard_check(G, L, x)
        assert verdict.ok, verdict.detail


def test_lazard_check_trivial_image():
    G = c4()
    L = build_dl(G)
    with pytest.raises(TrivialImage):
        lazard_check(G, L, G.identity)


# -- subalgebra generated in degree one -----------------------------------------


def degree_one_dims(G) -> tuple:
    """Dimensions of the components of the subalgebra generated by L_1."""
    return tuple(len(basis) for basis in liering._degree_one_closure(build_dl(G))[0])


def test_degree_one_closure_whole_for_d8():
    assert degree_one_dims(d8()) == (2, 1)


def test_degree_one_closure_abelian_stops_at_l1():
    assert degree_one_dims(c9()) == (1, 0, 0)
    assert degree_one_dims(c3c3()) == (2,)


def test_degree_one_closure_heis():
    assert degree_one_dims(heis27()) == (2, 1)


def test_degree_one_closure_es27_cuts_top():
    # [L_1, L_1] lands in the zero middle component, so closure stops there.
    G = es27()
    assert degree_one_dims(G) == (2, 0, 0)
    assert decomposition_witness(G).c == 1


def test_degree_one_closure_d16():
    G = d16()
    assert degree_one_dims(G) == (2, 1, 0, 0)
    assert decomposition_witness(G).c == 2


def test_degree_one_closure_sits_inside_parent():
    L = build_dl(heis27())
    bases, space, _ = liering._degree_one_closure(L)
    for i, rows in enumerate(bases, start=1):
        assert rows.shape[1] == L.dims[i - 1]
    assert space.is_bracket_closed()


# -- induced actions --------------------------------------------------------------


def test_induced_identity():
    G = c9()
    L = build_dl(G)
    phi = Automorphism(G, list(G.generators))
    act = induced_action(phi, L)
    assert act.is_identity()


def test_induced_inversion_on_c9_is_minus_one():
    G = c9()
    L = build_dl(G)
    g1, g2 = G.generators
    inv = Automorphism(G, [G.power(g1, 8), G.power(g2, 8)])
    act = induced_action(inv, L)
    for i in range(1, L.m + 1):
        d = L.dims[i - 1]
        assert np.array_equal(act.mats[i - 1], 2 * np.eye(d, dtype=np.int64) % 3)
    assert not act.is_identity() and act.compose(act).is_identity()


def test_induced_inner_on_d8_is_trivial():
    # Conjugation shifts cosets one level deeper, so every component fixes.
    G = d8()
    L = build_dl(G)
    act = induced_action(inner_automorphism(G, G.generator_by_name("g1")), L)
    assert act.is_identity()


def test_induced_action_wrong_group():
    G, H = c9(), c9()
    L = build_dl(G)
    g1, g2 = H.generators
    inv = Automorphism(H, [H.power(g1, 8), H.power(g2, 8)])
    with pytest.raises(MismatchedAlgebra):
        induced_action(inv, L)


def test_graded_automorphism_compose():
    G = c3c3()
    L = build_dl(G)
    g1, g2 = G.generators
    invx = induced_action(Automorphism(G, [G.power(g1, 2), g2]), L)
    invy = induced_action(Automorphism(G, [g1, G.power(g2, 2)]), L)
    both = invx.compose(invy)
    u = L.star(G.multiply(g1, g2))
    assert np.array_equal(both.matrix() @ u.vec % 3, invy.matrix() @ (invx.matrix() @ u.vec) % 3)
    assert invx.compose(invx).is_identity()


# -- centralizer subalgebras --------------------------------------------------------


def test_centralizer_empty_is_whole():
    L = build_dl(heis27())
    res = centralizer_subalgebra(L, [])
    assert res.space == GradedSubspace.whole(L)
    assert res.bracket_closed


def test_centralizer_inversion_c9_is_zero():
    G = c9()
    L = build_dl(G)
    g1, g2 = G.generators
    inv = induced_action(Automorphism(G, [G.power(g1, 8), G.power(g2, 8)]), L)
    res = centralizer_subalgebra(L, [inv])
    assert res.space == GradedSubspace.zero(L)
    assert res.bracket_closed


def test_centralizer_matches_subgroup_algebra_heis27():
    # Fixed algebra of the action == algebra of the fixed subgroup, per action set.
    G = heis27()
    L = build_dl(G)
    g1, g2, g3 = G.generators
    invx = Automorphism(G, [G.power(g1, 2), g2, G.power(g3, 2)])
    invy = Automorphism(G, [g1, G.power(g2, 2), G.power(g3, 2)])
    for phis in ([invx], [invy], [invx, invy]):
        acts = [induced_action(phi, L) for phi in phis]
        lie_side = centralizer_subalgebra(L, acts)
        group_side = subgroup_graded_algebra(G, L, centralizer(G, phis))
        assert lie_side.space == group_side
        assert lie_side.bracket_closed


# -- subgroup graded subspaces --------------------------------------------------------


def test_subgroup_algebra_extremes():
    G = d8()
    L = build_dl(G)
    assert subgroup_graded_algebra(G, L, whole_subgroup(G)) == GradedSubspace.whole(L)
    assert subgroup_graded_algebra(G, L, trivial_subgroup(G)) == GradedSubspace.zero(L)


def test_subgroup_algebra_cyclic_in_d8():
    G = d8()
    L = build_dl(G)
    H = generated_subgroup(G, [G.generator_by_name("g2")])
    assert H.order == 4
    space = subgroup_graded_algebra(G, L, H)
    assert space.dims() == (1, 1)


def test_subgroup_algebra_mismatched():
    G, H = d8(), d8()
    L = build_dl(G)
    with pytest.raises(MismatchedParent):
        subgroup_graded_algebra(G, L, whole_subgroup(H))


# -- eigenspace splits ------------------------------------------------------------------


def test_pm_split_identity():
    G = c9()
    L = build_dl(G)
    ident = induced_action(Automorphism(G, list(G.generators)), L)
    split = plus_minus_split(L, ident)
    assert split.plus == GradedSubspace.whole(L)
    assert split.minus == GradedSubspace.zero(L)


def test_pm_split_inversion_c9():
    G = c9()
    L = build_dl(G)
    g1, g2 = G.generators
    inv = induced_action(Automorphism(G, [G.power(g1, 8), G.power(g2, 8)]), L)
    split = plus_minus_split(L, inv)
    assert split.plus.dims() == (0, 0, 0)
    assert split.minus.dims() == (1, 0, 1)


def test_pm_split_partial_inversion_c3c3():
    G = c3c3()
    L = build_dl(G)
    g1, g2 = G.generators
    invx = induced_action(Automorphism(G, [G.power(g1, 2), g2]), L)
    split = plus_minus_split(L, invx)
    assert split.plus.dims() == (1,)
    assert split.minus.dims() == (1,)


def test_pm_split_char_two_rejected():
    G = d8()
    L = build_dl(G)
    ident = induced_action(Automorphism(G, list(G.generators)), L)
    with pytest.raises(EvenCharacteristic):
        plus_minus_split(L, ident)


def test_pm_split_requires_involution():
    G = c3c3()
    L = build_dl(G)
    g1, g2 = G.generators
    phi = Automorphism(G, [g2, G.power(g1, 2)])  # order 4
    act = induced_action(phi, L)
    with pytest.raises(NotInvolution):
        plus_minus_split(L, act)


# -- decomposition witness ----------------------------------------------------------------


def test_commutator_shapes_counts():
    assert commutator_shapes(2, 1) == ((1,), (2,))
    shapes = commutator_shapes(2, 2)
    assert shapes == ((1,), (2,), (1, 2), (2, 1))
    # weight-3 shapes only exclude i1 == i2
    shapes3 = commutator_shapes(2, 3)
    assert (1, 2, 1) in shapes3 and (1, 1, 2) not in shapes3
    assert len(shapes3) == 2 + 2 + 4


def test_witness_d8_frozen():
    G = d8()
    g1, g2 = G.generator_by_name("g1"), G.generator_by_name("g2")
    w = decomposition_witness(G, [g1, g2])
    assert w.c == 2
    assert w.s == 4
    assert w.K == 4
    assert w.shapes == ((1,), (2,), (1, 2), (2, 1))
    assert w.generators == (g1.idx, g2.idx)
    rhos = [G.element_at(r) for r in w.rhos]
    assert rhos[0] == g1 and rhos[1] == g2
    assert rhos[2] == G.commutator(g1, g2)
    assert rhos[3] == G.commutator(g2, g1)


def test_prop_2_11_d8():
    G = d8()
    w = decomposition_witness(G, [G.generator_by_name("g1"), G.generator_by_name("g2")])
    verdict = check_prop_2_11(G, w)
    assert verdict.ok, verdict.detail


def test_cor_2_14_d8_frozen_bound():
    G = d8()
    w = decomposition_witness(G, [G.generator_by_name("g1"), G.generator_by_name("g2")])
    verdict = check_cor_2_14(G, w)
    assert verdict.ok
    assert "4^4" in verdict.detail and "8" in verdict.detail


@pytest.mark.parametrize("make", [c4, c9, c3c3, heis27, es27])
def test_witness_checks_pass_default_gens(make):
    G = make()
    w = decomposition_witness(G)
    assert check_prop_2_11(G, w).ok
    assert check_cor_2_14(G, w).ok


def test_witness_d16_with_two_generators():
    G = d16()
    gens = [G.generator_by_name("g1"), G.generator_by_name("g2")]
    w = decomposition_witness(G, gens)
    assert w.c == 2 and w.s == 4 and w.K == 8
    assert check_prop_2_11(G, w).ok
    assert check_cor_2_14(G, w).ok


def test_witness_heis27_default_gens_count():
    G = heis27()
    w = decomposition_witness(G)
    assert w.c == 2
    assert w.s == 9  # 3 singles + 6 ordered distinct pairs


def test_witness_errors():
    with pytest.raises(NotAPGroup):
        S3 = build_group(
            PermutationGenSet(
                3,
                (
                    ("a", perm_from_cycles(3, [[1, 2]])),
                    ("b", perm_from_cycles(3, [[1, 2, 3]])),
                ),
            )
        )
        decomposition_witness(S3)
    G = d8()
    with pytest.raises(MalformedSpec):
        decomposition_witness(G, [G.generator_by_name("g3")])


# -- constructor-level verification ----------------------------------------------------------


def test_constructor_rejects_bad_tensors():
    square = np.zeros((2, 2, 2), dtype=np.int64)
    square[0, 0, 1] = 1  # [x, x] = y on a fake (1,1) algebra
    with pytest.raises(InconsistentPresentation, match=r"\[x, x\] is nonzero"):
        GradedLieRing(2, (1, 1), square)
    one_sided = np.zeros((3, 3, 3), dtype=np.int64)
    one_sided[0, 1, 2] = 1  # [e1, e2] = e3 with no mirror [e2, e1] = -e3
    with pytest.raises(InconsistentPresentation, match=r"\(1,2\) are not antisymmetric"):
        GradedLieRing(3, (1, 1, 1), one_sided)
    with pytest.raises(InconsistentPresentation, match="structure tensor has shape"):
        GradedLieRing(3, (1, 1, 1), np.zeros((3, 3), dtype=np.int64))


# -- a planted series ---------------------------------------------------------------


def planted_series(monkeypatch, G, *terms):
    """Make build_dl use the series G > terms... > 1 instead of the dimension series."""
    series = NormalSeries(G, "planted", (whole_subgroup(G),) + terms + (trivial_subgroup(G),))
    monkeypatch.setattr(liering, "dimension_series", lambda G: series)


def test_induced_action_refuses_a_non_invariant_term(monkeypatch):
    # C3^4 over G > <g2, g3, g4> > <g3, g4> > 1; swapping g2 and g3 keeps D_2
    # but not D_3, whose first three elements (in index order) stay inside
    G = pc(3, 4)
    g1, g2, g3, g4 = G.generators
    planted_series(
        monkeypatch, G, generated_subgroup(G, [g2, g3, g4]), generated_subgroup(G, [g3, g4])
    )
    L = build_dl(G)
    assert L.dims == (1, 1, 2)
    kept = induced_action(Automorphism(G, [g1, G.power(g2, 2), g3, g4]), L)
    assert [m.tolist() for m in kept.mats] == [[[1]], [[2]], [[1, 0], [0, 1]]]
    with pytest.raises(ActionNotWellDefined, match="component 2 depends on representatives"):
        induced_action(Automorphism(G, [g1, g3, g2, g4]), L)
