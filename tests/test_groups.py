"""Group backends checked against independent matrix models and each other."""

import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouplab import checks, groups
from grouplab.corpus import corpus_text, load_corpus
from grouplab.errors import (
    BudgetExceeded,
    EmptySequence,
    ForeignElement,
    InconsistentPresentation,
    MalformedSpec,
)
from grouplab.groups import (
    Automorphism,
    FiniteGroup,
    GroupHomomorphism,
    PcPresentation,
    PermutationGenSet,
    build_group,
    cycles_of,
    inner_automorphism,
    perm_from_cycles,
)
from grouplab.actions import realize_actions
from grouplab.fixtures import parse_fixture, realize_automorphisms, realize_groups


def pc_d8():
    return PcPresentation(2, 3, {2: ((3, 1),)}, {(2, 1): ((3, 1),)})


def pc_q8():
    return PcPresentation(2, 3, {1: ((3, 1),), 2: ((3, 1),)}, {(2, 1): ((3, 1),)})


def pc_heis27():
    return PcPresentation(3, 3, {}, {(2, 1): ((3, 1),)})


def pc_c9():
    return PcPresentation(3, 2, {1: ((2, 1),)})


def perm_group(degree, named_cycles):
    gens = tuple(
        (name, perm_from_cycles(degree, cycles)) for name, cycles in named_cycles
    )
    return build_group(PermutationGenSet(degree, gens))


def s4():
    return perm_group(4, [("a", [[1, 2]]), ("b", [[1, 2, 3, 4]])])


def s3():
    return perm_group(3, [("a", [[1, 2]]), ("b", [[1, 2, 3]])])


# -- group axioms ------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_group(pc_d8()),
        lambda: build_group(pc_q8()),
        lambda: build_group(pc_heis27()),
        lambda: build_group(pc_c9()),
        s3,
        s4,
    ],
)
def test_group_axioms(make):
    G = make()
    elems = G.elements()
    e = G.identity
    for a in elems:
        assert G.multiply(e, a) == a
        assert G.multiply(a, e) == a
        assert G.multiply(a, G.inverse(a)) == e
        assert G.multiply(G.inverse(a), a) == e
    t = G.table()
    n = G.order
    for a in range(n):
        assert np.array_equal(t[t[a, :], :], t[a, :][t]), "associativity"
    assert np.array_equal(np.sort(t, axis=1), np.tile(np.arange(n), (n, 1)))


# -- pc collection vs independent matrix models ------------------------


def test_d8_matches_integer_matrix_model():
    # Symmetries of the square: g1 a reflection, g2 the rotation.
    G = build_group(pc_d8())
    s = np.array([[1, 0], [0, -1]])
    r = np.array([[0, -1], [1, 0]])
    mats = {
        (0, 0, 0): np.eye(2, dtype=int),
        (1, 0, 0): s,
        (0, 1, 0): r,
        (0, 0, 1): r @ r,
        (1, 1, 0): s @ r,
        (1, 0, 1): s @ r @ r,
        (0, 1, 1): r @ r @ r,
        (1, 1, 1): s @ r @ r @ r,
    }
    assert set(mats) == {a.key for a in G.elements()}
    for a in G.elements():
        for b in G.elements():
            prod = mats[a.key] @ mats[b.key]
            assert np.array_equal(prod, mats[G.multiply(a, b).key])


def test_heis27_matches_unitriangular_model():
    # Upper unitriangular 3x3 matrices over F_3.
    G = build_group(pc_heis27())
    e12 = np.zeros((3, 3), dtype=np.int64)
    e12[0, 1] = 1
    e23 = np.zeros((3, 3), dtype=np.int64)
    e23[1, 2] = 1
    m1 = (np.eye(3, dtype=np.int64) + e12) % 3
    m2 = (np.eye(3, dtype=np.int64) + e23) % 3

    def minv(m):
        return np.linalg.matrix_power(m, 26).astype(np.int64) % 3  # order divides 27

    m3 = minv(m2) @ minv(m1) @ m2 @ m1 % 3  # [g2, g1] with the package convention

    def phi(key):
        a, b, c = key
        out = np.eye(3, dtype=np.int64)
        for m, e in ((m1, a), (m2, b), (m3, c)):
            for _ in range(e):
                out = out @ m % 3
        return out

    images = {a.key: phi(a.key) for a in G.elements()}
    flat = {tuple(m.ravel()) for m in images.values()}
    assert len(flat) == 27, "model is faithful"
    for a in G.elements():
        for b in G.elements():
            prod = images[a.key] @ images[b.key] % 3
            assert np.array_equal(prod, images[G.multiply(a, b).key])


def test_c9_collection():
    G = build_group(pc_c9())
    g1 = G.generator_by_name("g1")
    assert G.order == 9
    assert G.element_order(g1) == 9
    assert G.power(g1, 3) == G.generator_by_name("g2")
    assert G.exponent() == 9


# -- permutation backend ----------------------------------------------


def test_s4_structure():
    G = s4()
    assert G.order == 24
    assert G.exponent() == 12
    assert G.is_p_group() is None
    orders = sorted(G.element_order(a) for a in G.elements())
    # 1 identity, 9 involutions, 8 three-cycles, 6 four-cycles
    assert orders.count(1) == 1
    assert orders.count(2) == 9
    assert orders.count(3) == 8
    assert orders.count(4) == 6


def test_perm_composition_convention():
    # a*b applies a first: 1 -(1 2)-> 2 -(2 3)-> 3
    G = perm_group(3, [("a", [[1, 2]]), ("b", [[2, 3]])])
    a = G.generator_by_name("a")
    b = G.generator_by_name("b")
    ab = G.multiply(a, b)
    assert ab.key[0] == 2  # point 1 (index 0) lands on point 3 (index 2)


def test_cycles_roundtrip():
    images = perm_from_cycles(6, [[1, 2, 3], [4, 5]])
    assert cycles_of(images) == [(1, 2, 3), (4, 5)]
    assert perm_from_cycles(6, cycles_of(images)) == images


# -- cross-backend isomorphisms ----------------------------------------


def test_d8_pc_perm_isomorphic():
    Gpc = build_group(pc_d8())
    Gperm = perm_group(4, [("r", [[1, 2, 3, 4]]), ("s", [[2, 4]])])
    s = Gperm.generator_by_name("s")
    r = Gperm.generator_by_name("r")
    r2 = Gperm.multiply(r, r)
    phi = GroupHomomorphism(Gpc, Gperm, [s, r, r2])
    assert phi.is_bijective


def test_q8_pc_perm_isomorphic():
    Gpc = build_group(pc_q8())
    Gperm = perm_group(
        8,
        [
            ("i", [[1, 3, 2, 4], [5, 8, 6, 7]]),
            ("j", [[1, 5, 2, 6], [3, 7, 4, 8]]),
        ],
    )
    i = Gperm.generator_by_name("i")
    j = Gperm.generator_by_name("j")
    m1 = Gperm.multiply(i, i)  # the central involution
    phi = GroupHomomorphism(Gpc, Gperm, [i, j, m1])
    assert phi.is_bijective
    assert Gperm.order == 8
    assert sorted(Gperm.element_order(a) for a in Gperm.elements()) == [1, 2, 4, 4, 4, 4, 4, 4]


# -- word operations ---------------------------------------------------


def test_commutator_identities():
    G = s4()
    for a in G.elements()[:8]:
        for b in G.elements()[:8]:
            c = G.commutator(a, b)
            assert G.inverse(c) == G.commutator(b, a)
    a, b = G.generators
    assert G.long_commutator([a]) == a
    assert G.long_commutator([a, b]) == G.commutator(a, b)
    assert G.long_commutator([a, b, a]) == G.commutator(G.commutator(a, b), a)
    with pytest.raises(EmptySequence):
        G.long_commutator([])


def test_conjugate():
    G = s4()
    a, b = G.generators
    assert G.conjugate(a, b) == G.multiply(G.multiply(G.inverse(b), a), b)


def test_power_negative_and_zero():
    G = build_group(pc_q8())
    g1 = G.generators[0]
    assert G.power(g1, 0) == G.identity
    assert G.power(g1, -1) == G.inverse(g1)
    assert G.power(g1, 4) == G.identity
    assert G.power(g1, 7) == G.power(g1, 3)


def test_element_sugar():
    G = build_group(pc_d8())
    g1, g2, g3 = G.generators
    assert (g2 * g2) == g3
    assert g2**2 == g3
    assert g2 ** (-2) == G.inverse(g3)
    assert g1.inverse() == g1
    assert g2.order() == 4
    assert G.identity.is_identity()


def test_repr_forms():
    G = build_group(pc_d8())
    assert repr(G.identity) == "1"
    assert repr(G.generators[1]) == "g2"
    g2, g3 = G.generators[1], G.generators[2]
    assert repr(G.multiply(g2, g3)) == "g2*g3"
    H = s3()
    assert repr(H.identity) == "()"
    assert repr(H.generator_by_name("b")) == "(1 2 3)"


# -- validation and errors ---------------------------------------------


def test_presentation_validation():
    with pytest.raises(MalformedSpec):
        PcPresentation(4, 2)  # modulus not prime
    with pytest.raises(MalformedSpec):
        PcPresentation(2, 0)
    with pytest.raises(MalformedSpec):
        PcPresentation(2, 3, {1: ((1, 1),)})  # rhs index not above lhs
    with pytest.raises(MalformedSpec):
        PcPresentation(2, 3, {2: ((3, 2),)})  # exponent out of range mod 2
    with pytest.raises(MalformedSpec):
        PcPresentation(2, 3, {}, {(1, 2): ((3, 1),)})  # needs j > i
    with pytest.raises(MalformedSpec):
        PcPresentation(2, 3, {2: ((3, 1), (3, 1))})  # index not increasing
    with pytest.raises(MalformedSpec):
        PcPresentation(2, 3, {5: ()})  # unknown generator


def test_inconsistent_presentation_rejected():
    # [g2, g1] = g2 forces g2^g1 = g2^2 = 1, which is no bijection.
    with pytest.raises(InconsistentPresentation):
        build_group(PcPresentation(2, 2, {}, {(2, 1): ((2, 1),)}))


def test_pc_presentation_over_the_cap_is_refused_before_any_table_work():
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="4096"):
        build_group(PcPresentation(2, 12))
    assert time.perf_counter() - start < 0.1


def test_foreign_element_rejected():
    G = build_group(pc_d8())
    H = build_group(pc_d8())
    with pytest.raises(ForeignElement):
        G.multiply(G.identity, H.identity)
    with pytest.raises(ForeignElement):
        G.element((9, 9, 9))


def test_perm_validation():
    with pytest.raises(MalformedSpec):
        perm_from_cycles(3, [[1, 4]])
    with pytest.raises(MalformedSpec):
        perm_from_cycles(4, [[1, 2], [2, 3]])
    with pytest.raises(MalformedSpec):
        perm_from_cycles(4, [[1, 1]])
    with pytest.raises(MalformedSpec):
        PermutationGenSet(3, (("a", (0, 0, 1)),))


# -- homomorphisms and automorphisms -----------------------------------


def test_homomorphism_to_quotient_style_image():
    G = build_group(pc_d8())
    C2 = build_group(PcPresentation(2, 1))
    x = C2.generators[0]
    phi = GroupHomomorphism(G, C2, [x, x, C2.identity])
    assert not phi.is_bijective
    g1, g2, _ = G.generators
    assert phi(G.multiply(g1, g2)) == C2.identity


def test_homomorphism_bad_images_rejected():
    G = build_group(pc_d8())
    C2 = build_group(PcPresentation(2, 1))
    x = C2.generators[0]
    with pytest.raises(MalformedSpec):
        GroupHomomorphism(G, C2, [x, x, x])  # g2^2 = g3 would need e = x
    with pytest.raises(MalformedSpec):
        GroupHomomorphism(G, C2, [x, x])  # wrong arity


@pytest.mark.parametrize("c, shown", [([[1, 2]], "(1 2)"), ([], "()")])
def test_a_repeated_or_trivial_generator_keeps_its_given_image(c, shown):
    # c repeats a, or is the identity: the image pass reaches it before its
    # own image is read, so the image given for it is compared on its own
    G = perm_group(3, [("a", [[1, 2]]), ("b", [[1, 2, 3]]), ("c", c)])
    a, b, gen_c = G.generators
    with pytest.raises(MalformedSpec) as err:
        Automorphism(G, [a, b, b])
    assert str(err.value) == (
        f"images do not extend to a homomorphism: generator c = {shown} is given (1 2 3), "
        f"but the images of the others send it to {shown}"
    )
    assert Automorphism(G, [a, b, gen_c]).is_identity()


def unverified_homomorphism(source, target, images):
    """The map the generator images extend to, built with verification switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GroupHomomorphism, "_verify", lambda self: None)
        return GroupHomomorphism(source, target, images)


def test_homomorphism_failure_names_first_pair_in_row_major_order():
    G = build_group(pc_d8())
    C2 = build_group(PcPresentation(2, 1))
    x = C2.generators[0]
    phi = unverified_homomorphism(G, C2, [x, x, x])
    first = next(
        (a, b)
        for a in G.elements()
        for b in G.elements()
        if phi(G.multiply(a, b)) != C2.multiply(phi(a), phi(b))
    )
    with pytest.raises(MalformedSpec) as err:
        GroupHomomorphism(G, C2, [x, x, x])
    assert str(err.value) == (
        f"images do not extend to a homomorphism: fails at ({first[0]!r}, {first[1]!r})"
    )


def ref_first_failing_pair(phi):
    """The row loop: the first (a, b) in row-major order with phi(ab) != phi(a) phi(b)."""
    t_src, t_tgt = phi.source.table(), phi.target.table()
    images = np.asarray(phi.image_indices)
    for a in range(phi.source.order):
        bad = images[t_src[a]] != t_tgt[images[a], images]
        if bad.any():
            return phi.source.element_at(a), phi.source.element_at(int(np.argmax(bad)))
    return None


@pytest.mark.parametrize("block", [None, 720, 2 * 720, 7 * 720])
def test_homomorphism_failure_in_table_blocks_is_the_row_loops_first(block, monkeypatch):
    # S6 -> C2 sending the transposition to x and the 6-cycle to 1: the
    # 6-cycle's normal closure is all of S6, so this is no homomorphism
    G = perm_group(6, [("a", [[1, 2]]), ("b", [[1, 2, 3, 4, 5, 6]])])
    C2 = build_group(PcPresentation(2, 1))
    phi = unverified_homomorphism(G, C2, [C2.generators[0], C2.identity])
    a, b = ref_first_failing_pair(phi)
    if block is not None:
        monkeypatch.setattr(groups, "_BLOCK", block)
    with pytest.raises(MalformedSpec) as err:
        phi._verify()
    assert str(err.value) == f"images do not extend to a homomorphism: fails at ({a!r}, {b!r})"


def test_homomorphism_verification_memory_is_linear_in_order():
    G = build_group(PcPresentation(2, 11))
    assert G.order == 2048
    G.table()
    tracemalloc.start()
    try:
        phi = Automorphism(G, list(G.generators))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert phi.is_identity()
    assert peak < 4 * 2**20


# The order-243 build group of the benchmark and its involution, restated.
CL3O243 = """
group Cl3o243
backend pc
prime 3
ngens 5
comm 2 1 = 3^1
comm 3 1 = 4^1
comm 3 2 = 5^1
end

aut inv243 on Cl3o243
image 1 = 1^2
image 2 = 2^2
image 3 = 3^1 4^2 5^2
image 4 = 4^2
image 5 = 5^2
end
"""


def ref_image_indices(phi) -> tuple:
    """Generator images extended breadth-first through handle products."""
    src, tgt = phi.source, phi.target
    image = {src.identity.key: tgt.identity}
    frontier = [src.identity]
    pairs = [(g, phi(g)) for g in src.generators]
    while frontier:
        fresh = []
        for x in frontier:
            for g, h in pairs:
                xg = src.multiply(x, g)
                if xg.key not in image:
                    image[xg.key] = tgt.multiply(image[x.key], h)
                    fresh.append(xg)
        frontier = fresh
    return tuple(tgt.index_of(image[x.key]) for x in src.elements())


def automorphism_cases() -> dict:
    cases = dict(load_corpus().automorphisms)
    fx = parse_fixture(CL3O243)
    cases.update(realize_automorphisms(fx, realize_groups(fx)))
    return cases


@pytest.mark.parametrize("name", sorted(automorphism_cases()))
def test_image_extension_matches_handle_reference(name):
    phi = automorphism_cases()[name]
    assert phi.image_indices == ref_image_indices(phi)


def test_homomorphism_construction_makes_no_handle_products(monkeypatch):
    G = s4()
    a, b = G.generators
    images = [G.conjugate(g, b) for g in G.generators]
    H = build_group(pc_d8())
    calls = []

    def counted(self, x, y, _orig=FiniteGroup.multiply):
        calls.append(1)
        return _orig(self, x, y)

    monkeypatch.setattr(FiniteGroup, "multiply", counted)
    phi = Automorphism(G, images)
    GroupHomomorphism(H, H, list(H.generators))
    assert calls == []
    assert phi.image_indices == inner_automorphism(G, b).image_indices


# -- the generator decision against the pair scan ------------------------------
#
# GroupHomomorphism._verify decides phi(ab) = phi(a) phi(b) on the source
# generators alone and scans every pair only to name a failure; the row loop
# ref_first_failing_pair reads every pair.  Both must accept the same maps, and
# a rejection must name the row loop's pair.

LADDER_FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "ladder.grp"


def assert_decides_like_the_pair_scan(phi):
    first = ref_first_failing_pair(phi)
    if first is None:
        phi._verify()
        return
    with pytest.raises(MalformedSpec) as err:
        phi._verify()
    assert str(err.value) == (
        f"images do not extend to a homomorphism: fails at ({first[0]!r}, {first[1]!r})"
    )


def fixture_automorphisms() -> dict:
    cases = automorphism_cases()
    fx = parse_fixture(LADDER_FIXTURE.read_text("utf-8"))
    cases.update(realize_automorphisms(fx, realize_groups(fx)))
    return cases


def test_fixture_automorphisms_pass_the_pair_scan():
    cases = fixture_automorphisms()
    assert {"inv125", "inv243", "c9inv"} <= set(cases)
    for phi in cases.values():
        assert ref_first_failing_pair(phi) is None


@pytest.mark.parametrize("name", sorted(load_corpus().groups))
def test_inner_automorphisms_pass_the_pair_scan(name):
    G = load_corpus().groups[name]
    for g in G.elements():
        phi = inner_automorphism(G, g)
        assert ref_first_failing_pair(phi) is None


SMALL = sorted(name for name, G in load_corpus().groups.items() if G.order <= 24)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_generator_images_decide_like_the_pair_scan(data):
    corpus = load_corpus().groups
    G = corpus[data.draw(st.sampled_from(SMALL))]
    H = corpus[data.draw(st.sampled_from(SMALL))]
    n = len(G.generators)
    picks = data.draw(st.lists(st.integers(0, H.order - 1), min_size=n, max_size=n))
    images = [H.element_at(i) for i in picks]
    assert_decides_like_the_pair_scan(unverified_homomorphism(G, H, images))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_index_bijections_decide_like_the_pair_scan(data):
    # a random bijection, or an inner automorphism with at most one pair of
    # images swapped, so that both verdicts occur
    G = load_corpus().groups[data.draw(st.sampled_from(SMALL))]
    if data.draw(st.booleans()):
        images = data.draw(st.permutations(range(G.order)))
    else:
        images = list(inner_automorphism(G, data.draw(st.sampled_from(G.elements()))).image_indices)
        i, j = data.draw(st.integers(0, G.order - 1)), data.draw(st.integers(0, G.order - 1))
        images[i], images[j] = images[j], images[i]
    assert_decides_like_the_pair_scan(Automorphism._trusted(G, images))


def test_automorphism_inversion_on_elementary_abelian():
    G = build_group(PcPresentation(3, 2))
    g1, g2 = G.generators
    inv = Automorphism(G, [G.power(g1, 2), G.power(g2, 2)])
    assert inv.order() == 2
    assert inv(g1) == G.power(g1, 2)
    assert inv.compose(inv).is_identity()


def s3_rebuilt(generators):
    """S3's keys and table in a hand-built FiniteGroup with these (name, key) generators."""
    G = s3()
    keys = [x.key for x in G.elements()]
    return FiniteGroup("perm", keys, G.table().copy(), generators, groups._perm_repr)


def test_constructor_refuses_generators_that_do_not_generate():
    G = s3()
    a, b = (x.key for x in G.generators)
    for generators in ([], [("a", a)], [("b", b)]):
        with pytest.raises(MalformedSpec, match="the generators do not generate the group"):
            s3_rebuilt(generators)
    H = s3_rebuilt([("b", b), ("a", a)])
    assert H.order == 6 and H.generator_names == ("b", "a")


def test_kept_constants_match_a_fresh_recomputation():
    for G in load_corpus().groups.values():
        assert G._e == G.index_of(G.identity)
        assert G._gens.tolist() == [G.index_of(x) for x in G.generators]
        assert not G._gens.flags.writeable
        orders = []
        for x in G.elements():
            k, y = 1, x
            while not y.is_identity():
                k, y = k + 1, G.multiply(y, x)
            orders.append(k)
        assert G.exponent() == G.exponent() == np.lcm.reduce(orders)


def test_unverified_index_maps_equal_the_verified_automorphisms():
    # identity_of, compose and inner_automorphism skip verification; their
    # results must be the automorphisms that the same generator images build
    # and verify
    for phi in automorphism_cases().values():
        G = phi.group
        assert Automorphism.identity_of(G) == Automorphism(G, list(G.generators))
        for g in G.generators:
            conjugates = [G.conjugate(x, g) for x in G.generators]
            assert inner_automorphism(G, g) == Automorphism(G, conjugates)
        for psi in (phi, inner_automorphism(G, G.generators[-1])):
            images = [psi(phi(g)) for g in G.generators]
            assert phi.compose(psi) == Automorphism(G, images)


def compose_order(phi) -> int:
    """The order of phi by composing it with itself until the identity."""
    n, acc = 1, phi
    while not acc.is_identity():
        acc, n = acc.compose(phi), n + 1
    return n


def action_closures() -> dict:
    """name -> closure of every action of the corpus and the ladder."""
    out = {name: fx.closure for name, fx in load_corpus().actions.items()}
    fx = parse_fixture(LADDER_FIXTURE.read_text("utf-8"))
    groups_ = realize_groups(fx)
    out.update(
        (name, act.closure)
        for name, act in realize_actions(fx, groups_, realize_automorphisms(fx, groups_)).items()
    )
    return out


def test_automorphism_order_is_the_compose_loop():
    cases = list(fixture_automorphisms().values())
    cases += [phi for closure in action_closures().values() for phi in closure]
    assert len(action_closures()) == 5 and len(cases) == 22
    assert {phi.order() for phi in cases} == {1, 2}
    for phi in cases:
        assert phi.order() == compose_order(phi)


def test_automorphism_order_takes_the_lcm_of_cycle_lengths():
    # conjugation by a 6-cycle of S6 moves points in cycles of several
    # lengths at once; by an element of order 4 in S4 the cycles have
    # lengths 1, 2 and 4
    S6 = perm_group(6, [("a", [[1, 2]]), ("b", [[1, 2, 3, 4, 5, 6]])])
    S4 = s4()
    for G, g in ((S6, S6.generators[1]), (S4, S4.generators[1]), (S4, S4.identity)):
        phi = inner_automorphism(G, g)
        assert phi.order() == compose_order(phi)
    assert inner_automorphism(S6, S6.generators[1]).order() == 6
    assert Automorphism.identity_of(S4).order() == 1
    for G in load_corpus().groups.values():
        for g in G.elements():
            phi = inner_automorphism(G, g)
            assert phi.order() == compose_order(phi)


# -- element handles: a view of (group, index) ------------------------------


def test_handles_from_every_entry_point_name_elements_by_group_and_index():
    # a permutation generator may be the identity, and two may coincide
    e, t = tuple(range(3)), (1, 0, 2)
    spec = PermutationGenSet(3, (("one", e), ("t", t), ("u", t)))
    G = build_group(spec)
    one, gt, gu = G.generators
    i, j = G._e, int(G._gens[1])
    by_element = {
        i: [G.identity, one, G.element(e), G.element_at(i), G.elements()[i],
            G.generator_by_name("one"), G.multiply(gt, gu), G.inverse(one), G.power(gt, 2)],
        j: [gt, gu, G.element(t), G.element_at(G._gens[1]), G.elements()[j],
            G.generator_by_name("t"), G.generator_by_name("u"), G.multiply(one, gt),
            G.inverse(gt), G.power(gu, 3), gt * one, gu**-1],
    }
    for idx, handles in by_element.items():
        for h in handles:
            assert h.idx == idx and h.key == G._keys[idx] and h.group is G
            assert h == handles[0] and hash(h) == hash(handles[0])
    assert one.is_identity() and not gt.is_identity() and gt != one
    assert len(set(G.elements())) == G.order
    # equal keys in another build of the same presentation name other elements
    H = build_group(spec)
    for x, y in zip(G.elements(), H.elements()):
        assert x.key == y.key and x.idx == y.idx and x != y


def recorded_run(monkeypatch, fx) -> tuple:
    """(context, handles made in all, handles made while rows ran) of one run_checks over fx."""
    made, contexts = [0], []

    def init(self, group, idx, _orig=groups.GroupElement.__init__):
        made[0] += 1
        _orig(self, group, idx)

    class Recorded(checks.RunContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append((self, made[0]))

    monkeypatch.setattr(groups.GroupElement, "__init__", init)
    monkeypatch.setattr(checks, "RunContext", Recorded)
    checks.run_checks(fx)
    ((ctx, before_rows),) = contexts
    return ctx, made[0], made[0] - before_rows


@pytest.mark.parametrize("fixture,in_all,in_rows", [("corpus", 32, 4), ("ladder", 8, 2)])
def test_a_catalog_run_makes_handles_only_at_its_edges(fixture, in_all, in_rows, monkeypatch):
    # realization makes the automorphisms' generator and image handles; the
    # rows make one for each printed witness and each gens= name, and none
    # for the arithmetic of a check
    text = corpus_text() if fixture == "corpus" else LADDER_FIXTURE.read_text("utf-8")
    assert recorded_run(monkeypatch, parse_fixture(text))[1:] == (in_all, in_rows)


def test_a_group_keeps_its_table_and_one_store_and_nothing_else(monkeypatch):
    ctx = recorded_run(monkeypatch, parse_fixture(corpus_text()))[0]
    acting = [fx._acting for fx in ctx.actions.values()]
    for G in [*ctx.groups.values(), *acting]:
        assert set(vars(G)) == {
            "_kind", "_keys", "_index", "_repr_key", "_e", "_gens", "generator_names",
            "_table", "_inv", "_lattice",
        }
        assert not any(isinstance(v, groups.GroupElement) for v in G._lattice.values())


def test_automorphism_rejects_non_bijective():
    G = build_group(PcPresentation(3, 2))
    with pytest.raises(MalformedSpec):
        Automorphism(G, [G.identity, G.identity])


def test_inner_automorphism():
    G = s4()
    a, b = G.generators
    phi = inner_automorphism(G, b)
    for x in G.elements():
        assert phi(x) == G.conjugate(x, b)
    C9 = build_group(pc_c9())
    assert inner_automorphism(C9, C9.generators[0]).is_identity()


def test_automorphism_composition_order():
    G = s3()
    a = G.generator_by_name("a")
    b = G.generator_by_name("b")
    pa = inner_automorphism(G, a)
    pb = inner_automorphism(G, b)
    # conjugation by a then by b equals conjugation by a*b
    assert pa.compose(pb) == inner_automorphism(G, G.multiply(a, b))
    assert pa.compose(pb)(b) == G.conjugate(b, G.multiply(a, b))


def test_table_and_inverse_indices():
    G = s3()
    t = G.table()
    inv = G.inverse_indices()
    e = G.index_of(G.identity)
    for i in range(G.order):
        assert t[i, inv[i]] == e
