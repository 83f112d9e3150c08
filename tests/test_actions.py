"""Acting automorphism groups: closure, ordering, coprimality, shape tests.

An ActionFixture builds its acting group A through build_group, as the
permutation group its generators' index maps generate.  ref_action_closure
keeps the set closure that A replaced, breadth-first under composition with
the generators, and everything the catalog reads of A is held to it: on
every corpus and ladder action, and on generator tuples drawn on small
corpus groups.
"""

import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouplab import groups
from grouplab.actions import ActionFixture, realize_actions
from grouplab.checks import RunContext
from grouplab.corpus import load_corpus
from grouplab.errors import BudgetExceeded, MismatchedParent
from grouplab.fixtures import parse_fixture
from grouplab.groups import Automorphism, inner_automorphism, is_prime

LADDER = Path(__file__).resolve().parents[1] / "perfbench" / "ladder.grp"
CORPUS = load_corpus()


@pytest.fixture(scope="module")
def corpus():
    return CORPUS


def test_corpus_action_orders_and_coprimality(corpus):
    got = {name: (a.order, a.coprime) for name, a in corpus.actions.items()}
    assert got == {
        "kleinC33": (4, True),
        "kleinH27": (4, True),
        "invC9": (2, True),
        "invC33": (2, True),
    }


def test_klein_action_shape(corpus):
    a = corpus.actions["kleinC33"]
    assert not a.is_cyclic()
    assert a.noncyclic_q_squared() == 2
    assert a.single_involution() is None
    # fixture generators lead the deterministic ordering of A#
    assert a.nontrivial[0] == corpus.automorphisms["c33invx"]
    assert a.nontrivial[1] == corpus.automorphisms["c33invy"]
    assert len(a.nontrivial) == 3
    assert a.closure[0] == Automorphism.identity_of(a.group)


def test_klein_closure_contains_product(corpus):
    a = corpus.actions["kleinH27"]
    invx = corpus.automorphisms["h27invx"]
    invy = corpus.automorphisms["h27invy"]
    assert invx.compose(invy) in a.closure
    assert {phi.order() for phi in a.nontrivial} == {2}


def test_inversion_action_shape(corpus):
    a = corpus.actions["invC9"]
    assert a.is_cyclic()
    assert a.noncyclic_q_squared() is None
    assert a.single_involution() == corpus.automorphisms["c9inv"]


def test_trivial_action(corpus):
    G = corpus.groups["C2"]
    a = ActionFixture("triv", G, ())
    assert a.order == 1
    assert a.coprime  # |A| = 1 is coprime to everything
    assert a.is_cyclic()
    assert a.noncyclic_q_squared() is None
    assert a.single_involution() is None
    assert a.nontrivial == ()


def test_noncoprime_action_flagged(corpus):
    G = corpus.groups["C3xC3"]
    # order-3 automorphism on a 3-group: |A| = 3 shares a factor with |G| = 9
    g1, g2 = G.generators
    shear = Automorphism(G, [G.multiply(g1, g2), g2])
    a = ActionFixture("shear", G, (shear,))
    assert a.order == 3
    assert not a.coprime


def test_duplicate_generators_deduplicated(corpus):
    phi = corpus.automorphisms["c9inv"]
    a = ActionFixture("dup", corpus.groups["C9"], (phi, phi))
    assert a.order == 2
    assert a.nontrivial == (phi,)


def test_identity_generator_dropped_from_nontrivial(corpus):
    G = corpus.groups["C9"]
    ident = Automorphism.identity_of(G)
    a = ActionFixture("padded", G, (ident, corpus.automorphisms["c9inv"]))
    assert a.order == 2
    assert a.nontrivial == (corpus.automorphisms["c9inv"],)


def test_wrong_group_rejected(corpus):
    phi = corpus.automorphisms["c9inv"]
    with pytest.raises(MismatchedParent):
        ActionFixture("bad", corpus.groups["C3xC3"], (phi,))


def test_closure_budget(monkeypatch, corpus):
    # A is capped like every group, here on its degree |G| = 9 before any
    # enumeration, and the refusal names its action
    monkeypatch.setattr(groups, "TABLE_CAP", 3)
    with pytest.raises(BudgetExceeded) as err:
        realize_actions(corpus.fixture, corpus.groups, corpus.automorphisms)
    assert str(err.value) == (
        "action kleinC33: permutation group: degree 9 is above the cap of 3 points"
    )


GL42 = """\
group E16
backend pc
prime 2
ngens 4
end

aut cycle on E16
image 1 = 2^1
image 2 = 3^1
image 3 = 4^1
image 4 = 1^1
end

aut shear on E16
image 1 = 1^1 2^1
image 2 = 2^1
image 3 = 3^1
image 4 = 4^1
end

action gl on E16 = cycle shear
"""


def test_an_acting_group_over_the_table_cap_is_refused():
    # the cyclic shift and one transvection generate GL(4, 2), of order 20160
    with pytest.raises(BudgetExceeded) as err:
        RunContext(parse_fixture(GL42))
    assert str(err.value) == "action gl: group enumeration passed the cap of 2048 elements"


def test_realize_actions_matches_fixture_entries(corpus):
    fx = corpus.fixture
    again = realize_actions(fx, corpus.groups, corpus.automorphisms)
    assert set(again) == {"kleinC33", "kleinH27", "invC9", "invC33"}
    for name, a in again.items():
        entry = fx.action(name)
        assert a.group is corpus.groups[entry.group]
        assert len(a.generators) == len(entry.auts)


# -- the acting group against the set closure it replaced ----------------------


def ref_action_closure(G, generators) -> dict:
    """What the catalog reads of A, from the set closure under composition that A replaced."""
    ident = Automorphism.identity_of(G)
    found = set(generators)
    frontier = list(generators)
    while frontier:
        fresh = []
        for phi in frontier:
            for gen in generators:
                prod = phi.compose(gen)
                if prod not in found:
                    found.add(prod)
                    fresh.append(prod)
        frontier = fresh
    ordered = []
    for phi in generators:
        if phi != ident and phi not in ordered:
            ordered.append(phi)
    rest = (phi for phi in found if phi != ident and phi not in ordered)
    ordered += sorted(rest, key=lambda phi: phi.image_indices)
    closure = (ident, *ordered)
    orders = [phi.order() for phi in closure]
    n, q = len(closure), math.isqrt(len(closure))
    cyclic = n in orders
    single = len(generators) == 1 and orders[closure.index(generators[0])] == 2
    return {
        "closure": closure,
        "nontrivial": closure[1:],
        "order": n,
        "coprime": math.gcd(n, G.order) == 1,
        "is_cyclic": cyclic,
        "noncyclic_q_squared": q if q * q == n and not cyclic and is_prime(q) else None,
        "single_involution": generators[0] if single else None,
    }


def read_off(a: ActionFixture) -> dict:
    return {
        "closure": a.closure,
        "nontrivial": a.nontrivial,
        "order": a.order,
        "coprime": a.coprime,
        "is_cyclic": a.is_cyclic(),
        "noncyclic_q_squared": a.noncyclic_q_squared(),
        "single_involution": a.single_involution(),
    }


def fixture_actions() -> dict:
    out = dict(CORPUS.actions)
    out.update(RunContext(parse_fixture(LADDER.read_text("utf-8"))).actions)
    return out


@pytest.mark.parametrize("name", sorted(fixture_actions()))
def test_fixture_actions_match_the_set_closure(name):
    a = fixture_actions()[name]
    assert read_off(a) == ref_action_closure(a.group, a.generators)


SMALL = sorted(name for name, G in CORPUS.groups.items() if G.order <= 27)


@st.composite
def generator_tuples(draw):
    """(G, generators) on a corpus group of order at most 27.

    The generators are drawn from conjugations by its elements, the corpus's
    automorphisms of it and the identity, with repeats, and may be none.
    """
    G = CORPUS.groups[draw(st.sampled_from(SMALL))]
    pool = [Automorphism.identity_of(G)]
    pool += [phi for phi in CORPUS.automorphisms.values() if phi.group is G]
    pool += [inner_automorphism(G, G.element_at(i)) for i in range(G.order)]
    gens = draw(st.lists(st.sampled_from(list(dict.fromkeys(pool))), max_size=3))
    if gens and draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), draw(st.sampled_from(gens)))
    return G, tuple(gens)


@given(generator_tuples())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_drawn_actions_match_the_set_closure(case):
    G, gens = case
    assert read_off(ActionFixture("drawn", G, gens)) == ref_action_closure(G, gens)
