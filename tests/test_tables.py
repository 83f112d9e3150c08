"""Cayley tables and pc consistency against direct references.

Pc tables are built by cyclic extensions, quotient tables from coset
representatives and permutation tables by enumeration.  The references
here are the direct algorithms: word collection for pc presentations,
the parent's products reduced to minimal coset members for quotients,
composition of image tuples for permutations, and associativity over every
triple of a fully collected table.
"""

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grouplab.corpus import load_corpus
from grouplab.errors import BudgetExceeded, InconsistentPresentation
from grouplab.groups import (
    PcPresentation,
    PermutationGenSet,
    build_group,
    perm_from_cycles,
)
from grouplab.series import QuotientGroup, lower_central_series, normal_closure

# Collection runs away on many inconsistent presentations, at a cost that
# grows with the square of the steps taken; collection in the consistent
# presentations tested here stays far below this.
REFERENCE_STEP_BUDGET = 1000


class Collector:
    """Reference pc multiplication: collection from the left, always moving
    the minimal-index letter, refused past REFERENCE_STEP_BUDGET steps."""

    def __init__(self, pres: PcPresentation):
        self.p, self.n = pres.p, pres.ngens

        def letters(word):
            return [idx for idx, exp in word for _ in range(exp)]

        self.power = {i: letters(pres.powers.get(i, ())) for i in range(1, self.n + 1)}
        self.comm = {pair: letters(w) for pair, w in pres.commutators.items()}

    def multiply(self, k1: tuple, k2: tuple) -> tuple:
        work = [i + 1 for key in (k1, k2) for i, e in enumerate(key) for _ in range(e)]
        counts = [0] * (self.n + 1)
        steps = 0
        while work:
            steps += 1
            if steps > REFERENCE_STEP_BUDGET:
                raise BudgetExceeded(f"collection passed {REFERENCE_STEP_BUDGET} steps")
            i = min(work)
            k = work.index(i)
            if k == 0:
                work.pop(0)
                counts[i] += 1
                if counts[i] == self.p:
                    counts[i] = 0
                    work[0:0] = self.power[i]
            else:
                j = work[k - 1]
                # g_j g_i = g_i g_j [g_j, g_i]
                work[k - 1 : k + 1] = [i, j, *self.comm.get((j, i), ())]
        return tuple(counts[1:])


def class3_order243():
    # The class-3 group of order 3^5 of the benchmark's build workload.
    return PcPresentation(3, 5, {}, {(2, 1): ((3, 1),), (3, 1): ((4, 1),), (3, 2): ((5, 1),)})


def s4_mod_klein():
    S4 = load_corpus().groups["S4"]
    klein = normal_closure(S4, [S4.element((1, 0, 3, 2))])  # (1 2)(3 4)
    assert klein.order == 4
    return QuotientGroup(S4, klein)


def d16_mod_centre():
    # Unlike S4/V4, whose representatives form a subgroup (the S3 fixing
    # point 1), products of these representatives leave their set.
    D16 = load_corpus().groups["D16"]
    centre = lower_central_series(D16).terms[-2]
    assert centre.order == 2
    return QuotientGroup(D16, centre)


def coset_product(Q: QuotientGroup):
    """Product of two representative keys: the least key of the parent's coset."""
    G, N = Q.parent, Q.normal

    def mul(k1, k2):
        prod = G.element(k1) * G.element(k2)
        return min((prod * n).key for n in N.elements())

    return mul


def reference_cases():
    """name -> (group, product of two keys by the direct algorithm)."""
    corpus = load_corpus()
    cases = {}
    for name, G in corpus.groups.items():
        spec = corpus.fixture.group(name).presentation
        if isinstance(spec, PcPresentation):
            cases[name] = (G, Collector(spec).multiply)
        else:
            cases[name] = (G, lambda k1, k2: tuple(k2[x] for x in k1))
    for name, Q in (("S4/V4", s4_mod_klein()), ("D16/Z", d16_mod_centre())):
        cases[name] = (Q.group, coset_product(Q))
    cases["Cl3o243"] = (build_group(class3_order243()), Collector(class3_order243()).multiply)
    return cases


@pytest.fixture(scope="module")
def cases():
    return reference_cases()


@pytest.mark.parametrize("name", sorted(reference_cases()))
def test_table_matches_pairwise_backend_products(cases, name):
    G, mul = cases[name]
    keys = [x.key for x in G.elements()]
    want = np.array(
        [[G.index_of(G.element(mul(a, b))) for b in keys] for a in keys], dtype=np.int64
    )
    assert np.array_equal(G.table(), want)


@pytest.mark.parametrize("name", sorted(reference_cases()))
def test_inverse_matches_power(cases, name):
    G, _ = cases[name]
    for a in G.elements():
        assert G.inverse(a) == G.power(a, G.order - 1)


def test_table_is_read_only():
    G = build_group(class3_order243())
    with pytest.raises(ValueError):
        G.table()[0, 0] = 1
    with pytest.raises(ValueError):
        G.inverse_indices()[0] = 1


# -- pc consistency: cyclic extensions against brute-force associativity ----


def brute_force_consistent(pres: PcPresentation) -> bool:
    """Collect the whole table, then demand order p^n and associativity."""
    collector = Collector(pres)
    identity = (0,) * pres.ngens
    gens = [tuple(int(k == i) for k in range(pres.ngens)) for i in range(pres.ngens)]
    try:
        found = {identity}
        frontier = [identity]
        while frontier:
            fresh = []
            for key in frontier:
                for gk in gens:
                    prod = collector.multiply(key, gk)
                    if prod not in found:
                        found.add(prod)
                        fresh.append(prod)
            frontier = fresh
        if len(found) != pres.order:
            return False
        keys = sorted(found)
        index = {k: i for i, k in enumerate(keys)}
        t = np.array([[index[collector.multiply(a, b)] for b in keys] for a in keys])
    except BudgetExceeded:
        return False
    return bool(np.array_equal(t[t, :], t[:, t]))


def decided_consistent(pres: PcPresentation) -> bool:
    try:
        build_group(pres)
    except InconsistentPresentation:
        return False
    return True


@st.composite
def pc_presentations(draw):
    """Random presentations legal to PcPresentation: p in {2, 3}, <= 3 generators."""
    p = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 3))

    def word(floor):
        exps = [draw(st.integers(0, p - 1)) for _ in range(floor + 1, n + 1)]
        return tuple((k, e) for k, e in zip(range(floor + 1, n + 1), exps) if e)

    powers = {i: word(i) for i in range(1, n + 1)}
    comms = {(j, i): word(i) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return PcPresentation(p, n, powers, comms)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pc_presentations())
def test_relations_decide_like_brute_force(pres):
    assert decided_consistent(pres) == brute_force_consistent(pres)


@st.composite
def four_generator_presentations(draw, p):
    """Presentations on four generators; G_2, G_3 and G_4 of the cyclic
    extensions are then presentations on three, two and one generator.

    A commutator [g_j, g_i] is a word above g_j, so that many are consistent.
    """

    def word(floor):
        return tuple(
            (k, draw(st.integers(1, p - 1)))
            for k in range(floor + 1, 5)
            if draw(st.integers(0, 2)) == 0
        )

    powers = {i: word(i) for i in range(1, 5)}
    comms = {(j, i): word(j) for i in range(1, 5) for j in range(i + 1, 5)}
    return PcPresentation(p, 4, powers, comms)


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_extension_table_matches_collection(p, data):
    pres = data.draw(four_generator_presentations(p))
    # Collecting all of up to 625^2 products is too slow, so the reference
    # table is filled column by column: y = g_i1 g_i2 ... in normal form, and
    # x*y is x collected with one letter of y at a time.  In a consistent
    # presentation that is the collected normal form of the word x y.
    try:
        G = build_group(pres)
    except InconsistentPresentation:
        assume(False)
    collector = Collector(pres)
    keys = [x.key for x in G.elements()]
    gens = [g.key for g in G.generators]
    right = np.array([[G.index_of(G.element(collector.multiply(a, g))) for a in keys] for g in gens])
    want = np.empty((G.order, G.order), dtype=np.int64)
    for y, key in enumerate(keys):
        col = np.arange(G.order)
        for i, e in enumerate(key):
            for _ in range(e):
                col = right[i][col]
        want[:, y] = col
    assert np.array_equal(G.table(), want)


def test_inconsistent_presentation_reaching_all_words_names_relation():
    # prime 3 ngens 4; pow 1 = 2^1 4^1; pow 2 = 3^2; comm 4 2 = 4^2:
    # collection reaches all 81 normal words, yet g4^g2 = g4^3 = 1.
    pres = PcPresentation(3, 4, {1: ((2, 1), (4, 1)), 2: ((3, 2),)}, {(4, 2): ((4, 2),)})
    assert not brute_force_consistent(pres)
    with pytest.raises(InconsistentPresentation, match=r"relation \[g4, g2\] = g4\^2 fails"):
        build_group(pres)


# Presentations of the benchmark's decide workload (seed s, op #k as "seeds_k")
# on which word collection runs away instead of deciding.
RUNAWAY_PRESENTATIONS = {
    "seed1_2": PcPresentation(
        3, 4, {1: ((3, 2),), 3: ((4, 1),)},
        {(2, 1): ((2, 1), (3, 2), (4, 1)), (3, 1): ((3, 2),), (4, 3): ((4, 1),)},
    ),
    "seed1_7": PcPresentation(
        3, 4, {}, {(3, 2): ((4, 2),), (4, 2): ((3, 1), (4, 1)), (4, 3): ((4, 2),)}
    ),
    "seed2_7": PcPresentation(
        3, 4, {1: ((2, 1), (3, 2), (4, 1)), 2: ((3, 1), (4, 1)), 3: ((4, 1),)},
        {(2, 1): ((2, 2), (4, 1)), (3, 1): ((2, 1), (4, 2)), (4, 3): ((4, 2),)},
    ),
    "seed3_5": PcPresentation(
        3, 3, {1: ((2, 2),), 2: ((3, 2),)},
        {(2, 1): ((2, 2),), (3, 1): ((2, 2), (3, 2)), (3, 2): ((3, 2),)},
    ),
}


@pytest.mark.parametrize("label", sorted(RUNAWAY_PRESENTATIONS))
def test_former_runaway_presentations_are_rejected_quickly(label):
    start = time.perf_counter()
    with pytest.raises(InconsistentPresentation):
        build_group(RUNAWAY_PRESENTATIONS[label])
    assert time.perf_counter() - start < 0.1


# -- size cap ------------------------------------------------------------


def test_group_over_the_cap_is_refused_quickly():
    s7 = PermutationGenSet(
        7,
        (
            ("t", perm_from_cycles(7, [[1, 2]])),
            ("c", perm_from_cycles(7, [[1, 2, 3, 4, 5, 6, 7]])),
        ),
    )
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="2048"):
        build_group(s7)
    assert time.perf_counter() - start < 2.0
