"""Cayley tables and pc consistency against brute-force references.

The table is filled from the generators' right multiplications and pc
presentations are decided from their relations; the references here are
the direct algorithms: one backend product per pair of elements, and
associativity over every triple of a fully collected table.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grouplab.groups as groups_module
from grouplab.corpus import load_corpus
from grouplab.errors import BudgetExceeded, InconsistentPresentation
from grouplab.groups import (
    PcPresentation,
    PermutationGenSet,
    _PcBackend,
    build_group,
    perm_from_cycles,
)
from grouplab.series import QuotientGroup, normal_closure


def class3_order243():
    # The class-3 group of order 3^5 of the benchmark's build workload.
    return PcPresentation(3, 5, {}, {(2, 1): ((3, 1),), (3, 1): ((4, 1),), (3, 2): ((5, 1),)})


def s4_mod_klein():
    S4 = load_corpus().groups["S4"]
    klein = normal_closure(S4, [S4.element((1, 0, 3, 2))])  # (1 2)(3 4)
    assert klein.order == 4
    return QuotientGroup(S4, klein).group


def reference_groups():
    groups = dict(load_corpus().groups)
    groups["S4/V4"] = s4_mod_klein()
    groups["Cl3o243"] = build_group(class3_order243())
    return groups


@pytest.fixture(scope="module")
def groups():
    return reference_groups()


@pytest.mark.parametrize("name", sorted(reference_groups()))
def test_table_matches_pairwise_backend_products(groups, name):
    G = groups[name]
    keys = [x.key for x in G.elements()]
    mul = G._backend.multiply
    want = np.array(
        [[G.index_of(G.element(mul(a, b))) for b in keys] for a in keys], dtype=np.int64
    )
    assert np.array_equal(G.table(), want)


@pytest.mark.parametrize("name", sorted(reference_groups()))
def test_inverse_matches_power(groups, name):
    G = groups[name]
    for a in G.elements():
        assert G.inverse(a) == G.power(a, G.order - 1)


def test_table_is_read_only():
    G = build_group(class3_order243())
    with pytest.raises(ValueError):
        G.table()[0, 0] = 1
    with pytest.raises(ValueError):
        G.inverse_indices()[0] = 1


# -- pc consistency: relations against brute-force associativity ---------


def brute_force_consistent(pres: PcPresentation) -> bool:
    """Collect the whole table, then demand order p^n and associativity."""
    backend = _PcBackend(pres)
    try:
        found = {backend.identity_key}
        frontier = [backend.identity_key]
        while frontier:
            fresh = []
            for key in frontier:
                for gk in backend.generator_keys:
                    prod = backend.multiply(key, gk)
                    if prod not in found:
                        found.add(prod)
                        fresh.append(prod)
            frontier = fresh
        if len(found) != pres.order:
            return False
        keys = sorted(found)
        index = {k: i for i, k in enumerate(keys)}
        t = np.array([[index[backend.multiply(a, b)] for b in keys] for a in keys])
    except BudgetExceeded:
        return False
    return bool(np.array_equal(t[t, :], t[:, t]))


def decided_consistent(pres: PcPresentation) -> bool:
    try:
        build_group(pres)
    except (InconsistentPresentation, BudgetExceeded):
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


# Collection runs away on many inconsistent presentations of this family, at
# a cost that grows with the square of the steps taken.  Both deciders run
# under the same lowered step budget, where collection in the consistent
# ones (order <= 27) stays far below it.
TEST_STEP_BUDGET = 1000


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pc_presentations())
def test_relations_decide_like_brute_force(pres):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups_module, "COLLECTION_STEP_BUDGET", TEST_STEP_BUDGET)
        assert decided_consistent(pres) == brute_force_consistent(pres)


def test_inconsistent_presentation_reaching_all_words_names_relation():
    # prime 3 ngens 4; pow 1 = 2^1 4^1; pow 2 = 3^2; comm 4 2 = 4^2:
    # collection reaches all 81 normal words, yet g4^g2 = g4^3 = 1.
    pres = PcPresentation(3, 4, {1: ((2, 1), (4, 1)), 2: ((3, 2),)}, {(4, 2): ((4, 2),)})
    assert not brute_force_consistent(pres)
    with pytest.raises(InconsistentPresentation, match=r"relation g2\^3 = g3\^2 fails"):
        build_group(pres)


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
