"""Commutator subgroups and N_p containments on generator pairs.

[H, K] is the normal closure in <H, K> of the [x, y] over generators x of H
and y of K, and a normal subgroup contains [H, K] exactly when it contains
those; the series and the nilpotency test of a subgroup read no set of
commutator values.  These tests hold that one path to brute force, sympy,
the N_p-series verdicts and the pinned benchmark goldens, and pin the kinds
of value that a corpus run keeps in each group's store.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from grouplab import checks, series
from grouplab.corpus import corpus_fixture
from grouplab.fixtures import parse_fixture
from grouplab.groups import PcPresentation, PermutationGenSet, build_group, perm_from_cycles
from grouplab.series import (
    NormalSeries,
    derived_series,
    dimension_series,
    lower_central_series,
    verify_np_series,
    whole_subgroup,
)

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def workloads():
    """perfbench/workloads.py, which builds the benchmark ops and their golden summaries."""
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_dump(doc) -> bytes:
    """A golden document as perfbench/golden.py writes it."""
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("utf-8")


def pc(p, n, comms=None):
    return build_group(PcPresentation(p, n, {}, comms or {}))


def cl3o243():
    (entry,) = parse_fixture((PERFBENCH / "build.grp").read_text("utf-8")).groups
    return build_group(entry.presentation)


def heis27_squared():
    return pc(3, 6, {(2, 1): ((3, 1),), (5, 4): ((6, 1),)})


def c3_6():
    return pc(3, 6)


def cl2o2048():
    """Class 2, order 2^11: [g_{2i+2}, g_{2i+1}] = g11 for i = 0..4, all else commuting."""
    return pc(2, 11, {(2 * i + 2, 2 * i + 1): ((11, 1),) for i in range(5)})


def s6():
    gens = (("a", perm_from_cycles(6, [[1, 2]])), ("b", perm_from_cycles(6, [[1, 2, 3, 4, 5, 6]])))
    return build_group(PermutationGenSet(6, gens))


GROUPS = {"Cl3o243": cl3o243, "Heis27xHeis27": heis27_squared, "C3^6": c3_6, "Cl2o2048": cl2o2048}


# -- brute force: scan every pair, close by breadth-first search ---------------


def brute_close(G, mask) -> np.ndarray:
    """The subgroup generated by the marked elements: multiply until nothing new appears."""
    T = G.table()
    span = mask.copy()
    span[G.index_of(G.identity)] = True
    while True:
        idx = np.flatnonzero(span)
        grown = np.zeros(G.order, dtype=bool)
        grown[T[idx[:, None], idx].ravel()] = True
        if np.array_equal(grown, span):
            return span
        span = grown


def brute_commutator(G, H, K) -> np.ndarray:
    T = G.table()
    inv = G.inverse_indices()
    values = np.zeros(G.order, dtype=bool)
    ks = np.flatnonzero(K)
    for h in np.flatnonzero(H):
        values[T[inv[T[ks, h]], T[h, ks]]] = True
    return brute_close(G, values)


def brute_series_orders(G, kind: str) -> list:
    whole = np.ones(G.order, dtype=bool)
    terms = [whole]
    while True:
        nxt = brute_commutator(G, terms[-1], whole if kind == "lower-central" else terms[-1])
        if np.array_equal(nxt, terms[-1]):
            return [int(t.sum()) for t in terms]
        terms.append(nxt)


def brute_dimension_orders(G) -> list:
    p = G.is_p_group()[0]
    gamma, whole = [], np.ones(G.order, dtype=bool)
    term = whole
    while not gamma or not np.array_equal(term, gamma[-1]):
        gamma.append(term)
        term = brute_commutator(G, term, whole)
    orders, i = [G.order], 2
    while orders[-1] > 1:
        gens = np.zeros(G.order, dtype=bool)
        for j, term in enumerate(gamma, start=1):
            k = 0
            while j * p**k < i:
                k += 1
            for x in np.flatnonzero(term):
                y = G.identity
                for _ in range(p**k):
                    y = y * G.element_at(x)
                gens[G.index_of(y)] = True
        orders.append(int(brute_close(G, gens).sum()))
        i += 1
    return orders


@pytest.mark.parametrize("name", GROUPS)
def test_series_orders_match_brute_force(name):
    G = GROUPS[name]()
    assert lower_central_series(G).orders() == brute_series_orders(G, "lower-central")
    assert derived_series(G).orders() == brute_series_orders(G, "derived")
    assert dimension_series(G).orders() == brute_dimension_orders(G)


def test_s6_derived_series_matches_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    G = s6()
    S = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.key), size=6) for g in G.generators]
    )
    assert derived_series(G).orders() == [H.order() for H in S.derived_series()] == [720, 360]


@pytest.mark.parametrize("name", GROUPS)
def test_commutator_subgroups_match_brute_force_for_every_series_pair(name):
    G = GROUPS[name]()
    series_terms = lower_central_series(G).terms + derived_series(G).terms
    terms = list({t.mask.tobytes(): t for t in series_terms}.values())
    for H in terms:
        for K in terms:
            got = series.commutator_subgroup(G, H, K).mask
            assert np.array_equal(got, brute_commutator(G, H.mask, K.mask))


# -- the planted N_p-series: one verdict and one first failing pair -------------


def planted_series(G, *gens):
    """G > N > 1 with N the normal closure of [G, G] and the named generators."""
    whole = whole_subgroup(G)
    derived = series.commutator_subgroup(G, whole, whole)
    middle = series.normal_closure(G, [*derived.elements(), *map(G.generator_by_name, gens)])
    return NormalSeries(G, "planted", (whole, middle, series.trivial_subgroup(G)))


def test_planted_np_series_verdicts():
    cases = []
    for G, gens in ((cl3o243(), ()), (cl2o2048(), ("g1", "g3", "g5")), (heis27_squared(), ())):
        cases += [(G, planted_series(G, *gens)), (G, dimension_series(G))]
    verdicts = [
        (v.ok, v.detail) for v in (verify_np_series(G, S, G.is_p_group()[0]) for G, S in cases)
    ]
    assert verdicts == [
        (False, "[S_1, S_2] is not inside S_3"),  # class 3: [G, [G, G]] is not trivial
        (True, ""),
        (False, "[S_1, S_2] is not inside S_3"),  # [g2, g1] = g11 is not trivial
        (True, ""),
        (True, ""),  # class 2 and exponent 3
        (True, ""),
    ]


def test_np_series_fails_at_the_first_pair():
    # G > 1 on the class-2 group: [S_1, S_1] = [G, G] escapes S_2 = 1 first
    G = cl2o2048()
    S = NormalSeries(G, "planted", (whole_subgroup(G), series.trivial_subgroup(G)))
    assert verify_np_series(G, S, 2).detail == "[S_1, S_1] is not inside S_2"


# -- the benchmark's goldens -----------------------------------------------------
# The corpus report is pinned by tests/test_outputs.py.


def test_ladder_and_build_goldens_are_byte_identical():
    wl = workloads()
    ladder = {op.label: wl.report_rows(op.run()) for op in wl.WORKLOADS["ladder"].setup(0)}
    build = {op.label: wl.build_summary(op.run()) for op in wl.WORKLOADS["build"].setup(0)}
    assert golden_dump(ladder) == (PERFBENCH / "golden" / "ladder.json").read_bytes()
    assert golden_dump(build) == (PERFBENCH / "golden" / "build.json").read_bytes()


# -- the mechanism: generator pairs, never a value scan ----------------------------


def test_build_pipeline_builds_only_the_dimension_series(monkeypatch):
    built = []
    orig = series.Subgroup._closed

    def counted(group, mask):
        sub = orig(group, mask)
        built.append(sub.order)
        return sub

    monkeypatch.setattr(series.Subgroup, "_closed", counted)
    wl = workloads()
    (op,) = wl.WORKLOADS["build"].setup(0)
    G = op.run()[0]
    assert G.order == 243
    # the dimension series is built by Lazard's recurrence on generators:
    # neither [G, G] nor the lower central series is kept
    assert not any(key[0] == "commutator subgroup" for key in G._lattice)
    assert ("series", "lower-central") not in G._lattice
    assert ("series", "dimension") in G._lattice
    assert sorted(built) == [1, 9, 27, 243]


def test_a_corpus_run_keeps_twelve_kinds_in_the_group_store(monkeypatch):
    # a baseline for the store: every kind a full corpus run_checks keeps on its groups
    realized = []

    def kept(fx, _orig=checks.realize_groups):
        realized.append(_orig(fx))
        return realized[-1]

    monkeypatch.setattr(checks, "realize_groups", kept)
    checks.run_checks(corpus_fixture())
    (groups,) = realized
    assert len(groups) == 16
    assert sorted({key[0] for G in groups.values() for key in G._lattice}) == [
        "class labels",
        "commutator subgroup",
        "cyclic class representatives",
        "element orders",
        "exponent",
        "generators",
        "lie ring",
        "power map",
        "prime power",
        "series",
        "subgroup",
        "witness",
    ]


def test_series_terms_keep_the_generators_their_closure_kept():
    # every subgroup built through _spanned keeps the generators _close kept
    # for it; _generators would otherwise find them on demand, so each group
    # is fresh and only the results below, never an operand, are looked up
    free = pc(3, 6, {(2, 1): ((4, 1),), (3, 1): ((5, 1),), (3, 2): ((6, 1),)})
    for G in (free, *(make() for make in GROUPS.values())):
        whole = whole_subgroup(G)
        built = [
            *dimension_series(G).terms[1:],
            series.commutator_subgroup(G, whole, whole),
            series.power_subgroup(G, whole, G.is_p_group()[0]),
            series.normal_closure(G, [G.generators[-1]]),
        ]
        for term in built:
            gens = G._lattice[("generators", term.mask.tobytes())]
            assert np.array_equal(series._closure(G, gens), term.mask)
    derived = series.commutator_subgroup(free, whole_subgroup(free), whole_subgroup(free))
    assert derived.order == 27 and len(free._lattice[("generators", derived.mask.tobytes())]) == 3


def test_generators_of_a_subgroup_built_elsewhere_are_found_by_one_closure():
    G = cl2o2048()
    H = series.Subgroup(G, lower_central_series(cl2o2048()).terms[1].mask)
    assert ("generators", H.mask.tobytes()) not in G._lattice
    gens = series._generators(G, H)
    assert np.array_equal(series._closure(G, gens), H.mask)
    assert series._generators(G, H) is gens
