"""Cayley tables and pc consistency against direct references.

Pc tables are built by cyclic extensions, quotient tables from coset
representatives and permutation tables by enumeration.  The references
here are the direct algorithms: word collection for pc presentations,
the parent's products reduced to minimal coset members for quotients,
composition of image tuples for permutations, and associativity over every
triple of a fully collected table.
"""

import importlib.util
import random
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grouplab.corpus import load_corpus
from grouplab.errors import BudgetExceeded, InconsistentPresentation
from grouplab.fixtures import parse_fixture
from grouplab.groups import (
    TABLE_CAP,
    PcPresentation,
    PermutationGenSet,
    _pc_repr,
    _pc_table,
    _word_index,
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
def pc_presentations(draw, primes=(2, 3), max_gens=3):
    """Random presentations legal to PcPresentation: p in primes, <= max_gens generators.

    Above TABLE_CAP the generator count is cut to the largest whose order fits.
    """
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(1, max_gens))
    while p**n > TABLE_CAP:
        n -= 1

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


# -- the per-relation builder as the reference ------------------------------


def reference_pc_table(pres: PcPresentation) -> np.ndarray:
    """The cyclic-extension builder that tests conjugation by g_k on each G_j in turn.

    At level k, phi is extended from G_{j+1} to G_j = <g_j, ..., g_n> for j
    = n down to k + 1 and checked injective and a homomorphism on every G_j
    before the next step, so a failure names the relation [g_j, g_k] at once;
    each block (a, b) of the new table is written by its own np.take.  The
    library decides all j of one level at once and fills the table in one
    gather; its tables and messages must be these.
    """
    p, n = pres.p, pres.ngens

    def word(w) -> str:
        key = [0] * n
        for idx, exp in w:
            key[idx - 1] = exp
        return _pc_repr(tuple(key))

    T = np.zeros((1, 1), dtype=np.int64)
    for k in range(n, 0, -1):
        m = len(T)
        phi = np.zeros(1, dtype=np.int64)
        for j in range(n, k, -1):
            comm = pres.commutators.get((j, k), ())
            image = T[p ** (n - j), _word_index(comm, p, n)]
            powers = [0]
            for _ in range(p - 1):
                powers.append(T[powers[-1], image])
            phi = T[np.ix_(powers, phi)].ravel()
            size = len(phi)
            gens = [p ** (n - i) for i in range(j, n + 1)]
            if np.count_nonzero(np.bincount(phi)) < size or any(
                not np.array_equal(phi[T[:size, g]], T[phi, phi[g]]) for g in gens
            ):
                span = ", ".join(f"g{i}" for i in range(j, n + 1))
                raise InconsistentPresentation(
                    f"relation [g{j}, g{k}] = {word(comm)} fails: conjugation by "
                    f"g{k} is no automorphism of <{span}>"
                )
        pw = pres.powers.get(k, ())
        w = _word_index(pw, p, n)
        if phi[w] != w:
            raise InconsistentPresentation(
                f"relation g{k}^{p} = {word(pw)} fails: g{k} does not commute with it"
            )
        w_inv = int(np.argmax(T[w] == 0))
        phi_p = np.arange(m)
        for _ in range(p):
            phi_p = phi[phi_p]
        if not np.array_equal(phi_p, T[T[w_inv], w]):
            raise InconsistentPresentation(
                f"relation g{k}^{p} = {word(pw)} fails: conjugation by g{k}^{p} "
                "is not conjugation by it"
            )
        table = np.empty((p * m, p * m), dtype=np.int64)
        phi_b = np.arange(m)
        for b in range(p):
            for a in range(p):
                block = table[a * m : (a + 1) * m, b * m : (b + 1) * m]
                np.take(T, T[w, phi_b] if a + b >= p else phi_b, axis=0, out=block)
                block += (a + b) % p * m
            phi_b = phi[phi_b]
        T = table
    return T


def outcome(build, pres):
    """("table", T) or ("reject", exception type, message) of one builder on pres."""
    try:
        return ("table", build(pres))
    except InconsistentPresentation as exc:
        return ("reject", type(exc), str(exc))


def assert_builds_like_the_reference(pres):
    got, want = outcome(_pc_table, pres), outcome(reference_pc_table, pres)
    assert got[0] == want[0]
    if got[0] == "table":
        assert got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
    else:
        assert got[1:] == want[1:]
    return got[0]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def decide_presentations() -> dict:
    """The 24 presentations of the benchmark's decide workload, seeds 1-3, as "seeds_k"."""
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = {}
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for k in range(module.DECIDE_PASS):
            out[f"seed{seed}_{k}"] = module.random_presentation(rng)
    return out


def fixture_presentations() -> dict:
    """Every pc presentation of the corpus, the ladder and the build fixture."""
    out = {}
    texts = {
        "corpus": load_corpus().fixture,
        "ladder": parse_fixture((PERFBENCH / "ladder.grp").read_text("utf-8")),
        "build": parse_fixture((PERFBENCH / "build.grp").read_text("utf-8")),
    }
    for where, fx in texts.items():
        for entry in fx.groups:
            if isinstance(entry.presentation, PcPresentation):
                out[f"{where}:{entry.name}"] = entry.presentation
    return out


DECIDE_PRESENTATIONS = decide_presentations()
FIXTURE_PRESENTATIONS = fixture_presentations()


def test_the_oracle_inputs_cover_both_decisions():
    assert len(DECIDE_PRESENTATIONS) == 24
    decided = {outcome(_pc_table, pres)[0] for pres in DECIDE_PRESENTATIONS.values()}
    assert decided == {"table", "reject"}
    assert len(FIXTURE_PRESENTATIONS) == 13  # 10 corpus, 2 ladder, 1 build


@pytest.mark.parametrize("label", sorted(FIXTURE_PRESENTATIONS))
def test_fixture_tables_match_the_per_relation_builder(label):
    assert assert_builds_like_the_reference(FIXTURE_PRESENTATIONS[label]) == "table"


@pytest.mark.parametrize("label", sorted(DECIDE_PRESENTATIONS))
def test_decide_presentations_build_like_the_per_relation_builder(label):
    assert_builds_like_the_reference(DECIDE_PRESENTATIONS[label])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pc_presentations(primes=(2, 3, 5), max_gens=6))
def test_random_presentations_build_like_the_per_relation_builder(pres):
    assert_builds_like_the_reference(pres)


def test_each_relation_kind_is_named_like_the_reference():
    cases = {
        # conjugation by g1 sends g3 to 1: the walk stops at its first G_j, j = n
        "comm at j = n": PcPresentation(3, 3, {}, {(3, 1): ((3, 2),)}),
        # it sends g2 to 1 and fixes g3: the walk reaches G_{k+1} = G_2
        "comm at j = k + 1": PcPresentation(2, 3, {}, {(2, 1): ((2, 1),)}),
        # g1^3 = g2, which conjugation by g1 inverts
        "power not fixed": PcPresentation(3, 2, {1: ((2, 1),)}, {(2, 1): ((2, 1),)}),
        # conjugation by g1 has order 3 on <g2, g3> = C2 x C2, and g1^2 = 1
        "power not central": PcPresentation(2, 3, {}, {(2, 1): ((2, 1), (3, 1)), (3, 1): ((2, 1),)}),
    }
    messages = {}
    for name, pres in cases.items():
        assert assert_builds_like_the_reference(pres) == "reject", name
        messages[name] = outcome(_pc_table, pres)[2]
    assert messages["comm at j = n"] == (
        "relation [g3, g1] = g3^2 fails: conjugation by g1 is no automorphism of <g3>"
    )
    assert messages["comm at j = k + 1"] == (
        "relation [g2, g1] = g2 fails: conjugation by g1 is no automorphism of <g2, g3>"
    )
    assert messages["power not fixed"] == "relation g1^3 = g2 fails: g1 does not commute with it"
    assert messages["power not central"] == (
        "relation g1^2 = 1 fails: conjugation by g1^2 is not conjugation by it"
    )


def test_class2_order_2048_table_peak_stays_at_two_tables():
    # Class 2, order 2^11: [g_{2i+2}, g_{2i+1}] = g11 for i = 0..4.  The last
    # level holds the old and the new table, 8 (1024^2 + 2048^2) bytes; the
    # per-relation builder also made a buffered copy of each 1024^2 block,
    # and peaked at 48.0 MB.
    pres = PcPresentation(2, 11, {}, {(2 * i + 2, 2 * i + 1): ((11, 1),) for i in range(5)})
    tracemalloc.start()
    try:
        table = _pc_table(pres)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    two_tables = 8 * (1024**2 + 2048**2)
    assert table.shape == (2048, 2048)
    assert peak <= two_tables + 2**20


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
