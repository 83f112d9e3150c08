"""The coset closure and the permutation enumeration against the code they replaced.

kernels._close grows each span by whole cosets of the span before the new
generator (Dimino's algorithm), and groups._perm_table composes keys with
operator.itemgetter.  Their earlier forms are kept here as references:
ref_close grows the span breadth-first over whole layers, and
ref_perm_table composes keys with a generator expression per coordinate.
Both kernels must return exactly what their references return, the
generators _close keeps included, on every corpus, ladder and build group
and on the larger groups below.  The memo of FiniteGroup.is_p_group is held
to a factorization of the order here too.
"""

import functools
from pathlib import Path

import numpy as np
import pytest

from grouplab import checks, groups
from grouplab.corpus import corpus_fixture
from grouplab.errors import BudgetExceeded
from grouplab.fixtures import parse_fixture
from grouplab.groups import (
    TABLE_CAP,
    PcPresentation,
    PermutationGenSet,
    _perm_table,
    build_group,
    perm_from_cycles,
)
from grouplab.kernels import _close
from grouplab.series import dimension_series, lower_central_series

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


# -- references ----------------------------------------------------------------


def ref_close(G, gens, mask=None, kept=None) -> tuple:
    """(mask, kept) as kernels._close returns them, the span grown breadth-first by layers."""
    T = G.table()
    gens = np.asarray(gens, dtype=np.int64)
    if mask is None:
        mask = np.zeros(G.order, dtype=bool)
        mask[G._e] = True
        kept = []
    while True:
        outside = gens[~mask[gens]]
        if not outside.size:
            return mask, kept
        kept.append(outside[0])
        cols = T[:, kept]  # row x: x·g for every kept generator g
        frontier = mask.nonzero()[0]
        while frontier.size:
            fresh = np.zeros(G.order, dtype=bool)
            fresh[cols[frontier]] = True
            fresh &= ~mask
            mask |= fresh
            frontier = fresh.nonzero()[0]


def ref_perm_table(genset: PermutationGenSet) -> tuple:
    """(keys, table) as groups._perm_table returns them, each key composed coordinate by coordinate."""
    e = tuple(range(genset.degree))
    gen_keys = [images for _, images in genset.generators]
    tree = {e: None}
    right = {}
    frontier = [e]
    while frontier:
        fresh = []
        for key in frontier:
            right[key] = prods = [tuple(gk[x] for x in key) for gk in gen_keys]
            for pos, prod in enumerate(prods):
                if prod not in tree:
                    tree[prod] = (key, pos)
                    fresh.append(prod)
                    if len(tree) > TABLE_CAP:
                        raise BudgetExceeded(
                            f"group enumeration passed the cap of {TABLE_CAP} elements"
                        )
        frontier = fresh
    keys = sorted(tree)
    index = {key: i for i, key in enumerate(keys)}
    n = len(keys)
    right_perms = np.array(
        [[index[right[key][pos]] for key in keys] for pos in range(len(gen_keys))],
        dtype=np.int64,
    ).reshape(len(gen_keys), n)
    cols = np.empty((n, n), dtype=np.int64)
    for key, link in tree.items():
        if link is None:
            cols[index[key]] = np.arange(n)
        else:
            parent, pos = link
            cols[index[key]] = right_perms[pos][cols[index[parent]]]
    return keys, np.ascontiguousarray(cols.T)


def newest_only_close(G, gens, mask=None, kept=None) -> tuple:
    """A wrong coset closure: representatives are walked by the newest generator only."""
    T = G.table()
    gens = np.asarray(gens, dtype=np.int64)
    if mask is None:
        mask = np.zeros(G.order, dtype=bool)
        mask[G._e] = True
        kept = []
    while True:
        outside = gens[~mask[gens]]
        if not outside.size:
            return mask, kept
        kept.append(outside[0])
        span = mask.nonzero()[0]
        reps = [G._e]
        for r in reps:
            x = int(T[r, kept[-1]])
            if not mask[x]:
                mask[T[span, x]] = True
                reps.append(x)


# -- the groups ----------------------------------------------------------------


def perm(degree, *gens):
    return PermutationGenSet(
        degree, tuple((f"g{i}", perm_from_cycles(degree, c)) for i, c in enumerate(gens, 1))
    )


S6 = perm(6, [(1, 2)], [(1, 2, 3, 4, 5, 6)])


def fixture_specs(text) -> dict:
    return {entry.name: entry.presentation for entry in parse_fixture(text).groups}


@functools.cache
def small_specs() -> dict:
    """Every corpus and ladder group, by name: their closures are also checked element by element."""
    specs = {entry.name: entry.presentation for entry in corpus_fixture().groups}
    specs.update(fixture_specs((PERFBENCH / "ladder.grp").read_text("utf-8")))
    return specs


@functools.cache
def all_specs() -> dict:
    specs = dict(small_specs())
    specs.update(fixture_specs((PERFBENCH / "build.grp").read_text("utf-8")))
    specs["C3^6"] = PcPresentation(3, 6)
    specs["C2^11"] = PcPresentation(2, 11)
    # g_i^2 = g_{i+1}: a cyclic group of order 2^11 generated by g_1
    specs["C2048"] = PcPresentation(2, 11, powers={i: ((i + 1, 1),) for i in range(1, 11)})
    specs["S6"] = S6
    return specs


# -- _close ----------------------------------------------------------------------


def closure_inputs(G, name) -> list:
    """Generator lists _close is asked to span on this group."""
    inputs = [G._gens]
    terms = list(lower_central_series(G).terms)
    if G.is_p_group() is not None:
        terms += dimension_series(G).terms
    inputs += [H.idx for H in terms]
    if name in small_specs():
        inputs += [[x] for x in range(G.order)]
    return inputs


def mismatches(close, name) -> list:
    """The inputs on which close and ref_close differ, in-place extensions included."""
    G = build_group(all_specs()[name])
    bad = []
    for gens in closure_inputs(G, name):
        mask, kept = close(G, gens)
        ref_mask, ref_kept = ref_close(G, gens)
        if not np.array_equal(mask, ref_mask) or list(map(int, kept)) != list(map(int, ref_kept)):
            bad.append(("closed", list(map(int, gens))[:4]))
    # close half of the generators, then extend that span with the rest in place
    gens = G._gens
    half = len(gens) // 2
    mask, kept = close(G, gens[:half])
    ref_mask, ref_kept = ref_close(G, gens[:half])
    mask, kept = close(G, gens[half:], mask, kept)
    ref_mask, ref_kept = ref_close(G, gens[half:], ref_mask, ref_kept)
    if not np.array_equal(mask, ref_mask) or list(map(int, kept)) != list(map(int, ref_kept)):
        bad.append(("extended", half))
    return bad


@pytest.mark.parametrize("name", list(all_specs()))
def test_coset_closure_matches_the_layered_closure(name):
    assert mismatches(_close, name) == []


def test_a_walk_by_the_newest_generator_alone_is_caught():
    # a span S need not be normal, so the representatives must be multiplied
    # by every kept generator: S5 and S6 from a transposition and an n-cycle
    # close to 10 and 12 elements that way
    for name in ("S5", "S6"):
        assert mismatches(newest_only_close, name)


# -- _perm_table -------------------------------------------------------------------


PERM_SPECS = {
    "degree 1": PermutationGenSet(1, (("e", (0,)),)),
    "repeated generator": perm(4, [(1, 2, 3, 4)], [(2, 4)], [(1, 2, 3, 4)]),
    "identity generator": perm(3, [(1, 2)], [], [(1, 2, 3)]),
}


@pytest.mark.parametrize(
    "name",
    [name for name, spec in all_specs().items() if isinstance(spec, PermutationGenSet)]
    + list(PERM_SPECS),
)
def test_itemgetter_enumeration_matches_the_tuple_enumeration(name):
    spec = PERM_SPECS.get(name) or all_specs()[name]
    keys, table = _perm_table(spec)
    ref_keys, ref_table = ref_perm_table(spec)
    assert keys == ref_keys
    assert all(type(key) is tuple and len(key) == spec.degree for key in keys)
    assert np.array_equal(table, ref_table)


def test_the_perm_groups_above_cover_the_corpus_ladder_and_s6():
    perms = [name for name, spec in all_specs().items() if isinstance(spec, PermutationGenSet)]
    assert {"D8perm", "S3", "S5", "D8xC3", "S6"} <= set(perms)


# -- is_p_group ----------------------------------------------------------------------


def factorization(n) -> dict:
    """{prime: exponent} of n by trial division over every integer."""
    out, d = {}, 2
    while n > 1:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    return out


@pytest.mark.parametrize("name", list(all_specs()))
def test_the_kept_prime_power_matches_the_factorization(name):
    G = build_group(all_specs()[name])
    factors = factorization(G.order)
    expected = next(iter(factors.items())) if len(factors) == 1 else None
    assert G.is_p_group() == expected
    assert G.is_p_group() == expected  # the kept decision


def test_is_p_group_on_the_trivial_and_prime_orders():
    for spec, expected in ((perm(2, []), None), (perm(7, [(1, 2, 3, 4, 5, 6, 7)]), (7, 1))):
        assert build_group(spec).is_p_group() == expected


def test_a_corpus_run_factors_each_group_order_once(monkeypatch):
    factored, asked = [], set()
    prime_power = groups._prime_power
    is_p_group = groups.FiniteGroup.is_p_group

    def counted_factor(n):
        factored.append(n)
        return prime_power(n)

    def counted_ask(G):
        asked.add(id(G))
        return is_p_group(G)

    monkeypatch.setattr(groups, "_prime_power", counted_factor)
    monkeypatch.setattr(groups.FiniteGroup, "is_p_group", counted_ask)
    fx = corpus_fixture()
    checks.run_checks(fx)
    # every corpus group is asked, many times over, and factors its order once
    assert len(asked) == len(fx.groups) and len(factored) == len(asked)
