"""Conjugacy-class labels and the decomposition witness: work counts and relabelling.

The kept class labels replace one table gather per class, and the ordered
cyclic product skips the factors that cannot change it, so the work both do
is a deterministic count, pinned here with no timer.  The metamorphic test
rebuilds the corpus and ladder groups through the public FiniteGroup with
their element indices permuted: the classes, the classes of cyclic
subgroups, the witness and the verdicts built on them must not move, since
none of them depends on how the elements are numbered.  The reference
oracles of test_series_oracle.py check the same kernels against handle
loops on the groups as built.
"""

import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouplab import checks, kernels
from grouplab.actions import ActionFixture
from grouplab.corpus import corpus_fixture
from grouplab.fixtures import parse_fixture, realize_groups
from grouplab.groups import (
    Automorphism,
    FiniteGroup,
    PcPresentation,
    PermutationGenSet,
    build_group,
    perm_from_cycles,
)
from grouplab.liering import check_prop_2_11, decomposition_witness
from test_checks import within

LADDER = Path(__file__).resolve().parents[1] / "perfbench" / "ladder.grp"


def c2_11() -> FiniteGroup:
    return build_group(PcPresentation(2, 11))


def cyclic_2048() -> FiniteGroup:
    # g_i^2 = g_{i+1}: a cyclic group of order 2^11 generated by g_1
    return build_group(PcPresentation(2, 11, powers={i: ((i + 1, 1),) for i in range(1, 11)}))


def s6() -> FiniteGroup:
    gens = (("a", perm_from_cycles(6, [(1, 2)])), ("b", perm_from_cycles(6, [(1, 2, 3, 4, 5, 6)])))
    return build_group(PermutationGenSet(6, gens))


# -- work counts -------------------------------------------------------------


def test_prop_2_11_multiplies_only_until_the_product_is_whole(monkeypatch):
    # C3wrC3's witness has 64 factors, 54 of them trivial; the product of the
    # first four nontrivial ones is already the whole group, which covers it
    # at every depth
    G = realize_groups(parse_fixture(LADDER.read_text("utf-8")))["C3wrC3"]
    w = decomposition_witness(G)
    assert w.s == 64 and w.rhos.count(G._e) == 54
    calls = []

    def counted(G, left, right, _orig=kernels._product_mask):
        calls.append(len(right))
        return _orig(G, left, right)

    monkeypatch.setattr(kernels, "_product_mask", counted)
    verdict = check_prop_2_11(G, w)
    assert verdict.ok
    assert verdict.detail == "64 cyclic factors cover the group at every depth (class 3)"
    assert len(calls) == 4


def test_class_kernels_on_cap_sized_groups_give_the_closed_form_counts():
    # C2^11: every element is its own class and its own cyclic subgroup's
    # only generator; the cyclic group of order 2^11 has one cyclic subgroup
    # per divisor of 2^11; in S6 a class is the cycle type, and the classes
    # of cyclic subgroups are as many
    made = [(c2_11(), 2048, 2048), (cyclic_2048(), 2048, 12), (s6(), 11, 11)]
    with within(0.5):
        counts = [
            (len(kernels._class_representatives(G)), len(kernels._cyclic_class_representatives(G)))
            for G, _, _ in made
        ]
    assert counts == [(classes, cyclic) for _, classes, cyclic in made]


# -- relabelling -------------------------------------------------------------


def relabelled(G: FiniteGroup, perm) -> FiniteGroup:
    """G through the public FiniteGroup, with the element at index perm[i] moved to index i."""
    perm = np.asarray(perm, dtype=np.int64)
    new_index = np.empty_like(perm)
    new_index[perm] = np.arange(len(perm))
    table = new_index[G.table()[perm[:, None], perm]]
    generators = [(name, g.key) for name, g in zip(G.generator_names, G.generators)]
    return FiniteGroup(G.backend, [G._keys[i] for i in perm], table, generators, G._repr_key)


def class_partition(G: FiniteGroup) -> set:
    label = kernels._class_labels(G)
    return {frozenset(G._keys[i] for i in np.flatnonzero(label == m)) for m in set(label.tolist())}


def invariants(ctx) -> dict:
    """What relabelling leaves alone, per group and action of a run context."""
    out = {}
    for name, G in ctx.groups.items():
        out[name] = [class_partition(G), len(kernels._cyclic_class_representatives(G))]
        if G.is_p_group() is not None:
            w = checks._witness(G, **ctx.requests.get(("prop_2_11", name), {}))
            out[name] += [w.K, w.s]
        for check in ("fitting", "prop_2_11"):
            row = checks._row(ctx, name, check, checks._GROUP_HANDLERS[check], False)
            out[name].append(row.status)
    for name in ctx.actions:
        out[name] = checks._row(ctx, name, "c4_6", checks._ACTION_HANDLERS["c4_6"], False).status
    return out


FIXTURES = {"corpus": corpus_fixture(), "ladder": parse_fixture(LADDER.read_text("utf-8"))}


@functools.cache
def want(which: str) -> dict:
    return invariants(checks.RunContext(FIXTURES[which]))


@pytest.mark.parametrize("which", sorted(FIXTURES))
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_relabelling_moves_no_class_witness_or_verdict(which, data):
    ctx = checks.RunContext(FIXTURES[which])
    moved = {
        id(G): relabelled(G, data.draw(st.permutations(range(G.order)), label=name))
        for name, G in ctx.groups.items()
    }
    ctx.groups = {name: moved[id(G)] for name, G in ctx.groups.items()}
    for name, fx in ctx.actions.items():
        G = moved[id(fx.group)]
        images = [[G.element(phi(g).key) for g in fx.group.generators] for phi in fx.generators]
        ctx.actions[name] = ActionFixture(name, G, tuple(Automorphism(G, i) for i in images))
    assert invariants(ctx) == want(which)
