"""The graded Lie ring against an exhaustive scan of every coset member.

build_dl trusts Lazard's theorem for the dimension series D_1 > D_2 > ...:
each D_i/D_(i+1) is elementary abelian, [D_i, D_j] lies in D_(i+j), and the
bracket [x·D_(i+1), y·D_(j+1)] = [x, y]·D_(i+j+1) does not depend on the
coset representatives (Lazard 1954; Khukhro 1998, ch. 3).  dl_oracle
checks the last two on a built ring, reading only the Cayley table, the
inverse array and the ring's reps, coords, series and sc, and nothing of
the library's table kernels.  For every pair of degrees (i, j) of nonzero
dimension with i + j <= m, every basis representative x of degree i and y
of degree j, and every n1 in D_(i+1) and n2 in D_(j+1), [x·n1, y·n2] must
lie in [x, y]·D_(i+j+1).  [x, y] must lie in D_(i+j), and its coordinates
in degree i+j must be the block sc[(i, j)].

It runs on every p-group of the corpus, its quotients and the ladder, on
the build group Cl3o243, on the order-2048 groups of test_long_series, and
on random pc p-groups.  It refuses three plants: a table entry moved so that
one coset member's bracket leaves its coset, Heis27 over the non-central
series G > <g2, g3> > 1, and one structure constant of sc moved by 1 mod p.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings

from grouplab import build_dl, parse_fixture
from grouplab.groups import build_group
from grouplab.series import generated_subgroup
from test_liering import heis27, pc, planted_series
from test_liering_oracle import NAMES, RANDOM_GROUPS, algebra_cases, pc_p_groups
from test_long_series import GROUPS as LONG_SERIES

BLOCK = 1 << 16  # commutators formed per step of the coset-member scan


def commutator(T, inv, x, y):
    """[x, y] = x^-1 y^-1 x y = (yx)^-1 (xy), elementwise over broadcast index arrays."""
    return T[inv[T[y, x]], T[x, y]]


def dl_oracle(G, L, block=BLOCK):
    """Raise AssertionError at the first degree pair (i, j), in sorted order, that fails."""
    T, inv = G.table(), G.inverse_indices()
    terms = L.series.terms  # terms[k] is D_(k+1); terms[m] is trivial
    m = len(terms) - 1
    degree = sum(t.mask[L.reps].astype(np.int64) for t in terms)  # of each basis vector
    live = sorted(set(degree.tolist()))
    pairs = [(i, j) for i in live for j in live if i + j <= m]
    assert list(L.sc) == pairs, "the bracket blocks are not the pairs of nonzero degrees"
    for i, j in pairs:
        xs, ys = L.reps[degree == i], L.reps[degree == j]
        c = commutator(T, inv, xs[:, None], ys[None, :])
        assert terms[i + j - 1].mask[c].all(), f"bracket of degrees ({i},{j}) escapes D_{i + j}"
        assert np.array_equal(L.coords[c][:, :, degree == i + j], L.sc[(i, j)]), (
            f"structure constants of degrees ({i},{j}) differ from the commutators"
        )
        undo, modulus = inv[c], terms[i + j].mask  # [x, y]^-1 per pair; D_(i+j+1)
        yn = T[ys[:, None], terms[j].idx[None, :]]  # y·n2, one row per y
        rows = max(1, block // yn.size)
        for a, x in enumerate(xs):
            xn = T[x, terms[i].idx]  # x·n1 for every n1
            for start in range(0, len(xn), rows):
                got = commutator(T, inv, xn[start : start + rows, None, None], yn[None])
                assert modulus[T[undo[a][None, :, None], got]].all(), (
                    f"bracket of degrees ({i},{j}) depends on representatives"
                )


# -- the groups under test -------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_the_oracle_accepts_every_algebra_case(name):
    G = algebra_cases()[name]
    dl_oracle(G, build_dl(G))


@pytest.mark.parametrize("name", list(LONG_SERIES))
def test_the_oracle_accepts_the_long_series_groups(name):
    G = build_group(parse_fixture(LONG_SERIES[name] + "\n").groups[0].presentation)
    dl_oracle(G, build_dl(G))


@settings(RANDOM_GROUPS, max_examples=15)
@given(pc_p_groups())
def test_the_oracle_accepts_random_pc_p_groups(G):
    dl_oracle(G, build_dl(G))


# -- plants -------------------------------------------------------------------------


def cl3o243():
    """Class-3 group of order 3^5: D_2 has order 27, so degrees (1,1) have 729 pairs."""
    return pc(3, 5, {}, {(2, 1): ((3, 1),), (3, 1): ((4, 1),), (3, 2): ((5, 1),)})


def plant_dependence_at_one_pair(monkeypatch):
    """Cl3o243 and its algebra, with one table entry moved: degrees (1,1) depend on representatives."""
    G = cl3o243()
    L = build_dl(G)
    dl_oracle(G, L)
    D2, D3 = L.series.terms[1], L.series.terms[2]
    assert (D2.order, D3.order) == (27, 9)
    T, inv = G.table(), G.inverse_indices()
    # plant at the last basis pair of degrees (1,1) and the last n1, n2 in D_2:
    # a new value of x·n1 · y·n2 that moves [x·n1, y·n2] out of [x, y]·D_3
    x, y = (int(r) for r in L.reps[: L.dims[0]])
    xn, yn = T[x, D2.idx[-1]], T[y, D2.idx[-1]]
    undo = inv[G.index_of(G.commutator(G.element_at(x), G.element_at(y)))]
    bad = next(z for z in range(G.order) if not D3.mask[T[undo, T[inv[T[yn, xn]], z]]])
    planted = T.copy()
    planted[xn, yn] = bad
    monkeypatch.setattr(G, "table", lambda: planted)
    return G, L


def plant_heis27_over_a_non_central_term(monkeypatch):
    """Heis27 over G > <g2, g3> > 1: [x, x·g2] = [x, g2] is not trivial."""
    G = heis27()
    g1, g2, g3 = G.generators
    planted_series(monkeypatch, G, generated_subgroup(G, [g2, g3]))
    return G


def test_the_oracle_catches_a_dependence_at_one_pair(monkeypatch):
    G, L = plant_dependence_at_one_pair(monkeypatch)
    with pytest.raises(AssertionError, match=r"\(1,1\) depends on representatives"):
        dl_oracle(G, L)


def test_the_oracle_refuses_a_bracket_that_depends_on_representatives(monkeypatch):
    # build_dl trusts the series it is given, so it builds this ring
    G = plant_heis27_over_a_non_central_term(monkeypatch)
    L = build_dl(G)
    assert L.dims == (1, 2)
    with pytest.raises(AssertionError, match=r"\(1,1\) depends on representatives"):
        dl_oracle(G, L)


@pytest.mark.parametrize("block", [1, 64, BLOCK])
def test_the_oracle_outcome_does_not_depend_on_the_block(block, monkeypatch):
    # the n1 of each pair are read in blocks of commutators; one n1 per
    # block, a few, or the default must decide alike
    heis125 = pc(5, 3, {}, {(2, 1): ((3, 1),)})
    c3wrc3 = pc(3, 4, {}, {(2, 1): ((3, 1),), (3, 1): ((4, 1),)})
    for G in (cl3o243(), heis125, c3wrc3):
        dl_oracle(G, build_dl(G), block)
    G, L = plant_dependence_at_one_pair(monkeypatch)
    with pytest.raises(AssertionError, match=r"\(1,1\) depends on representatives"):
        dl_oracle(G, L, block)
    G = plant_heis27_over_a_non_central_term(monkeypatch)
    with pytest.raises(AssertionError, match=r"\(1,1\) depends on representatives"):
        dl_oracle(G, build_dl(G), block)


@pytest.mark.parametrize("name", ["Cl3o243", "UT4F2", "Heis27"])
def test_the_oracle_refuses_every_structure_constant_moved_by_one(name):
    G = algebra_cases()[name]
    L = build_dl(G)
    moved = 0
    for pair, block in L.sc.items():
        for entry in np.ndindex(block.shape):
            planted = block.copy()
            planted[entry] = (planted[entry] + 1) % L.p
            ring = types.SimpleNamespace(**vars(L))
            ring.sc = {**L.sc, pair: planted}
            named = r"structure constants of degrees \(%d,%d\)" % pair
            with pytest.raises(AssertionError, match=named):
                dl_oracle(G, ring)
            moved += 1
    assert moved > 0
