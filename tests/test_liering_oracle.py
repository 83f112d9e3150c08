"""The index-native graded Lie ring against the loop algorithms it replaced.

The references below are the earlier element-by-element algorithms: the
component bookkeeping of coset representatives multiplied one key pair at a
time through mul_keys (``qmul``), brackets assembled block by
block from the structure constants, ad matrices one basis column at a time,
Lazard's power law one element at a time through FiniteGroup.power and
element_order, the recursive bracket-tree evaluation of Lie polynomials,
the Jacobi identity one basis triple at a time, and the Engel condition one
algebra element at a time.  The library computes the same coordinates,
structure constants, verdicts and details from one coordinate array and one
structure-constant tensor.  The dimension series is also assembled here
from public commutator and power subgroups by Lazard's recurrence
D_i = [D_{i-1}, G]·D_{ceil(i/p)}^p.  The library follows the same recurrence
on generators, so this guards the assembly, not the formula; the oracle
independent of it is test_series_oracle.ref_dimension, the defining product
of powers of the lower central terms, built one handle at a time.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from grouplab import checks, corpus_text, identities, liering, parse_fixture, run_checks
from grouplab.errors import (
    ActionNotWellDefined,
    BudgetExceeded,
    InconsistentPresentation,
    NotAPGroup,
)
from grouplab.gfp import is_invertible, mat_pow, reduce_mod, rref
from grouplab.groups import PcPresentation, build_group
from grouplab.identities import (
    LiePolynomial,
    _polynomial_values,
    higman_polynomial,
    holds_identity,
    is_n_engel_algebra,
)
from grouplab.liering import (
    GradedAutomorphism,
    GradedLieRing,
    GradedSubspace,
    LieElement,
    build_dl,
    lazard_check,
)
from grouplab.kernels import _power_map
from grouplab.series import (
    Subgroup,
    Verdict,
    _closure,
    commutator_subgroup,
    dimension_series,
    power_subgroup,
    whole_subgroup,
)
from test_series_oracle import cases, class3_order243, mul_keys, unitriangular_4_2

# -- reference algorithms --------------------------------------------------------


def solve_in_row_space(basis, vec, p: int) -> np.ndarray | None:
    """Coefficients c with c @ basis = vec mod p, or None if vec is outside."""
    b = reduce_mod(basis, p)
    v = reduce_mod(vec, p)
    if b.shape[0] == 0:
        return np.zeros(0, dtype=np.int64) if not v.any() else None
    # Solve b^T c = v by eliminating the augmented system.
    aug = np.concatenate([b.T, v.reshape(-1, 1)], axis=1)
    reduced, pivots = rref(aug, p)
    ncoef = b.shape[0]
    if ncoef in pivots:
        return None
    coeffs = np.zeros(ncoef, dtype=np.int64)
    for r, c in enumerate(pivots):
        coeffs[c] = reduced[r, ncoef]
    return coeffs


def in_row_space(basis, vec, p: int) -> bool:
    """Whether vec lies in the row space of basis over F_p."""
    return solve_in_row_space(basis, vec, p) is not None


def test_solve_in_row_space_recovers_coefficients():
    basis = np.array([[1, 0, 2], [0, 1, 1]], dtype=np.int64)
    vec = (4 * basis[0] + 3 * basis[1]) % 5
    coeffs = solve_in_row_space(basis, vec, 5)
    assert coeffs is not None
    assert np.array_equal(coeffs @ basis % 5, vec)
    assert list(coeffs) == [4, 3]


def test_solve_outside_row_space_is_none():
    basis = np.array([[1, 0, 0]], dtype=np.int64)
    assert solve_in_row_space(basis, np.array([0, 1, 0]), 5) is None
    assert not in_row_space(basis, np.array([0, 1, 0]), 5)
    assert in_row_space(basis, np.array([3, 0, 0]), 5)


def assemble(p, dims, blocks) -> np.ndarray:
    """The structure tensor with block blocks[(i, j)] at degrees (i, j); absent pairs are zero."""
    offsets = np.cumsum((0,) + tuple(dims))
    span = [slice(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
    C = np.zeros((offsets[-1],) * 3, dtype=np.int64)
    for (i, j), table in blocks.items():
        C[span[i - 1], span[j - 1], span[i + j - 1]] = np.asarray(table) % p
    return C


def ref_all_vectors(L) -> list:
    """Every coordinate vector of L, the first coordinate slowest."""
    return [np.array(v, dtype=np.int64) for v in itertools.product(range(L.p), repeat=L.total_dim)]


class RefAlgebra:
    """The component bookkeeping of coset representatives, one key product at a time."""

    def __init__(self, G):
        p = G.is_p_group()[0]
        terms = dimension_series(G).terms
        m = len(terms) - 1
        self.dims, self.basis, self.depth, comps = [], [], {}, []
        for x in G.elements():
            self.depth[x.key] = max(i for i, t in enumerate(terms, start=1) if x in t)
        for i in range(1, m + 1):
            D, N = terms[i - 1], terms[i]
            nkeys = [n.key for n in N.elements()]
            rep_of = {x.key: min(mul_keys(G, x.key, n) for n in nkeys) for x in D.elements()}
            id_rep = rep_of[G.identity.key]
            reps = sorted(set(rep_of.values()))

            def qmul(r1, r2, rep_of=rep_of):
                return rep_of[mul_keys(G, r1, r2)]

            for r1 in reps:
                acc = id_rep
                for _ in range(p):
                    acc = qmul(acc, r1)
                assert acc == id_rep
                assert all(qmul(r1, r2) == qmul(r2, r1) for r2 in reps)
            d = 0
            while p**d < len(reps):
                d += 1
            basis, span = [], {id_rep}
            for r in reps:
                if r in span:
                    continue
                basis.append(r)
                grown = set()
                for s in span:
                    acc = s
                    for _ in range(p):
                        grown.add(acc)
                        acc = qmul(acc, r)
                span = grown
                if len(basis) == d:
                    break
            coord_of = {}
            for combo in itertools.product(range(p), repeat=d):
                acc = id_rep
                for b, e in zip(basis, combo):
                    for _ in range(e):
                        acc = qmul(acc, b)
                coord_of[acc] = combo
            assert len(coord_of) == len(reps)
            comps.append((rep_of, coord_of))
            self.dims.append(d)
            self.basis.extend(basis)
        offsets = np.cumsum([0] + self.dims)
        n = int(offsets[-1])
        # star[key]: the image of the element in the component of its depth
        self.star = {}
        for x in G.elements():
            vec = np.zeros(n, dtype=np.int64)
            i = self.depth[x.key]
            if i <= m:
                rep_of, coord_of = comps[i - 1]
                vec[offsets[i - 1] : offsets[i]] = coord_of[rep_of[x.key]]
            self.star[x.key] = vec
        self.sc = {}
        degree = np.repeat(np.arange(1, m + 1), self.dims)
        for i in range(1, m + 1):
            for j in range(1, m + 1 - i):
                k = i + j
                rep_of, coord_of = comps[k - 1]
                table = np.zeros((self.dims[i - 1], self.dims[j - 1], self.dims[k - 1]), dtype=np.int64)
                xs = [b for b, deg in zip(self.basis, degree) if deg == i]
                ys = [b for b, deg in zip(self.basis, degree) if deg == j]
                for a, x in enumerate(xs):
                    for b, y in enumerate(ys):
                        c = G.commutator(G.element(x), G.element(y))
                        assert self.depth[c.key] >= k
                        table[a, b, :] = coord_of[rep_of[c.key]]
                self.sc[(i, j)] = table


def ref_bracket(L, u, v) -> np.ndarray:
    """Bilinear extension of the structure constants, one block at a time."""
    out = np.zeros(L.total_dim, dtype=np.int64)
    for (i, j), table in L.sc.items():
        ui = u[L.offsets[i - 1] : L.offsets[i]]
        vj = v[L.offsets[j - 1] : L.offsets[j]]
        if ui.any() and vj.any():
            out[L.offsets[i + j - 1] : L.offsets[i + j]] += np.einsum("a,b,abk->k", ui, vj, table)
    return out % L.p


def ref_ad(L, a) -> np.ndarray:
    """Column t is [e_t, a]."""
    eye = np.eye(L.total_dim, dtype=np.int64)
    return np.array([ref_bracket(L, e, a) for e in eye], dtype=np.int64).reshape(
        L.total_dim, L.total_dim
    ).T


def ref_ad_index(L, A) -> int:
    power, n = A.copy(), 1
    while power.any():
        power = power @ A % L.p
        n += 1
    return n


def ref_lazard_check(G, L, coords, x) -> Verdict:
    p = L.p
    lhs = mat_pow(ref_ad(L, coords[G.index_of(x)]), p, p)
    xp = G.power(x, p)
    if xp.is_identity():
        rhs = np.zeros((L.total_dim, L.total_dim), dtype=np.int64)
    else:
        rhs = ref_ad(L, coords[G.index_of(xp)])
    power_ok = np.array_equal(lhs, rhs)
    index = ref_ad_index(L, ref_ad(L, coords[G.index_of(x)]))
    order = G.element_order(x)
    index_ok = index <= order
    return Verdict(
        power_ok and index_ok,
        f"(ad x*)^{p} {'==' if power_ok else '!='} ad((x^{p})*); "
        f"ad-index {index} {'<=' if index_ok else '>'} element order {order}",
    )


def ref_lazard_row(G, L, coords) -> Verdict:
    count = 0
    for x in G.elements():
        if x.is_identity():
            continue
        verdict = ref_lazard_check(G, L, coords, x)
        if not verdict.ok:
            return Verdict(False, f"at {x!r}: {verdict.detail}")
        count += 1
    return Verdict(True, f"{count} nontrivial elements verified (power and index bounds)")


def ref_eval_tree(tree, L, assignment) -> np.ndarray:
    if isinstance(tree, int):
        return assignment[tree]
    return ref_bracket(
        L, ref_eval_tree(tree[0], L, assignment), ref_eval_tree(tree[1], L, assignment)
    )


def ref_evaluate(f, L, assignment) -> np.ndarray:
    total = np.zeros(L.total_dim, dtype=np.int64)
    for coeff, tree in f.terms:
        total = (total + coeff * ref_eval_tree(tree, L, assignment)) % L.p
    return total


def ref_holds_identity(f, L, force_exhaustive=False) -> Verdict:
    variables = sorted(f.variables)
    if f.is_multilinear and not force_exhaustive:
        pool, mode = list(np.eye(L.total_dim, dtype=np.int64)), "basis"
    else:
        pool, mode = ref_all_vectors(L), "exhaustive"
    total = len(pool) ** len(variables)
    for checked, combo in enumerate(itertools.product(pool, repeat=len(variables)), start=1):
        if ref_evaluate(f, L, dict(zip(variables, combo))).any():
            return Verdict(
                False,
                f"nonzero value at assignment {checked} of {total}",
                mode,
                witness=tuple(LieElement(L, u) for u in combo),
            )
    return Verdict(True, f"zero on all {total} {mode} assignments", mode)


def ref_jacobi_failure(L):
    """The first basis triple on which the Jacobi identity fails, or None."""
    eye = np.eye(L.total_dim, dtype=np.int64)
    for u, v, w in itertools.product(range(L.total_dim), repeat=3):
        u_, v_, w_ = eye[u], eye[v], eye[w]
        s = (
            ref_bracket(L, ref_bracket(L, u_, v_), w_)
            + ref_bracket(L, ref_bracket(L, v_, w_), u_)
            + ref_bracket(L, ref_bracket(L, w_, u_), v_)
        ) % L.p
        if s.any():
            return (u, v, w)
    return None


def ref_engel(L, n) -> Verdict:
    """ad(a)^n on every element a of L, one at a time."""
    count = 0
    for vec in ref_all_vectors(L):
        if mat_pow(ref_ad(L, vec), n, L.p).any():
            a = L.element(vec)
            return Verdict(False, f"ad(a)^{n} != 0 at a = {a!r}", "exhaustive", witness=a)
        count += 1
    return Verdict(True, f"ad(a)^{n} = 0 for all {count} exhaustive elements", "exhaustive")


def lazard_recurrence(G, p) -> list:
    """Masks of D_1 = G, D_i = [D_{i-1}, G]·D_{ceil(i/p)}^p, down to the trivial subgroup."""
    whole = whole_subgroup(G)
    terms = [whole]
    i = 2
    while not terms[-1].is_trivial:
        comm = commutator_subgroup(G, terms[-1], whole)
        ceil = -(-i // p)
        powers = power_subgroup(G, terms[ceil - 1], p)
        terms.append(Subgroup(G, _closure(G, np.flatnonzero(comm.mask | powers.mask))))
        i += 1
    return [t.mask for t in terms]


# -- the groups under test ------------------------------------------------------


@functools.cache
def algebra_cases() -> dict:
    """The p-groups among the corpus, its quotients and the ladder, the order-243 group and UT(4, F_2)."""
    out = {name: G for name, G in cases().items() if G.is_p_group() is not None}
    out["Cl3o243"] = class3_order243()
    out["UT4F2"] = unitriangular_4_2()
    return out


NAMES = sorted(algebra_cases())


def assert_matches_reference(G):
    """Coordinates, depths, basis, structure constants, Lazard and Jacobi rows."""
    L = build_dl(G)
    ref = RefAlgebra(G)
    assert L.dims == tuple(ref.dims)
    assert [G._keys[r] for r in L.reps] == ref.basis
    for x in G.elements():
        k = G.index_of(x)
        assert np.array_equal(L.coords[k], ref.star[x.key]), x
        assert L.depth[k] == ref.depth[x.key]
    # sc keeps the blocks of nonzero degree pairs; every block it leaves out is empty
    kept = {(i, j) for i, j in ref.sc if ref.dims[i - 1] and ref.dims[j - 1]}
    assert list(L.sc) == sorted(kept)
    for pair, table in ref.sc.items():
        if pair in kept:
            assert np.array_equal(L.sc[pair], table), pair
        else:
            assert table.size == 0, pair
    assert checks._lazard(None, G, "G") == ref_lazard_row(G, L, L.coords)
    n = L.total_dim
    assert ref_jacobi_failure(L) is None
    assert checks._jacobi(None, G, "G") == Verdict(
        True, f"{n * n} basis pairs and {n ** 3} triples verified", "basis"
    )
    assert [t.mask.tolist() for t in dimension_series(G).terms] == [
        t.tolist() for t in lazard_recurrence(G, L.p)
    ]


def test_algebra_cases_cover_corpus_quotients_ladder_and_restated_groups():
    assert len(NAMES) == 12 + 9 + 2 + 2  # corpus, quotients, ladder, restated here
    assert {"Heis27/N", "D8pc/N", "ladder Heis125", "ladder C3wrC3", "Cl3o243"} <= set(NAMES)
    L = build_dl(algebra_cases()["UT4F2"])
    squares = L.coords[_power_map(L.group, 2)]
    assert L.dims == (3, 2, 1) and (L.ads(squares) != 0).any(axis=(1, 2)).sum() == 24


@pytest.mark.parametrize("name", NAMES)
def test_algebra_matches_reference(name):
    assert_matches_reference(algebra_cases()[name])


@pytest.mark.parametrize("name", NAMES)
def test_lazard_check_matches_reference_on_every_element(name):
    G = algebra_cases()[name]
    L = build_dl(G)
    for x in G.elements()[1:]:
        assert lazard_check(G, L, x) == ref_lazard_check(G, L, L.coords, x)


def planted_coords(G, L):
    """Coordinates with the image of one p-th power moved onto a non-central image.

    Every x with that p-th power then breaks (ad x*)^p = ad((x^p)*); None when
    the algebra is abelian or every p-th power is trivial.
    """
    ads = L.ads(L.coords)
    live = np.flatnonzero(ads.reshape(G.order, -1).any(axis=1))
    if not live.size:
        return None
    powers = {G.index_of(G.power(x, L.p)) for x in G.elements()} - {G.index_of(G.identity)}
    if not powers:
        return None
    planted = L.coords.copy()
    planted[max(powers)] = L.coords[live[0]]
    return planted


def test_lazard_reports_the_first_failing_element(monkeypatch):
    several = 0
    for name in NAMES:
        G = algebra_cases()[name]
        L = build_dl(G)
        planted = planted_coords(G, L)
        if planted is None:
            continue
        want = ref_lazard_row(G, L, planted)
        with monkeypatch.context() as mp:
            mp.setattr(L, "coords", planted)
            assert checks._lazard(None, G, name) == want, name
        failing = sum(not ref_lazard_check(G, L, planted, x).ok for x in G.elements()[1:])
        several += failing > 1
    assert several >= 5


@pytest.mark.parametrize("name", NAMES)
def test_identities_match_the_recursive_evaluation(name):
    L = build_dl(algebra_cases()[name])
    polys = [higman_polynomial(n) for n in (2, 3, 4) if L.total_dim**n <= 10**4]
    polys.append(LiePolynomial(((1, (0, (1, 2))), (2, ((0, 1), 2)))))  # not left-normed
    for f in polys:
        assert holds_identity(f, L) == ref_holds_identity(f, L)
    if L.p**L.total_dim <= 81:
        square = LiePolynomial(((1, ((0, 1), 0)), (1, ((1, 0), 1))))  # x0 and x1 twice
        assert holds_identity(square, L) == ref_holds_identity(square, L)


@pytest.mark.parametrize("name", NAMES)
def test_polynomial_values_match_the_recursive_evaluation(name):
    """Every entry of a block of assignments, one axis per variable, and one assignment alone."""
    L = build_dl(algebra_cases()[name])
    rng = np.random.default_rng(L.total_dim)
    f = LiePolynomial(((1, ((0, 1), 2)), (5, (2, (0, 0))), (1, (1, 2)), (1, 1)))
    leaves = {v: rng.integers(0, L.p, (2 + v, L.total_dim)) for v in range(3)}
    values = _polynomial_values(f, L, leaves)
    assert values.shape == (2, 3, 4, L.total_dim)
    for combo in itertools.product(range(2), range(3), range(4)):
        want = ref_evaluate(f, L, {v: leaves[v][k] for v, k in enumerate(combo)})
        assert np.array_equal(values[combo], want)
    one = {v: leaves[v][:1] for v in range(3)}
    assert np.array_equal(
        _polynomial_values(f, L, one).reshape(L.total_dim),
        ref_evaluate(f, L, {v: one[v][0] for v in range(3)}),
    )
    # a multilinear f over one pool takes the per-shape path
    g = LiePolynomial(((1, ((0, 1), 2)), (2, (2, (1, 0)))))
    pool = rng.integers(0, L.p, (3, L.total_dim))
    values = _polynomial_values(g, L, dict.fromkeys(range(3), pool))
    for combo in itertools.product(range(3), repeat=3):
        assert np.array_equal(values[combo], ref_evaluate(g, L, dict(enumerate(pool[list(combo)]))))


@pytest.mark.parametrize("name", NAMES)
def test_engel_condition_equals_the_element_scan(name, monkeypatch):
    L = build_dl(algebra_cases()[name])
    if L.p**L.total_dim > 729:
        pytest.skip("the reference element scan is kept to 729 elements")
    for n in range(1, L.p + 1):
        assert is_n_engel_algebra(L, n) == ref_engel(L, n)
    # scanned within the budget, refused beyond it with one message for every n
    size = L.p**L.total_dim
    monkeypatch.setattr(identities, "ENGEL_EXACT_LIMIT", size - 1)
    for n in range(1, L.p + 1):
        with pytest.raises(BudgetExceeded) as err:
            is_n_engel_algebra(L, n)
        assert str(err.value) == f"{size} elements exceed the budget of {size - 1}"


def test_engel_scan_finds_failures_with_a_witness():
    # degree n = 1 < p fails on every non-abelian algebra, n = 2 on class 3
    failures = 0
    for name in NAMES:
        L = build_dl(algebra_cases()[name])
        for n in range(1, L.p):
            verdict = is_n_engel_algebra(L, n)
            if not verdict.ok:
                failures += 1
                assert mat_pow(L.ads(verdict.witness.vec[None])[0], n, L.p).any()
    assert failures >= 10


def random_graded_tables(rng, p, dims):
    """Antisymmetric, alternating bracket blocks with random entries."""
    m = len(dims)
    sc = {}
    for i in range(1, m + 1):
        for j in range(i, m + 1 - i):
            table = rng.integers(0, p, (dims[i - 1], dims[j - 1], dims[i + j - 1]))
            if i == j:
                table = table - table.transpose(1, 0, 2)
            sc[(i, j)] = table % p
            sc[(j, i)] = (-table.transpose(1, 0, 2)) % p
    return sc


def test_jacobi_tensor_identity_matches_the_triple_scan():
    rng = np.random.default_rng(11)
    refused = 0
    for trial in range(40):
        p = (2, 3, 5)[trial % 3]
        dims = ((2, 1, 1), (3, 1, 1), (2, 2, 1, 1))[trial % 3]
        sc = random_graded_tables(rng, p, dims)
        if trial % 4 == 0:  # brackets into degree 2 only: Jacobi holds
            sc = {pair: t * (pair == (1, 1)) for pair, t in sc.items()}
        shell = GradedLieRing(p, dims, assemble(p, dims, {}))
        shell.sc = {pair: np.asarray(t) for pair, t in sc.items()}
        failure = ref_jacobi_failure(shell)
        if failure is None:
            assert GradedLieRing(p, dims, assemble(p, dims, sc)).sc.keys() == {
                pair for pair in sc if pair[0] + pair[1] <= len(dims)
            }
        else:
            refused += 1
            with pytest.raises(InconsistentPresentation, match="Jacobi"):
                GradedLieRing(p, dims, assemble(p, dims, sc))
    assert 10 <= refused <= 35


def test_bracket_and_ad_match_the_block_loops():
    for name in NAMES:
        L = build_dl(algebra_cases()[name])
        rng = np.random.default_rng(L.total_dim)
        for _ in range(4):
            u, v = (L.element(rng.integers(0, L.p, L.total_dim)) for _ in range(2))
            assert np.array_equal(L.bracket(u, v).vec, ref_bracket(L, u.vec, v.vec))
            ad = L.ads(v.vec[None])
            assert np.array_equal(ad[0], ref_ad(L, v.vec))
            assert L.ad_nilpotency_indices(ad)[0] == ref_ad_index(L, ref_ad(L, v.vec))


def ref_respects_brackets(L, mats):
    """The first degree pair where phi[e_a, e_b] != [phi e_a, phi e_b], one pair at a time."""
    for (i, j), table in L.sc.items():
        for a in range(L.dims[i - 1]):
            for b in range(L.dims[j - 1]):
                lhs = mats[i + j - 1] @ table[a, b] % L.p
                rhs = np.einsum("a,b,abk->k", mats[i - 1][:, a], mats[j - 1][:, b], table) % L.p
                if not np.array_equal(lhs, rhs):
                    return (i, j)
    return None


def ref_bracket_closed(space) -> bool:
    L = space.algebra
    for (i, j), table in L.sc.items():
        for u in space.bases[i - 1]:
            for v in space.bases[j - 1]:
                w = np.einsum("a,b,abk->k", u, v, table) % L.p
                if w.any() and not in_row_space(space.bases[i + j - 1], w, L.p):
                    return False
    return True


def ref_lp_subalgebra(L):
    """Dims, embeddings and structure constants of the degree-one closure, pair by pair."""
    bases = [np.eye(L.dims[0], dtype=np.int64)]
    for k in range(2, L.m + 1):
        rows = [u @ L.sc[(k - 1, 1)][:, b, :] % L.p for u in bases[-1] for b in range(L.dims[0])]
        rows = [w for w in rows if w.any()]
        if rows:
            reduced, pivots = rref(np.array(rows), L.p)
            bases.append(reduced[: len(pivots)])
        else:
            bases.append(np.zeros((0, L.dims[k - 1]), dtype=np.int64))
    sc = {}
    for (i, j), table in L.sc.items():
        sub = np.zeros((len(bases[i - 1]), len(bases[j - 1]), len(bases[i + j - 1])), dtype=np.int64)
        for a, u in enumerate(bases[i - 1]):
            for b, v in enumerate(bases[j - 1]):
                w = np.einsum("a,b,abk->k", u, v, table) % L.p
                sub[a, b, :] = solve_in_row_space(bases[i + j - 1], w, L.p)
        sc[(i, j)] = sub
    return bases, sc


def free_class_two(p):
    """L_1 = <e1, e2, e3> and L_2 = <f12, f13, f23> with [e_i, e_j] = f_ij."""
    table = np.zeros((3, 3, 3), dtype=np.int64)
    for k, (i, j) in enumerate(itertools.combinations(range(3), 2)):
        table[i, j, k], table[j, i, k] = 1, p - 1
    return GradedLieRing(p, (3, 3), assemble(p, (3, 3), {(1, 1): table}))


def second_exterior(M, p):
    """M acting on L_2 = [L_1, L_1] of free_class_two, by its 2x2 minors."""
    pairs = list(itertools.combinations(range(3), 2))
    return np.array(
        [[M[r, c] * M[s, d] - M[s, c] * M[r, d] for c, d in pairs] for r, s in pairs]
    ) % p


def test_automorphism_verification_matches_the_pair_loop():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5):
        L = free_class_two(p)
        kept = refused = 0
        while min(kept, refused) < 8:
            M, N = rng.integers(0, p, (2, 3, 3))
            if not (is_invertible(M, p) and is_invertible(N, p)):
                continue
            for mats in ([M, second_exterior(M, p)], [M, N]):
                pair = ref_respects_brackets(L, mats)
                if pair is None:
                    kept += 1
                    assert GradedAutomorphism(L, mats).mats[1].tolist() == mats[1].tolist()
                else:
                    refused += 1
                    with pytest.raises(ActionNotWellDefined, match=rf"degrees \({pair[0]},{pair[1]}\)"):
                        GradedAutomorphism(L, mats)


def ref_degree_one_ring(L) -> GradedLieRing:
    """The degree-one closure of L as a ring of its own, from ref_lp_subalgebra's blocks."""
    bases, sc = ref_lp_subalgebra(L)
    dims = [len(b) for b in bases]
    return GradedLieRing(L.p, dims, assemble(L.p, dims, sc))


def test_subspace_closure_and_degree_one_closure_match_the_pair_loops():
    rng = np.random.default_rng(9)
    algebras = [build_dl(algebra_cases()[name]) for name in NAMES]
    algebras += [free_class_two(p) for p in (2, 3, 5)]
    outcomes = []
    for L in algebras:
        for _ in range(6):
            bases = [rng.integers(0, L.p, (rng.integers(0, d + 1), d)) for d in L.dims]
            space = GradedSubspace(L, bases)
            assert space.is_bracket_closed() == ref_bracket_closed(space)
            outcomes.append(space.is_bracket_closed())
        bases, _ = ref_lp_subalgebra(L)
        closure = liering._degree_one_closure(L)[0]
        assert [b.tolist() for b in closure] == [b.tolist() for b in bases]
    assert outcomes.count(False) >= 10


@pytest.mark.parametrize("name", NAMES)
def test_witness_class_is_the_class_of_the_degree_one_subalgebra(name):
    G = algebra_cases()[name]
    c = liering.decomposition_witness(G).c
    assert c == ref_degree_one_ring(build_dl(G)).nilpotency_class()
    assert c == liering.decomposition_witness(G, reversed(G.generators)).c


def test_witness_classes_reach_three():
    classes = {liering.decomposition_witness(algebra_cases()[name]).c for name in NAMES}
    assert classes == {1, 2, 3}


def test_witness_checks_the_degree_one_closure(monkeypatch):
    G = algebra_cases()["Heis27"]
    L = build_dl(G)
    monkeypatch.setattr(GradedSubspace, "outside", lambda self, vecs: np.ones(vecs.shape[:-1], bool))
    message = r"degree-one closure is not bracket-closed at degrees \(1,1\)"
    with pytest.raises(InconsistentPresentation, match=message):
        liering._degree_one_closure(L)
    with pytest.raises(InconsistentPresentation, match=message):
        liering.decomposition_witness(G)


# -- consistent pc p-groups drawn at random ----------------------------------------


@st.composite
def pc_p_groups(draw):
    """Consistent presentations with p in {2, 3} and at most four generators.

    Power relations are drawn sparse and commutator relations dense, so that
    many of the algebras are not abelian.
    """
    p = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(2, 4))

    def word(floor, dense):
        return tuple(
            (k, draw(st.integers(1, p - 1)))
            for k in range(floor + 1, n + 1)
            if draw(st.booleans()) and (dense or draw(st.booleans()))
        )

    powers = {i: word(i, False) for i in range(1, n + 1)}
    comms = {(j, i): word(j, True) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    try:
        return build_group(PcPresentation(p, n, powers, comms))
    except InconsistentPresentation:
        assume(False)


RANDOM_GROUPS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@RANDOM_GROUPS
@given(pc_p_groups())
def test_random_pc_p_groups_match_reference(G):
    assert_matches_reference(G)
    L = build_dl(G)
    for n in (2, 3):
        if L.total_dim**n <= 10**4:
            f = higman_polynomial(n)
            assert holds_identity(f, L) == ref_holds_identity(f, L)


def test_random_pc_p_groups_reach_class_three():
    classes = []

    @RANDOM_GROUPS
    @given(pc_p_groups())
    def collect(G):
        classes.append(build_dl(G).nilpotency_class())

    collect()
    assert max(classes) >= 3 and len(set(classes)) >= 3


# -- work done by one corpus pass ----------------------------------------------------


def test_corpus_pass_brackets_nothing_and_builds_each_algebra_once(monkeypatch):
    brackets, verified, rings = [], [], []

    def bracket(self, u, v, _orig=GradedLieRing.bracket):
        brackets.append(1)
        return _orig(self, u, v)

    def ring(self, *args, _orig=GradedLieRing.__init__, **kwargs):
        rings.append(1)
        _orig(self, *args, **kwargs)

    def well_defined(G, L, _orig=liering._verify_well_definedness):
        verified.append(G)
        return _orig(G, L)

    monkeypatch.setattr(GradedLieRing, "bracket", bracket)
    monkeypatch.setattr(liering, "_verify_well_definedness", well_defined)
    monkeypatch.setattr(GradedLieRing, "__init__", ring)
    fx = parse_fixture(corpus_text())
    run_checks(fx)
    assert brackets == []
    # one ring per p-group: the witness reads its class off the degree-one
    # closure and builds no second ring for it
    assert len(verified) == len({id(G) for G in verified}) == len(rings) == 12
    with pytest.raises(NotAPGroup):
        build_dl(checks.RunContext(fx).groups["S3"])
