"""End-to-end acceptance: ten criteria over the bundled corpus.

Each test prints exactly one PASS/FAIL line (outside pytest's capture) so a
full run reads as a ten-line scorecard. Every criterion is exhaustive at
corpus scale; the two timed criteria pin their wall-clock budgets.
"""

import time

import numpy as np
import pytest

from grouplab.checks import run_checks
from grouplab.cli import main as cli_main
from grouplab.corpus import bundled_isomorphisms, corpus_fixture, load_corpus
from grouplab.errors import HypothesisNotMet
from grouplab.fixtures import parse_fixture, serialize_fixture
from grouplab.identities import higman_polynomial, holds_identity
from grouplab.liering import (
    build_dl,
    check_cor_2_14,
    check_prop_2_11,
    decomposition_witness,
    lazard_check,
)
from grouplab.checks import check_lemma_3_3, check_lemma_3_4
from grouplab.series import (
    dimension_series,
    fitting_height,
    structure_predicates,
    verify_np_series,
)


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


def _report(capsys, num: int, text: str, problems: list) -> None:
    ok = not problems
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: " + "; ".join(problems)


def _index_tables(G):
    n = G.order
    t = G.table()
    idx = np.arange(n)
    inv = np.array([G.index_of(G.inverse(x)) for x in G.elements()])
    # C[x, y] = index of x^-1 y^-1 x y
    C = t[t[t[inv[:, None], inv[None, :]], idx[:, None]], idx[None, :]]
    return n, t, idx, inv, C


def test_criterion_01_group_axioms_and_commutator_identities(corpus, capsys):
    problems = []
    started = time.perf_counter()
    for name, G in corpus.groups.items():
        if G.order > 512:
            problems.append(f"{name}: order {G.order} exceeds the corpus bound")
            continue
        e = G.identity
        for a in G.elements():
            if G.multiply(e, a) != a or G.multiply(a, e) != a:
                problems.append(f"{name}: identity law fails at {a!r}")
            if not G.multiply(a, G.inverse(a)).is_identity():
                problems.append(f"{name}: inverse law fails at {a!r}")
        n, t, idx, inv, C = _index_tables(G)
        X, Y = idx[:, None], idx[None, :]
        for a in range(n):
            if not np.array_equal(t[t[a, :], :], t[a, :][t]):
                problems.append(f"{name}: associativity fails in row {a}")
                break
        if not np.array_equal(np.sort(t, axis=1), np.tile(idx, (n, 1))):
            problems.append(f"{name}: multiplication table is not a Latin square")
        # inversion swaps the commutator's arguments
        if not np.array_equal(inv[C], C.T):
            problems.append(f"{name}: [x,y]^-1 != [y,x] somewhere")
        e_idx = G.index_of(e)
        for z in range(n):
            # left product rule: [xy, z] = [x,z] [x,z,y] [y,z]
            lhs = C[t, z]
            cxz = C[:, z]
            rhs = t[t[cxz[:, None], C[cxz[:, None], Y]], cxz[None, :]]
            if not np.array_equal(lhs, rhs):
                problems.append(f"{name}: [xy,z] expansion fails at z={z}")
                break
            # right product rule: [x, yz] = [x,z] [x,y] [x,y,z]
            lhs = C[X, t[:, z][None, :]]
            rhs = t[t[cxz[:, None], C], C[C, z]]
            if not np.array_equal(lhs, rhs):
                problems.append(f"{name}: [x,yz] expansion fails at z={z}")
                break
            # Hall-Witt: the three conjugated double commutators cancel
            a1 = C[C[X, inv[Y]], z]
            t1 = t[t[inv[Y], a1], Y]
            a2 = C[C[Y, inv[z]], X]
            t2 = t[t[inv[z], a2], z]
            a3 = C[C[z, inv[X]], Y]
            t3 = t[t[inv[X], a3], X]
            if not np.all(t[t[t1, t2], t3] == e_idx):
                problems.append(f"{name}: Hall-Witt product misses 1 at z={z}")
                break
    elapsed = time.perf_counter() - started
    if elapsed >= 60:
        problems.append(f"took {elapsed:.1f}s, budget is 60s")
    _report(
        capsys,
        1,
        f"group axioms and commutator identities, exhaustive triples over "
        f"{len(corpus.groups)} groups in {elapsed:.1f}s",
        problems,
    )


def test_criterion_02_dimension_series_is_an_np_series(corpus, capsys):
    problems = []
    checked = 0
    for name, G in corpus.groups.items():
        info = G.is_p_group()
        if info is None:
            continue
        verdict = verify_np_series(G, dimension_series(G), info[0])
        if not verdict.ok:
            problems.append(f"{name}: {verdict.detail}")
        checked += 1
    if checked != 12:
        problems.append(f"expected 12 p-groups, saw {checked}")
    _report(
        capsys,
        2,
        f"dimension series passes both containment families on {checked} p-groups",
        problems,
    )


def test_criterion_03_graded_algebra_axioms_and_correspondence(corpus, capsys):
    problems = []
    algebras = 0
    for name, G in corpus.groups.items():
        if G.is_p_group() is None:
            continue
        L = build_dl(G)
        basis = L.basis()
        for u in basis:
            if not L.bracket(u, u).is_zero():
                problems.append(f"{name}: [u,u] != 0 at {u!r}")
            for v in basis:
                uv = L.bracket(u, v)
                if uv != L.element(-L.bracket(v, u).vec):
                    problems.append(f"{name}: antisymmetry fails at ({u!r},{v!r})")
                if not uv.is_zero() and uv.degree != u.degree + v.degree:
                    problems.append(f"{name}: grading fails at ({u!r},{v!r})")
                for w in basis:
                    summed = L.bracket(L.element(u.vec + v.vec), w)
                    if summed != L.element(L.bracket(u, w).vec + L.bracket(v, w).vec):
                        problems.append(
                            f"{name}: bilinearity fails at ({u!r},{v!r},{w!r})"
                        )
                    s = (
                        L.bracket(L.bracket(u, v), w).vec
                        + L.bracket(L.bracket(v, w), u).vec
                        + L.bracket(L.bracket(w, u), v).vec
                    )
                    if (s % L.p).any():
                        problems.append(
                            f"{name}: Jacobi fails at ({u!r},{v!r},{w!r})"
                        )
        for x in G.elements():
            if x.is_identity():
                continue
            verdict = lazard_check(G, L, x)
            if not verdict.ok:
                problems.append(f"{name}: correspondence fails at {x!r}")
        algebras += 1
    _report(
        capsys,
        3,
        f"graded-algebra axioms plus the power/index correspondence on "
        f"{algebras} algebras",
        problems,
    )


def test_criterion_04_symmetrized_power_law(corpus, capsys):
    problems = []
    covered = []
    for name, G in corpus.groups.items():
        if G.is_p_group() is None:
            continue
        n = G.exponent()
        if n not in (2, 3, 4):
            continue
        verdict = holds_identity(higman_polynomial(n), build_dl(G))
        if not verdict.ok:
            problems.append(f"{name}: degree-{n} law fails: {verdict.detail}")
        covered.append(name)
    expected = {"C2", "C3", "C4", "C3xC3", "D8pc", "D8perm", "Q8pc", "Q8perm", "Heis27"}
    if set(covered) != expected:
        problems.append(f"exponent 2..4 groups were {sorted(covered)}")
    _report(
        capsys,
        4,
        f"symmetrized power law holds on all {len(covered)} small-exponent algebras",
        problems,
    )


def test_criterion_05_cyclic_decomposition_and_index_bound(corpus, capsys):
    problems = []
    for name in ("D8pc", "Q8pc", "Heis27", "ES27", "D16"):
        G = corpus.groups[name]
        w = decomposition_witness(G, None)
        cover = check_prop_2_11(G, w)
        if not cover.ok:
            problems.append(f"{name}: decomposition fails: {cover.detail}")
        bound = check_cor_2_14(G, w)
        if not bound.ok:
            problems.append(f"{name}: index bound fails: {bound.detail}")
    _report(
        capsys,
        5,
        "ordered cyclic decomposition covers all five witness groups and the "
        "K^s index bound holds at every depth",
        problems,
    )


def test_criterion_06_commutator_subgroup_conditions(corpus, capsys):
    problems = []
    v = check_lemma_3_3(corpus.groups["S3"], k=2, p=3)
    if not v.ok:
        problems.append(f"S3 k=2 p=3: {v.detail}")
    for name, G in corpus.groups.items():
        if G.is_p_group() is None:
            continue
        v = check_lemma_3_3(G)
        if not v.ok:
            problems.append(f"{name}: {v.detail}")
    for name, G in corpus.groups.items():
        if structure_predicates(G).is_nilpotent:
            v = check_lemma_3_4(G)
            if not v.ok:
                problems.append(f"{name} nilpotent case: {v.detail}")
    v = check_lemma_3_4(corpus.groups["D8xC3"], k=2)
    if not v.ok:
        problems.append(f"D8xC3: {v.detail}")
    # S4 at p=2 must be rejected with an order-3 commutator as the witness
    S4 = corpus.groups["S4"]
    try:
        check_lemma_3_3(S4, k=2, p=2)
        problems.append("S4 k=2 p=2 was not rejected")
    except HypothesisNotMet as exc:
        w = exc.witness
        if S4.element_order(w) != 3:
            problems.append(f"S4 witness {w!r} has order {S4.element_order(w)}")
        if not any(
            S4.commutator(x, y) == w for x in S4.elements() for y in S4.elements()
        ):
            problems.append(f"S4 witness {w!r} is not a commutator value")
    rows = {
        (r.group, r.check): r
        for r in run_checks(corpus_fixture(), ["lemma_3_3,lemma_3_4"]).rows
    }
    if rows[("S4", "lemma_3_3")].status != "skipped":
        problems.append("corpus run did not skip S4 under lemma_3_3")
    _report(
        capsys,
        6,
        "q-element and Engel commutator conditions verified, S4 rejected "
        "with a 3-cycle witness",
        problems,
    )


def test_criterion_07_coprime_action_suite(corpus, capsys):
    problems = []
    expected = {
        ("kleinC33", "c4_1"): "pass",
        ("kleinC33", "c4_2"): "pass",
        ("kleinC33", "c4_6"): "pass",
        ("kleinC33", "obs_4_8"): "pass",
        ("kleinC33", "pm_split"): "skipped",
        ("kleinC33", "c4_12"): "skipped",
        ("kleinH27", "c4_1"): "pass",
        ("kleinH27", "c4_2"): "pass",
        ("kleinH27", "c4_6"): "pass",
        ("kleinH27", "obs_4_8"): "pass",
        ("kleinH27", "pm_split"): "skipped",
        ("kleinH27", "c4_12"): "skipped",
        ("invC9", "c4_1"): "skipped",
        ("invC9", "c4_2"): "skipped",
        ("invC9", "c4_6"): "pass",
        ("invC9", "obs_4_8"): "pass",
        ("invC9", "pm_split"): "pass",
        ("invC9", "c4_12"): "pass",
        ("invC33", "c4_1"): "skipped",
        ("invC33", "c4_2"): "skipped",
        ("invC33", "c4_6"): "pass",
        ("invC33", "obs_4_8"): "pass",
        ("invC33", "pm_split"): "pass",
        ("invC33", "c4_12"): "pass",
    }
    report = run_checks(
        corpus_fixture(), ["c4_1,c4_2,c4_6,obs_4_8,pm_split,c4_12"]
    )
    rows = {(r.group, r.check): r for r in report.rows}
    for key, want in expected.items():
        got = rows[key].status
        if got != want:
            problems.append(f"{key}: expected {want}, got {got} ({rows[key].details})")
    inv_row = rows[("invC9", "c4_12")]
    for needle in ("|C_G(a)| = 1", "|inverted set| = 9", "unique for all", "equals"):
        if needle not in inv_row.details:
            problems.append(f"invC9 decomposition detail lacks {needle!r}")
    _report(
        capsys,
        7,
        "coprime-action checks match the expected pass/skip matrix; "
        "inversion on the cyclic 9-group decomposes fully with trivial "
        "fixed subgroup",
        problems,
    )


def test_criterion_08_fitting_heights(corpus, capsys):
    problems = []
    table = []
    for name, G in corpus.groups.items():
        profile = structure_predicates(G)
        if not profile.is_solvable:
            problems.append(f"{name} is not solvable")
            continue
        height = fitting_height(G)
        table.append((name, profile.exponent, height))
        if profile.is_nilpotent and height != 1:
            problems.append(f"{name}: nilpotent but height {height}")
    heights = {name: h for name, _, h in table}
    for name, want in (("S3", 2), ("S4", 3), ("A4", 2)):
        if heights.get(name) != want:
            problems.append(f"{name}: height {heights.get(name)}, expected {want}")
    with capsys.disabled():
        print("  exponent vs height over the solvable corpus:")
        for name, exponent, height in sorted(table):
            print(f"    {name:<8} exponent {exponent:>2}  height {height}")
    _report(
        capsys,
        8,
        "normal-nilpotent tower heights: 1 on nilpotent groups, 2 on S3/A4, "
        "3 on S4; table emitted above",
        problems,
    )


def test_criterion_09_cross_backend_agreement(corpus, capsys):
    problems = []
    isos = bundled_isomorphisms(corpus)
    if set(isos) != {"D8", "Q8"}:
        problems.append(f"expected D8 and Q8 bridges, got {sorted(isos)}")
    for name, phi in isos.items():
        if not phi.is_bijective:
            problems.append(f"{name}: bridge is not bijective")
        src, dst = phi.source, phi.target
        for x in src.elements():
            for y in src.elements():
                if phi(src.multiply(x, y)) != dst.multiply(phi(x), phi(y)):
                    problems.append(f"{name}: product mismatch at ({x!r}, {y!r})")
    _report(
        capsys,
        9,
        "pc and permutation models of the order-8 groups agree on all "
        "products under the bundled bridges",
        problems,
    )


def test_criterion_10_tooling(corpus, capsys):
    problems = []
    fx = corpus_fixture()
    if parse_fixture(serialize_fixture(fx)) != fx:
        problems.append("round-trip changed the corpus fixture")
    started = time.perf_counter()
    first = run_checks(fx)
    second = run_checks(fx)
    elapsed = time.perf_counter() - started
    if first.to_json() != second.to_json():
        problems.append("two reports are not byte-identical")
    if first.has_failures:
        problems.append("corpus run has failure rows")
    if elapsed >= 300:
        problems.append(f"two corpus runs took {elapsed:.0f}s, budget is 300s")
    code = cli_main(["corpus"])
    if code != 0:
        problems.append(f"corpus command exited {code}")
    _report(
        capsys,
        10,
        f"round-trip, byte-identical reports, corpus command exit 0 "
        f"({elapsed:.1f}s for two full runs)",
        problems,
    )
