"""Objects closed by construction are not verified pair by pair, and stay exact.

The library builds its subgroups through series._subgroup, from masks that
are subgroups by construction, so no pair of members is scanned
(series._first_escape serves only a public Subgroup(G, mask)).  A
homomorphism is decided on its source's generators, so every pair is read
(groups._first_failing_pair) only to name the first failure.  These tests
hold the kept subgroups to the public full scan, pin where each pair scan
still runs, and guard with the stdlib ``ast`` that no other library code
builds subgroups past the scan.  The same holds for normality, which is
scanned only when read, for the library's series, built past the public
NormalSeries checks, for induced actions, built past the public
GradedAutomorphism checks, and for the automorphisms built past
Automorphism's verification: the identity, compositions, conjugations and
the elements of each acting group.
"""

import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from grouplab import checks, corpus_text, groups, parse_fixture, run_checks, series
from grouplab.errors import ActionNotWellDefined, ForeignElement, MalformedSpec, NotNormal
from grouplab.fixtures import realize_automorphisms, realize_groups
from grouplab.groups import (
    Automorphism,
    FiniteGroup,
    GroupHomomorphism,
    PcPresentation,
    build_group,
    inner_automorphism,
)
from grouplab.liering import GradedAutomorphism, build_dl, induced_action
from grouplab.series import NormalSeries, Subgroup

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
LIBRARY = sorted((ROOT / "src" / "grouplab").rglob("*.py"))


def build_op():
    """The one op of the benchmark's build workload (perfbench/workloads.py)."""
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (op,) = module.WORKLOADS["build"].setup(0)
    return op


def kept_subgroups(G) -> list:
    out = []
    for value in G._lattice.values():
        if isinstance(value, Subgroup):
            out.append(value)
        elif isinstance(value, series.NormalSeries):
            out.extend(value.terms)
    return out


def assert_kept_subgroups_pass_the_full_scan(G):
    kept = kept_subgroups(G)
    assert kept
    for H in kept:
        full = Subgroup(G, H.mask)
        assert full == H and full.is_normal == H.is_normal


def realized_groups(fx, monkeypatch) -> list:
    """run_checks on fx, and the groups it realized."""
    out = []

    def recorded(fx, _orig=checks.realize_groups):
        realized = _orig(fx)
        out.extend(realized.values())
        return realized

    monkeypatch.setattr(checks, "realize_groups", recorded)
    run_checks(fx)
    return out


@pytest.mark.parametrize("fixture", ["corpus", "ladder"])
def test_catalog_subgroups_pass_the_public_scan(fixture, monkeypatch):
    text = corpus_text() if fixture == "corpus" else (PERFBENCH / "ladder.grp").read_text("utf-8")
    realized = realized_groups(parse_fixture(text), monkeypatch)
    assert len(realized) == (16 if fixture == "corpus" else 4)
    for G in realized:
        assert_kept_subgroups_pass_the_full_scan(G)


def test_build_subgroups_pass_the_public_scan():
    G = build_op().run()[0]
    assert G.order == 243
    assert_kept_subgroups_pass_the_full_scan(G)


# -- where the pair scans still run -------------------------------------------


def count_calls(monkeypatch, module, name) -> list:
    calls = []

    def counted(*args, _orig=getattr(module, name)):
        calls.append(1)
        return _orig(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_build_op_scans_no_pair_to_verify(monkeypatch):
    witness = count_calls(monkeypatch, groups, "_first_failing_pair")
    escape = count_calls(monkeypatch, series, "_first_escape")
    op = build_op()
    op.run()
    assert witness == [] and escape == []


def test_a_failure_still_reaches_each_pair_scan_once(monkeypatch):
    witness = count_calls(monkeypatch, groups, "_first_failing_pair")
    escape = count_calls(monkeypatch, series, "_first_escape")
    D8 = build_group(PcPresentation(2, 3, {2: ((3, 1),)}, {(2, 1): ((3, 1),)}))
    C2 = build_group(PcPresentation(2, 1))
    x = C2.generators[0]
    with pytest.raises(MalformedSpec, match="do not extend to a homomorphism"):
        GroupHomomorphism(D8, C2, [x, x, x])  # g2^2 = g3 would need 1 = x
    assert witness == [1]
    mask = [False] * D8.order
    mask[D8.index_of(D8.identity)] = mask[D8.index_of(D8.generators[0])] = True
    mask[D8.index_of(D8.generators[1])] = True
    with pytest.raises(ForeignElement, match="candidate set is not closed"):
        Subgroup(D8, mask)
    assert escape == [1]


# -- who may build a subgroup -------------------------------------------------


def subgroup_builders(source: str) -> list:
    """(line, enclosing function, call) of every Subgroup(...) and every ._closed(...) call."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "Subgroup":
                found.append((node.lineno, where, "Subgroup"))
            elif isinstance(func, ast.Attribute) and func.attr == "_closed":
                found.append((node.lineno, where, "_closed"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), None)
    return found


def test_only_series_subgroup_builds_past_the_closure_scan():
    found = {
        path.name: subgroup_builders(path.read_text("utf-8")) for path in LIBRARY
    }
    calls = [(name, where, call) for name, hits in found.items() for _, where, call in hits]
    assert calls == [("series.py", "_subgroup", "_closed")]


def test_the_builder_guard_names_each_call():
    source = (
        "def _subgroup(G, mask):\n"
        "    return Subgroup._closed(G, mask)\n"
        "def helper(G, mask):\n"
        "    return Subgroup(G, mask), series.Subgroup._closed(G, mask)\n"
        "sub = Subgroup(G, mask)\n"
    )
    assert subgroup_builders(source) == [
        (2, "_subgroup", "_closed"),
        (4, "helper", "Subgroup"),
        (4, "helper", "_closed"),
        (5, None, "Subgroup"),
    ]


# -- who may build a group past the generator check ---------------------------


def group_builders(source: str) -> list:
    """(line, enclosing function) of every ._built(...) call."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_built"
        ):
            found.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), None)
    return found


def test_only_the_builders_skip_the_generator_check():
    # build_group's pc and permutation tables and the quotient tables are
    # spanned by their generators by construction; every other FiniteGroup
    # goes through the public constructor, which closes its generators
    calls = [
        (path.name, where)
        for path in LIBRARY
        for _, where in group_builders(path.read_text("utf-8"))
    ]
    assert sorted(calls) == [
        ("groups.py", "build_group"),
        ("groups.py", "build_group"),
        ("series.py", "__init__"),
    ]


def test_the_group_builder_guard_names_each_call():
    source = (
        "def build_group(spec):\n"
        "    return FiniteGroup._built('pc', keys, table, gens, r)\n"
        "G = groups.FiniteGroup._built('perm', keys, table, gens, r)\n"
        "H = FiniteGroup('perm', keys, table, gens, r)\n"
    )
    assert group_builders(source) == [(2, "build_group"), (3, None)]


def test_built_groups_would_pass_the_generator_check():
    fx = parse_fixture(corpus_text())
    built = []
    for entry in fx.groups:
        G = build_group(entry.presentation)
        built.append(G)
        built.extend(
            series.QuotientGroup(G, N).group for N in series.lower_central_series(G).terms
        )
    assert len(built) > 40
    for G in built:
        keys = [G.element_at(i).key for i in range(G.order)]
        gens = list(zip(G.generator_names, (g.key for g in G.generators)))
        checked = FiniteGroup(G.backend, keys, G.table(), gens, G._repr_key)
        assert checked.order == G.order


# -- what the library trusts by construction ----------------------------------
#
# Normality is read only when asked (Subgroup.is_normal, series._normalized),
# the lower central, derived and dimension series are built past the public
# NormalSeries checks (NormalSeries._trusted), and induced_action returns its
# GradedAutomorphism unverified.  Each trusted object must still pass the
# checks it skips, and the public constructors must still refuse bad input.

FIXTURES = ("corpus", "ladder", "build")


def fixture_text(name: str) -> str:
    return corpus_text() if name == "corpus" else (PERFBENCH / f"{name}.grp").read_text("utf-8")


def realized(name: str) -> tuple:
    """(groups, automorphisms) realized afresh from a fixture file, each a dict by name."""
    fx = parse_fixture(fixture_text(name))
    groups = realize_groups(fx)
    return groups, realize_automorphisms(fx, groups)


def library_series(G) -> list:
    out = [series.lower_central_series(G), series.derived_series(G)]
    if G.is_p_group():
        out.append(series.dimension_series(G))
    return out


def conjugation_oracle(G, H) -> bool:
    """H is normal in G: g^-1 h g lies in H for every h in H and every g in G."""
    T = G.table()
    conjugates = T[T[G.inverse_indices()[:, None], H.idx], np.arange(G.order)[:, None]]
    return bool(H.mask[conjugates].all())


@pytest.mark.parametrize("fixture", FIXTURES)
def test_library_series_pass_the_public_checks(fixture):
    groups, _ = realized(fixture)
    built = 0
    for G in groups.values():
        for S in library_series(G):
            checked = NormalSeries(G, S.kind, S.terms)  # verifies every term and the chain
            assert checked == S
            for H in S.terms:
                assert H.is_normal and conjugation_oracle(G, H)
            built += 1
    assert built == {"corpus": 44, "ladder": 10, "build": 3}[fixture]


@pytest.mark.parametrize("fixture", FIXTURES)
def test_is_normal_matches_the_conjugation_oracle(fixture):
    groups, _ = realized(fixture)
    verdicts = []
    for G in groups.values():
        cyclic = [series.generated_subgroup(G, [g]) for g in G.generators]
        fitting = series._subgroup(G, series._fitting_mod(G, series._closure(G, ())))
        for H in cyclic + [fitting, series.trivial_subgroup(G)]:
            verdicts.append(H.is_normal)
            assert H.is_normal == conjugation_oracle(G, H)
    assert set(verdicts) == {True, False}


def test_induced_actions_pass_the_public_checks():
    actions = []
    for fixture in FIXTURES:
        groups, auts = realized(fixture)
        actions.extend(phi for phi in auts.values() if phi.group.is_p_group())
        if fixture == "corpus":
            actions.extend(
                inner_automorphism(G, g)
                for G in groups.values()
                if G.is_p_group()
                for g in G.generators
            )
    assert len(actions) == 6 + 28 + 1 + 1  # corpus, inner by corpus generators, ladder, build
    # each of those acts on its algebra by a symmetric matrix; a shear does not
    G = heis27()
    g1, g2, g3 = G.generators
    actions.append(Automorphism(G, [G.multiply(g1, g2), g2, g3]))
    for phi in actions:
        L = build_dl(phi.group)
        got = induced_action(phi, L)
        checked = GradedAutomorphism(L, got.mats)  # verifies invertibility and the bracket
        assert checked == got and len(got.mats) == L.m
        image = np.asarray(phi.image_indices)
        for i, mat in enumerate(got.mats, start=1):
            # phi(x)* = M_i x* for every x in D_i, read in degree i
            x = L.series.term(i).idx
            cols = L._slice(i)
            assert np.array_equal(L.coords[image[x], cols], L.coords[x, cols] @ mat.T % L.p)


def test_acting_group_elements_pass_the_public_checks():
    # each element of each acting group must be the automorphism that its
    # generator images build and verify (test_groups.py holds the identity,
    # composites and conjugations to the same check)
    trusted = []
    for fixture in FIXTURES:
        ctx = checks.RunContext(parse_fixture(fixture_text(fixture)))
        trusted += [phi for action in ctx.actions.values() for phi in action.closure]
    assert len(trusted) == 12 + 2  # corpus, ladder
    for phi in trusted:
        G = phi.group
        assert Automorphism(G, [phi(g) for g in G.generators]) == phi


def heis27():
    return build_group(PcPresentation(3, 3, {}, {(2, 1): ((3, 1),)}))


def test_the_public_series_refuses_a_non_normal_term_and_an_ascending_chain():
    G = heis27()
    whole, trivial = series.whole_subgroup(G), series.trivial_subgroup(G)
    H = series.generated_subgroup(G, [G.generators[0]])
    centre = series.lower_central_series(G).term(2)
    with pytest.raises(NotNormal, match="is not normal"):
        NormalSeries(G, "custom", (whole, H, trivial))
    with pytest.raises(MalformedSpec, match="descending"):
        NormalSeries(G, "custom", (whole, trivial, centre))
    assert NormalSeries(G, "custom", (whole, centre, trivial)).orders() == [27, 3, 1]


def test_the_public_graded_automorphism_refuses_a_singular_or_bracket_breaking_matrix():
    L = build_dl(heis27())
    assert L.dims == (2, 1)  # [e1, e2] = e3
    assert GradedAutomorphism(L, [np.eye(2), np.eye(1)]).is_identity()
    with pytest.raises(ActionNotWellDefined, match="component 1 matrix is singular"):
        GradedAutomorphism(L, [[[1, 1], [1, 1]], np.eye(1)])
    with pytest.raises(ActionNotWellDefined, match="does not respect the bracket"):
        GradedAutomorphism(L, [np.eye(2), [[2]]])  # φ[e1, e2] = 2e3, [φe1, φe2] = e3


def test_the_public_graded_automorphism_has_no_unverified_path():
    L = build_dl(heis27())
    breaking = [np.eye(2), [[2]]]
    with pytest.raises(TypeError):
        GradedAutomorphism(L, breaking, verify=False)
    with pytest.raises(ActionNotWellDefined, match="does not respect the bracket"):
        GradedAutomorphism(L, breaking)


def test_catalog_and_build_runs_scan_normality_for_no_subgroup(monkeypatch):
    scans = count_calls(monkeypatch, series, "_normalized")
    for fixture in ("corpus", "ladder"):
        report = run_checks(parse_fixture(fixture_text(fixture)))
        assert report.rows
    G = build_op().run()[0]
    assert scans == []
    series.whole_subgroup(G).is_normal  # a read scans once and keeps its answer
    series.whole_subgroup(G).is_normal
    assert scans == [1]


# -- who may build past the series and action checks --------------------------


TRUSTED_OWNERS = ("NormalSeries", "GradedAutomorphism", "Automorphism")


def trusted_builders(source: str) -> list:
    """(line, qualified name of the enclosing definition, call) of each trusted build.

    A trusted build is a NormalSeries._trusted(...), a
    GradedAutomorphism._trusted(...) or an Automorphism._trusted(...) call;
    cls._trusted(...) in a method of one of those classes counts as its own.
    """
    found = []

    def owner_of(node, cls):
        if isinstance(node, ast.Name) and node.id == "cls":
            return cls
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return name if name in TRUSTED_OWNERS else None

    def visit(node, where, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name if node.name in TRUSTED_OWNERS else None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "_trusted":
                owner = owner_of(func.value, cls)
                if owner is not None:
                    found.append((node.lineno, where, f"{owner}._trusted"))
        for child in ast.iter_child_nodes(node):
            visit(child, where, cls)

    visit(ast.parse(source), None, None)
    return found


def library_trusted_builds(owner: str) -> list:
    """(file, enclosing definition, call) of each trusted build of owner in src/grouplab."""
    return sorted(
        (path.name, where, call)
        for path in LIBRARY
        for _, where, call in trusted_builders(path.read_text("utf-8"))
        if call == f"{owner}._trusted"
    )


def test_only_the_listed_callers_build_automorphisms_past_verification():
    # the identity, composites, conjugations and the elements of an acting
    # group are automorphisms by construction
    assert library_trusted_builds("Automorphism") == [
        ("actions.py", "ActionFixture.__post_init__", "Automorphism._trusted"),
        ("groups.py", "Automorphism.compose", "Automorphism._trusted"),
        ("groups.py", "Automorphism.identity_of", "Automorphism._trusted"),
        ("groups.py", "inner_automorphism", "Automorphism._trusted"),
    ]


def test_only_the_series_builders_and_two_actions_skip_their_checks():
    calls = library_trusted_builds("GradedAutomorphism") + library_trusted_builds("NormalSeries")
    assert calls == [
        ("liering.py", "GradedAutomorphism.compose", "GradedAutomorphism._trusted"),
        ("liering.py", "induced_action", "GradedAutomorphism._trusted"),
        ("series.py", "derived_series.build", "NormalSeries._trusted"),
        ("series.py", "dimension_series.build", "NormalSeries._trusted"),
        ("series.py", "lower_central_series.build", "NormalSeries._trusted"),
    ]


def test_the_trusted_builder_guard_names_each_call():
    source = (
        "def lower_central_series(G):\n"
        "    def build():\n"
        "        return NormalSeries._trusted(G, 'lower-central', terms)\n"
        "class GradedAutomorphism:\n"
        "    def compose(self, other):\n"
        "        return GradedAutomorphism._trusted(self.algebra, mats)\n"
        "S = series.NormalSeries._trusted(G, 'x', terms)\n"
        "a = liering.GradedAutomorphism._trusted(L, mats)\n"
        "b = GradedAutomorphism(L, mats)\n"
        "c = Automorphism._trusted(G, images)\n"
        "d = NormalSeries(G, 'x', terms)\n"
        "class Automorphism:\n"
        "    @classmethod\n"
        "    def identity_of(cls, G):\n"
        "        return cls._trusted(G, range(G.order))\n"
        "class Other:\n"
        "    def make(cls):\n"
        "        return cls._trusted(G, images), Automorphism(G, images)\n"
        "e = groups.Automorphism._trusted(G, images)\n"
    )
    assert trusted_builders(source) == [
        (3, "lower_central_series.build", "NormalSeries._trusted"),
        (6, "GradedAutomorphism.compose", "GradedAutomorphism._trusted"),
        (7, None, "NormalSeries._trusted"),
        (8, None, "GradedAutomorphism._trusted"),
        (10, None, "Automorphism._trusted"),
        (15, "Automorphism.identity_of", "Automorphism._trusted"),
        (19, None, "Automorphism._trusted"),
    ]
