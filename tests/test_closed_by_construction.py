"""Objects closed by construction are not verified pair by pair, and stay exact.

The library builds its subgroups through series._subgroup, from masks that
are subgroups by construction, so no pair of members is scanned
(series._first_escape serves only a public Subgroup(G, mask)).  A
homomorphism is decided on its source's generators, so every pair is read
(groups._first_failing_pair) only to name the first failure.  These tests
hold the kept subgroups to the public full scan, pin where each pair scan
still runs, and guard with the stdlib ``ast`` that no other library code
builds subgroups past the scan.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from grouplab import checks, corpus_text, groups, parse_fixture, run_checks, series
from grouplab.errors import ForeignElement, MalformedSpec
from grouplab.groups import FiniteGroup, GroupHomomorphism, PcPresentation, build_group
from grouplab.series import Subgroup

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
