"""Check catalog: direct oracles per check, then the report machinery."""

import contextlib
import json
import signal
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouplab import __version__, checks, series
from grouplab.actions import ActionFixture
from grouplab.checks import (
    ACTION_CHECKS,
    CHECK_CATALOG,
    GROUP_CHECKS,
    CheckReport,
    CheckRow,
    check_4_1,
    check_4_2,
    check_4_6,
    check_4_12,
    check_collection_formula,
    check_lemma_3_3,
    check_lemma_3_4,
    check_theorem_4_3_instance,
    check_theorem_4_4_instance,
    run_checks,
)
from grouplab.corpus import corpus_fixture, corpus_text, load_corpus
from grouplab.errors import (
    BudgetExceeded,
    HypothesisNotMet,
    MalformedSpec,
    MismatchedParent,
    NotAPGroup,
    UnknownCheck,
)
from grouplab.fixtures import (
    CheckRequest,
    parse_fixture,
    realize_automorphism,
    realize_groups,
)
from grouplab.groups import (
    Automorphism,
    FiniteGroup,
    GroupElement,
    PermutationGenSet,
    build_group,
)
from grouplab.liering import DecompositionWitness, GradedLieRing


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


# C15 with a klein group of power maps: x -> x^4 and x -> x^11 square to
# the identity mod 15 and generate {1, 4, 11, 14} under composition.
C15_TEXT = """\
group C15
backend perm
degree 15
gen c = (1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
end

aut pow4 on C15
image c = c^4
end

aut pow11 on C15
image c = c^11
end

action kleinC15 on C15 = pow4 pow11
"""


@pytest.fixture(scope="module")
def klein_c15():
    fx = parse_fixture(C15_TEXT)
    groups = realize_groups(fx)
    auts = {a.name: realize_automorphism(a, groups["C15"]) for a in fx.auts}
    return ActionFixture("kleinC15", groups["C15"], (auts["pow4"], auts["pow11"]))


# -- collection congruence ---------------------------------------------------


def test_collection_d8(corpus):
    v = check_collection_formula(corpus.groups["D8pc"])
    assert v.ok
    assert "q=2" in v.detail
    # the correction subgroup is the commutator subgroup, order 2
    assert "order 2" in v.detail


def test_collection_abelian_is_exact(corpus):
    v = check_collection_formula(corpus.groups["C9"], n=2)
    assert v.ok
    assert "q=9" in v.detail
    assert "order 1" in v.detail  # no correction needed in an abelian group


def test_collection_heis27_exponent_three(corpus):
    # class 2 and exponent 3: both sides of the congruence are trivial
    v = check_collection_formula(corpus.groups["Heis27"])
    assert v.ok
    assert "q=3" in v.detail and "order 1" in v.detail


def test_collection_s3_with_given_prime(corpus):
    v = check_collection_formula(corpus.groups["S3"], p=2)
    assert v.ok
    assert "order 3" in v.detail  # correction subgroup is the 3-cycle subgroup


def test_collection_requires_prime_on_mixed_order(corpus):
    with pytest.raises(NotAPGroup):
        check_collection_formula(corpus.groups["S3"])


def test_collection_budgets(corpus):
    with pytest.raises(BudgetExceeded):
        check_collection_formula(corpus.groups["C2"], p=2, n=25)
    with pytest.raises(MalformedSpec):
        check_collection_formula(corpus.groups["C2"], p=2, n=0)


# -- commutator-subgroup conditions ------------------------------------------


def test_lemma_3_3_s3_with_prime_three(corpus):
    v = check_lemma_3_3(corpus.groups["S3"], k=2, p=3)
    assert v.ok
    assert "3-elements" in v.detail
    assert "order 3" in v.detail


def test_lemma_3_3_s4_prime_two_blocked_by_three_cycle(corpus):
    G = corpus.groups["S4"]
    with pytest.raises(HypothesisNotMet) as exc:
        check_lemma_3_3(G, k=2, p=2)
    assert G.element_order(exc.value.witness) == 3


def test_lemma_3_3_s4_no_prime_works(corpus):
    with pytest.raises(HypothesisNotMet, match="no prime works"):
        check_lemma_3_3(corpus.groups["S4"], k=2)


def test_lemma_3_3_a4_autoselects_two(corpus):
    v = check_lemma_3_3(corpus.groups["A4"], k=2)
    assert v.ok
    assert "2-elements" in v.detail
    assert "order 4" in v.detail  # second term is the klein subgroup


def test_lemma_3_3_weight_three_s3(corpus):
    v = check_lemma_3_3(corpus.groups["S3"], k=3, p=3)
    assert v.ok


def test_lemma_3_3_p_group_trivial_case(corpus):
    assert check_lemma_3_3(corpus.groups["D8pc"]).ok


# the trivial group, on one point, and the identity acting on it
TRIVIAL_TEXT = """\
group T
backend perm
degree 1
gen a = ()
end

aut idT on T
image a = ()
end

action actT on T = idT
"""

TRIVIAL_ROWS = {
    ("T", "collection"): ("skipped", "not a p-group and no prime parameter given"),
    ("T", "cor_2_14"): ("skipped", "not a p-group"),
    ("T", "fitting"): ("pass", "height 0; exponent 1; order 1; nilpotent"),
    ("T", "higman"): ("skipped", "not a p-group"),
    ("T", "jacobi"): ("skipped", "not a p-group"),
    ("T", "lazard"): ("skipped", "not a p-group"),
    ("T", "lemma_3_3"): ("skipped", "hypothesis not met: no prime divides |G| = 1"),
    ("T", "lemma_3_4"): (
        "pass",
        "all 1 weight-2 commutators are Engel (max index 1); series term 2 of order 1 is nilpotent",
    ),
    ("T", "np_series"): ("skipped", "not a p-group"),
    ("T", "powerful"): ("skipped", "not a p-group"),
    ("T", "prop_2_11"): ("skipped", "not a p-group"),
    ("actT", "c4_1"): ("skipped", "hypothesis not met: A is trivial"),
    ("actT", "c4_12"): (
        "skipped",
        "hypothesis not met: needs exactly one generating automorphism of order 2",
    ),
    ("actT", "c4_2"): ("skipped", "hypothesis not met: A is trivial"),
    ("actT", "c4_6"): ("pass", "1 invariant normal subgroups verified (orders (1,))"),
    ("actT", "obs_4_8"): ("skipped", "not a p-group"),
    ("actT", "pm_split"): ("skipped", "not a p-group"),
    ("actT", "t4_3"): ("skipped", "hypothesis not met: A is trivial"),
    ("actT", "t4_4"): (
        "skipped",
        "hypothesis not met: needs exactly one generating automorphism of order 2",
    ),
}


def test_every_check_runs_on_the_trivial_group():
    # no prime divides |G| = 1, so lemma 3.3 has no candidate and skips its row
    report = run_checks(parse_fixture(TRIVIAL_TEXT))
    assert {(r.group, r.check): (r.status, r.details) for r in report.rows} == TRIVIAL_ROWS
    assert len(report.rows) == len(checks.CHECK_CATALOG)


# -- check parameters are refused before any work ------------------------------

HEIS27_TEXT = """\
group Heis27
backend pc
prime 3
ngens 3
comm 2 1 = 3^1
end
"""


@contextlib.contextmanager
def within(seconds: float):
    """Raise TimeoutError in the body once it has run for the given wall-clock seconds."""

    def stop(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_one_request(request: str):
    """The report of one check request on Heis27, within a bound."""
    fx = parse_fixture(HEIS27_TEXT + request + "\n")
    with within(5.0):
        return run_checks(fx, [fx.checks[0].check])


@pytest.mark.parametrize(
    "request_line",
    [
        "check lemma_3_3 on Heis27 prime=1",
        "check lemma_3_3 on Heis27 prime=0",
        "check collection on Heis27 prime=0",
        "check collection on Heis27 prime=4",
        "check collection on Heis27 prime=-3",
    ],
)
def test_a_prime_parameter_that_is_not_a_prime_is_refused(request_line):
    with pytest.raises(MalformedSpec, match="prime"):
        run_one_request(request_line)


def test_a_huge_collection_exponent_skips_on_the_power_budget():
    (row,) = run_one_request("check collection on Heis27 n=100000").rows
    assert row.status == "skipped"
    assert row.details == "budget: 3^n exceeds the power budget of 1048576 for n > 12"


@pytest.mark.parametrize("check", ["lemma_3_3", "lemma_3_4"])
def test_a_huge_commutator_weight_skips_on_the_scan_budget(check):
    (row,) = run_one_request(f"check {check} on Heis27 k=100000").rows
    assert row.details == "budget: |G|^k exceeds the budget of 1000000 for k > 20"


def test_a_prime_beyond_the_power_budget_skips_without_a_primality_scan():
    (row,) = run_one_request("check lemma_3_3 on Heis27 prime=" + "9" * 4000).rows
    assert row.details == "budget: prime exceeds the power budget of 1048576"


@pytest.mark.parametrize("check", ["lemma_3_3", "lemma_3_4"])
def test_a_weight_three_scan_past_the_scan_budget_skips_its_row(check):
    # a pair scan always runs; S5's 120^3 triples are refused by SCAN_BUDGET
    fx = parse_fixture(LADDER.read_text("utf-8"))
    request = CheckRequest(check, "S5", (("k", "3"),))
    fx = replace(fx, groups=(fx.group("S5"),), auts=(), actions=(), checks=(request,))
    (row,) = run_checks(fx, [check]).rows
    assert (row.status, row.details) == (
        "skipped",
        "budget: |G|^3 = 1728000 exceeds the budget of 1000000",
    )


@pytest.mark.parametrize(
    "request_line, refusal, message",
    [
        ("check nosuch on C15", UnknownCheck, "unknown check"),
        ("check lemma_3_3 on kleinC15", MalformedSpec, "kleinC15 is not a group"),
        ("check jacobi on pow4", MalformedSpec, "pow4 is not a group"),
        ("check c4_1 on C15", MalformedSpec, "C15 is not an action"),
        ("check jacobi on C15 k=7", MalformedSpec, "no parameter 'k'; it reads none"),
        (
            "check collection on C15 budgit=5",
            MalformedSpec,
            "no parameter 'budgit'; it reads prime, n",
        ),
        ("check prop_2_11 on C15 gens=c n=1", MalformedSpec, "no parameter 'n'; it reads gens"),
        ("check t4_4 on kleinC15 n=x", MalformedSpec, "check parameter n must be an integer"),
    ],
)
def test_a_request_its_check_cannot_run_is_refused_before_any_row(
    monkeypatch, request_line, refusal, message
):
    # resolved once per run, also when the selection leaves its check out
    rows = []
    monkeypatch.setattr(checks, "_row", lambda *args: rows.append(args))
    fx = parse_fixture(C15_TEXT + request_line + "\n")
    target = fx.checks[0].target
    with pytest.raises(refusal) as err:
        run_checks(fx, ["fitting"])
    assert str(err.value) == f"check {fx.checks[0].check} on {target}: {message}"
    assert rows == []


def test_lemma_3_4_s3_commutators_are_engel(corpus):
    # weight-2 values lie in the abelian 3-cycle subgroup, so iterated
    # commutators collapse after two steps
    v = check_lemma_3_4(corpus.groups["S3"])
    assert v.ok
    assert "max index 2" in v.detail


def test_lemma_3_4_s4_blocked_by_non_engel_commutator(corpus):
    G = corpus.groups["S4"]
    with pytest.raises(HypothesisNotMet) as exc:
        check_lemma_3_4(G, k=2)
    assert G.element_order(exc.value.witness) == 3


def test_lemma_3_4_makes_a_handle_only_for_its_witness(monkeypatch):
    # S5's 60 weight-2 values are walked as indices, in key order; only the
    # first that is not Engel becomes a GroupElement
    G = build_group(PermutationGenSet(5, (("a", (1, 0, 2, 3, 4)), ("b", (1, 2, 3, 4, 0)))))
    made = []

    def init(self, group, idx, _orig=GroupElement.__init__):
        made.append(idx)
        _orig(self, group, idx)

    monkeypatch.setattr(GroupElement, "__init__", init)
    with pytest.raises(HypothesisNotMet) as exc:
        check_lemma_3_4(G)
    assert made == [exc.value.witness.idx]


def test_lemma_3_4_direct_product(corpus):
    v = check_lemma_3_4(corpus.groups["D8xC3"], k=2)
    assert v.ok


def test_lemma_3_4_nilpotent_group(corpus):
    v = check_lemma_3_4(corpus.groups["D16"])
    assert v.ok


# -- coprime actions ----------------------------------------------------------


def test_4_1_klein_c33(corpus):
    v = check_4_1(corpus.actions["kleinC33"])
    assert v.ok
    assert "(3, 3, 1)" in v.detail  # one line fixed per axis, inversion fixes nothing


def test_4_1_klein_h27(corpus):
    v = check_4_1(corpus.actions["kleinH27"])
    assert v.ok
    assert "(3, 3, 3)" in v.detail


def test_4_1_klein_c15(klein_c15):
    v = check_4_1(klein_c15)
    assert v.ok
    # fixed subgroups have orders 3, 5, 1 and together generate C15
    assert "(3, 5, 1)" in v.detail


def test_4_1_cyclic_acting_group_rejected(corpus):
    with pytest.raises(HypothesisNotMet, match="cyclic"):
        check_4_1(corpus.actions["invC9"])


def test_4_1_noncoprime_rejected(corpus):
    fx = parse_fixture(
        "group E8\nbackend pc\nprime 2\nngens 3\nend\n"
        "aut sw on E8\nimage 1 = 2^1\nimage 2 = 1^1\nimage 3 = 3^1\nend\n"
        "aut tw on E8\nimage 1 = 1^1\nimage 2 = 2^1\nimage 3 = 1^1 2^1 3^1\nend\n"
        "action k8 on E8 = sw tw\n"
    )
    groups = realize_groups(fx)
    auts = {a.name: realize_automorphism(a, groups["E8"]) for a in fx.auts}
    action = ActionFixture("k8", groups["E8"], (auts["sw"], auts["tw"]))
    assert action.order == 4
    with pytest.raises(HypothesisNotMet, match="not 1"):
        check_4_1(action)


def test_4_2_klein_c33(corpus):
    v = check_4_2(corpus.actions["kleinC33"])
    assert v.ok
    assert "covers 9 of 9" in v.detail


def test_4_2_klein_h27(corpus):
    v = check_4_2(corpus.actions["kleinH27"])
    assert v.ok
    assert "covers 27 of 27" in v.detail


def test_4_2_needs_p_group(klein_c15):
    with pytest.raises(HypothesisNotMet, match="not a p-group"):
        check_4_2(klein_c15)


def test_4_6_all_corpus_actions(corpus):
    for name, action in corpus.actions.items():
        v = check_4_6(action)
        assert v.ok, f"{name}: {v.detail}"


def test_4_6_counts_invariant_subgroups(corpus):
    # diagonal order-3 subgroups of C3xC3 are swapped off themselves by
    # the single-axis inversions, so only four normal subgroups survive
    v = check_4_6(corpus.actions["kleinC33"])
    assert "4 invariant normal subgroups" in v.detail


def test_4_6_trivial_action(corpus):
    v = check_4_6(ActionFixture("triv", corpus.groups["C3"], ()))
    assert v.ok


def test_4_12_inversion_on_c9(corpus):
    v = check_4_12(corpus.groups["C9"], corpus.automorphisms["c9inv"])
    assert v.ok
    assert "|inverted set| = 9" in v.detail
    assert "|C_G(a)| = 1" in v.detail


def test_4_12_inversion_on_c33(corpus):
    v = check_4_12(corpus.groups["C3xC3"], corpus.automorphisms["c33inv"])
    assert v.ok
    assert "|inverted set| = 9" in v.detail


def test_4_12_single_axis_on_heis27(corpus):
    # inverted set {g1^a g3^c} has 9 elements, fixed line has 3: 9*3 = 27
    v = check_4_12(corpus.groups["Heis27"], corpus.automorphisms["h27invx"])
    assert v.ok
    assert "|inverted set| = 9" in v.detail
    assert "|C_G(a)| = 3" in v.detail


def test_4_12_identity_automorphism(corpus):
    G = corpus.groups["C3"]
    v = check_4_12(G, Automorphism.identity_of(G))
    assert v.ok
    assert "|inverted set| = 1" in v.detail


def test_4_12_even_order_rejected(corpus):
    G = corpus.groups["D8pc"]
    inner = Automorphism(G, [G.conjugate(g, G.generators[0]) for g in G.generators])
    with pytest.raises(HypothesisNotMet, match="even order"):
        check_4_12(G, inner)


def test_4_12_non_involution_rejected(corpus):
    G = corpus.groups["C3xC3"]
    g1, g2 = G.generators
    shear = Automorphism(G, [G.multiply(g1, g2), g2])
    with pytest.raises(HypothesisNotMet, match="identity"):
        check_4_12(G, shear)


def test_4_12_wrong_group_rejected(corpus):
    with pytest.raises(MismatchedParent):
        check_4_12(corpus.groups["C3xC3"], corpus.automorphisms["c9inv"])


def test_t4_3_klein_c33(corpus):
    v = check_theorem_4_3_instance(corpus.actions["kleinC33"])
    assert v.ok
    assert "q=2" in v.detail and "n=3" in v.detail and "exponent(G)=3" in v.detail


def test_t4_3_klein_c15(klein_c15):
    v = check_theorem_4_3_instance(klein_c15)
    assert "n=15" in v.detail and "exponent(G)=15" in v.detail


def test_t4_3_cyclic_rejected(corpus):
    with pytest.raises(HypothesisNotMet):
        check_theorem_4_3_instance(corpus.actions["invC33"])


def test_t4_4_inversion_on_c9(corpus):
    v = check_theorem_4_4_instance(
        corpus.groups["C9"], corpus.automorphisms["c9inv"]
    )
    assert v.ok
    assert "n=9" in v.detail and "exponent(G)=9" in v.detail


def test_t4_4_accepts_multiples_of_the_forced_bound(corpus):
    G, a = corpus.groups["C9"], corpus.automorphisms["c9inv"]
    assert check_theorem_4_4_instance(G, a, n=18).ok
    with pytest.raises(HypothesisNotMet, match="multiple of 9"):
        check_theorem_4_4_instance(G, a, n=3)


def test_t4_4_inversion_on_c33(corpus):
    v = check_theorem_4_4_instance(
        corpus.groups["C3xC3"], corpus.automorphisms["c33inv"]
    )
    assert "n=3" in v.detail


def test_t4_4_single_axis_on_heis27(corpus):
    v = check_theorem_4_4_instance(
        corpus.groups["Heis27"], corpus.automorphisms["h27invx"]
    )
    assert "n=3" in v.detail and "|C_G(a)|=3" in v.detail


def test_t4_4_even_order_rejected(corpus):
    G = corpus.groups["C4"]
    inv = Automorphism(G, [G.inverse(g) for g in G.generators])
    with pytest.raises(HypothesisNotMet, match="even order"):
        check_theorem_4_4_instance(G, inv)


# -- the corpus run and report machinery --------------------------------------


@pytest.fixture(scope="module")
def corpus_report():
    return run_checks(corpus_fixture())


def test_catalog_shape():
    assert len(GROUP_CHECKS) == 11
    assert len(ACTION_CHECKS) == 8
    assert len(CHECK_CATALOG) == 19
    assert len(set(CHECK_CATALOG)) == 19


def test_corpus_run_row_count_and_statuses(corpus_report):
    assert len(corpus_report.rows) == 16 * 11 + 4 * 8
    counts = {}
    for row in corpus_report.rows:
        counts[row.status] = counts.get(row.status, 0) + 1
    assert counts == {"pass": 159, "skipped": 49}
    assert not corpus_report.has_failures


def test_corpus_rows_sorted(corpus_report):
    keys = [(row.group, row.check) for row in corpus_report.rows]
    assert keys == sorted(keys)


def test_corpus_run_deterministic(corpus_report):
    again = run_checks(corpus_fixture())
    assert again.to_json() == corpus_report.to_json()


def test_corpus_skip_reasons(corpus_report):
    by_key = {(r.group, r.check): r for r in corpus_report.rows}
    r = by_key[("S4", "lemma_3_3")]
    assert r.status == "skipped"
    assert "order 3" in r.details and "not a 2-element" in r.details
    assert by_key[("S4", "lemma_3_4")].status == "skipped"
    assert "cyclic" in by_key[("invC9", "c4_1")].details
    assert by_key[("ES27", "higman")].status == "skipped"
    assert "exponent 9" in by_key[("ES27", "higman")].details


def test_corpus_parameterized_rows(corpus_report):
    by_key = {(r.group, r.check): r for r in corpus_report.rows}
    witness_row = by_key[("D8pc", "prop_2_11")]
    assert witness_row.status == "pass"
    assert "c=2" in witness_row.details and "K=4" in witness_row.details
    bound_row = by_key[("D8pc", "cor_2_14")]
    assert bound_row.status == "pass"
    assert "4^4" in bound_row.details
    assert by_key[("D16", "collection")].status == "pass"
    assert "q=4" in by_key[("D16", "collection")].details


def test_selection_filters_rows():
    fx = corpus_fixture()
    report = run_checks(fx, ["fitting"])
    assert len(report.rows) == 16
    assert {r.check for r in report.rows} == {"fitting"}
    report = run_checks(fx, ["fitting,lemma_3_4"])
    assert len(report.rows) == 32
    report = run_checks(fx, ["all"])
    assert len(report.rows) == 208


def test_selection_rejects_unknown_names():
    with pytest.raises(UnknownCheck, match="catalog"):
        run_checks(corpus_fixture(), ["wibble"])


def test_timings_flag_controls_elapsed(corpus_report):
    assert all(row.elapsed_ms == 0 for row in corpus_report.rows)
    timed = run_checks(corpus_fixture(), ["fitting"], timings=True)
    assert all(row.elapsed_ms >= 0 for row in timed.rows)


def test_report_json_shape(corpus_report):
    doc = json.loads(corpus_report.to_json())
    assert list(doc) == ["tool_version", "seed", "rows"]
    assert doc["seed"] == 0
    row = doc["rows"][0]
    assert list(row) == ["group", "check", "status", "details", "elapsed_ms"]


def test_report_table_shape(corpus_report):
    table = corpus_report.to_table()
    lines = table.splitlines()
    assert lines[0].startswith("GROUP")
    assert lines[-1].startswith("-- 208 rows:")


def test_has_failures_flag():
    ok = CheckRow("G", "fitting", "pass", "fine")
    bad = CheckRow("G", "jacobi", "fail", "broken")
    assert not CheckReport("0", (ok,)).has_failures
    assert CheckReport("0", (ok, bad)).has_failures


# -- the check registry and the run loop's dispatch ------------------------------


def test_catalog_follows_the_handler_tables_in_registration_order():
    tables = (checks._GROUP_HANDLERS, checks._ACTION_HANDLERS)
    for name in CHECK_CATALOG:
        assert sum(name in table for table in tables) == 1, name
    assert GROUP_CHECKS == tuple(checks._GROUP_HANDLERS)
    assert ACTION_CHECKS == tuple(checks._ACTION_HANDLERS)
    assert CHECK_CATALOG == GROUP_CHECKS + ACTION_CHECKS
    assert all(callable(h) for table in tables for h in table.values())


def test_run_checks_calls_handlers_swapped_in_after_import(monkeypatch, corpus_report):
    calls = []
    for table in (checks._GROUP_HANDLERS, checks._ACTION_HANDLERS):
        for name, handler in list(table.items()):

            def counted(ctx, target, _name=name, _orig=handler):
                calls.append((target, _name))
                return _orig(ctx, target)

            monkeypatch.setitem(table, name, counted)
    report = run_checks(corpus_fixture())
    assert sorted(calls) == [(row.group, row.check) for row in report.rows]
    assert report.to_json() == corpus_report.to_json()


def test_budget_exceeded_in_a_handler_skips_only_its_rows(monkeypatch):
    def over_budget(ctx, target):
        raise BudgetExceeded(f"planted on {target}")

    monkeypatch.setitem(checks._GROUP_HANDLERS, "jacobi", over_budget)
    report = run_checks(corpus_fixture(), ["jacobi,fitting"])
    assert len(report.rows) == 32
    for row in report.rows:
        if row.check == "jacobi":
            assert (row.status, row.details) == ("skipped", f"budget: planted on {row.group}")
        else:
            assert row.status in ("pass", "skipped") and "budget" not in row.details


def test_budget_exceeded_inside_a_check_skips_the_row(monkeypatch):
    # dimension_series refuses every nontrivial p-group once the cap is 1
    monkeypatch.setattr(series, "SERIES_LENGTH_CAP", 1)
    report = run_checks(corpus_fixture(), ["np_series,fitting"])
    rows = {(r.group, r.check): r for r in report.rows}
    assert len(rows) == 32
    assert rows[("D8pc", "np_series")].details == (
        "budget: dimension series failed to reach the trivial subgroup"
    )
    assert rows[("S3", "np_series")].details == "not a p-group"
    assert rows[("D8pc", "fitting")].status == "pass"


# S3 with non-coprime actions: the declared hypotheses are tested in each
# check's own order, so the first failing one names the skip.
S3_ACTIONS_TEXT = """\
group S3
backend perm
degree 3
gen a = (1 2 3)
gen b = (1 2)
end

aut flip on S3
image a = a^2
image b = b^1
end

aut turn on S3
image a = a^1
image b = a^1 b^1
end

action flipS3 on S3 = flip
action bothS3 on S3 = flip turn
"""


def test_hypotheses_are_tested_in_each_checks_order():
    report = run_checks(parse_fixture(S3_ACTIONS_TEXT), ["c4_12,pm_split,obs_4_8,t4_4"])
    got = {(r.group, r.check): r.details for r in report.rows}
    gcd = "hypothesis not met: gcd(|A|, |G|) = {} is not 1"
    one = "hypothesis not met: needs exactly one generating automorphism of order 2"
    assert got == {
        # coprime before p-group
        ("flipS3", "obs_4_8"): gcd.format(2),
        ("bothS3", "obs_4_8"): gcd.format(6),
        # p-group before the single involution
        ("flipS3", "pm_split"): "not a p-group",
        ("bothS3", "pm_split"): "not a p-group",
        # the single involution, then the check's own even-order test
        ("flipS3", "c4_12"): "hypothesis not met: G has even order 6",
        ("bothS3", "c4_12"): one,
        ("flipS3", "t4_4"): "hypothesis not met: G has even order 6",
        ("bothS3", "t4_4"): one,
    }
    assert {r.status for r in report.rows} == {"skipped"}


LADDER = Path(__file__).resolve().parents[1] / "perfbench" / "ladder.grp"


def assert_catalog_pass_makes_no_handle_arithmetic(text, monkeypatch):
    # RunContext realizes the fixture (word images of automorphisms are
    # evaluated on the table), and every check reads tables and index arrays
    fx = parse_fixture(text)
    calls = dict.fromkeys(("multiply", "power", "inverse", "commutator"), 0)
    for attr in calls:

        def counted(self, *args, _orig=getattr(FiniteGroup, attr), _attr=attr):
            calls[_attr] += 1
            return _orig(self, *args)

        monkeypatch.setattr(FiniteGroup, attr, counted)
    ctx = checks.RunContext(fx)
    assert calls == dict.fromkeys(calls, 0)
    rows = [
        checks._row(ctx, entry.name, name, handler, False)
        for entries, handlers in (
            (fx.groups, checks._GROUP_HANDLERS),
            (fx.actions, checks._ACTION_HANDLERS),
        )
        for entry in entries
        for name, handler in handlers.items()
    ]
    assert len(rows) == len(fx.groups) * len(GROUP_CHECKS) + len(fx.actions) * len(ACTION_CHECKS)
    assert calls == dict.fromkeys(calls, 0)


def test_ladder_catalog_pass_makes_no_handle_arithmetic(monkeypatch):
    assert_catalog_pass_makes_no_handle_arithmetic(LADDER.read_text("utf-8"), monkeypatch)


def test_corpus_catalog_pass_makes_no_handle_arithmetic(monkeypatch):
    assert_catalog_pass_makes_no_handle_arithmetic(corpus_text(), monkeypatch)


def test_catalog_pass_verifies_each_distinct_subgroup_once(monkeypatch):
    # the library builds subgroups through series._subgroup, which keeps each
    # mask on its group: a second request for a mask builds nothing, and a
    # fresh run realizes fresh groups that build anew
    built = []
    orig = series.Subgroup._closed

    def counted(group, mask):
        sub = orig(group, mask)
        built.append((id(group), sub.mask.tobytes()))
        return sub

    monkeypatch.setattr(series.Subgroup, "_closed", counted)
    fx = parse_fixture(LADDER.read_text("utf-8"))
    report = run_checks(fx)
    assert len(report.rows) == 52
    assert len(built) == len(set(built)) == 18
    built.clear()
    run_checks(parse_fixture(corpus_text()))
    assert len(built) == len(set(built)) == 57


def test_catalog_pass_computes_each_power_map_once(monkeypatch):
    computed, read = [], []

    def keep(G, key, compute, _orig=FiniteGroup._keep):
        if key[0] == "power map":
            read.append(1)

            def counted(_compute=compute):
                computed.append((id(G), key[1]))
                return _compute()

            return _orig(G, key, counted)
        return _orig(G, key, compute)

    monkeypatch.setattr(FiniteGroup, "_keep", keep)
    run_checks(parse_fixture(corpus_text()))
    # the dimension series asks only for x -> x^p, never x -> x^(p^k) with k > 1
    assert len(computed) == len(set(computed)) == 35
    assert len(read) > len(computed)


def read_only_arrays(value) -> list:
    """The arrays a kept value holds, each asserted read-only; ints, tuples and None hold none."""
    if isinstance(value, np.ndarray):
        assert not value.flags.writeable
        return [value]
    if isinstance(value, series.Subgroup):
        parts = [value.mask, value.idx]
    elif isinstance(value, series.NormalSeries):
        parts = list(value.terms)
    elif isinstance(value, GradedLieRing):
        parts = [value.C, value.coords, value.depth, value.reps, value.degrees]
    elif isinstance(value, DecompositionWitness):
        parts = [getattr(value, f.name) for f in fields(value)]
    elif isinstance(value, tuple):
        parts = list(value)
    else:
        assert value is None or isinstance(value, int), value
        parts = []
    return [a for part in parts for a in read_only_arrays(part)]


def test_kept_results_are_read_only():
    ctx = checks.RunContext(parse_fixture(LADDER.read_text("utf-8")))
    for name, handler in checks._GROUP_HANDLERS.items():
        for target in ctx.groups:
            checks._row(ctx, target, name, handler, False)
    for name, handler in checks._ACTION_HANDLERS.items():
        for target in ctx.actions:
            checks._row(ctx, target, name, handler, False)
    arrays, kinds = 0, set()
    for G in ctx.groups.values():
        assert G._lattice
        for key, value in G._lattice.items():
            arrays += len(read_only_arrays(value))
            kinds.add(key[0])
    assert arrays > 50
    # every kind of value in the store is met: the lattice's, and the groups',
    # Lie rings' and witnesses'
    assert {"element orders", "exponent", "prime power", "lie ring", "witness"} <= kinds
    assert {"subgroup", "series", "generators", "power map", "class labels"} <= kinds


# -- the order the rows run in ---------------------------------------------------

# pc groups and perm groups, with actions on a perm group (C15) and a pc group (Heis27)
MIXED_TEXT = (
    HEIS27_TEXT
    + """
aut heisinv on Heis27
image 1 = 1^2
image 2 = 2^2
image 3 = 3^1
end

action invHeis27 on Heis27 = heisinv

"""
    + C15_TEXT
    + "\n"
    + S3_ACTIONS_TEXT
)


def group_major(fx):
    """The catalog over fx, each group through every check before the next, and its context."""
    ctx = checks.RunContext(fx)
    rows = [
        checks._row(ctx, entry.name, name, handler, False)
        for entries, handlers in (
            (fx.groups, checks._GROUP_HANDLERS),
            (fx.actions, checks._ACTION_HANDLERS),
        )
        for entry in entries
        for name, handler in handlers.items()
    ]
    rows.sort(key=lambda row: (row.group, row.check))
    return CheckReport(__version__, tuple(rows)), ctx


def kept(ctx):
    """What each group of a run kept: its store's keys, its Lie ring's dims, its element orders."""
    return {
        name: (
            sorted(map(repr, G._lattice)),
            [L.dims for key, L in G._lattice.items() if key == ("lie ring",)],
            [o.tolist() for key, o in G._lattice.items() if key == ("element orders",)],
        )
        for name, G in ctx.groups.items()
    }


@pytest.mark.parametrize(
    "text",
    [corpus_text, LADDER.read_text, lambda: MIXED_TEXT],
    ids=["corpus", "ladder", "mixed"],
)
def test_check_major_and_group_major_runs_do_the_same_work(monkeypatch, text):
    # a row that read state another group's rows left behind would differ here
    fx = parse_fixture(text())
    contexts = []

    class Recorded(checks.RunContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    monkeypatch.setattr(checks, "RunContext", Recorded)
    report = run_checks(fx)
    monkeypatch.undo()
    reference, ctx = group_major(fx)
    assert report.to_json() == reference.to_json()
    (run_ctx,) = contexts
    assert kept(run_ctx) == kept(ctx)


def test_rows_run_check_major(monkeypatch):
    fx = parse_fixture(MIXED_TEXT)
    assert [g.name for g in fx.groups] == ["Heis27", "C15", "S3"]
    fx = replace(fx, actions=fx.actions[:1])
    calls = []

    def recorded(ctx, target, name, handler, timings, _orig=checks._row):
        calls.append((target, name))
        return _orig(ctx, target, name, handler, timings)

    monkeypatch.setattr(checks, "_row", recorded)
    run_checks(fx)
    assert calls == [
        (group, name) for name in GROUP_CHECKS for group in ("Heis27", "C15", "S3")
    ] + [("invHeis27", name) for name in ACTION_CHECKS]


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_report_does_not_depend_on_fixture_order(corpus_report, data):
    fx = corpus_fixture()
    groups = data.draw(st.permutations(fx.groups))
    actions = data.draw(st.permutations(fx.actions))
    shuffled = replace(fx, groups=tuple(groups), actions=tuple(actions))
    assert run_checks(shuffled).to_json() == corpus_report.to_json()
