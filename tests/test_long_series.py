"""Long series: the group checks on order-2048 groups whose dimension series repeat terms.

The dimension series of the cyclic group of order 2048 has 1025 terms but
only 12 distinct subgroups (D_i = G^(2^k) for 2^(k-1) < i <= 2^k; Jennings
1941), and its graded Lie ring has 1013 degrees of dimension 0.  The N_p
containments are decided on the last index of each run of equal terms, at
most r(r+1)/2 pairs for r distinct terms, and representative independence
is scanned only on degree pairs of nonzero dimension, the only pairs the
ring keeps a bracket block for.  These tests pin the 11 group checks on
three such groups, bound that work by counts and the kept ring's memory, and
pin the least failing pair that a planted series still names.  The pair
scans of collection, lemma_3_3 and lemma_3_4 read |G|^2 = TABLE_CAP^2
table entries on each of these groups, and on C2^11 and Cl2o2048; they are
decided, never skipped on a budget.
"""

import itertools
import tracemalloc

import pytest

from test_commutator_generators import cl2o2048, pc

from grouplab import build_dl, kernels, parse_fixture, run_checks, series
from grouplab.checks import (
    GROUP_CHECKS,
    check_collection_formula,
    check_lemma_3_3,
    check_lemma_3_4,
)
from grouplab.groups import PcPresentation, build_group
from grouplab.series import (
    NormalSeries,
    lower_central_series,
    trivial_subgroup,
    verify_np_series,
    whole_subgroup,
)


def cyclic_pc(name: str, ngens: int, first: int = 1) -> str:
    """A pc group on ngens generators of order 2 with g_i^2 = g_(i+1) from i = first on."""
    pows = [f"pow {i} = {i + 1}^1" for i in range(first, ngens)]
    return "\n".join([f"group {name}", "backend pc", "prime 2", f"ngens {ngens}", *pows, "end"])


def dihedral_perm(name: str, degree: int) -> str:
    rotation = "(" + " ".join(str(i) for i in range(1, degree + 1)) + ")"
    reflection = "".join(f"({i} {degree + 2 - i})" for i in range(2, degree // 2 + 1))
    return f"group {name}\nbackend perm\ndegree {degree}\ngen r = {rotation}\ngen s = {reflection}\nend"


GROUPS = {
    "C2048": cyclic_pc("C2048", 11),
    "D2048": dihedral_perm("D2048", 1024),
    "C2xC1024": cyclic_pc("C2xC1024", 11, first=2),
}

# the dimension series orders as runs of (order, length)
SERIES_RUNS = {
    "C2048": [(2048, 1), (1024, 1)] + [(2**k, 2 ** (10 - k)) for k in range(9, 0, -1)] + [(1, 1)],
    "D2048": [(2048, 1)] + [(2**k, 2 ** (9 - k)) for k in range(9, 0, -1)] + [(1, 1)],
    "C2xC1024": [(2048, 1)] + [(2**k, 2 ** (9 - k)) for k in range(9, 0, -1)] + [(1, 1)],
}


def scan_rows(modulus: int, values: int, engel: int, term: int) -> dict:
    """The collection, lemma_3_3 and lemma_3_4 rows of a 2-group of order 2048, all decided."""
    return {
        "collection": ("pass", f"q=2; modulus subgroup order {modulus}; 4194304 pairs verified"),
        "lemma_3_3": (
            "pass",
            f"all {values} weight-2 commutators are 2-elements; series term 2 has order {term}",
        ),
        "lemma_3_4": (
            "pass",
            f"all {values} weight-2 commutators are Engel (max index {engel}); "
            f"series term 2 of order {term} is nilpotent",
        ),
    }


ROWS = {
    "C2048": {
        "lazard": ("pass", "2047 nontrivial elements verified (power and index bounds)"),
        "jacobi": ("pass", "121 basis pairs and 1331 triples verified"),
        "higman": ("skipped", "exponent 2048 is outside the checked degree range (2..4)"),
        "prop_2_11": (
            "pass",
            "c=1, s=11, K=2048; 11 cyclic factors cover the group at every depth (class 1)",
        ),
        "cor_2_14": (
            "pass",
            "c=1, s=11, K=2048; max series index 2048 <= K^s = 2048^11 = "
            "2658455991569831745807614120560689152",
        ),
        **scan_rows(1, 1, 1, 1),
        "fitting": ("pass", "height 1; exponent 2048; order 2048; nilpotent"),
        "powerful": (
            "pass",
            "powerful: yes (commutator subgroup inside the 4-th power subgroup)",
        ),
    },
    "D2048": {
        "lazard": ("pass", "2047 nontrivial elements verified (power and index bounds)"),
        "jacobi": ("pass", "121 basis pairs and 1331 triples verified"),
        "higman": ("skipped", "exponent 1024 is outside the checked degree range (2..4)"),
        "prop_2_11": (
            "pass",
            "c=2, s=4, K=1024; 4 cyclic factors cover the group at every depth (class 2)",
        ),
        "cor_2_14": (
            "pass",
            "c=2, s=4, K=1024; max series index 2048 <= K^s = 1024^4 = 1099511627776",
        ),
        **scan_rows(512, 512, 2, 512),
        "fitting": ("pass", "height 1; exponent 1024; order 2048; nilpotent"),
        "powerful": (
            "pass",
            "powerful: no (commutator subgroup escapes the 4-th power subgroup)",
        ),
    },
    "C2xC1024": {
        "lazard": ("pass", "2047 nontrivial elements verified (power and index bounds)"),
        "jacobi": ("pass", "121 basis pairs and 1331 triples verified"),
        "higman": ("skipped", "exponent 1024 is outside the checked degree range (2..4)"),
        "prop_2_11": (
            "pass",
            "c=1, s=11, K=1024; 11 cyclic factors cover the group at every depth (class 1)",
        ),
        "cor_2_14": (
            "pass",
            "c=1, s=11, K=1024; max series index 2048 <= K^s = 1024^11 = "
            "1298074214633706907132624082305024",
        ),
        **scan_rows(1, 1, 1, 1),
        "fitting": ("pass", "height 1; exponent 1024; order 2048; nilpotent"),
        "powerful": (
            "pass",
            "powerful: yes (commutator subgroup inside the 4-th power subgroup)",
        ),
    },
}


def recorded(monkeypatch, module, name, record) -> None:
    """Replace module.name by a wrapper that calls record(*args) before the original."""

    def wrapper(*args, _orig=getattr(module, name)):
        record(*args)
        return _orig(*args)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("name", list(GROUPS))
def test_group_checks_on_a_long_series_are_pinned_and_bounded(name, monkeypatch):
    pairs, blocks = [], []
    recorded(monkeypatch, series, "_commutators_inside", lambda G, H, K, target: pairs.append(1))
    recorded(
        monkeypatch,
        kernels,
        "_brackets_within",
        lambda G, xs, ys, n1s, n2s, modulus: blocks.append((len(xs), len(ys))),
    )
    report = run_checks(parse_fixture(GROUPS[name] + "\n"))
    rows = {row.check: (row.status, row.details) for row in report.rows}
    assert sorted(rows) == sorted(GROUP_CHECKS)
    orders = [order for order, run in SERIES_RUNS[name] for _ in range(run)]
    assert rows.pop("np_series") == (
        "pass",
        f"series orders {orders}; both containment families verified",
    )
    assert rows == ROWS[name]
    # 1025 or 513 terms, 12 or 11 distinct: r(r+1)/2 pair decisions, not m(m+1)/2
    r = len(SERIES_RUNS[name])
    assert len(orders) in (1025, 513)
    assert len(pairs) <= r * (r + 1) // 2
    # degree i has nonzero dimension where D_i > D_(i+1), at the end of a run;
    # one block per such pair i >= j with i + j <= m, none for an empty degree
    ends = list(itertools.accumulate(run for _, run in SERIES_RUNS[name][:-1]))
    m = len(orders) - 1
    assert all(dx > 0 and dy > 0 for dx, dy in blocks)
    assert len(blocks) == sum(1 for i in ends for j in ends if j <= i and i + j <= m) > 0


@pytest.mark.parametrize(
    "build, rows",
    [(lambda: pc(2, 11), scan_rows(1, 1, 1, 1)), (cl2o2048, scan_rows(2, 2, 1, 2))],
    ids=["C2^11", "Cl2o2048"],
)
def test_every_pair_scan_of_an_order_2048_group_is_decided(build, rows):
    # |G|^2 = 4194304 table reads, at the cap; no scan budget skips them
    G = build()
    verdicts = {
        "collection": check_collection_formula(G),
        "lemma_3_3": check_lemma_3_3(G),
        "lemma_3_4": check_lemma_3_4(G),
    }
    assert {check: ("pass" if v.ok else "fail", v.detail) for check, v in verdicts.items()} == (
        rows
    )


# the bracket blocks kept: one per pair of the 11 (C2048) or 10 nonzero degrees with i + j <= m
BLOCKS = {"C2048": 100, "D2048": 81, "C2xC1024": 81}


@pytest.mark.parametrize("name", list(GROUPS))
def test_the_lie_ring_keeps_only_the_blocks_of_nonzero_degrees(name):
    G = build_group(parse_fixture(GROUPS[name] + "\n").groups[0].presentation)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        L = build_dl(G)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(L.sc) == BLOCKS[name]
    assert all(L.dims[i - 1] and L.dims[j - 1] for i, j in L.sc)
    if name == "C2048":
        assert kept < 2 * 2**20


def d8():
    return build_group(PcPresentation(2, 3, {2: ((3, 1),)}, {(2, 1): ((3, 1),)}))


def test_a_planted_series_names_its_least_failing_pair():
    # S_1 = S_2 = S_3 = D8 > S_4 = Z > 1: the runs end at 3, 4 and 5, and the
    # last-of-run pairs first fail at [S_3, S_3]; the least failing pair in
    # (i+j, i) order is [S_2, S_3] (sum 5, where [S_1, S_4] = 1 passes)
    G = d8()
    whole, center = whole_subgroup(G), lower_central_series(G).term(2)
    assert center.order == 2
    planted = NormalSeries(G, "planted", (whole, whole, whole, center, trivial_subgroup(G)))
    verdict = verify_np_series(G, planted, 2)
    assert (verdict.ok, verdict.detail) == (False, "[S_2, S_3] is not inside S_5")


def test_a_planted_series_names_its_least_failing_power():
    # C4 = S_1 = S_2 = S_3 > 1: brackets all pass; the last-of-run power
    # S_3^2 ≤ S_6 = 1 fails first, the least failing one is S_2^2 ≤ S_4 = 1
    G = build_group(PcPresentation(2, 2, {1: ((2, 1),)}))
    whole = whole_subgroup(G)
    planted = NormalSeries(G, "planted", (whole, whole, whole, trivial_subgroup(G)))
    verdict = verify_np_series(G, planted, 2)
    assert (verdict.ok, verdict.detail) == (False, "S_2^2 is not inside S_4")


def test_last_of_run_decisions_accept_exactly_the_full_scan_on_every_short_series():
    # every descending chain of D8's normal subgroups D8 ≥ Z ≥ 1 of length
    # at most 5, taken through both verify_np_series and the full ordered scan
    G = d8()
    chain = (whole_subgroup(G), lower_central_series(G).term(2), trivial_subgroup(G))
    for length in range(1, 6):
        for picks in itertools.combinations_with_replacement(range(3), length):
            terms = tuple(chain[k] for k in (0,) + picks)
            verdict = verify_np_series(G, NormalSeries(G, "chain", terms), 2)
            assert verdict.ok == full_scan_ok(G, terms, 2), picks


def full_scan_ok(G, terms, p) -> bool:
    """[S_i, S_j] ≤ S_(i+j) on every pair and S_i^p ≤ S_(pi) on every i, by subgroup comparison."""
    m = len(terms)
    trivial = trivial_subgroup(G)

    def term(i):
        return terms[i - 1] if i <= m else trivial

    brackets = all(
        series.commutator_subgroup(G, term(i), term(j)) <= term(i + j)
        for i in range(1, m + 1)
        for j in range(i, m + 1)
    )
    return brackets and all(
        series.power_subgroup(G, term(i), p) <= term(p * i) for i in range(1, m + 1)
    )
