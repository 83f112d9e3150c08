"""Commutator value sets and the collection pair scan, decided on conjugacy classes.

The weight-k commutator values form a union of conjugacy classes, and the
failing pairs of the collection congruence are closed under simultaneous
conjugation, so the library walks class labels (checks._k_commutators) and
scans only the rows at class minima (kernels._power_law_failure).  The
references here use no class labels: one column of [c, z] over every z per
value c of the previous weight, and a scan of every row x of the table in
order.  Both must agree on the corpus, the ladder, the build group, S6,
C3^6, Heis27 x Heis27 and four groups of order 2048 whose pair scans run at
the table cap.
"""

import functools
from pathlib import Path

import numpy as np
import pytest

from test_commutator_generators import c3_6, cl2o2048, cl3o243, heis27_squared, s6
from test_long_series import GROUPS as LONG_SERIES

from grouplab import checks, kernels
from grouplab.corpus import load_corpus
from grouplab.fixtures import parse_fixture, realize_groups
from grouplab.series import lower_central_series

LADDER = Path(__file__).resolve().parents[1] / "perfbench" / "ladder.grp"


@functools.cache
def groups() -> dict:
    out = dict(load_corpus().groups)
    ladder = realize_groups(parse_fixture(LADDER.read_text("utf-8")))
    out.update({f"ladder {name}": G for name, G in ladder.items()})
    out.update({"Cl3o243": cl3o243(), "S6": s6(), "C3^6": c3_6(), "Heis27xHeis27": heis27_squared()})
    out.update(realize_groups(parse_fixture("\n".join(LONG_SERIES.values()) + "\n")))
    out["Cl2o2048"] = cl2o2048()
    return out


NAMES = sorted(groups())
# the groups the commutator oracle runs on: all but the two extra collection cases
K_NAMES = [name for name in NAMES if name not in ("C3^6", "Heis27xHeis27")]


def test_the_cases_cover_the_corpus_the_ladder_and_the_cap():
    assert len(NAMES) == 28  # with 4 values of q and 3 moduli: 336 collection cases
    assert {"ladder S5", "Cl3o243", "S6", "C2048", "D2048", "C2xC1024", "Cl2o2048"} <= set(NAMES)
    assert sorted(G.order for G in groups().values())[-4:] == [2048] * 4


# -- weight-k commutator values -------------------------------------------------


def column_k_commutators(G, most: int) -> list:
    """Weight-1..most values by columns: [c, z] = (zc)^-1 (cz) over every z, per value c of the last."""
    T, inv = G.table(), G.inverse_indices()
    everything = np.arange(G.order)
    weights = [everything]
    while len(weights) < most:
        values = np.zeros(G.order, dtype=bool)
        for c in weights[-1]:
            values[T[inv[T[everything, c]], T[c, everything]]] = True
        weights.append(np.flatnonzero(values))
    return weights


@pytest.mark.parametrize("name", K_NAMES)
def test_k_commutators_match_the_column_scan(name):
    G = groups()[name]
    for k, want in enumerate(column_k_commutators(G, 5), 1):
        assert checks._k_commutators(G, k).tolist() == want.tolist(), k


# -- the collection pair scan ----------------------------------------------------

QS = (2, 3, 4, 8)


def first_failing_row(G, q: int, modulus: np.ndarray):
    """First (x, y) over every row x, in row-major order, with (x^q y^q)^-1 (xy)^q outside modulus."""
    T, inv = G.table(), G.inverse_indices()
    everything = np.arange(G.order)
    P = np.full(G.order, G._e)
    for _ in range(q):
        P = T[P, everything]  # x^q, one factor x at a time
    for start in range(0, G.order, 64):
        xs = everything[start : start + 64, None]
        bad = ~modulus[T[inv[T[P[xs], P]], P[T[xs, everything]]]]
        if bad.any():
            x, y = divmod(int(np.argmax(bad)), G.order)
            return start + x, y
    return None


@functools.cache
def collection_cases(name: str) -> dict:
    """(q, modulus name) -> (kernel's first failing pair, the row scan's), for trivial, γ_2 and γ_3."""
    G = groups()[name]
    trivial = np.zeros(G.order, dtype=bool)
    trivial[G._e] = True
    lcs = lower_central_series(G)
    moduli = {"trivial": trivial, "gamma_2": lcs.term(2).mask, "gamma_3": lcs.term(3).mask}
    scanned = {}  # equal moduli are scanned once
    out = {}
    for q in QS:
        for label, modulus in moduli.items():
            key = (q, modulus.tobytes())
            if key not in scanned:
                got = kernels._power_law_failure(G, kernels._power_map(G, q), modulus)
                scanned[key] = (got, first_failing_row(G, q, modulus))
            out[q, label] = scanned[key]
    return out


@pytest.mark.parametrize("name", NAMES)
def test_class_minimum_rows_name_the_first_failing_pair_of_every_row(name):
    for case, (got, want) in collection_cases(name).items():
        assert got == want, case


def test_the_collection_cases_include_failures_past_skipped_rows():
    # the equivalence matters only where a row before the first failing one
    # is not a class minimum, so the kernel skipped it
    failures, past_skipped = 0, 0
    for name in NAMES:
        label = kernels._class_labels(groups()[name])
        for _, want in collection_cases(name).values():
            if want is not None:
                failures += 1
                past_skipped += bool((label[: want[0]] != np.arange(want[0])).any())
    assert (failures, past_skipped) == (91, 11)
