"""Inputs, operations and output checks of the grouplab benchmark workloads.

A workload's ``setup(seed)`` returns one pass: a list of ``Op``s, each timed
on its own by ``run.py``. ``check(label, output, golden)`` returns None when
an op's output is right and a one-line reason when it is not. Golden copies
live in ``golden/`` and are written by ``golden.py`` from the code they
pin. Only ``decide`` draws its inputs from the seed; the other workloads
have fixed inputs.
"""

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

# Library calls go through module attributes, so the traced run's wrappers
# (tracing.py) see them.
import grouplab  # noqa: E402
import grouplab.fixtures  # noqa: E402
from grouplab import CheckReport, FixtureFile, GroupLabError, PcPresentation  # noqa: E402


@dataclass(frozen=True)
class Op:
    label: str  # names the input when the op fails
    run: Callable[[], object]


@dataclass(frozen=True)
class Workload:
    name: str
    cap_s: float  # per-op wall-clock cap, enforced by run.py
    setup: Callable[[int], list]
    load_golden: Callable[[int], object]
    check: Callable[[str, object, object], object]


def _read_golden(name: str):
    return json.loads((GOLDEN / f"{name}.json").read_text("utf-8"))


# -- corpus: the bundled corpus, byte-identical JSON report -------------------


def _corpus_setup(seed: int) -> list:
    fx = grouplab.parse_fixture(grouplab.corpus_text())
    return [Op("corpus", lambda: grouplab.run_checks(fx))]


def _corpus_check(label: str, report: CheckReport, golden: str):
    if report.to_json() != golden:
        return "report differs from golden/corpus.json"
    return None


# -- ladder: groups beyond the corpus, row statuses and details ------------


def report_rows(report: CheckReport) -> list:
    return [[r.group, r.check, r.status, r.details] for r in report.rows]


def _ladder_setup(seed: int) -> list:
    """One op per ladder group: run_checks over that group with its actions."""
    fx = grouplab.parse_fixture((HERE / "ladder.grp").read_text("utf-8"))
    ops = []
    for g in fx.groups:
        actions = tuple(a for a in fx.actions if a.group == g.name)
        targets = {g.name} | {a.name for a in actions}
        part = FixtureFile(
            (g,),
            tuple(a for a in fx.auts if a.group == g.name),
            actions,
            tuple(c for c in fx.checks if c.target in targets),
        )
        ops.append(Op(g.name, lambda part=part: grouplab.run_checks(part)))
    return ops


def _ladder_check(label: str, report: CheckReport, golden: dict):
    rows = report_rows(report)
    want = golden[label]
    if rows == want:
        return None
    if len(rows) != len(want):
        return f"{len(rows)} rows, golden has {len(want)}"
    first = next(a for a, b in zip(rows, want) if a != b)
    return f"row {first[0]}/{first[1]} differs from golden"


# -- build: one pc presentation through the whole pipeline, no checks -------


def _pipeline(entry, aut):
    G = grouplab.build_group(entry.presentation)
    G.table()
    series = grouplab.dimension_series(G)
    L = grouplab.build_dl(G)
    phi = grouplab.fixtures.realize_automorphism(aut, G)
    return G, series, L, grouplab.induced_action(phi, L)


def build_summary(output) -> dict:
    G, series, L, action = output
    table = np.ascontiguousarray(G.table(), dtype="<i8")
    return {
        "order": G.order,
        "series_orders": series.orders(),
        "dims": list(L.dims),
        "structure_constants": {
            f"{i},{j}": t.tolist() for (i, j), t in sorted(L.sc.items())
        },
        "table_sha256": hashlib.sha256(table.tobytes()).hexdigest(),
        "action": [m.tolist() for m in action.mats],
    }


def _build_setup(seed: int) -> list:
    fx = grouplab.parse_fixture((HERE / "build.grp").read_text("utf-8"))
    auts = {a.group: a for a in fx.auts}
    return [
        Op(g.name, lambda g=g: _pipeline(g, auts[g.name])) for g in fx.groups
    ]


def _build_check(label: str, output, golden: dict):
    got = build_summary(output)
    diff = [k for k in golden[label] if got.get(k) != golden[label][k]]
    return f"{', '.join(diff)} differ from golden" if diff else None


# -- decide: seed-drawn pc presentations, accept or reject -----------------

DECIDE_PASS = 8  # presentations per pass


def random_presentation(rng: random.Random) -> PcPresentation:
    """p in {2, 3}, 3-4 generators, random words legal to PcPresentation."""
    p = rng.choice((2, 3))
    n = rng.choice((3, 4))

    def word(floor: int) -> tuple:
        if rng.random() < 0.5:
            return ()
        return tuple(
            (k, rng.randrange(1, p)) for k in range(floor + 1, n + 1) if rng.random() < 0.5
        )

    powers = {i: w for i in range(1, n) if (w := word(i))}
    comms = {(j, i): w for i in range(1, n) for j in range(i + 1, n + 1) if (w := word(i))}
    return PcPresentation(p, n, powers, comms)


def _presentation_label(k: int, pres: PcPresentation) -> str:
    """'#k' plus the presentation in the fixture grammar's terms."""

    def word(w):
        return " ".join(f"{i}^{e}" for i, e in w)

    rels = [f"pow {i} = {word(w)}" for i, w in sorted(pres.powers.items())]
    rels += [f"comm {j} {i} = {word(w)}" for (j, i), w in sorted(pres.commutators.items())]
    return f"#{k} prime {pres.p} ngens {pres.ngens}; " + "; ".join(rels)


def _decide(pres: PcPresentation):
    try:
        return "accept", grouplab.build_group(pres), pres
    except GroupLabError as exc:
        return "reject", exc, pres


def _decide_setup(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for k in range(DECIDE_PASS):
        pres = random_presentation(rng)
        ops.append(Op(_presentation_label(k, pres), lambda pres=pres: _decide(pres)))
    return ops


def decision(output) -> str:
    kind, value, _ = output
    return "accept" if kind == "accept" else f"reject:{type(value).__name__}"


def is_associative(table: np.ndarray) -> bool:
    """(ab)c == a(bc) over every triple of the Cayley table."""
    return bool(np.array_equal(table[table, :], table[:, table]))


def _decide_check(label: str, output, pinned: dict):
    kind, value, pres = output
    if kind == "accept":
        if value.order != pres.p**pres.ngens:
            return f"accepted with order {value.order}, not p^n"
        if not is_associative(value.table()):
            return "accepted a table that is not associative"
    want = pinned.get(label.split(" ", 1)[0])
    if want is not None and decision(output) != want:
        return f"decided {decision(output)}, pinned {want}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus",
            10.0,
            _corpus_setup,
            lambda seed: (GOLDEN / "corpus.json").read_text("utf-8"),
            _corpus_check,
        ),
        Workload("ladder", 20.0, _ladder_setup, lambda seed: _read_golden("ladder"), _ladder_check),
        Workload("build", 20.0, _build_setup, lambda seed: _read_golden("build"), _build_check),
        Workload(
            "decide",
            5.0,
            _decide_setup,
            lambda seed: _read_golden("decide").get(str(seed), {}),
            _decide_check,
        ),
    )
}
