"""Per-module spans and counters for the traced benchmark run.

Wrappers are installed at run time around public callables of the grouplab
modules; nothing inside the library changes. Modules that imported a
function by name (``checks``, ``liering``, ``corpus``, the package itself)
get the wrapper too, because every grouplab module attribute bound to the
original is rebound. A span records [name, start, end, parent span index,
op id, outcome]; op 0 is set-up. Hot arithmetic methods get call counters
only, since a span per call would swamp what it measures.

Per-layer values are set-up work counted once plus op work averaged over
the traced passes.
"""

import functools
import json
import sys
import time

import workloads  # noqa: F401  (puts the checkout's src/ on sys.path)
from grouplab import actions, checks, fixtures, gfp, groups, identities, liering, series
from grouplab.errors import GroupLabError

# span name -> (owner, attribute); an owner is a module or a class
SPANS = {
    "fixtures.parse": (fixtures, "parse_fixture"),
    "fixtures.realize_groups": (fixtures, "realize_groups"),
    "fixtures.realize_automorphisms": (fixtures, "realize_automorphisms"),
    "actions.realize": (actions, "realize_actions"),
    "groups.build_group": (groups, "build_group"),
    "groups.table": (groups.FiniteGroup, "table"),
    # GroupHomomorphism and Automorphism construction, with verification
    "groups.automorphism": (groups.GroupHomomorphism, "__init__"),
    # closure and normality re-verification of every Subgroup built
    "series.subgroup": (series.Subgroup, "__init__"),
    "series.quotient": (series.QuotientGroup, "__init__"),
    "series.lower_central": (series, "lower_central_series"),
    "series.derived": (series, "derived_series"),
    "series.dimension_series": (series, "dimension_series"),
    "series.commutator_subgroup": (series, "commutator_subgroup"),
    "series.power_subgroup": (series, "power_subgroup"),
    "series.normal_closure": (series, "normal_closure"),
    "series.centralizer": (series, "centralizer"),
    "series.fitting_height": (series, "fitting_height"),
    "liering.build_dl": (liering, "build_dl"),
    "liering.induced_action": (liering, "induced_action"),
    "liering.lazard_check": (liering, "lazard_check"),
    "liering.decomposition_witness": (liering, "decomposition_witness"),
    "identities.holds_identity": (identities, "holds_identity"),
    "identities.engel_index": (identities, "engel_index_of_element"),
    "gfp.rref": (gfp, "rref"),
}
CALLS_NAME = {"series.subgroup": "series.subgroups_built", "series.quotient": "series.quotients_built"}

COUNTERS = {
    "groups.multiply_calls": (groups.FiniteGroup, "multiply"),
    "groups.inverse_calls": (groups.FiniteGroup, "inverse"),
    "groups.power_calls": (groups.FiniteGroup, "power"),
    "groups.commutator_calls": (groups.FiniteGroup, "commutator"),
    "liering.bracket_calls": (liering.GradedLieRing, "bracket"),
}

# check handlers are timed through the run loop's dispatch tables, because
# the elapsed_ms of report rows is truncated to whole milliseconds
HANDLER_TABLES = (checks._GROUP_HANDLERS, checks._ACTION_HANDLERS)

OVERHEAD = ("trace.untraced_pass_s", "trace.traced_pass_s", "trace.overhead_s")


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPANS:
        units[f"{name}_s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[CALLS_NAME.get(name, f"{name}.calls")] = "count"
        if name == "groups.build_group":
            units["groups.accept_s"] = "s"
            units["groups.reject_s"] = "s"
    units.update({name: "count" for name in COUNTERS})
    units.update({f"checks.{c}_ms": "ms" for c in checks.CHECK_CATALOG})
    units["checks.rows"] = "count"
    units["checks.decided_share"] = "ratio"
    units.update({name: "s" for name in OVERHEAD})
    return units


def _grouplab_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "grouplab" or name.startswith("grouplab."))
    ]


class Tracer:
    """Spans and counters kept in memory; install() and uninstall() bracket a phase."""

    def __init__(self):
        self.spans = []
        self.counts = {name: [0, 0] for name in COUNTERS}  # [set-up, ops]
        self.op = 0
        self._in_op = [0]
        self._stack = []
        self._undo = []

    def begin_op(self, op: int) -> None:
        self.op = op
        self._in_op[0] = 1 if op else 0
        self._stack.clear()  # an op stopped at its cap may leave spans open

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op, "ok"]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except GroupLabError:
                rec[5] = "rejected"
                raise
            except BaseException:
                rec[5] = "aborted"
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def _counter(self, name: str, fn):
        cell, in_op = self.counts[name], self._in_op

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[in_op[0]] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, wrapper) -> None:
        orig = vars(owner)[attr]
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, orig))
            return
        for mod in _grouplab_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))

    def install(self) -> None:
        for name, (owner, attr) in SPANS.items():
            self._replace(owner, attr, self._span(name, vars(owner)[attr]))
        for name, (owner, attr) in COUNTERS.items():
            self._replace(owner, attr, self._counter(name, vars(owner)[attr]))
        for table in HANDLER_TABLES:
            for check, handler in list(table.items()):
                table[check] = self._span(f"checks.{check}", handler)
                self._undo.append((table, check, handler))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    def metrics(self, n_passes: int, reports: list, overhead: dict) -> dict:
        """Per-layer values from the spans, counters, traced check reports and overhead."""
        units = metric_units()
        values = dict.fromkeys(units, 0.0)
        values.update(overhead)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, outcome in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, parent, op, outcome), inner in zip(self.spans, child):
            weight = 1.0 / n_passes if op else 1.0
            took = (end - start) * weight
            if name.startswith("checks."):
                values[f"{name}_ms"] += took * 1000.0
                continue
            values[f"{name}_s"] += took
            values[f"{name}.self_s"] += (end - start - inner) * weight
            values[CALLS_NAME.get(name, f"{name}.calls")] += weight
            if name == "groups.build_group" and outcome == "ok":
                values["groups.accept_s"] += took
            elif name == "groups.build_group" and outcome == "rejected":
                values["groups.reject_s"] += took
        for name in COUNTERS:
            at_setup, in_ops = self.counts[name]
            values[name] = at_setup + in_ops / n_passes
        rows = [row for report in reports for row in report.rows]
        if rows:
            decided = sum(row.status in ("pass", "fail") for row in rows)
            values["checks.rows"] = len(rows) / n_passes
            values["checks.decided_share"] = decided / len(rows)
        return {name: {"value": values[name], "unit": units[name]} for name in units}

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["name", "start", "end", "parent", "op", "outcome"],
            "spans": self.spans,
            "counts": {name: {"setup": c[0], "ops": c[1]} for name, c in self.counts.items()},
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), "utf-8")
