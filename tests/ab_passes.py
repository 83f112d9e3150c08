"""In-process A/B timing of two grouplab checkouts on one benchmark workload.

    python3 tests/ab_passes.py A_DIR B_DIR WORKLOAD PASSES
    python3 tests/ab_passes.py --calls A_DIR B_DIR WORKLOAD

A_DIR and B_DIR are checkouts (each with src/grouplab); WORKLOAD is corpus,
ladder or build, as in perfbench/workloads.py.  Each checkout's package is
loaded under its own name, grouplab_a and grouplab_b, into this one process,
and both build their ops from the same fixture files, read by path from
A_DIR: the corpus from src/grouplab/data/corpus.grp (corpus_text() finds
the package by the name grouplab, so it is not called), the ladder and
build groups from perfbench/.  One untimed pass per side checks that both
give equal outputs.  Then the sides alternate pass by pass, the first side
swapped every pass, and each op is timed after the benchmark's reference
kernel (perfbench/run.py, reference_seconds), so a pass is worth the sum of
its ops' seconds over the reference seconds, in pass_ref's "ref" unit.
Prints each side's median and quartiles, and the median of the per-pass
B/A ratios with their quartiles.  Then a 95% bootstrap interval of that
median, from RESAMPLES resamples of the ratios drawn with a fixed-seed
random.Random, is held against 1 +- BOUND: wholly below it B is faster,
wholly above it B is slower, wholly inside it the two are the same within
BOUND, and an interval that spans 1 - BOUND or 1 + BOUND is unresolved:
more passes are needed to tell.  With --calls nothing is timed: after the
untimed pass, each side runs one more pass under cProfile, and its total
function call count is printed, so that "the same or less work" is one
command, followed by the MOVED functions whose call counts differ most
from A to B.  Each is keyed by its file's basename and its qualified name,
as in groups.py:GroupElement.__init__, so that the checkouts' differing
module paths and line numbers do not split it and same-named methods of one
file do not merge; the qualified name is read from the file's ast at the
first line cProfile reports for it.  Not a test: its name keeps it out of
the pytest run.
"""

import ast
import cProfile
import functools
import importlib.util
import random
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MOVED = 15  # functions listed by --calls
RESAMPLES = 2000  # bootstrap resamples of the per-pass B/A ratios
BOUND = 0.01  # B/A medians within 1 +- BOUND count as the same


def load(name: str, init: Path, package: bool):
    """The module (or package, with its directory as search path) at init, as sys.modules[name]."""
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)] if package else None
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# the benchmark's own reference kernel; run.py pins the BLAS pools as it loads,
# before numpy is imported
bench = load("perfbench_run", ROOT / "perfbench" / "run.py", package=False)


def ops(gl, workload: str, base: Path) -> list:
    """The workload's ops, as in perfbench/workloads.py, on package gl."""
    if workload == "corpus":
        fx = gl.parse_fixture((base / "src/grouplab/data/corpus.grp").read_text("utf-8"))
        return [lambda: gl.run_checks(fx)]
    if workload == "ladder":
        fx = gl.parse_fixture((base / "perfbench/ladder.grp").read_text("utf-8"))
        out = []
        for g in fx.groups:
            actions = tuple(a for a in fx.actions if a.group == g.name)
            targets = {g.name} | {a.name for a in actions}
            part = gl.FixtureFile(
                (g,),
                tuple(a for a in fx.auts if a.group == g.name),
                actions,
                tuple(c for c in fx.checks if c.target in targets),
            )
            out.append(lambda part=part: gl.run_checks(part))
        return out
    if workload == "build":
        fx = gl.parse_fixture((base / "perfbench/build.grp").read_text("utf-8"))
        auts = {a.group: a for a in fx.auts}

        def pipeline(entry):
            G = gl.build_group(entry.presentation)
            G.table()
            series = gl.dimension_series(G)
            L = gl.build_dl(G)
            phi = gl.fixtures.realize_automorphism(auts[entry.name], G)
            return G, series, L, gl.induced_action(phi, L)

        return [lambda g=g: pipeline(g) for g in fx.groups]
    raise SystemExit(f"unknown workload {workload!r}: corpus, ladder or build")


def summary(workload: str, output):
    """What the benchmark's golden check reads of one op's output, as plain values."""
    if workload == "corpus":
        return output.to_json()
    if workload == "ladder":
        return [[r.group, r.check, r.status, r.details] for r in output.rows]
    G, series, L, action = output
    return (
        G.table().tobytes(),
        series.orders(),
        list(L.dims),
        L.C.tobytes(),
        [m.tolist() for m in action.mats],
    )


def timed_pass(side_ops) -> float:
    total = 0.0
    for op in side_ops:
        ref = bench.reference_seconds()
        start = time.perf_counter()
        op()
        total += (time.perf_counter() - start) / ref
    return total


@functools.lru_cache(maxsize=None)
def scopes(path: str) -> tuple:
    """(first line, last line, qualified name, is a class) of each def and class in a source file.

    The first line is the one a code object reports: its first decorator's,
    if any.  Names are qualified as co_qualname qualifies them.
    """
    try:
        tree = ast.parse(Path(path).read_text("utf-8"))
    except (OSError, SyntaxError, ValueError):
        return ()
    found = []

    def visit(node, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                is_class = isinstance(child, ast.ClassDef)
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((first, child.end_lineno, prefix + child.name, is_class))
                visit(child, prefix + child.name + ("." if is_class else ".<locals>."))
            else:
                visit(child, prefix)

    visit(tree, "")
    return tuple(found)


def qualname(path: str, line: int, name: str) -> str:
    """The qualified name of the function called name whose code starts at line of path.

    A lambda or comprehension is named inside the innermost def or class
    around its line; a name the file's ast does not show is kept as it is.
    """
    if name.startswith("<"):
        around = [s for s in scopes(path) if s[0] <= line <= s[1]]
        if not around:
            return name
        _, _, outer, is_class = max(around)
        return f"{outer}.{name}" if is_class else f"{outer}.<locals>.{name}"
    for first, _, qual, _ in scopes(path):
        if first == line and qual.rsplit(".", 1)[-1] == name:
            return qual
    return name


def call_counts(side_ops) -> Counter:
    """cProfile's call count of each function over one pass of the ops, by "basename:qualname"."""
    profiler = cProfile.Profile()
    profiler.enable()
    for op in side_ops:
        op()
    profiler.disable()
    counts = Counter()
    # the raw entries, not pstats: pstats keeps one of the code objects that
    # share a (file, line, name) label, such as the dataclass __init__s
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):  # a builtin, labelled as pstats labels it
            counts[f"~:{code}"] += entry.callcount
        else:
            name = qualname(code.co_filename, code.co_firstlineno, code.co_name)
            counts[f"{Path(code.co_filename).name}:{name}"] += entry.callcount
    return counts


def bootstrap_interval(ratios: list) -> tuple:
    """95% bootstrap interval of the median of ratios, over RESAMPLES fixed-seed resamples."""
    rng = random.Random(0)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(RESAMPLES)
    )
    tail = RESAMPLES // 40  # 2.5% on each side
    return medians[tail], medians[-1 - tail]


def resolved(lo: float, hi: float) -> str:
    """What an interval [lo, hi] of the B/A median says against 1 +- BOUND."""
    if hi < 1 - BOUND:
        return f"B is faster by more than {BOUND:.0%}"
    if lo > 1 + BOUND:
        return f"B is slower by more than {BOUND:.0%}"
    if 1 - BOUND <= lo and hi <= 1 + BOUND:
        return f"the same within {BOUND:.0%}"
    return f"unresolved: the interval spans a bound of 1 +- {BOUND:.0%}"


def main(argv) -> int:
    calls = argv[:1] == ["--calls"]
    if calls:
        argv = argv[1:]
    if len(argv) != (3 if calls else 4):
        raise SystemExit(__doc__.split("\n\n")[1])
    a_dir, b_dir, workload = Path(argv[0]), Path(argv[1]), argv[2]
    sides = {}
    for label, base in (("A", a_dir), ("B", b_dir)):
        gl = load(f"grouplab_{label.lower()}", base / "src/grouplab/__init__.py", package=True)
        sides[label] = ops(gl, workload, a_dir)
    outputs = {label: [summary(workload, op()) for op in side] for label, side in sides.items()}
    if outputs["A"] != outputs["B"]:
        print(f"{workload}: the two checkouts give different outputs", file=sys.stderr)
        return 1
    if calls:
        counts = {label: call_counts(side) for label, side in sides.items()}
        for label, base in (("A", a_dir), ("B", b_dir)):
            total = sum(counts[label].values())
            print(f"{label} {base}: {total} calls in one warm {workload} pass")
        a, b = counts["A"], counts["B"]
        moved = sorted(a.keys() | b.keys(), key=lambda f: (-abs(b[f] - a[f]), f))[:MOVED]
        print("functions whose call counts differ most, A -> B:")
        for f in moved:
            if a[f] != b[f]:
                print(f"  {f}: {a[f]} -> {b[f]} ({b[f] - a[f]:+d})")
        return 0
    times = {"A": [], "B": []}
    passes = int(argv[3])
    for i in range(passes):
        for label in ("A", "B") if i % 2 == 0 else ("B", "A"):
            times[label].append(timed_pass(sides[label]))
    for label, base in (("A", a_dir), ("B", b_dir)):
        q1, med, q3 = statistics.quantiles(times[label], n=4)
        print(f"{label} {base}: median {med:.4f} ref [{q1:.4f}, {q3:.4f}] over {passes} passes")
    ratios = [b / a for a, b in zip(times["A"], times["B"])]
    q1, med, q3 = statistics.quantiles(ratios, n=4)
    print(f"{workload} B/A per pass: median {med:.3f} [{q1:.3f}, {q3:.3f}]")
    lo, hi = bootstrap_interval(ratios)
    print(f"{workload} B/A median, 95% bootstrap interval [{lo:.3f}, {hi:.3f}]: {resolved(lo, hi)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
