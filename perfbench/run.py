"""Run one workload of the grouplab benchmark and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 22 --trace 0

Workloads are defined in workloads.py and described in README.md. Every op
runs in this one process, one after another (a closed loop with a single
caller and no worker threads), under the workload's per-op wall-clock cap.
An op past its cap is stopped, counted as failed and listed by input.
Set-up and first-pass figures come from fresh processes (fresh.py), run one
at a time between passes.

Pass times are reported in units of a fixed pure-Python reference kernel
timed around each pass in the same process ("ref"), because this class of
shared host drifts in speed by tens of percent over minutes; raw seconds
are printed beside them.

With --trace 0 the last line of output holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run (tracing.py), which
also writes its spans to .perfbench-out/. Exits non-zero, printing no
result, when the grouplab sources are not beside this directory.
"""

import os

# One caller, no worker threads: pin the numpy/BLAS pools before numpy loads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FRESH_PROBES = 8  # fresh processes per run; each gives one setup_s sample
FIRST_PASS_PROBES = 4  # of those, every other one also times a first pass
TAIL_BEYOND = 10  # op_s.tail: the highest percentile with this many ops above it
END_TO_END_UNITS = {"setup_s": "s", "first_pass_ref": "ref", "pass_ref": "ref", "peak_rss_mb": "MB"}


class OpTimeout(BaseException):
    """Raised by the per-op timer; a BaseException, so no library handler swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout


@dataclass
class OpResult:
    label: str
    seconds: float
    failure: object  # None, or why the op counts as failed
    report: object = None  # the op's CheckReport, kept for the traced run


def run_op(workload, op, golden, cap_s: float) -> OpResult:
    from grouplab import CheckReport

    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            out = op.run()
            seconds = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return OpResult(op.label, cap_s, f"still running at the {cap_s:g} s cap")
    except Exception as exc:  # an unexpected error is a failed op, not a crashed run
        return OpResult(op.label, time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}")
    failure = workload.check(op.label, out, golden)
    return OpResult(op.label, seconds, failure, out if isinstance(out, CheckReport) else None)


def _close_s7() -> int:
    """Close S7 under a transposition and a 7-cycle: tuple and set work like grouplab's."""
    gens = ((1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0))
    seen = {tuple(range(7))}
    frontier = list(seen)
    while frontier:
        fresh = []
        for perm in frontier:
            for g in gens:
                image = tuple(g[x] for x in perm)
                if image not in seen:
                    seen.add(image)
                    fresh.append(image)
        frontier = fresh
    return len(seen)


def reference_seconds() -> float:
    """The machine's current speed: median of five timings of the reference kernel."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _close_s7()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_pass(workload, ops, golden, cap_s, tracer=None) -> tuple:
    """One pass over ops: (results, seconds, ref).

    Each op is timed between two reference timings and contributes its
    seconds over their mean to the pass's ref value.
    """
    refs = [reference_seconds()]
    results = []
    for op in ops:
        if tracer is not None:
            tracer.begin_op(tracer.op + 1)
        results.append(run_op(workload, op, golden, cap_s))
        refs.append(reference_seconds())
    ref = sum(r.seconds / ((a + b) / 2) for r, a, b in zip(results, refs, refs[1:]))
    return results, sum(r.seconds for r in results), ref


def run_passes(workload, ops, golden, cap_s, seconds, tracer=None, probes=()) -> list:
    """Whole timed passes for `seconds` of pass time; at least one.

    Each of `probes` is called once between passes, spread evenly over that
    time and not counted in it, so that every probe samples the host at a
    different moment of the run.
    """
    passes = []
    spent = 0.0
    called = 0
    while not passes or spent < seconds:
        start = time.perf_counter()
        passes.append(timed_pass(workload, ops, golden, cap_s, tracer))
        spent += time.perf_counter() - start
        while called < len(probes) and spent >= seconds * called / len(probes):
            probes[called]()
            called += 1
    for probe in probes[called:]:
        probe()
    return passes


def fresh_probe(workload: str, seed: int, first: bool) -> dict:
    """Set-up seconds of a fresh interpreter, and with `first` its first pass."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "fresh.py"), workload, str(seed), "first" if first else "setup"],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    doc = json.loads(done.stdout.splitlines()[-1])
    doc["setup_s"] = doc.pop("ready") - start
    return doc


def timed_run(w, seed: int, seconds: float, golden) -> tuple:
    ops = w.setup(seed)
    cap_s = w.cap_s
    warm = [run_op(w, op, golden, cap_s) for op in ops]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # over one pass
    fresh = []
    every = FRESH_PROBES // FIRST_PASS_PROBES
    probes = [
        lambda first=(k % every == 0): fresh.append(fresh_probe(w.name, seed, first))
        for k in range(FRESH_PROBES)
    ]
    passes = run_passes(w, ops, golden, cap_s, seconds, probes=probes)
    firsts = [p for p in fresh if "results" in p]
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in fresh),
        "first_pass_ref": statistics.median(p["first_pass_ref"] for p in firsts),
        "pass_ref": statistics.median(ref for _, _, ref in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "first_pass_s": statistics.median(p["first_pass_s"] for p in firsts),
        "pass_s": statistics.median(s for _, s, _ in passes),
    }
    results = warm + [r for p in passes for r in p[0]]
    results += [OpResult(*r) for p in firsts for r in p["results"]]
    return results, passes, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, raw


def traced_run(w, seed: int, seconds: float, golden) -> tuple:
    from tracing import Tracer

    cap_s = w.cap_s
    tracer = Tracer()
    tracer.install()
    ops = w.setup(seed)  # set-up spans carry op id 0
    tracer.uninstall()
    warm = [run_op(w, op, golden, cap_s) for op in ops]
    untraced = run_passes(w, ops, golden, cap_s, seconds / 2)
    tracer.install()
    try:
        traced = run_passes(w, ops, golden, cap_s, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    plain = statistics.median(s for _, s, _ in untraced)
    with_trace = statistics.median(s for _, s, _ in traced)
    overhead = {
        "trace.untraced_pass_s": plain,
        "trace.traced_pass_s": with_trace,
        "trace.overhead_s": with_trace - plain,
    }
    traced_ops = [r for p in traced for r in p[0]]
    reports = [r.report for r in traced_ops if r.report is not None]
    metrics = tracer.metrics(len(traced), reports, overhead)
    tracer.write(ROOT / ".perfbench-out" / f"trace-{w.name}-seed{seed}.json")
    results = warm + [r for p in untraced for r in p[0]] + traced_ops
    return results, traced, metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "grouplab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no grouplab sources under {ROOT / 'src'}")

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    golden = w.load_golden(args.seed)
    run = traced_run if args.trace else timed_run
    results, passes, metrics, raw = run(w, args.seed, args.seconds, golden)

    failed = [r for r in results if r.failure]
    timed = sorted(r.seconds for p in passes for r in p[0])
    print(
        f"workload {w.name}, seed {args.seed}, trace {args.trace}: {len(timed)} timed ops "
        f"in {len(passes)} passes, cap {w.cap_s:g} s per op"
    )
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for name, value in raw.items():
        print(f"  {name:36s} {value:.6g} s (raw)")
    tail = ""
    k = len(timed) - TAIL_BEYOND - 1
    if k >= len(timed) // 2:  # reported only where it lies above the median
        tail = f"; op_s.tail p{100 * (k + 1) / len(timed):.1f} {timed[k]:.4g} s of {len(timed)} ops"
    print(f"  op_s.p50 {statistics.median(timed):.4g} s{tail}; failed_share {len(failed)}/{len(results)}")
    for (label, failure), count in Counter((r.label, r.failure) for r in failed).items():
        print(f"  FAILED x{count} {label}: {failure}")
    print(
        json.dumps(
            {"correct": not failed, "attempted": len(results), "failed": len(failed), "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
