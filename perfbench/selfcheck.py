"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Shows that a corrupted golden copy fails every op of a pass (failed_share
1), that an op still running at its cap is stopped, counted as failed and
named, and that BENCHMARK.json names exactly the metrics run.py and
tracing.py report. Exits non-zero at the first broken expectation.
"""

import json
import sys

import run
from tracing import metric_units
from workloads import WORKLOADS


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def one_pass(workload, golden, cap_s: float) -> list:
    """The op results of one pass, as run.py's timed loop makes them."""
    ((results, _, _),) = run.run_passes(workload, workload.setup(0), golden, cap_s, 0.0)
    return results


def failed_share(results) -> float:
    return sum(1 for r in results if r.failure) / len(results)


def corrupted_golden_fails_every_op() -> None:
    corpus = WORKLOADS["corpus"]
    golden = corpus.load_golden(0).replace('"status": "pass"', '"status": "fail"', 1)
    results = one_pass(corpus, golden, corpus.cap_s)
    expect(failed_share(results) == 1.0, f"corpus, one status flipped in the golden: failed_share 1 over {len(results)} op")

    ladder = WORKLOADS["ladder"]
    golden = ladder.load_golden(0)
    for rows in golden.values():
        rows[0][3] += " (corrupted)"
    results = one_pass(ladder, golden, ladder.cap_s)
    expect(failed_share(results) == 1.0, f"ladder, one detail changed per group in the golden: failed_share 1 over {len(results)} ops")

    build = WORKLOADS["build"]
    golden = build.load_golden(0)
    for summary in golden.values():
        summary["table_sha256"] = "0" * 64
    results = one_pass(build, golden, build.cap_s)
    expect(failed_share(results) == 1.0, f"build, table digest changed in the golden: failed_share 1 over {len(results)} op")


def over_cap_op_is_counted() -> None:
    ladder = WORKLOADS["ladder"]
    cap_s = 0.005  # every ladder op takes longer
    results = one_pass(ladder, ladder.load_golden(0), cap_s)
    stopped = [r.label for r in results if r.failure == f"still running at the {cap_s:g} s cap"]
    expect(
        stopped == [op.label for op in ladder.setup(0)],
        f"ladder under a {cap_s:g} s cap: ops {', '.join(stopped)} stopped, counted and named",
    )


def benchmark_json_matches_reports() -> None:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    expect(
        {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS,
        "BENCHMARK.json end_to_end matches run.py",
    )
    expect(
        {m["name"]: m["unit"] for m in doc["per_layer"]} == metric_units(),
        "BENCHMARK.json per_layer matches tracing.py",
    )
    expect(all(w["name"] in WORKLOADS for w in doc["workloads"]), "BENCHMARK.json workloads exist")


if __name__ == "__main__":
    benchmark_json_matches_reports()
    corrupted_golden_fails_every_op()
    over_cap_op_is_counted()
