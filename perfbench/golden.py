"""Write the golden copies in golden/ from the current grouplab code.

    python3 perfbench/golden.py [DECIDE_SEED ...]    (default seeds: 1 2 3)

The benchmark counts every op whose output differs from these copies as
failed, so rewrite them only with a change that means to alter grouplab's
output. Decisions on decide presentations are pinned for the seeds given,
except for presentations still undecided at the workload's cap.
"""

import json
import signal
import sys

import run
from workloads import GOLDEN, WORKLOADS, build_summary, decision, report_rows


def _dump(name: str, doc) -> None:
    (GOLDEN / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", "utf-8")


def main(decide_seeds) -> None:
    GOLDEN.mkdir(exist_ok=True)
    (corpus,) = WORKLOADS["corpus"].setup(0)
    (GOLDEN / "corpus.json").write_text(corpus.run().to_json(), "utf-8")
    _dump("ladder", {op.label: report_rows(op.run()) for op in WORKLOADS["ladder"].setup(0)})
    _dump("build", {op.label: build_summary(op.run()) for op in WORKLOADS["build"].setup(0)})
    decide = WORKLOADS["decide"]
    signal.signal(signal.SIGALRM, run._on_alarm)
    pinned = {}
    for seed in decide_seeds:
        pinned[str(seed)] = {}
        for op in decide.setup(seed):
            signal.setitimer(signal.ITIMER_REAL, decide.cap_s)
            try:
                pinned[str(seed)][op.label.split(" ", 1)[0]] = decision(op.run())
            except run.OpTimeout:
                pass
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    _dump("decide", pinned)


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [1, 2, 3])
