"""One fresh process for the set-up and first-pass metrics of run.py.

    python3 perfbench/fresh.py WORKLOAD SEED setup|first

Prints one JSON line. "ready" is the monotonic clock once grouplab is
imported and the workload's inputs are built; run.py subtracts the time at
which it spawned this process. With "first" the line also holds the first
pass over the inputs: its seconds, its reference-normalised time and each
op's result.
"""

import json
import sys
import time

from workloads import WORKLOADS

w = WORKLOADS[sys.argv[1]]
seed = int(sys.argv[2])
ops = w.setup(seed)
doc = {"ready": time.monotonic()}
if sys.argv[3] == "first":
    import run  # after "ready", so its imports are not counted as set-up

    results, seconds, ref = run.timed_pass(w, ops, w.load_golden(seed), w.cap_s)
    doc.update(
        first_pass_s=seconds,
        first_pass_ref=ref,
        results=[[r.label, r.seconds, r.failure] for r in results],
    )
print(json.dumps(doc))
