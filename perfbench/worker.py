"""Run one pass of a workload in this fresh process and print the results as JSON.

Started by ``run.py`` with ``PYTHONPATH`` naming the package's ``src``
directory. Runs the workload's first ``pass_items`` inputs for ``--seed``
in a closed loop, with a ``speed.SpeedProbe`` sampling the core, and prints
one JSON line: per-item times in seconds as measured and scaled to the
core's nominal speed, per-item check results, per-item output digests (or
null), peak RSS in KiB and, with ``--trace 1``, the per-layer summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
import traceback

import speed
import tracer
import workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=tuple(workloads.PASS_ITEMS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    work = workloads.workload(args.workload)
    layer_tracer = None
    if args.trace:
        layer_tracer = tracer.Tracer()
        layer_tracer.install()

    inputs = work.inputs(random.Random(args.seed))
    spans, oks, digests = [], [], []
    probe = speed.SpeedProbe().start()
    for _ in range(work.pass_items):
        item = next(inputs)
        start = time.perf_counter()
        try:
            ok, output = work.run(item)
        except Exception:  # a failed item is counted and reported, and the pass goes on
            traceback.print_exc()
            ok, output = False, None
        spans.append((start, time.perf_counter()))
        oks.append(ok)
        digests.append(None if output is None
                       else hashlib.sha256(output.encode()).hexdigest())
    probe.stop()

    print(json.dumps({
        "latencies": [end - start for start, end in spans],
        "scaled": [(end - start) * probe.scale(start, end) for start, end in spans],
        "ok": oks,
        "digests": digests,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": layer_tracer.summary() if layer_tracer else None,
    }))


if __name__ == "__main__":
    sys.exit(main())
