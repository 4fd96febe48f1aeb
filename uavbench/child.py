"""One benchmark pass in a fresh process: import, make the inputs, run the
workload's fixed work (traced or not), check the outputs, and write the
pass's result as JSON. Started by run.py from the root of a checkout, with
that checkout's `src` on PYTHONPATH.

setup_s runs from the parent's clock reading just before this process was
spawned (`--t-spawn`, CLOCK_MONOTONIC) to the first call into the workload.
"""

import argparse
import json
import os
import platform
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--run-id", required=True)
    args = ap.parse_args()

    import numpy
    import uavsec
    import tracer
    import workloads

    src = os.path.realpath(os.path.join(os.getcwd(), "src", "uavsec"))
    if os.path.dirname(os.path.realpath(uavsec.__file__)) != src:
        print(f"error: imported uavsec from {uavsec.__file__}, not {src}",
              file=sys.stderr)
        return 3
    workload = workloads.WORKLOADS[args.workload](args.seed, args.out)
    workload.setup()
    trace = tracer.Tracer(args.run_id) if args.traced else None
    if trace is not None:
        trace.install()
    setup_s = time.monotonic() - args.t_spawn
    t0 = time.perf_counter()
    estimates = workload.run()
    wall_s = time.perf_counter() - t0
    restored = trace.uninstall() if trace is not None else True
    attempted, failures, digests = workload.check()
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "time_to_hw_s": workloads.projected_time(estimates),
        "attempted": attempted,
        "failures": failures,
        "csv_sha256": digests,
        "restored": restored,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__,
                     "uavsec": uavsec.__version__},
    }
    if trace is not None:
        result["layers"] = trace.layer_metrics()
        trace.write_spans(os.path.join(args.out, "spans.jsonl"))
    with open(os.path.join(args.out, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
