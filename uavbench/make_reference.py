#!/usr/bin/env python3
"""Regenerate uavbench/reference.json, the stored estimates that the
semi-analytic part of the mc_validate workload is checked against. Run
from the root of a checkout (takes a few minutes):

    PYTHONPATH=src python3 uavbench/make_reference.py

Each reference estimate uses REALIZATIONS realizations (ten times a
benchmark pass's or more), under a seed that `derived_seeds` never
produces (it makes 32-bit seeds), with the same settings as the workload.
"""

import json
import sys

from uavsec import analytic

import workloads

REFERENCE_SEED = 2 ** 40 + 7
REALIZATIONS = {"pc_exact": 10_000, "pso_exact": 3_000}


def main() -> int:
    wl = workloads.SemiAnalytic(0, "")
    estimates = {}
    for key, fn, args, kwargs in wl.make_calls():
        kwargs = dict(kwargs, seed=REFERENCE_SEED,
                      n_realizations=REALIZATIONS[fn])
        est = getattr(analytic, fn)(*args, **kwargs)
        estimates[key] = [est.value, est.half_width]
        print(f"{key}: {est.value:.5f} +- {est.half_width:.5f}", flush=True)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"settings": wl.settings(),
                   "realizations": REALIZATIONS,
                   "seed": REFERENCE_SEED, "estimates": estimates},
                  fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
