#!/usr/bin/env python3
"""Run every bundled experiment config and collect the CSV/SVG outputs.

Usage: python scripts/reproduce_figures.py [out_dir] [--fast]
`--fast` runs each parsed config with its Monte Carlo budget cut to 5000
realizations, so the whole set finishes in about a minute (for smoke runs;
the bundled budgets take ~10 min). It writes nothing but the outputs.
"""

import os
import sys
from dataclasses import replace

from uavsec import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")


def main() -> int:
    args = [a for a in sys.argv[1:] if a != "--fast"]
    fast = "--fast" in sys.argv[1:]
    out_dir = args[0] if args else os.path.join(ROOT, "out")
    status = 0
    for name in sorted(os.listdir(CONFIGS)):
        if not name.endswith(".cfg"):
            continue
        path = os.path.join(CONFIGS, name)
        print(f"== {name}")
        if fast:
            cfg = cli.ExperimentConfig.from_file(path)
            rc = cli.run_experiment(replace(cfg, n_realizations=5000),
                                    out_dir)
        else:
            rc = cli.run(path, out_dir)
        status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
