#!/usr/bin/env python3
"""Run every bundled experiment config and collect the CSV/SVG outputs.

Usage: python scripts/reproduce_figures.py [out_dir] [--fast]
`--fast` drops the Monte Carlo budget so the whole set finishes in about a
minute (for smoke runs; the bundled budgets take ~10 min).
"""

import os
import sys
import tempfile
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
        if fast:
            cfg = replace(cli.ExperimentConfig.from_file(path),
                          n_realizations=5000)
            tmp = os.path.join(tempfile.gettempdir(), name)
            with open(tmp, "w") as fh:
                fh.write(cfg.to_text())
            path = tmp
        print(f"== {name}")
        rc = cli.run(path, out_dir)
        status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
