#!/usr/bin/env python3
"""Check that two checkouts write byte-identical figure outputs and
validation tables.

Runs `scripts/reproduce_figures.py` of each checkout, with that checkout's
`src` on PYTHONPATH, into OUT_DIR/parent and OUT_DIR/change, which must not
exist yet, and `uavsec validate --fast` of each checkout, whose printed
table goes to OUT_DIR/<side>/validate.txt. All four runs go side by side;
the other console output of a side goes to OUT_DIR/<side>.log. Then
compares every CSV, SVG and validate.txt byte for byte and prints one line
per file. Under each CSV that differs it also prints every Monte Carlo
cell (a `*_mc*` column) that moved, with its gap in combined half-widths,
|change - parent| / hypot(parent's, change's `_hw` cell). Exits 1 if a run
fails (a FAIL verdict included), or a file differs or is missing on one
side.

Usage: python scripts/compare_outputs.py PARENT_DIR CHANGE_DIR OUT_DIR
"""

import csv
import filecmp
import math
import os
import subprocess
import sys


def moved_cells(paths: list) -> list:
    """One line per Monte Carlo cell whose value differs between the
    parent's and the change's CSV (rows paired in order), naming its
    column and row (the first column's value) and giving both values and
    their gap in combined half-widths."""
    tables = []
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            tables.append(list(csv.DictReader(fh)))
    lines = []
    for a, b in zip(*tables):
        key = next(iter(a))
        for col in a:
            if "_mc" not in col or col.endswith("_hw") \
                    or col not in b or a[col] == b[col]:
                continue
            spread = math.hypot(float(a[col + "_hw"]), float(b[col + "_hw"]))
            gap = abs(float(b[col]) - float(a[col]))
            gap = gap / spread if spread else math.inf
            lines.append(f"    {col} at {key} = {a[key]}: {a[col]} -> "
                         f"{b[col]} ({gap:.2f} combined half-widths)")
    return lines


def main() -> int:
    if len(sys.argv) != 4:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    checkouts = dict(zip(("parent", "change"), sys.argv[1:3]))
    out_dir = sys.argv[3]
    procs = {}
    for side, root in checkouts.items():
        side_dir = os.path.join(out_dir, side)
        os.makedirs(side_dir)
        env = {**os.environ,
               "PYTHONPATH": os.path.abspath(os.path.join(root, "src"))}
        with open(os.path.join(out_dir, side + ".log"), "w") as log, \
                open(os.path.join(side_dir, "validate.txt"), "w") as table:
            procs[side, "reproduce_figures.py"] = subprocess.Popen(
                [sys.executable,
                 os.path.join(root, "scripts", "reproduce_figures.py"),
                 side_dir], env=env, stdout=log, stderr=subprocess.STDOUT)
            procs[side, "uavsec validate --fast"] = subprocess.Popen(
                [sys.executable, "-m", "uavsec.cli", "validate", "--fast"],
                env=env, stdout=table, stderr=log)
    status = 0
    for (side, what), proc in procs.items():
        if proc.wait():
            print(f"{side}: {what} exited {proc.returncode}")
            status = 1
    names = sorted({name for side in checkouts
                    for name in os.listdir(os.path.join(out_dir, side))
                    if name.endswith((".csv", ".svg", "validate.txt"))})
    for name in names:
        paths = [os.path.join(out_dir, side, name) for side in checkouts]
        missing = [side for side, path in zip(checkouts, paths)
                   if not os.path.exists(path)]
        if missing:
            verdict = f"missing in {missing[0]}"
        else:
            verdict = ("identical" if filecmp.cmp(*paths, shallow=False)
                       else "differs")
        print(f"{verdict:18s} {name}")
        if verdict == "differs" and name.endswith(".csv"):
            print("\n".join(moved_cells(paths)) or "    no Monte Carlo cell "
                  "moved")
        status = status or int(verdict != "identical")
    if not names:
        print("no CSV or SVG written")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
