#!/usr/bin/env python3
"""Check that two checkouts write byte-identical figure outputs.

Runs `scripts/reproduce_figures.py` of each checkout, with that checkout's
`src` on PYTHONPATH, into OUT_DIR/parent and OUT_DIR/change, which must not
exist yet. The two runs go side by side; each one's console output goes to
OUT_DIR/<side>.log. Then compares every CSV and SVG byte for byte and
prints one line per file. Exits 1 if a run fails, or a file differs or is
missing on one side.

Usage: python scripts/compare_outputs.py PARENT_DIR CHANGE_DIR OUT_DIR
"""

import filecmp
import os
import subprocess
import sys


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
        with open(os.path.join(out_dir, side + ".log"), "w") as log:
            procs[side] = subprocess.Popen(
                [sys.executable,
                 os.path.join(root, "scripts", "reproduce_figures.py"),
                 side_dir], env=env, stdout=log, stderr=subprocess.STDOUT)
    status = 0
    for side, proc in procs.items():
        if proc.wait():
            print(f"{side}: reproduce_figures.py exited {proc.returncode}")
            status = 1
    names = sorted({name for side in checkouts
                    for name in os.listdir(os.path.join(out_dir, side))
                    if name.endswith((".csv", ".svg"))})
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
        status = status or int(verdict != "identical")
    if not names:
        print("no CSV or SVG written")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
