#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and keep every
run's numbers in one JSON file.

For each seed, `uavbench/run.py --workload W --seed S --seconds T --trace 0`
runs once in the parent checkout and once in the changed one, the side that
goes first alternating from seed to seed. The file records, per workload,
each run's end-to-end metrics, CSV hashes, git SHA and source hash, then
per metric the medians and quartiles of both sides, the relative change of
the medians and how many pairs the change won. Running again with another
workload adds it to the same file.

Usage: python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR WORKLOAD
       FIRST_SEED N_SEEDS OUT.json [SECONDS]
"""

import json
import os
import statistics
import subprocess
import sys


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "uavbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(root, ".bench_out", workload, "summary.json")
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    hashes = next((p["csv_sha256"] for p in summary["passes"]
                   if "csv_sha256" in p), {})
    return {"seed": seed, "correct": line["correct"],
            "attempted": line["attempted"], "failed": line["failed"],
            "metrics": {k: v["value"] for k, v in line["metrics"].items()},
            "csv_sha256": hashes, "passes": len(summary["passes"]),
            "environment": summary["environment"]}


def quartiles(values: list) -> list:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def compare(parent: list, change: list) -> dict:
    """Per metric: medians, quartiles, relative change and pairs won (lower
    is better for every end-to-end metric of the benchmark)."""
    out = {}
    for name in parent[0]["metrics"]:
        a = [r["metrics"][name] for r in parent]
        b = [r["metrics"][name] for r in change]
        ma, mb = statistics.median(a), statistics.median(b)
        out[name] = {
            "parent_median": ma, "change_median": mb,
            "parent_quartiles": quartiles(a),
            "change_quartiles": quartiles(b),
            "relative_change": (mb - ma) / ma if ma else 0.0,
            "change_better_pairs": sum(y < x for x, y in zip(a, b)),
            "pairs": len(a)}
    return out


def main() -> int:
    if len(sys.argv) not in (7, 8):
        print(__doc__, file=sys.stderr)
        return 2
    parent_dir, change_dir, workload = sys.argv[1:4]
    first, n_seeds, out_path = int(sys.argv[4]), int(sys.argv[5]), sys.argv[6]
    seconds = float(sys.argv[7]) if len(sys.argv) == 8 else 45.0
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(range(first, first + n_seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            root = parent_dir if side == "parent" else change_dir
            runs[side].append(run_once(root, workload, seed, seconds))
            m = runs[side][-1]["metrics"]
            print(f"{workload} seed {seed} {side}: wall_s "
                  f"{m['wall_s']:.4g} cpu_s {m['cpu_s']:.4g}", flush=True)
    doc = {}
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.setdefault("workloads", {})[workload] = {
        "command": f"uavbench/run.py --workload {workload} --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "order": "parent first on even pair indexes, change first on odd",
        "nproc": runs["parent"][0]["environment"]["nproc"],
        "parent": runs["parent"], "change": runs["change"],
        "csv_sha256_identical": all(
            a["csv_sha256"] == b["csv_sha256"]
            for a, b in zip(runs["parent"], runs["change"])),
        "summary": compare(runs["parent"], runs["change"])}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
