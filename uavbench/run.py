#!/usr/bin/env python3
"""The uavsec benchmark. Run from the root of a checkout:

    python3 uavbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: mc_validate and optimize_grid (see workloads.py).
Each pass runs the workload's fixed work on inputs made from `--seed`, in a
fresh child process (child.py) whose CPU time and peak RSS come from
`os.wait4`. Passes repeat until `--seconds` is used up, at least twice.

--trace 0 prints the end-to-end metrics: medians over the passes of
setup_s, wall_s, cpu_s, peak_rss_mb and time_to_hw_s.
--trace 1 runs one untraced pass and two traced ones (repeating while time
is left) and prints the per-layer metrics: counts from the traced passes,
which must agree exactly, and medians of the times. trace.overhead_s is the
traced minus the untraced median wall_s.

Every pass's outputs are checked; failed_share (failed / attempted points)
is printed with the metrics. All passes of a run must write byte-identical
CSVs, traced or not. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Everything a run
writes goes under .bench_out/<workload>/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import time

from metrics import END_TO_END, LAYER_METRICS, OVERHEAD

HERE = os.path.dirname(os.path.abspath(__file__))
# Workload -> points attempted per pass (all count as failed if it crashes).
POINTS = {"mc_validate": 21, "optimize_grid": 8}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RUN_LIMIT_S = 170.0          # every pass of a run ends within this


def git_sha(root: str) -> str:
    """HEAD of the checkout's git repository, read from .git, if any."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"),
                      encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha(root: str) -> str:
    """sha256 over src/uavsec/*.py, naming the code measured without git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "uavsec")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def child_env(root: str, nproc: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env


def run_pass(args, index: int, traced: bool, out: str, env: dict,
             deadline: float) -> dict:
    """One child process; its result plus exit code, cpu_s and peak RSS."""
    pass_dir = os.path.join(out, f"pass{index}")
    os.makedirs(pass_dir)
    argv = [sys.executable, os.path.join(HERE, "child.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--traced", str(int(traced)), "--out", pass_dir,
            "--run-id", f"{args.workload}-{args.seed}-{index}"]
    log = os.path.join(pass_dir, "log.txt")
    actions = [(os.POSIX_SPAWN_OPEN, 1, log,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    t_spawn = time.monotonic()
    pid = os.posix_spawn(sys.executable,
                         argv + ["--t-spawn", repr(t_spawn)], env,
                         file_actions=actions)
    timed_out = False
    done = 0
    try:
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                timed_out = True
                break
            time.sleep(0.02)
    finally:
        if not done:          # timed out, or this process is being stopped
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
    result = {"traced": traced, "exit": os.waitstatus_to_exitcode(status),
              "timed_out": timed_out, "duration_s": time.monotonic() - t_spawn,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "user_s": usage.ru_utime, "sys_s": usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    try:
        with open(os.path.join(pass_dir, "result.json"),
                  encoding="utf-8") as fh:
            result.update(json.load(fh))
    except (OSError, ValueError):
        result["exit"] = result["exit"] or -1
    return result


def run_passes(args, out: str, env: dict) -> list:
    """Passes until --seconds is used: untraced ones for --trace 0, the
    pattern untraced, traced, traced for --trace 1."""
    pattern = (False, True, True) if args.trace else (False,)
    minimum = 3 if args.trace else 2
    start = time.monotonic()
    passes = []
    while True:
        traced = pattern[len(passes) % len(pattern)]
        res = run_pass(args, len(passes), traced, out, env,
                       start + RUN_LIMIT_S)
        passes.append(res)
        if res["exit"] != 0:
            break
        elapsed = time.monotonic() - start
        nxt = pattern[len(passes) % len(pattern)]
        same = [p["duration_s"] for p in passes if p["traced"] == nxt]
        guess = same[-1] if same else res["duration_s"]
        # Start another pass only if it would end nearer the budget's end.
        if len(passes) >= minimum and elapsed + guess / 2 > args.seconds:
            break
        if elapsed + guess > RUN_LIMIT_S:
            break
    return passes


def summarize(args, passes: list) -> tuple[bool, int, int, dict, list]:
    """(correct, attempted, failed, metrics, problems) of a run."""
    problems = []
    attempted = failed = 0
    for i, p in enumerate(passes):
        if p["exit"] != 0 or "attempted" not in p:
            problems.append(f"pass {i}: exit {p['exit']}"
                            + (" (timed out)" if p["timed_out"] else ""))
            attempted += POINTS[args.workload]
            failed += POINTS[args.workload]
            continue
        attempted += p["attempted"]
        failed += len(p["failures"])
        if p["attempted"] != POINTS[args.workload]:
            problems.append(f"pass {i}: {p['attempted']} points, expected "
                            f"{POINTS[args.workload]}")
        problems += [f"pass {i}: {f}" for f in p["failures"]]
        if not p["restored"]:
            problems.append(f"pass {i}: wrappers not restored")
    good = [p for p in passes if p["exit"] == 0 and "attempted" in p]
    digests = {json.dumps(p["csv_sha256"], sort_keys=True) for p in good}
    if len(digests) > 1:
        problems.append("CSV bytes differ between passes (traced or not)")
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    if len(plain) < 1 or (args.trace and len(traced) < 2):
        problems.append("too few passes completed")
        return False, attempted, failed, {}, problems

    median = statistics.median
    if not args.trace:
        metrics = {name: {"value": median([p[name] for p in plain]),
                          "unit": unit} for name, unit in END_TO_END.items()}
    else:
        metrics = {}
        for name, (unit, kind) in LAYER_METRICS.items():
            values = [p["layers"][name] for p in traced]
            if kind == "exact" and len(set(values)) > 1:
                problems.append(f"{name} differs between traced passes: "
                                f"{values}")
            metrics[name] = {"value": median(values), "unit": unit}
        name, unit = OVERHEAD
        metrics[name] = {"value": median([p["wall_s"] for p in traced])
                         - median([p["wall_s"] for p in plain]),
                         "unit": unit}
    return not problems, attempted, failed, metrics, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(POINTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    # Stopping this process still stops and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "uavsec",
                                       "__init__.py")):
        print("error: run from the root of a uavsec checkout "
              "(src/uavsec not found)", file=sys.stderr)
        return 2
    out = os.path.join(root, ".bench_out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    nproc = len(os.sched_getaffinity(0))
    passes = run_passes(args, out, child_env(root, nproc))
    correct, attempted, failed, metrics, problems = summarize(args, passes)

    versions = next((p["versions"] for p in passes if "versions" in p), {})
    env = {"git_sha": git_sha(root), "src_sha256": source_sha(root),
           "nproc": nproc, **versions}
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "passes": passes, "correct": correct,
                   "attempted": attempted, "failed": failed,
                   "metrics": metrics, "problems": problems}, fh, indent=1)

    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes ({sum(p['traced'] for p in passes)} "
          f"traced); " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, digest in sorted(next(
            (p["csv_sha256"] for p in passes if "csv_sha256" in p),
            {}).items()):
        print(f"  {name}.csv sha256 {digest}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_share':44s} {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} points)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
