#!/usr/bin/env python3
"""List the functions and methods of `uavsec` that no run reaches.

Records every Python call while it runs each bundled config at the
`--fast` budget (5000 realizations), `uavsec validate --fast`, and one
setup(), run() and check() of each benchmark workload in
`uavbench/workloads.py` (seed 31; imported without writing bytecode
there), all writing into a temporary directory. Then prints, one per
line, each module-level function and method of `src/uavsec` whose body
never ran: code that only tests call, or a path that none of these runs
takes. Exits 1 if a run fails, since its unreached code would then be
listed too. Takes about 7 s on 2 cores.

Usage: python scripts/reach.py
"""

import contextlib
import glob
import importlib
import inspect
import io
import os
import pkgutil
import sys
import tempfile

import uavsec
from uavsec import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 31


def functions():
    """(dotted name, code object) of each function and method that a
    module of `uavsec` defines."""
    for info in pkgutil.iter_modules(uavsec.__path__):
        module = importlib.import_module(f"uavsec.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = (vars(obj).items() if inspect.isclass(obj)
                       else [("", obj)])
            for attr, member in members:
                member = getattr(member, "__func__", member)   # class/static
                code = getattr(getattr(member, "fget", member), "__code__",
                               None)
                if code is not None and code.co_filename == module.__file__:
                    yield ".".join(filter(None, (info.name, name, attr))), code


def runs(out_dir: str) -> list:
    """Run everything; returns the runs that failed."""
    failed = [path for path in
              sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))
              if cli.run(path, out_dir, 5000)]
    if cli.main(["validate", "--fast"]):
        failed.append("uavsec validate --fast")
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "uavbench"))
    import workloads
    for name, workload in workloads.WORKLOADS.items():
        bench = workload(SEED, os.path.join(out_dir, name))
        bench.setup()
        bench.run()
        if bench.check()[1]:
            failed.append(name)
    return failed


def main() -> int:
    reached = set()

    def record(frame, event, arg):      # call events only: no line tracing
        reached.add(frame.f_code)

    sys.settrace(record)
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            failed = runs(tmp)
    finally:
        sys.settrace(None)
    if failed:
        print(f"error: failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    for name, code in functions():
        if code not in reached:
            print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
