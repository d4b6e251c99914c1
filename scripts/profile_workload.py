#!/usr/bin/env python3
"""Profile the tasks of one benchmark workload under cProfile.

    python3 scripts/profile_workload.py WORKLOAD [--tasks N] [--kind KIND]
        [--sort tottime|cumulative] [--top K]

Builds tasks 0 .. N-1 of WORKLOAD at seed 0 through ``bench/workloads.py``
(imported read-only, as ``scripts/compare_outputs.py`` does), keeps those of
task kind KIND when given (a property name such as ``operator_order``,
``cli.el``, or ``el`` / ``fed`` / ``fedfed`` on ``dense_pipeline``), and runs
them once plainly to warm up.  It then runs them a second time under cProfile and
prints both wall times and the top K rows of the profile.  A task that
fails or raises ends the script with exit 1 before the profiled pass.
"""

import argparse
import cProfile
import os
import pstats
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("dense_pipeline", "oracle_grid", "property_suite")
# The default task count per workload: its whole input pool once, or for
# property_suite (which has no pool) the 1500 tasks of the baseline profile.
DEFAULT_TASKS = {"dense_pipeline": 48, "oracle_grid": 33, "property_suite": 1500}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--tasks", type=int, default=None, help="tasks to build (default: per workload)")
    ap.add_argument("--kind", default=None, help="profile only the tasks of this kind")
    ap.add_argument("--sort", choices=("tottime", "cumulative"), default="tottime")
    ap.add_argument("--top", type=int, default=30, help="profile rows to print")
    args = ap.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    os.chdir(ROOT)  # the workloads read the spec corpus from specs/
    import workloads

    w = workloads.make(args.workload, 0)
    n = DEFAULT_TASKS[args.workload] if args.tasks is None else args.tasks
    tasks = [t for t in map(w.task, range(n)) if args.kind is None or t.kind == args.kind]
    if not tasks:
        ap.error(f"no task of kind {args.kind!r} among the first {n}")

    start = perf_counter()
    for t in tasks:
        outcome = t.run()
        if not outcome.ok:
            print(f"task {t.index} ({t.kind}) failed: {outcome.detail}", file=sys.stderr)
            return 1
    plain = perf_counter() - start

    profile = cProfile.Profile()
    start = perf_counter()
    profile.runcall(lambda: [t.run() for t in tasks])
    profiled = perf_counter() - start

    kind = "" if args.kind is None else f", kind {args.kind}"
    print(f"{len(tasks)} tasks ({args.workload}, seed 0{kind}): {plain:.3f} s plain, {profiled:.3f} s profiled")
    pstats.Stats(profile, stream=sys.stdout).sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
