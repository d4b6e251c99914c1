#!/usr/bin/env python3
"""Compare the output of every benchmark task between two checkouts.

    python3 scripts/compare_outputs.py OTHER_CHECKOUT

For each workload of ``bench/workloads.py`` and each of the seeds 0 and 1,
this runs every
task of the workload's input pool once in this checkout and once in
OTHER_CHECKOUT, each in a fresh interpreter that imports that checkout's own
``src/`` and ``bench/`` (read-only), and prints how many output texts
differ.  The benchmark's run digest covers only a short certified prefix
(3 tasks on ``dense_pipeline``); this covers the whole pool.

For ``oracle_grid`` the compared text also carries every error of the
convergence check at full float precision: the task text rounds the
observed orders, and a change in the term order of an expression changes
the floats it evaluates to without failing any verdict.

The interpreters inherit the environment, so run the script under two
``PYTHONHASHSEED`` values to check that no output depends on hash order.
Exit code 0 when every text agrees and no task fails, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

WORKLOADS = ("dense_pipeline", "oracle_grid", "property_suite")
SEEDS = (0, 1)
# property_suite has no input pool: each task is a fresh random case.
PROPERTY_SUITE_TASKS = 1400
HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def dump(name: str, seed: int, path: str) -> None:
    """Run every task of one workload in the current checkout; write the
    texts and failures to ``path`` as JSON."""
    import workloads

    w = workloads.make(name, seed)
    # Every input of the pool, each task kind once.
    if name == "dense_pipeline":
        n = len(w.KINDS) * len(w.pool)
    elif name == "oracle_grid":
        n = len(w.pool)
    else:
        n = PROPERTY_SUITE_TASKS
    texts, failed = [], []
    for i in range(n):
        try:
            outcome = w.task(i).run()
        except Exception as exc:  # a task that raises is a failure, not a crash
            texts.append(f"raised {exc!r}")
            failed.append(i)
            continue
        text = outcome.text
        if name == "oracle_grid":
            text += "\n" + repr(w.convergence.get(i % len(w.pool)))
        texts.append(text)
        if not outcome.ok:
            failed.append(i)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"texts": texts, "failed": failed}, fh)


def run_in(checkout: str, name: str, seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(checkout, "src"), os.path.join(checkout, "bench")])
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "texts.json")
        cmd = [sys.executable, os.path.abspath(__file__), "--dump", name, str(seed), out]
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{checkout}: {name} seed {seed} exited {proc.returncode}\n{proc.stderr}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", nargs="?", help="root of the checkout to compare against")
    ap.add_argument("--dump", nargs=3, metavar=("WORKLOAD", "SEED", "OUT"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dump:
        name, seed, path = args.dump
        dump(name, int(seed), path)
        return 0
    if not args.other:
        ap.error("OTHER_CHECKOUT is required")
    other = os.path.abspath(args.other)
    print(f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'random')}")
    bad = False
    for name in WORKLOADS:
        for seed in SEEDS:
            mine, theirs = run_in(HERE, name, seed), run_in(other, name, seed)
            differ = [i for i, (a, b) in enumerate(zip(mine["texts"], theirs["texts"])) if a != b]
            print(
                f"{name} seed {seed}: {len(mine['texts'])} tasks, {len(differ)} differ, "
                f"failed {len(mine['failed'])} here / {len(theirs['failed'])} there"
            )
            for i in differ[:3]:
                print(f"  task {i} here:  {mine['texts'][i][:200]!r}")
                print(f"  task {i} there: {theirs['texts'][i][:200]!r}")
            bad = bad or bool(differ or mine["failed"] or theirs["failed"])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
