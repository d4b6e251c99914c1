#!/usr/bin/env python3
"""Alternate benchmark runs between another checkout and this one.

    python3 scripts/bench_pairs.py OTHER_CHECKOUT --workload W --pairs N [--seed S] [--seconds T] [--out FILE]

Each pair runs ``bench/run.py --workload W --seed S --seconds T`` once in
OTHER_CHECKOUT (the parent) and once in this checkout (the change), one
process at a time: the parent first in odd pairs, the change first in even
ones, so a slow spell of the machine falls on both sides alike.  For each
end-to-end metric of this checkout's ``BENCHMARK.json`` it prints both
sides' medians and quartiles, the ratio of the medians (change / parent)
and in how many pairs the change was better.  FILE gets every run's record
as JSON: the pair, the side, whether it ran first, the exit code and the
run's last output line.  The exit code is 1 if any run fails or reports
``correct: false``, 0 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> tuple[int, dict | None]:
    """Exit code and parsed last output line of one benchmark run."""
    cmd = [sys.executable, os.path.join(checkout, "bench", "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done.returncode, None


def failed(record: dict) -> bool:
    return record["exit"] != 0 or record["result"] is None or record["result"].get("correct") is not True


def _spread(values: list[float]) -> tuple[float, float, float]:
    """Median and the two quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def summarize(records: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per metric (``name``, ``unit``, ``better`` of BENCHMARK.json)
    over the pairs where both runs succeeded: each side's median and
    quartiles, the ratio of the medians and the pairs the change won."""
    runs: dict[int, dict[str, dict]] = {}
    for r in records:
        if not failed(r):
            runs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
    pairs = [p for p in sorted(runs) if len(runs[p]) == 2]
    rows = []
    for metric in metrics:
        name = metric["name"]
        parent = [runs[p]["parent"][name]["value"] for p in pairs]
        change = [runs[p]["change"][name]["value"] for p in pairs]
        sign = 1 if metric["better"] == "higher" else -1
        row = {"metric": name, "unit": metric["unit"], "better": metric["better"], "pairs": len(pairs)}
        if pairs:
            row["parent"], row["change"] = _spread(parent), _spread(change)
            row["ratio"] = row["change"][0] / row["parent"][0] if row["parent"][0] else float("nan")
            row["wins"] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        rows.append(row)
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    def side(t: tuple) -> str:
        return f"{t[0]:.4g} [{t[1]:.4g}, {t[2]:.4g}]"

    lines = [f"{'metric':<28}{'parent median [q1, q3]':<30}{'change median [q1, q3]':<30}{'ratio':>7}  wins"]
    for row in rows:
        label = f"{row['metric']} ({row['better']})"
        if not row["pairs"]:
            lines.append(f"{label:<28}no complete pair")
            continue
        lines.append(
            f"{label:<28}{side(row['parent']):<30}{side(row['change']):<30}{row['ratio']:>7.3f}  {row['wins']}/{row['pairs']}"
        )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", help="root of the parent checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--out", help="file for every run's record (JSON)")
    args = ap.parse_args(argv)
    with open(os.path.join(HERE, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    sides = {"parent": os.path.abspath(args.other), "change": HERE}
    records = []
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for n, side in enumerate(order):
            code, result = run_once(sides[side], args.workload, args.seed, args.seconds)
            records.append({"pair": pair, "workload": args.workload, "side": side, "ran_first": n == 0, "exit": code, "result": result})
            shown = result["metrics"]["tasks_per_s"]["value"] if result and "metrics" in result else None
            print(f"pair {pair} {side}: exit {code}, tasks_per_s {shown}", file=sys.stderr)
        if args.out:  # after every pair, so a cut run keeps what it measured
            with open(args.out, "w") as fh:
                json.dump(records, fh, indent=1)
    print(f"{args.workload}: {args.pairs} pairs, seed {args.seed}, {args.seconds:g} s per run")
    print("\n".join(format_rows(summarize(records, metrics))))
    bad = [r for r in records if failed(r)]
    for r in bad:
        print(f"pair {r['pair']} {r['side']}: exit {r['exit']}, result {r['result'] and r['result'].get('correct')}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
