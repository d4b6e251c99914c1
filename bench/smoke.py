"""Smoke test of the benchmark: it runs, it reports, it checks.

    python3 bench/smoke.py

Runs every workload in quick mode, untraced and traced, and asserts that
every metric named in BENCHMARK.json is printed by name with its unit, that
the last stdout line is the result object, and that no task failed.  It also
asserts that the runner refuses to run, without printing a result, where the
program's sources are absent.  It checks that the benchmark works, not how
fast the program is.
"""

import json
import os
import shutil
import subprocess
import sys

import run


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=cwd)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in run.PER_LAYER]

    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = _run(run.ROOT, "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--quick")
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            names = [m["name"] for m in expected[trace]]
            assert sorted(result["metrics"]) == sorted(names), (workload, trace)
            for m in expected[trace]:
                assert result["metrics"][m["name"]]["unit"] == m["unit"]
                assert any(line.strip().startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}") for line in lines), m
            assert any(line.strip().startswith("failed_ratio = 0 ") for line in lines), proc.stdout
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            print(f"ok  {workload} trace={trace}: {result['attempted']} tasks")

    # Only BENCHMARK.json and the benchmark's own files: no program to measure.
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(bare, "--workload", "dense_pipeline", "--seed", "0", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok  refuses to run without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
