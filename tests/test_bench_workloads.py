"""The benchmark's workloads pass their own verdicts on the first tasks.

``bench/workloads.py`` is imported read-only and run in quick mode from the
repository root, where it finds the spec corpus.  A kernel change that
breaks a verdict, such as the two ``fed`` routes disagreeing, fails here as
well as in the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIRST_TASKS = {"dense_pipeline": 6, "property_suite": 44, "oracle_grid": 3}


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(FIRST_TASKS))
def test_first_tasks_pass(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    workload = load_workloads().make(name, 0, quick=True)
    for i in range(FIRST_TASKS[name]):
        task = workload.task(i)
        outcome = task.run()
        assert outcome.ok, (name, i, task.kind, outcome.detail)
