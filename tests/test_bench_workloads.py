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


# The property_suite mix as the benchmark first defined it.  The workload
# derives it from the signatures of `varjet.checks.ALL_CHECKS`, so a changed
# default case count or seed parameter would change the benchmark silently.
PROPERTY_WEIGHTS = (
    ("fed_consistency", 200),
    ("fed_squares_to_zero", 200),
    ("total_derivatives_commute", 50),
    ("naturality", 100),
    ("chain_rule_on_sections", 50),
    ("projectability", 100),
    ("el_coordinate_formula", 50),
    ("el_linearity", 25),
    ("null_lagrangians", 20),
    ("el_classical_examples", 1),
    ("operator_order", 50),
    ("graph_jet_identification", 25),
    ("functional_commutation", 50),
    ("section_reindex_linearity", 25),
    ("oracle_total_derivative", 1),
    ("oracle_convergence", 1),
    ("oracle_action_variation", 1),
)
SEEDLESS = frozenset({"el_classical_examples", "oracle_action_variation", "oracle_convergence", "oracle_total_derivative"})


def test_property_suite_mix_is_pinned():
    workloads = load_workloads()
    assert workloads.PROPERTY_WEIGHTS == PROPERTY_WEIGHTS
    assert workloads.SEEDLESS == SEEDLESS


# The benchmark's own correctness gates, in quick mode: every task must pass,
# two passes over the same tasks must print the same text, and the EL
# property cases must agree with sympy.  The tests above run only a short
# prefix of each workload.
GATED = ("dense_pipeline", "oracle_grid", "property_suite")
PROPERTY_CASES = 330


def gated_workload(workloads, name):
    """The quick workload and how many tasks to run: its whole input pool
    (dense_pipeline runs one task per kind and input), or the first
    PROPERTY_CASES property cases."""
    workload = workloads.make(name, 0, quick=True)
    if name == "property_suite":
        return workload, PROPERTY_CASES
    return workload, len(workload.pool) * (len(workload.KINDS) if name == "dense_pipeline" else 1)


@pytest.mark.parametrize("name", GATED)
def test_benchmark_gates_in_quick_mode(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    workloads = load_workloads()
    workload, count = gated_workload(workloads, name)
    texts = []
    for _ in range(2):
        outcomes = [workload.task(i).run() for i in range(count)]
        failed = [(i, o.detail) for i, o in enumerate(outcomes) if not o.ok]
        assert not failed, (name, failed[:3])
        texts.append([o.text for o in outcomes])
    assert texts[0] == texts[1], f"{name}: outputs differ between two passes over the same tasks"


def test_property_suite_agrees_with_sympy(monkeypatch):
    pytest.importorskip("sympy")
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workload, count = gated_workload(load_workloads(), "property_suite")
    assert workload.reference(count, {}) == []
