"""Acceptance suite: one test per release criterion, with the corpus sizes,
tolerances and runtime budgets pinned in this module.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from varjet.bundle import BundleSpec
from varjet.checks import (
    fed_consistency,
    fed_squares_to_zero,
    functional_commutation,
    graph_jet_identification,
    naturality,
    null_lagrangians,
    operator_order,
    oracle_convergence,
    projectability,
)
from varjet.expr import sym
from varjet.forms import Form
from varjet.multiindex import MultiIndex
from varjet.oracle import check_action_variation, default_sections
from varjet.variational import Lagrangian, euler_lagrange
from varjet.checks import classical_lagrangian

ROOT = Path(__file__).resolve().parent.parent


def report(number: int, label: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d} [{label}]: {verdict} {detail}".rstrip())
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_01_differential_route_consistency():
    t0 = time.perf_counter()
    result = fed_consistency(seed=0, cases=200)
    elapsed = time.perf_counter() - t0
    report(1, "differential route consistency", result.passed and elapsed <= 10.0,
           f"{result.cases} cases in {elapsed:.2f}s (budget 10s)")


def test_criterion_02_differential_squares_to_zero():
    result = fed_squares_to_zero(seed=0, cases=200)
    report(2, "differential squares to zero", result.passed and result.cases >= 50,
           f"{result.cases} admissible cases, exact symbolic zero")


def test_criterion_03_prolongation_naturality():
    result = naturality(seed=0, cases=100)
    report(3, "prolongation naturality", result.passed, f"{result.cases} cases, exact equality")


def test_criterion_04_projectability():
    result = projectability(seed=0, cases=100)
    report(4, "Euler-Lagrange projectability", result.passed,
           f"{result.cases} first-order densities, zero residuals at every degree")


def test_criterion_05_classical_equations_and_oracle():
    t0 = time.perf_counter()
    b1 = BundleSpec(("x",), ("u",))
    u = sym("u")
    ux = b1.jet("u", MultiIndex(("x",), (1,)))
    uxx = b1.jet("u", MultiIndex(("x",), (2,)))
    osc = Lagrangian(b1, Form(1, b1.base, {(1,): Fraction(1, 2) * (ux**2 - u**2)}))
    symbolic_1d = euler_lagrange(osc).component("u") == -u - uxx

    b2 = BundleSpec(("x", "y"), ("u",))
    ux2 = b2.jet("u", MultiIndex(b2.base, (1, 0)))
    uy2 = b2.jet("u", MultiIndex(b2.base, (0, 1)))
    uxx2 = b2.jet("u", MultiIndex(b2.base, (2, 0)))
    uyy2 = b2.jet("u", MultiIndex(b2.base, (0, 2)))
    dirichlet = Lagrangian(b2, Form(2, b2.base, {(1, 2): Fraction(1, 2) * (ux2**2 + uy2**2)}))
    symbolic_2d = euler_lagrange(dirichlet).component("u") == -(uxx2 + uyy2)

    lag1, lag2 = classical_lagrangian(1), classical_lagrangian(2)
    _, _, err1 = check_action_variation(lag1, *default_sections(lag1.bundle, 2000))
    _, _, err2 = check_action_variation(lag2, *default_sections(lag2.bundle, 200))
    elapsed = time.perf_counter() - t0
    ok = symbolic_1d and symbolic_2d and err1 <= 1e-4 and err2 <= 1e-3 and elapsed <= 30.0
    report(5, "classical field equations + oracle", ok,
           f"symbolic exact, oracle errors {err1:.2e} (<=1e-4), {err2:.2e} (<=1e-3), {elapsed:.2f}s (budget 30s)")


def test_criterion_06_null_lagrangians():
    result = null_lagrangians(seed=0, cases=20)
    report(6, "null Lagrangians", result.passed, f"{result.cases} total-derivative densities, exact zero")


def test_criterion_07_operator_order_and_graph_bijection():
    pairs = operator_order(seed=0, cases=50)
    graphs = graph_jet_identification(seed=0, cases=25)
    report(7, "operator order + graph identification", pairs.passed and graphs.passed,
           f"{pairs.cases} matched pairs; bijection on {graphs.cases} instances")


def test_criterion_08_functional_commutation():
    result = functional_commutation(seed=0, cases=50)
    report(8, "section-evaluation commutation", result.passed, f"{result.cases} cases, exact equality")


def test_criterion_09_oracle_convergence():
    result = oracle_convergence()
    report(9, "finite-difference convergence", result.passed, result.detail)


def test_criterion_10_full_check_suite():
    specs = sorted(str(p) for p in (ROOT / "specs").glob("*.vspec"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "varjet", "check", *specs, "--seed", "0"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and elapsed <= 60.0
    report(10, "full check suite", ok,
           f"exit {proc.returncode} in {elapsed:.2f}s (budget 60s), {proc.stdout.splitlines()[-1] if proc.stdout else ''}")
