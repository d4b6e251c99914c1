"""The property runner's contract: a failing run stops at the first failing
case, counts the admissible cases up to and including it and names the seed
and case; inadmissible draws are skipped without being counted."""

from itertools import cycle

from varjet import checks
from varjet.bundle import BundleSpec
from varjet.expr import Expr
from varjet.forms import Form
from varjet.jetcalc import Morphism


def perturb_call(monkeypatch, name: str, n: int) -> None:
    """Make the n-th call of ``checks.<name>`` add 1 dx^1..dx^l to its result."""
    original = getattr(checks, name)
    calls = 0

    def perturbed(phi):
        nonlocal calls
        calls += 1
        out = original(phi)
        if calls != n:
            return out
        bump = Form(out.degree, out.bundle.base, {tuple(range(1, out.degree + 1)): Expr.const(1)})
        return Morphism(out.bundle, out.r, out.s, out.value + bump)

    monkeypatch.setattr(checks, name, perturbed)


def alternate_bundles(monkeypatch) -> None:
    """Draw base dimension 1, 2, 1, 2, ...: every other fed_squares_to_zero
    case is inadmissible."""
    bundles = cycle([BundleSpec(("x",), ("u",)), BundleSpec(("x", "y"), ("u",))])
    monkeypatch.setattr(checks, "rand_bundle", lambda rng, **kwargs: next(bundles))


def test_failure_names_seed_and_case(monkeypatch):
    perturb_call(monkeypatch, "formal_exterior_differential_direct", 3)
    result = checks.fed_consistency(seed=5, cases=10)
    assert result.name == "fed_consistency"
    assert not result.passed
    assert result.cases == 3
    assert result.detail.startswith("seed 5 case 2: ")


def test_inadmissible_draws_are_not_counted(monkeypatch):
    alternate_bundles(monkeypatch)
    result = checks.fed_squares_to_zero(seed=0, cases=6)
    assert result.passed and result.cases == 3


def test_failure_counts_only_admissible_cases(monkeypatch):
    alternate_bundles(monkeypatch)
    # Two differentials per admissible case: call 4 is the outer one of case 3.
    perturb_call(monkeypatch, "formal_exterior_differential", 4)
    result = checks.fed_squares_to_zero(seed=0, cases=6)
    assert not result.passed
    assert result.cases == 2
    assert result.detail.startswith("seed 0 case 3: ")
