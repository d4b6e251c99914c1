"""Randomized property suite: every identity the engine is built on, run on
seeded random instances.

A seeded property is written as a case function ``case(rng, i)`` that draws
instance ``i`` from the run's one seeded ``Random`` and returns None when the
identity holds, a witness string when it fails, or ``SKIP`` for a draw the
identity does not apply to.  ``_property`` turns it into the public
``name(seed=0, cases=N)``, which returns a :class:`CheckResult`; the
command-line ``check`` command prints one line per result, and the
acceptance tests call the same functions at the release corpus sizes.
"""

from dataclasses import dataclass
from fractions import Fraction
from random import Random

import numpy as np

from .bundle import BundleSpec, FiberwiseJetSpaceSpec, enumerate_fiberwise_coordinates, enumerate_jet_coordinates, jet_atom
from .expr import Expr, Sym, diff, substitute, sum_exprs
from .fiberwise import (
    SectionFamily,
    check_functional_commutation,
    check_operator_order,
    fiberwise_jet,
    section_jet_reindex,
)
from .forms import Form
from .jetcalc import (
    check_naturality,
    formal_exterior_differential,
    formal_exterior_differential_direct,
    section_bindings,
    total_derivative,
)
from .multiindex import MultiIndex
from .oracle import DEFAULTS, check_action_variation, check_total_derivative, default_sections, sample_section
from .randgen import (
    rand_base_morphism,
    rand_bundle,
    rand_lagrangian,
    rand_morphism,
    rand_point,
    rand_poly,
    rand_section_family,
    rand_tower,
    rand_vertical_field,
    taylor_matched_pair,
)
from .variational import Lagrangian, euler_lagrange, momentum, momentum_divergence


@dataclass
class CheckResult:
    name: str
    passed: bool
    cases: int
    detail: str


# Returned by a case function for an inadmissible draw, which is not counted.
SKIP = object()

_LINE = BundleSpec(("x",), ("u",))


def _property(cases: int, holds: str):
    """Register the case function it decorates as the public property
    ``name(seed=0, cases=cases)``.  The run counts admissible cases and stops
    at the first failure, reported as ``seed S case I: <witness>``; ``holds``
    is the detail of a passing run."""

    def register(case):
        def run(seed: int = 0, cases: int = cases) -> CheckResult:
            rng = Random(seed)
            counted = 0
            for i in range(cases):
                witness = case(rng, i)
                if witness is SKIP:
                    continue
                counted += 1
                if witness is not None:
                    return CheckResult(case.__name__, False, counted, f"seed {seed} case {i}: {witness}")
            return CheckResult(case.__name__, True, counted, holds)

        run.__name__ = case.__name__
        run.__doc__ = case.__doc__
        return run

    return register


def _draw_morphism(rng: Random, bundle: BundleSpec, max_degree: int):
    r = rng.randint(0, 2)
    s = rng.choice([None] + list(range(0, r + 1)))
    degree = rng.randint(0, max_degree)
    return rand_morphism(rng, bundle, r, s, degree)


@_property(cases=200, holds="two differential routes agree")
def fed_consistency(rng: Random, i: int):
    """Prolongation-then-antisymmetrize equals the direct coordinate formula."""
    bundle = rand_bundle(rng)
    phi = _draw_morphism(rng, bundle, bundle.m - 1)
    agree = formal_exterior_differential(phi).value == formal_exterior_differential_direct(phi).value
    return None if agree else f"routes differ on {phi}"


@_property(cases=200, holds="differential squares to zero")
def fed_squares_to_zero(rng: Random, i: int):
    """Applying the formal exterior differential twice yields zero."""
    bundle = rand_bundle(rng)
    if bundle.m < 2:
        return SKIP
    phi = _draw_morphism(rng, bundle, bundle.m - 2)
    dd = formal_exterior_differential(formal_exterior_differential(phi))
    return None if dd.value.is_zero else f"nonzero square of {phi}"


@_property(cases=50, holds="mixed total derivatives agree")
def total_derivatives_commute(rng: Random, i: int):
    """Total derivatives along different directions commute."""
    bundle = rand_bundle(rng, min_m=2)
    r = rng.randint(0, 2)
    s = rng.choice([None, 0] if r == 0 else [None, 0, 1])
    atoms = [Sym(nm) for nm in bundle.base] + enumerate_jet_coordinates(bundle, r, s)
    e = rand_poly(rng, atoms)
    d1, d2 = rng.sample(bundle.base, 2)
    s1 = None if s is None else s + 1
    ab = total_derivative(total_derivative(e, d1, bundle, r, s), d2, bundle, r + 1, s1)
    ba = total_derivative(total_derivative(e, d2, bundle, r, s), d1, bundle, r + 1, s1)
    return None if ab == ba else f"D_{d1} and D_{d2} do not commute on {e}"


@_property(cases=100, holds="both composition orders agree")
def naturality(rng: Random, i: int):
    """Prolonging a morphism commutes with feeding in a vertical field."""
    bundle = rand_bundle(rng)
    r = rng.randint(0, 1)
    s = rng.randint(0, r)
    degree = rng.randint(0, bundle.m - 1)
    phi = rand_morphism(rng, bundle, r, s, degree)
    eta = rand_vertical_field(rng, bundle)
    k = rng.randint(0, 2)
    report = check_naturality(phi, eta, k)
    return None if report.holds else f"witness {report.witness}"


@_property(cases=50, holds="jet evaluation intertwines the derivatives")
def chain_rule_on_sections(rng: Random, i: int):
    """Evaluating a total derivative along a section equals differentiating
    the evaluated expression."""
    bundle = rand_bundle(rng)
    r = rng.randint(0, 2)
    s = rng.choice([None] + list(range(0, r + 1)))
    atoms = [Sym(nm) for nm in bundle.base] + enumerate_jet_coordinates(bundle, r, s)
    e = rand_poly(rng, atoms)
    base_atoms = [Sym(nm) for nm in bundle.base]
    sections = {p: rand_poly(rng, base_atoms, degree=2) for p in bundle.fiber}
    variations = {p: rand_poly(rng, base_atoms, degree=2) for p in bundle.fiber}
    direction = rng.choice(bundle.base)
    lifted = total_derivative(e, direction, bundle, r, s)
    bindings = section_bindings(bundle, sections, variations, r + 1, None if s is None else s + 1)
    lhs = substitute(lifted, bindings)
    rhs = diff(substitute(e, section_bindings(bundle, sections, variations, r, s)), Sym(direction))
    return None if lhs == rhs else f"D_{direction} of {e} along the section"


@_property(cases=100, holds="vertical jet block cancels for every degree")
def projectability(rng: Random, i: int):
    """First-order vertical residuals of the Euler-Lagrange difference vanish."""
    bundle = rand_bundle(rng)
    lag = rand_lagrangian(rng, bundle, (i % bundle.m) + 1)
    result = euler_lagrange(lag)
    return None if result.is_projectable else f"residuals {result.projectability_report}"


@_property(cases=50, holds="classical coordinate formula recovered")
def el_coordinate_formula(rng: Random, i: int):
    """Top-degree components match the fiber-partial minus divergence form,
    and the momentum divergence matches the plain differential route."""
    bundle = rand_bundle(rng)
    lag = rand_lagrangian(rng, bundle, bundle.m)
    result = euler_lagrange(lag)
    top = tuple(range(1, bundle.m + 1))
    density = lag.value.coefficient(top)
    for p in bundle.fiber:
        expected = diff(density, Sym(p))
        for name in bundle.base:
            a = jet_atom(p, MultiIndex.unit(bundle.base, name))
            expected = expected - total_derivative(diff(density, a), name, bundle, 1, None)
        if result.component(p, top) != expected:
            return f"component {p}"
    via_forms = formal_exterior_differential(momentum(lag))
    return None if via_forms.value == momentum_divergence(lag).value else "divergence route mismatch"


@_property(cases=25, holds="rational linearity holds")
def el_linearity(rng: Random, i: int):
    """The Euler-Lagrange map is linear over rational constants."""
    bundle = rand_bundle(rng)
    degree = rng.randint(1, bundle.m)
    lag1 = rand_lagrangian(rng, bundle, degree)
    lag2 = rand_lagrangian(rng, bundle, degree)
    a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), 2)
    combo = euler_lagrange(lag1.scale(a) + lag2.scale(b))
    e1, e2 = euler_lagrange(lag1), euler_lagrange(lag2)
    for key, value in combo.components.items():
        if value != a * e1.components.get(key, Expr.const(0)) + b * e2.components.get(key, Expr.const(0)):
            return f"component {key}"
    return None


@_property(cases=20, holds="total derivatives are null")
def null_lagrangians(rng: Random, i: int):
    """Total-derivative densities have identically zero field equations."""
    g = rand_poly(rng, [Sym("x"), Sym("u")])
    density = total_derivative(g, "x", _LINE, 0, None)
    result = euler_lagrange(Lagrangian(_LINE, Form(1, _LINE.base, {(1,): density})))
    return None if all(c.is_zero for c in result.components.values()) else f"g = {g}"


def classical_lagrangian(m: int) -> Lagrangian:
    """A classical density over base ``x, y, z`` (the first m, m <= 3) and
    fiber ``u``: the oscillator 1/2 (u_x^2 - u^2) on a line, the Dirichlet
    energy 1/2 (u_x^2 + u_y^2 + ...) for m >= 2, with terms in axis order."""
    bundle = BundleSpec(("x", "y", "z")[:m], ("u",))
    energy = sum_exprs(bundle.jet("u", MultiIndex.unit(bundle.base, name)) ** 2 for name in bundle.base)
    if m == 1:
        energy = energy - Expr.atom(Sym("u")) ** 2
    return Lagrangian(bundle, Form(m, bundle.base, {tuple(range(1, m + 1)): Fraction(1, 2) * energy}))


def el_classical_examples() -> CheckResult:
    """The two classical densities produce their textbook field equations."""
    u = Expr.atom(Sym("u"))
    osc, dirichlet = classical_lagrangian(1), classical_lagrangian(2)
    uxx = osc.bundle.jet("u", MultiIndex(("x",), (2,)))
    if euler_lagrange(osc).component("u") != -u - uxx:
        return CheckResult("el_classical_examples", False, 1, "oscillator mismatch")
    b2 = dirichlet.bundle
    uxx2 = b2.jet("u", MultiIndex(b2.base, (2, 0)))
    uyy2 = b2.jet("u", MultiIndex(b2.base, (0, 2)))
    if euler_lagrange(dirichlet).component("u") != -(uxx2 + uyy2):
        return CheckResult("el_classical_examples", False, 2, "Dirichlet mismatch")
    return CheckResult("el_classical_examples", True, 2, "oscillator and Dirichlet equations recovered")


@_property(cases=50, holds="frozen-fiber jets determined by fiberwise jets")
def operator_order(rng: Random, i: int):
    """Matching fiberwise (k,1)-jets force matching frozen-fiber jet images."""
    source = rand_bundle(rng, max_m=2)
    targets = ("z",) if rng.random() < 0.7 else ("z", "w")
    k = rng.randint(0, 2)
    point = rand_point(rng, source.base + source.fiber)
    f, g = taylor_matched_pair(rng, source, targets, k, point)
    report = check_operator_order(f, g, k, point)
    if not report.precondition_met:
        return "construction failed to match jets"
    if not report.conclusion_holds:
        return f"witness {report.witness}"
    return None


@_property(cases=25, holds="graph bijection verified in counts and values")
def graph_jet_identification(rng: Random, i: int):
    """Fiber-order-zero fiberwise jets match the jets of the graph section."""
    source = rand_bundle(rng, max_m=2)
    targets = ("z",)
    k = rng.randint(0, 2)
    f = rand_base_morphism(rng, source, targets)
    coords = enumerate_fiberwise_coordinates(FiberwiseJetSpaceSpec(source, targets, 0, k))
    product_view = BundleSpec(source.base + source.fiber, targets)
    if len(coords) != len(enumerate_jet_coordinates(product_view, k, None)):
        return "coordinate count mismatch"
    jets = fiberwise_jet(f, k, 0)
    bindings = section_bindings(product_view, dict(f.components), None, k, None)
    for coord in coords:
        graph_value = bindings[jet_atom(coord.target, coord.gamma)] if coord.gamma.order else bindings[Sym(coord.target)]
        if jets[coord] != graph_value:
            return f"coordinate {coord}"
    return None


@_property(cases=50, holds="section evaluation commutes with the differential")
def functional_commutation(rng: Random, i: int):
    """Differential-then-evaluate equals evaluate-then-differentiate for
    section families."""
    tower = rand_tower(rng)
    view = tower.over_fiber()
    r = rng.randint(0, 1)
    s = rng.randint(0, r)
    degree = rng.randint(0, min(1, view.m - 1))
    morphism = rand_morphism(rng, view, r, s, degree)
    section = rand_section_family(rng, tower)
    eta_atoms = [Sym(nm) for nm in tower.base + tower.fiber + tower.second]
    eta = {a: rand_poly(rng, eta_atoms, degree=2) for a in tower.second}
    return None if check_functional_commutation(morphism, section, eta) else f"{morphism} along {section}"


@_property(cases=25, holds="reindexing is linear")
def section_reindex_linearity(rng: Random, i: int):
    """Jet reindexing of section families is linear."""
    tower = rand_tower(rng)
    s1 = rand_section_family(rng, tower)
    s2 = rand_section_family(rng, tower)
    a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2))
    combo = SectionFamily(tower, {t: a * s1.components[t] + b * s2.components[t] for t in tower.second})
    r = rng.randint(0, 2)
    j1, j2, jc = section_jet_reindex(s1, r), section_jet_reindex(s2, r), section_jet_reindex(combo, r)
    for key, value in jc.items():
        if value != a * j1[key] + b * j2[key]:
            return f"entry {key}"
    return None


def oracle_total_derivative(grid: int = 1000, tolerance: float = 1e-4) -> CheckResult:
    """Symbolic total derivative agrees with finite differences on a smooth
    section."""
    u = Expr.atom(Sym("u"))
    section = sample_section(_LINE, ((0.0, 1.0),), (grid,), {"u": np.sin})
    err = check_total_derivative(u * u, section)
    passed = err <= tolerance
    return CheckResult("oracle_total_derivative", passed, 1, f"max relative error {err:.3e}")


def oracle_convergence() -> CheckResult:
    """Halving the spacing divides the finite-difference error by about 4."""
    u = Expr.atom(Sym("u"))
    coarse = sample_section(_LINE, ((0.0, 1.0),), (500,), {"u": np.sin})
    fine = sample_section(_LINE, ((0.0, 1.0),), (999,), {"u": np.sin})
    e1 = check_total_derivative(u * u, coarse)
    e2 = check_total_derivative(u * u, fine)
    ratio = e1 / e2
    passed = 3.0 <= ratio <= 5.0
    return CheckResult("oracle_convergence", passed, 2, f"error ratio {ratio:.2f}")


def oracle_action_variation(settings: dict[int, tuple[int, float]] = DEFAULTS) -> CheckResult:
    """Euler-Lagrange components are the functional derivative of the action,
    for the classical density of each base dimension of ``settings``."""
    errors = {}
    for m, (grid, _) in settings.items():
        lag = classical_lagrangian(m)
        errors[m] = check_action_variation(lag, *default_sections(lag.bundle, grid))[2]
    passed = all(err <= settings[m][1] for m, err in errors.items())
    detail = ", ".join(f"{err:.3e} ({m}d)" for m, err in errors.items())
    return CheckResult("oracle_action_variation", passed, len(errors), f"relative errors {detail}")


ALL_CHECKS = (
    fed_consistency,
    fed_squares_to_zero,
    total_derivatives_commute,
    naturality,
    chain_rule_on_sections,
    projectability,
    el_coordinate_formula,
    el_linearity,
    null_lagrangians,
    el_classical_examples,
    operator_order,
    graph_jet_identification,
    functional_commutation,
    section_reindex_linearity,
    oracle_total_derivative,
    oracle_convergence,
    oracle_action_variation,
)


def run_all(seed: int = 0, oracle: dict[int, tuple[int, float]] = DEFAULTS) -> list[CheckResult]:
    """Every check of ``ALL_CHECKS``; ``oracle`` maps each base dimension to
    its grid points per axis and tolerance."""
    grid_1d, tol_1d = oracle[1]
    kwargs = {
        el_classical_examples: {},
        oracle_total_derivative: {"grid": min(grid_1d, 1000), "tolerance": tol_1d},
        oracle_convergence: {},
        oracle_action_variation: {"settings": oracle},
    }
    return [fn(**kwargs.get(fn, {"seed": seed})) for fn in ALL_CHECKS]
