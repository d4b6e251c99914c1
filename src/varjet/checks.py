"""Randomized property suite: every identity the engine is built on, run on
seeded random instances.

Each check returns a :class:`CheckResult`; the command-line ``check``
command prints one line per result, and the acceptance tests call the same
functions at the release corpus sizes.
"""

import time
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
    Morphism,
    check_naturality,
    formal_exterior_differential,
    formal_exterior_differential_direct,
    section_bindings,
    total_derivative,
)
from .multiindex import MultiIndex, indices_up_to
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
    seconds: float


def _timed(fn):
    def wrapper(*args, **kwargs) -> CheckResult:
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        result.seconds = time.perf_counter() - t0
        return result

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _draw_morphism(rng: Random, max_r: int = 2, max_degree_drop: int = 1):
    bundle = rand_bundle(rng)
    r = rng.randint(0, max_r)
    s = rng.choice([None] + list(range(0, r + 1)))
    degree = rng.randint(0, max(0, bundle.m - max_degree_drop))
    return rand_morphism(rng, bundle, r, s, degree)


@_timed
def fed_consistency(seed: int = 0, cases: int = 200) -> CheckResult:
    """Prolongation-then-antisymmetrize equals the direct coordinate formula."""
    rng = Random(seed)
    for i in range(cases):
        phi = _draw_morphism(rng)
        a = formal_exterior_differential(phi)
        b = formal_exterior_differential_direct(phi)
        if a.value != b.value:
            return CheckResult("fed_consistency", False, i + 1, f"mismatch on case {i}: {phi}", 0.0)
    return CheckResult("fed_consistency", True, cases, "two differential routes agree", 0.0)


@_timed
def fed_squares_to_zero(seed: int = 0, cases: int = 200) -> CheckResult:
    """Applying the formal exterior differential twice yields zero."""
    rng = Random(seed)
    checked = 0
    for i in range(cases):
        bundle = rand_bundle(rng)
        if bundle.m < 2:
            continue
        r = rng.randint(0, 2)
        s = rng.choice([None] + list(range(0, r + 1)))
        degree = rng.randint(0, bundle.m - 2)
        phi = rand_morphism(rng, bundle, r, s, degree)
        dd = formal_exterior_differential(formal_exterior_differential(phi))
        if not dd.value.is_zero:
            return CheckResult("fed_squares_to_zero", False, checked + 1, f"nonzero square on case {i}", 0.0)
        checked += 1
    return CheckResult("fed_squares_to_zero", True, checked, "differential squares to zero", 0.0)


@_timed
def total_derivatives_commute(seed: int = 0, cases: int = 50) -> CheckResult:
    """Total derivatives along different directions commute."""
    rng = Random(seed)
    for i in range(cases):
        bundle = rand_bundle(rng, min_m=2)
        r = rng.randint(0, 2)
        s = rng.choice([None, 0] if r == 0 else [None, 0, 1])
        atoms = [Sym(nm) for nm in bundle.base] + enumerate_jet_coordinates(bundle, r, s)
        e = rand_poly(rng, atoms)
        d1, d2 = rng.sample(bundle.base, 2)
        ab = total_derivative(total_derivative(e, d1, bundle, r, s), d2, bundle, r + 1, None if s is None else s + 1)
        ba = total_derivative(total_derivative(e, d2, bundle, r, s), d1, bundle, r + 1, None if s is None else s + 1)
        if ab != ba:
            return CheckResult("total_derivatives_commute", False, i + 1, f"case {i}", 0.0)
    return CheckResult("total_derivatives_commute", True, cases, "mixed total derivatives agree", 0.0)


@_timed
def naturality(seed: int = 0, cases: int = 100) -> CheckResult:
    """Prolonging a morphism commutes with feeding in a vertical field."""
    rng = Random(seed)
    for i in range(cases):
        bundle = rand_bundle(rng)
        r = rng.randint(0, 1)
        s = rng.randint(0, r)
        degree = rng.randint(0, bundle.m - 1)
        phi = rand_morphism(rng, bundle, r, s, degree)
        eta = rand_vertical_field(rng, bundle)
        k = rng.randint(0, 2)
        report = check_naturality(phi, eta, k)
        if not report.holds:
            return CheckResult("naturality", False, i + 1, f"witness {report.witness}", 0.0)
    return CheckResult("naturality", True, cases, "both composition orders agree", 0.0)


@_timed
def chain_rule_on_sections(seed: int = 0, cases: int = 50) -> CheckResult:
    """Evaluating a total derivative along a section equals differentiating
    the evaluated expression."""
    rng = Random(seed)
    for i in range(cases):
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
        if lhs != rhs:
            return CheckResult("chain_rule_on_sections", False, i + 1, f"case {i}", 0.0)
    return CheckResult("chain_rule_on_sections", True, cases, "jet evaluation intertwines the derivatives", 0.0)


@_timed
def projectability(seed: int = 0, cases: int = 100) -> CheckResult:
    """First-order vertical residuals of the Euler-Lagrange difference vanish."""
    rng = Random(seed)
    for i in range(cases):
        bundle = rand_bundle(rng)
        degree = (i % bundle.m) + 1
        lag = rand_lagrangian(rng, bundle, degree)
        result = euler_lagrange(lag)
        if not result.is_projectable:
            return CheckResult("projectability", False, i + 1, f"residuals {result.projectability_report}", 0.0)
    return CheckResult("projectability", True, cases, "vertical jet block cancels for every degree", 0.0)


@_timed
def el_coordinate_formula(seed: int = 0, cases: int = 50) -> CheckResult:
    """Top-degree components match the fiber-partial minus divergence form,
    and the momentum divergence matches the plain differential route."""
    rng = Random(seed)
    for i in range(cases):
        bundle = rand_bundle(rng)
        lag = rand_lagrangian(rng, bundle, bundle.m)
        result = euler_lagrange(lag)
        density = lag.value.coefficient(tuple(range(1, bundle.m + 1)))
        top = tuple(range(1, bundle.m + 1))
        for p in bundle.fiber:
            expected = diff(density, Sym(p))
            for name in bundle.base:
                a = jet_atom(p, MultiIndex.unit(bundle.base, name))
                expected = expected - total_derivative(diff(density, a), name, bundle, 1, None)
            if result.component(p, top) != expected:
                return CheckResult("el_coordinate_formula", False, i + 1, f"component {p}", 0.0)
        via_forms = formal_exterior_differential(momentum(lag))
        if via_forms.value != momentum_divergence(lag).value:
            return CheckResult("el_coordinate_formula", False, i + 1, "divergence route mismatch", 0.0)
    return CheckResult("el_coordinate_formula", True, cases, "classical coordinate formula recovered", 0.0)


@_timed
def el_linearity(seed: int = 0, cases: int = 25) -> CheckResult:
    """The Euler-Lagrange map is linear over rational constants."""
    rng = Random(seed)
    for i in range(cases):
        bundle = rand_bundle(rng)
        degree = rng.randint(1, bundle.m)
        lag1 = rand_lagrangian(rng, bundle, degree)
        lag2 = rand_lagrangian(rng, bundle, degree)
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), 2)
        combo = euler_lagrange(lag1.scale(a) + lag2.scale(b))
        e1, e2 = euler_lagrange(lag1), euler_lagrange(lag2)
        for key, value in combo.components.items():
            if value != a * e1.components.get(key, Expr.const(0)) + b * e2.components.get(key, Expr.const(0)):
                return CheckResult("el_linearity", False, i + 1, f"component {key}", 0.0)
    return CheckResult("el_linearity", True, cases, "rational linearity holds", 0.0)


@_timed
def null_lagrangians(seed: int = 0, cases: int = 20) -> CheckResult:
    """Total-derivative densities have identically zero field equations."""
    rng = Random(seed)
    bundle = BundleSpec(("x",), ("u",))
    atoms = [Sym("x"), Sym("u")]
    for i in range(cases):
        g = rand_poly(rng, atoms, degree=3)
        density = total_derivative(g, "x", bundle, 0, None)
        lag = Lagrangian(bundle, Form(1, bundle.base, {(1,): density}))
        result = euler_lagrange(lag)
        if any(not c.is_zero for c in result.components.values()):
            return CheckResult("null_lagrangians", False, i + 1, f"g = {g}", 0.0)
    return CheckResult("null_lagrangians", True, cases, "total derivatives are null", 0.0)


def classical_lagrangian(m: int) -> Lagrangian:
    """A classical density over base ``x, y, z`` (the first m, m <= 3) and
    fiber ``u``: the oscillator 1/2 (u_x^2 - u^2) on a line, the Dirichlet
    energy 1/2 (u_x^2 + u_y^2 + ...) for m >= 2, with terms in axis order."""
    bundle = BundleSpec(("x", "y", "z")[:m], ("u",))
    energy = sum_exprs(bundle.jet("u", MultiIndex.unit(bundle.base, name)) ** 2 for name in bundle.base)
    if m == 1:
        energy = energy - Expr.atom(Sym("u")) ** 2
    return Lagrangian(bundle, Form(m, bundle.base, {tuple(range(1, m + 1)): Fraction(1, 2) * energy}))


@_timed
def el_classical_examples() -> CheckResult:
    """The two classical densities produce their textbook field equations."""
    u = Expr.atom(Sym("u"))
    osc, dirichlet = classical_lagrangian(1), classical_lagrangian(2)
    uxx = osc.bundle.jet("u", MultiIndex(("x",), (2,)))
    if euler_lagrange(osc).component("u") != -u - uxx:
        return CheckResult("el_classical_examples", False, 1, "oscillator mismatch", 0.0)
    b2 = dirichlet.bundle
    uxx2 = b2.jet("u", MultiIndex(b2.base, (2, 0)))
    uyy2 = b2.jet("u", MultiIndex(b2.base, (0, 2)))
    if euler_lagrange(dirichlet).component("u") != -(uxx2 + uyy2):
        return CheckResult("el_classical_examples", False, 2, "Dirichlet mismatch", 0.0)
    return CheckResult("el_classical_examples", True, 2, "oscillator and Dirichlet equations recovered", 0.0)


@_timed
def operator_order(seed: int = 0, cases: int = 50) -> CheckResult:
    """Matching fiberwise (k,1)-jets force matching frozen-fiber jet images."""
    rng = Random(seed)
    passed = 0
    for i in range(cases):
        source = rand_bundle(rng, max_m=2, max_n=2)
        targets = ("z",) if rng.random() < 0.7 else ("z", "w")
        k = rng.randint(0, 2)
        point = rand_point(rng, source.base + source.fiber)
        f, g = taylor_matched_pair(rng, source, targets, k, point)
        report = check_operator_order(f, g, k, point)
        if not report.precondition_met:
            return CheckResult("operator_order", False, i + 1, "construction failed to match jets", 0.0)
        if not report.conclusion_holds:
            return CheckResult("operator_order", False, i + 1, f"witness {report.witness}", 0.0)
        passed += 1
    return CheckResult("operator_order", True, passed, "frozen-fiber jets determined by fiberwise jets", 0.0)


@_timed
def graph_jet_identification(seed: int = 0, cases: int = 25) -> CheckResult:
    """Fiber-order-zero fiberwise jets match the jets of the graph section."""
    rng = Random(seed)
    for i in range(cases):
        source = rand_bundle(rng, max_m=2, max_n=2)
        targets = ("z",)
        k = rng.randint(0, 2)
        f = rand_base_morphism(rng, source, targets)
        space = FiberwiseJetSpaceSpec(source, targets, 0, k)
        coords = enumerate_fiberwise_coordinates(space)
        product_view = BundleSpec(source.base + source.fiber, targets)
        graph_jets = enumerate_jet_coordinates(product_view, k, None)
        if len(coords) != len(graph_jets):
            return CheckResult("graph_jet_identification", False, i + 1, "coordinate count mismatch", 0.0)
        jets = fiberwise_jet(f, k, 0)
        bindings = section_bindings(product_view, dict(f.components), None, k, None)
        point = rand_point(rng, source.base + source.fiber)
        point_bindings = {Sym(n): Expr.const(v) for n, v in point.items()}
        for coord in coords:
            value = jets[coord]
            graph_atom = jet_atom(coord.target, coord.gamma)
            graph_value = bindings[graph_atom] if coord.gamma.order else bindings[Sym(coord.target)]
            if value != graph_value:
                return CheckResult("graph_jet_identification", False, i + 1, f"coordinate {coord}", 0.0)
            lhs = substitute(value, point_bindings)
            rhs = substitute(graph_value, point_bindings)
            if lhs != rhs:
                return CheckResult("graph_jet_identification", False, i + 1, f"point value at {coord}", 0.0)
    return CheckResult("graph_jet_identification", True, cases, "graph bijection verified in counts and values", 0.0)


@_timed
def functional_commutation(seed: int = 0, cases: int = 50) -> CheckResult:
    """Differential-then-evaluate equals evaluate-then-differentiate for
    section families."""
    rng = Random(seed)
    for i in range(cases):
        tower = rand_tower(rng)
        view = tower.over_fiber()
        r = rng.randint(0, 1)
        s = rng.randint(0, r)
        degree = rng.randint(0, min(1, view.m - 1))
        morphism = rand_morphism(rng, view, r, s, degree)
        section = rand_section_family(rng, tower)
        eta_atoms = [Sym(nm) for nm in tower.base + tower.fiber + tower.second]
        eta = {a: rand_poly(rng, eta_atoms, degree=2) for a in tower.second}
        if not check_functional_commutation(morphism, section, eta):
            return CheckResult("functional_commutation", False, i + 1, f"case {i}", 0.0)
    return CheckResult("functional_commutation", True, cases, "section evaluation commutes with the differential", 0.0)


@_timed
def section_reindex_linearity(seed: int = 0, cases: int = 25) -> CheckResult:
    """Jet reindexing of section families is linear."""
    rng = Random(seed)
    for i in range(cases):
        tower = rand_tower(rng)
        s1 = rand_section_family(rng, tower)
        s2 = rand_section_family(rng, tower)
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2))
        combo = SectionFamily(tower, {t: a * s1.components[t] + b * s2.components[t] for t in tower.second})
        r = rng.randint(0, 2)
        j1, j2, jc = section_jet_reindex(s1, r), section_jet_reindex(s2, r), section_jet_reindex(combo, r)
        for key, value in jc.items():
            if value != a * j1[key] + b * j2[key]:
                return CheckResult("section_reindex_linearity", False, i + 1, f"entry {key}", 0.0)
    return CheckResult("section_reindex_linearity", True, cases, "reindexing is linear", 0.0)


@_timed
def oracle_total_derivative(grid: int = 1000, tolerance: float = 1e-4) -> CheckResult:
    """Symbolic total derivative agrees with finite differences on a smooth
    section."""
    bundle = BundleSpec(("x",), ("u",))
    u = Expr.atom(Sym("u"))
    section = sample_section(bundle, ((0.0, 1.0),), (grid,), {"u": np.sin})
    err = check_total_derivative(u * u, section)
    passed = err <= tolerance
    return CheckResult("oracle_total_derivative", passed, 1, f"max relative error {err:.3e}", 0.0)


@_timed
def oracle_convergence(grid: int = 500) -> CheckResult:
    """Halving the spacing divides the finite-difference error by about 4."""
    bundle = BundleSpec(("x",), ("u",))
    u = Expr.atom(Sym("u"))
    coarse = sample_section(bundle, ((0.0, 1.0),), (grid,), {"u": np.sin})
    fine = sample_section(bundle, ((0.0, 1.0),), (2 * grid - 1,), {"u": np.sin})
    e1 = check_total_derivative(u * u, coarse)
    e2 = check_total_derivative(u * u, fine)
    ratio = e1 / e2
    passed = 3.0 <= ratio <= 5.0
    return CheckResult("oracle_convergence", passed, 2, f"error ratio {ratio:.2f}", 0.0)


@_timed
def oracle_action_variation(settings: dict[int, tuple[int, float]] = DEFAULTS) -> CheckResult:
    """Euler-Lagrange components are the functional derivative of the action,
    for the classical density of each base dimension of ``settings``."""
    errors = {}
    for m, (grid, _) in settings.items():
        lag = classical_lagrangian(m)
        errors[m] = check_action_variation(lag, *default_sections(lag.bundle, grid))[2]
    passed = all(err <= settings[m][1] for m, err in errors.items())
    detail = ", ".join(f"{err:.3e} ({m}d)" for m, err in errors.items())
    return CheckResult("oracle_action_variation", passed, len(errors), f"relative errors {detail}", 0.0)


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
