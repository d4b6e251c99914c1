"""First-order variational pipeline: vertical differential, momentum and
the Euler-Lagrange morphism with its projectability verification.

The Euler-Lagrange construction subtracts the momentum divergence from the
vertical differential.  The divergence pairs each total derivative with the
contraction slot it came from; applying the plain degree-(l-1) exterior
differential to the already contracted momentum form is equivalent only at
top degree l = m, and fails to cancel the first-order vertical block below
top degree, so the coupled formula is used uniformly (the equivalence at
l = m is exercised by the test suite).
"""

from dataclasses import dataclass

from .bundle import BundleSpec, JetCoord, jet_atom
from .expr import Expr, Sym, ZERO, diff, partials, sum_exprs
from .forms import Form, interior_product
from .jetcalc import Morphism, total_derivative, validate_expression
from .multiindex import MultiIndex, indices_up_to


class ProjectabilityError(RuntimeError):
    """Internal-consistency failure: the first-order vertical block of the
    Euler-Lagrange difference did not cancel."""

    def __init__(self, residuals):
        self.residuals = residuals
        super().__init__(f"nonzero first-order vertical residuals: {residuals}")


@dataclass(frozen=True)
class Lagrangian:
    """A degree-l form on first-order jets, without vertical arguments.

    Classical when the degree equals the base dimension; lower degrees are
    admitted and flow through the same operations.
    """

    bundle: BundleSpec
    value: Form

    def __post_init__(self) -> None:
        if self.value.names != self.bundle.base:
            raise ValueError("form range must be the bundle base")
        for _, c in self.value.items():
            validate_expression(c, self.bundle, 1, None)

    @property
    def degree(self) -> int:
        return self.value.degree

    @property
    def is_classical(self) -> bool:
        return self.degree == self.bundle.m

    def as_morphism(self) -> Morphism:
        return Morphism(self.bundle, 1, None, self.value)

    def __add__(self, other: "Lagrangian") -> "Lagrangian":
        return Lagrangian(self.bundle, self.value + other.value)

    def scale(self, factor) -> "Lagrangian":
        return Lagrangian(self.bundle, self.value.scale(Expr.const(factor)))


@dataclass(frozen=True)
class EulerLagrangeResult:
    """Components of the Euler-Lagrange morphism plus the cancellation
    evidence for the first-order vertical block."""

    lagrangian: Lagrangian
    components: dict[tuple[str, tuple[int, ...]], Expr]
    projectability_report: dict[tuple[str, str, tuple[int, ...]], Expr]

    @property
    def is_projectable(self) -> bool:
        return all(res.is_zero for res in self.projectability_report.values())

    def component(self, fiber: str, key: tuple[int, ...] | None = None) -> Expr:
        if key is None:
            key = tuple(range(1, self.lagrangian.degree + 1))
        return self.components.get((fiber, tuple(key)), ZERO)


def _first_jet_atom(bundle: BundleSpec, p: str, direction: str) -> JetCoord:
    return jet_atom(p, MultiIndex.unit(bundle.base, direction))


def vertical_differential(lag: Lagrangian) -> Morphism:
    """Fiber-derivative of the density: linear in the order-<=1 vertical
    coordinates with the matching partials as coefficients."""
    bundle = lag.bundle
    zero = bundle.zero_index()
    pairs = []  # (order-<=1 atom, its vertical companion)
    for p in bundle.fiber:
        pairs.append((Sym(p), jet_atom(p, zero, vertical=True)))
        for name in bundle.base:
            a = _first_jet_atom(bundle, p, name)
            pairs.append((a, jet_atom(p, a.alpha, vertical=True)))
    wanted = {a for a, _ in pairs}

    def lift(c: Expr) -> Expr:
        parts = partials(c, wanted.__contains__)
        return sum_exprs(parts[a] * Expr.atom(va) for a, va in pairs if a in parts)

    return Morphism(bundle, 1, 1, lag.value.map_coeffs(lift))


def momentum(lag: Lagrangian) -> Morphism:
    """Contract the jet part of the vertical differential into a degree-(l-1)
    morphism, linear in the order-zero vertical coordinates."""
    if lag.degree < 1:
        raise ValueError("momentum needs form degree >= 1")
    bundle = lag.bundle
    zero = bundle.zero_index()
    value = Form.zero(lag.degree - 1, bundle.base)
    for key, c in lag.value.items():
        piece = Form(lag.degree, bundle.base, {key: Expr.const(1)})
        for p in bundle.fiber:
            x_p = Expr.atom(jet_atom(p, zero, vertical=True))
            for i, name in enumerate(bundle.base, start=1):
                coeff = diff(c, _first_jet_atom(bundle, p, name))
                if coeff.is_zero:
                    continue
                value = value + interior_product(i, piece).scale(coeff * x_p)
    return Morphism(bundle, 1, 0, value)


def momentum_divergence(lag: Lagrangian) -> Morphism:
    """The total-derivative image of the momentum, with each derivative
    direction paired against the contraction slot it fills."""
    bundle = lag.bundle
    zero = bundle.zero_index()
    value = Form.zero(lag.degree, bundle.base)
    first_jets = {_first_jet_atom(bundle, p, name) for p in bundle.fiber for name in bundle.base}
    for key, c in lag.value.items():
        parts = partials(c, first_jets.__contains__)
        for p in bundle.fiber:
            x_p = Expr.atom(jet_atom(p, zero, vertical=True))
            summands = []
            for name in bundle.base:
                a = _first_jet_atom(bundle, p, name)
                b = parts.get(a)
                if b is None:
                    continue
                summands.append(total_derivative(b, name, bundle, 1, None) * x_p)
                summands.append(b * Expr.atom(jet_atom(p, a.alpha, vertical=True)))
            acc = sum_exprs(summands)
            if not acc.is_zero:
                value = value + Form(lag.degree, bundle.base, {key: acc})
    return Morphism(bundle, 2, 1, value)


def euler_lagrange(lag: Lagrangian) -> EulerLagrangeResult:
    """Euler-Lagrange components with symbolic projectability verification.

    Subtracts the momentum divergence from the (order-lifted) vertical
    differential, checks that every first-order vertical coefficient
    cancels, and extracts the coefficient of each order-zero vertical
    coordinate.  A nonzero residual raises, since cancellation is an
    internal invariant of the construction.
    """
    bundle = lag.bundle
    zero = bundle.zero_index()
    dv = vertical_differential(lag)
    difference = dv.value - momentum_divergence(lag).value

    components: dict[tuple[str, tuple[int, ...]], Expr] = {}
    report: dict[tuple[str, str, tuple[int, ...]], Expr] = {}
    verticals = {jet_atom(p, alpha, vertical=True) for p in bundle.fiber for alpha in indices_up_to(bundle.base, 1)}
    keys = sorted(set(difference.coeffs) | set(lag.value.coeffs))
    for key in keys:
        e = difference.coefficient(key)
        parts = partials(e, verticals.__contains__)
        for p in bundle.fiber:
            components[(p, key)] = parts.get(jet_atom(p, zero, vertical=True), ZERO)
            for name in bundle.base:
                residual = parts.get(jet_atom(p, MultiIndex.unit(bundle.base, name), vertical=True), ZERO)
                report[(p, name, key)] = residual
        # the difference must be linear homogeneous in the vertical block
        summands = []
        for p in bundle.fiber:
            summands.append(components[(p, key)] * Expr.atom(jet_atom(p, zero, vertical=True)))
            for name in bundle.base:
                summands.append(
                    report[(p, name, key)] * Expr.atom(jet_atom(p, MultiIndex.unit(bundle.base, name), vertical=True))
                )
        recomposed = sum_exprs(summands)
        if recomposed != e:
            raise ProjectabilityError({(key,): e - recomposed})

    bad = {k: v for k, v in report.items() if not v.is_zero}
    if bad:
        raise ProjectabilityError(bad)
    return EulerLagrangeResult(lag, components, report)
