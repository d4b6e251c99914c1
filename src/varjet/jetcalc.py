"""Formal calculus on jet prolongations.

The two central operators:

* the total derivative along a base direction, which shifts every jet or
  vertical coordinate it meets by one derivative index, and
* the formal exterior differential of a form-valued morphism, which raises
  both the form degree and the source jet orders by one.

A morphism consumes a positional jet of order r and, optionally, a vertical
jet argument of order s <= r.  ``s is None`` (no vertical argument) is kept
distinct from ``s == 0``: a plain Lagrangian has no vertical factor, while a
vertical differential does.

The exchange identification between verticals of jets and jets of verticals
is never stored as data; it is absorbed into the convention that the total
derivative of a vertical coordinate is the vertical coordinate with the
shifted multi-index.
"""

from dataclasses import dataclass

from .bundle import BundleSpec, CoordinateError, JetCoord, enumerate_jet_coordinates, jet_atom
from .expr import Expr, FuncAtom, Sym, diff, partials, substitute, sum_exprs
from .forms import Form, wedge_basis_left
from .multiindex import MultiIndex, indices_up_to


@dataclass(frozen=True)
class Morphism:
    """A form-valued map on positional jets paired with a vertical jet.

    ``value`` is a degree-l form over the bundle base whose coefficients may
    use base coordinates, positional jets up to order r and vertical
    coordinates up to order s.
    """

    bundle: BundleSpec
    r: int
    s: int | None
    value: Form

    def __post_init__(self) -> None:
        if self.s is not None and not 0 <= self.s <= self.r:
            raise ValueError(f"vertical order s={self.s} must satisfy 0 <= s <= r={self.r}")
        if self.value.names != self.bundle.base:
            raise ValueError("form range must be the bundle base")
        for _, c in self.value.items():
            validate_expression(c, self.bundle, self.r, self.s)

    @property
    def degree(self) -> int:
        return self.value.degree

    def tightened(self) -> "Morphism":
        """Recompute the minimal declared orders from the atoms actually used."""
        r_min, s_min = 0, None
        for _, c in self.value.items():
            for a in c.atoms():
                if isinstance(a, JetCoord):
                    if a.vertical:
                        s_min = a.alpha.order if s_min is None else max(s_min, a.alpha.order)
                    else:
                        r_min = max(r_min, a.alpha.order)
        if self.s is not None:
            s_min = 0 if s_min is None else s_min
            r_min = max(r_min, s_min)
        return Morphism(self.bundle, r_min, s_min, self.value)


@dataclass(frozen=True)
class VerticalField:
    """A vertical vector field on the total space: one component per fiber
    coordinate, depending only on order-zero coordinates."""

    bundle: BundleSpec
    components: dict[str, Expr]

    def __post_init__(self) -> None:
        if set(self.components) != set(self.bundle.fiber):
            raise ValueError("need exactly one component per fiber coordinate")
        allowed = {Sym(n) for n in self.bundle.base + self.bundle.fiber}
        for p, e in self.components.items():
            for a in e.atoms():
                if isinstance(a, Sym) and a in allowed:
                    continue
                if isinstance(a, FuncAtom):
                    continue
                raise CoordinateError(f"component for {p!r} uses non-total-space atom {a!r}")


def validate_expression(e: Expr, bundle: BundleSpec, r: int, s: int | None) -> None:
    """Check that every coordinate atom of ``e`` is enumerated at (r, s)."""
    base = set(bundle.base)
    fiber = set(bundle.fiber)
    for a in e.atoms():
        if isinstance(a, Sym):
            if a.name in base or a.name in fiber:
                continue
            raise CoordinateError(f"unknown coordinate symbol {a.name!r}")
        if isinstance(a, JetCoord):
            if a.fiber not in fiber or a.alpha.names != bundle.base:
                raise CoordinateError(f"jet coordinate {a!r} does not belong to this bundle view")
            if a.vertical:
                if s is None:
                    raise CoordinateError(f"vertical coordinate {a!r} in a morphism without vertical argument")
                if a.alpha.order > s:
                    raise CoordinateError(f"vertical coordinate {a!r} exceeds declared order {s}")
            elif a.alpha.order > r:
                raise CoordinateError(f"jet coordinate {a!r} exceeds declared order {r}")


def total_derivative(e: Expr, direction: str, bundle: BundleSpec, r: int, s: int | None) -> Expr:
    """Total derivative along one base direction.

    Acts as the base partial plus, for every positional or vertical jet
    coordinate present, the coordinate with the incremented multi-index
    times the corresponding partial.  The result lives at orders
    (r + 1, s + 1).
    """
    if direction not in bundle.base:
        raise CoordinateError(f"{direction!r} is not a base coordinate")
    validate_expression(e, bundle, r, s)
    x = Sym(direction)
    fiber = bundle.fiber
    # Every partial the formula needs, from one walk over the terms.
    parts = partials(e, lambda a: a == x or isinstance(a, JetCoord) or a.name in fiber)
    zero = bundle.zero_index()
    summands = [parts.pop(x)] if x in parts else []
    for a in sorted(parts, key=lambda a: a.sort_key()):
        if isinstance(a, Sym):
            shifted = jet_atom(a.name, zero.incremented(direction))
        else:
            shifted = jet_atom(a.fiber, a.alpha.incremented(direction), a.vertical)
        summands.append(parts[a] * Expr.atom(shifted))
    return sum_exprs(summands)


def holonomic_prolongation(phi: Morphism, k: int) -> dict[MultiIndex, Form]:
    """Families of iterated total derivatives of the morphism coefficients.

    Maps each multi-index beta with order <= k to the form whose
    coefficients are D_beta of the original ones; the beta-entry lives at
    source orders (r + |beta|, s + |beta|).
    """
    if k < 0:
        raise ValueError("prolongation order must be non-negative")
    bundle = phi.bundle
    family: dict[MultiIndex, Form] = {bundle.zero_index(): phi.value}
    for beta in indices_up_to(bundle.base, k):
        if beta.order == 0 or beta in family:
            continue
        for name, exp in zip(beta.names, beta.exponents):
            if exp > 0:
                prev = MultiIndex(beta.names, tuple(x - (1 if n == name else 0) for n, x in zip(beta.names, beta.exponents)))
                step_r = phi.r + beta.order - 1
                step_s = None if phi.s is None else phi.s + beta.order - 1
                family[beta] = family[prev].map_coeffs(
                    lambda c: total_derivative(c, name, bundle, step_r, step_s)
                )
                break
    return family


def exterior_from_jet(family: dict[MultiIndex, Form]) -> Form:
    """Assemble the exterior-derivative value from a first-order jet family.

    Consumes the order-0 and order-1 entries of a prolongation family and
    antisymmetrizes: sum over directions of dx^i wedged with the order-e_i
    coefficients.  Degrees beyond the range size collapse to zero.
    """
    zero_entry = None
    for beta in family:
        if beta.order == 0:
            zero_entry = beta
            break
    if zero_entry is None:
        raise ValueError("family lacks the order-zero entry")
    names = family[zero_entry].names
    result = Form.zero(family[zero_entry].degree + 1, names)
    for i, name in enumerate(names, start=1):
        slot = MultiIndex.unit(names, name)
        if slot not in family:
            raise ValueError(f"family lacks the order-one entry for {name!r}")
        result = result + wedge_basis_left(i, family[slot])
    return result


def formal_exterior_differential(phi: Morphism) -> Morphism:
    """Degree- and order-raising differential via the first prolongation."""
    family = holonomic_prolongation(phi, 1)
    value = exterior_from_jet(family)
    return Morphism(phi.bundle, phi.r + 1, None if phi.s is None else phi.s + 1, value)


def formal_exterior_differential_direct(phi: Morphism) -> Morphism:
    """Same operator assembled from the explicit coordinate formula.

    Iterates over the full enumerated coordinate list instead of the atoms
    present, providing an independent implementation for cross-checks.
    """
    bundle = phi.bundle
    coords = enumerate_jet_coordinates(bundle, phi.r, phi.s)
    zero = bundle.zero_index()
    value = Form.zero(phi.degree + 1, bundle.base)
    for i, name in enumerate(bundle.base, start=1):

        def d_i(c: Expr, name=name) -> Expr:
            summands = [diff(c, Sym(name))]
            for a in coords:
                if isinstance(a, Sym):
                    shifted = jet_atom(a.name, zero.incremented(name))
                else:
                    shifted = jet_atom(a.fiber, a.alpha.incremented(name), a.vertical)
                summands.append(diff(c, a) * Expr.atom(shifted))
            return sum_exprs(summands)

        value = value + wedge_basis_left(i, phi.value.map_coeffs(d_i))
    return Morphism(bundle, phi.r + 1, None if phi.s is None else phi.s + 1, value)


def flow_prolongation(eta: VerticalField, s: int) -> dict[tuple[str, MultiIndex], Expr]:
    """Components of the prolonged vertical field: iterated total
    derivatives of each component, indexed by (fiber, multi-index)."""
    if s < 0:
        raise ValueError("prolongation order must be non-negative")
    bundle = eta.bundle
    out: dict[tuple[str, MultiIndex], Expr] = {}
    for p, comp in eta.components.items():
        out[(p, bundle.zero_index())] = comp
    for sigma in indices_up_to(bundle.base, s):
        if sigma.order == 0:
            continue
        for name, exp in zip(sigma.names, sigma.exponents):
            if exp > 0:
                prev = MultiIndex(sigma.names, tuple(x - (1 if n == name else 0) for n, x in zip(sigma.names, sigma.exponents)))
                for p in bundle.fiber:
                    out[(p, sigma)] = total_derivative(
                        out[(p, prev)], name, bundle, sigma.order - 1, None
                    )
                break
    return out


def vertical_bindings(eta: VerticalField, s: int) -> dict:
    """Substitution map sending each vertical coordinate of order <= s to the
    matching component of the prolonged field."""
    flow = flow_prolongation(eta, s)
    return {jet_atom(p, sigma, vertical=True): value for (p, sigma), value in flow.items()}


def plug_vertical(phi: Morphism, eta: VerticalField) -> Morphism:
    """Feed the prolonged vertical field into the vertical argument."""
    if phi.s is None:
        raise ValueError("morphism has no vertical argument")
    bindings = vertical_bindings(eta, phi.s)
    value = phi.value.map_coeffs(lambda c: substitute(c, bindings))
    return Morphism(phi.bundle, phi.r, None, value)


@dataclass(frozen=True)
class NaturalityReport:
    holds: bool
    witness: tuple[MultiIndex, tuple[int, ...], Expr, Expr] | None = None


def check_naturality(phi: Morphism, eta: VerticalField, k: int) -> NaturalityReport:
    """Prolonging then feeding the field equals feeding then prolonging.

    Compares, entry by entry, the order-k prolongation of ``phi`` with the
    vertical argument filled at order s + k against the order-k prolongation
    of ``phi`` with the argument filled first.  Returns the first differing
    component on failure.
    """
    if phi.s is None:
        plugged = phi
        lhs_family = holonomic_prolongation(phi, k)
        lhs = {beta: form for beta, form in lhs_family.items()}
    else:
        bindings = vertical_bindings(eta, phi.s + k)
        lhs_family = holonomic_prolongation(phi, k)
        lhs = {beta: form.map_coeffs(lambda c: substitute(c, bindings)) for beta, form in lhs_family.items()}
        plugged = plug_vertical(phi, eta)
    rhs = holonomic_prolongation(plugged, k)
    for beta in sorted(lhs, key=lambda b: b.sort_key()):
        left, right = lhs[beta], rhs[beta]
        keys = sorted(set(left.coeffs) | set(right.coeffs))
        for key in keys:
            a, b = left.coefficient(key), right.coefficient(key)
            if a != b:
                return NaturalityReport(False, (beta, key, a, b))
    return NaturalityReport(True)


def section_bindings(
    bundle: BundleSpec,
    sections: dict[str, Expr],
    variations: dict[str, Expr] | None,
    r: int,
    s: int | None,
) -> dict:
    """Bindings that evaluate jet coordinates along a symbolic section.

    Positional jets bind to iterated base partials of the section
    components, vertical jets to iterated base partials of the variation
    components, so substituting turns a jet-space expression into a
    function on the base.
    """
    bindings: dict = {}

    def fill(component_map: dict[str, Expr], vertical: bool, max_order: int) -> None:
        values: dict[tuple[str, MultiIndex], Expr] = {}
        for p, comp in component_map.items():
            values[(p, bundle.zero_index())] = comp
        for alpha in indices_up_to(bundle.base, max_order):
            if alpha.order == 0:
                continue
            for name, exp in zip(alpha.names, alpha.exponents):
                if exp > 0:
                    prev = MultiIndex(alpha.names, tuple(x - (1 if n == name else 0) for n, x in zip(alpha.names, alpha.exponents)))
                    for p in component_map:
                        values[(p, alpha)] = diff(values[(p, prev)], Sym(name))
                    break
        for (p, alpha), val in values.items():
            bindings[jet_atom(p, alpha, vertical)] = val

    fill(sections, False, r)
    if variations is not None and s is not None:
        fill(variations, True, s)
    return bindings
