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
from functools import cache

from .bundle import BundleSpec, CoordinateError, JetCoord, enumerate_jet_coordinates, jet_atom
from .expr import Expr, FuncAtom, Sym, _add_terms, _mono_mul, diff, partials, substitute, sum_exprs
from .forms import Form, substitute_form, wedge_basis_left
from .multiindex import MultiIndex, graded_tower


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


@dataclass(frozen=True)
class VerticalField:
    """A vertical vector field on the total space: one component per fiber
    coordinate, depending only on order-zero coordinates."""

    bundle: BundleSpec
    components: dict[str, Expr]

    def __post_init__(self) -> None:
        if set(self.components) != set(self.bundle.fiber):
            raise ValueError("need exactly one component per fiber coordinate")
        validate_total_space(self.components, self.bundle, "vertical field")


def validate_total_space(components: dict[str, Expr], bundle: BundleSpec, what: str) -> None:
    """Check that every component depends only on the base and fiber
    coordinates of ``bundle`` and on function atoms."""
    allowed = {Sym(n) for n in bundle.base + bundle.fiber}
    for name, e in components.items():
        for a in e.atoms():
            if isinstance(a, Sym) and a in allowed:
                continue
            if isinstance(a, FuncAtom):
                continue
            raise CoordinateError(f"{what} component {name!r} uses atom {a!r} outside the total space")


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

    The terms go straight into one dict: first the base partial's, then, for
    each coordinate in atom order, its partial's monomials times the shifted
    atom, with unchanged coefficients.  Terms and their order are
    those of summing the products one ``+`` at a time.  This is the
    one-direction case of ``_total_derivatives``, which the towers call
    with every direction at once.
    """
    return _total_derivatives(e, (direction,), bundle, r, s)[0]


def _total_derivatives(e: Expr, directions: tuple[str, ...], bundle: BundleSpec, r: int, s: int | None) -> list[Expr]:
    """``[total_derivative(e, d, bundle, r, s) for d in directions]``, with
    ``e`` validated once and every partial taken in one walk over its terms:
    the coordinate partials do not depend on the direction, only the shifted
    atoms they multiply and the base partial do."""
    for direction in directions:
        if direction not in bundle.base:
            raise CoordinateError(f"{direction!r} is not a base coordinate")
    validate_expression(e, bundle, r, s)
    xs = {Sym(d) for d in directions}
    fiber = bundle.fiber
    parts = partials(e, lambda a: a in xs or isinstance(a, JetCoord) or a.name in fiber)
    coords = sorted(a for a in parts if a not in xs)
    out = []
    for direction in directions:
        x = Sym(direction)
        terms = dict(parts[x]._terms) if x in parts else {}
        for a in coords:
            shift = ((_shifted(a, direction, bundle.base), 1),)
            _add_terms(terms, ((_mono_mul(m, shift), c) for m, c in parts[a]._terms.items()))
        out.append(Expr._frozen(terms))
    return out


@cache
def _shifted(a, direction: str, base: tuple[str, ...]):
    """The atom that the total derivative along ``direction`` shifts the
    coordinate ``a`` of a bundle over ``base`` to, built once per key."""
    if isinstance(a, Sym):
        return jet_atom(a.name, MultiIndex.zero(base).incremented(direction))
    return jet_atom(a.fiber, a.alpha.incremented(direction), a.vertical)


def holonomic_prolongation(phi: Morphism, k: int) -> dict[MultiIndex, Form]:
    """Families of iterated total derivatives of the morphism coefficients.

    Maps each multi-index beta with order <= k to the form whose
    coefficients are D_beta of the original ones; the beta-entry lives at
    source orders (r + |beta|, s + |beta|).  Each coefficient of an entry
    with entries above it is walked once, by ``_total_derivatives``, for
    all the directions that lead up from it.
    """
    if k < 0:
        raise ValueError("prolongation order must be non-negative")
    bundle = phi.bundle

    def step(form: Form, names: tuple[str, ...], order: int) -> list[Form]:
        s = None if phi.s is None else phi.s + order - 1
        derived = {key: _total_derivatives(c, names, bundle, phi.r + order - 1, s) for key, c in form.coeffs.items()}
        return [Form(form.degree, form.names, {key: ds[j] for key, ds in derived.items()}) for j in range(len(names))]

    return graded_tower(bundle.base, k, phi.value, step)


def exterior_from_jet(family: dict[MultiIndex, Form]) -> Form:
    """Assemble the exterior-derivative value from a first-order jet family.

    Consumes the order-0 and order-1 entries of a prolongation family and
    antisymmetrizes: sum over directions of dx^i wedged with the order-e_i
    coefficients.  Degrees beyond the range size collapse to zero.
    """
    zero_entry = next((beta for beta in family if beta.order == 0), None)
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
    present, providing an independent implementation for cross-checks: it
    takes every partial by ``diff``, never by ``partials``, and finds its own
    shifted atoms.  Each coefficient's partial by each coordinate is taken
    once, before the directions; a direction then adds only its base partial
    and those partials times its shifted atoms.
    """
    bundle = phi.bundle
    coords = enumerate_jet_coordinates(bundle, phi.r, phi.s)
    zero = bundle.zero_index()
    coeffs = phi.value.coeffs
    parts = {key: [diff(c, a) for a in coords] for key, c in coeffs.items()}
    value = Form.zero(phi.degree + 1, bundle.base)
    for i, name in enumerate(bundle.base, start=1):
        # Each coordinate with its shift along ``name``, once per call.  Found
        # here, not read from ``_shifted``'s memo: the two routes share the
        # interned atoms, never the memo.
        shifts = []
        for a in coords:
            if isinstance(a, Sym):
                shifted = jet_atom(a.name, zero.incremented(name))
            else:
                shifted = jet_atom(a.fiber, a.alpha.incremented(name), a.vertical)
            shifts.append(Expr.atom(shifted))
        x = Sym(name)
        d_i = {
            key: sum_exprs([diff(c, x)] + [d * shifted for d, shifted in zip(parts[key], shifts) if d._terms])
            for key, c in coeffs.items()
        }
        value = value + wedge_basis_left(i, Form(phi.degree, bundle.base, d_i))
    return Morphism(bundle, phi.r + 1, None if phi.s is None else phi.s + 1, value)


def flow_prolongation(eta: VerticalField, s: int) -> dict[tuple[str, MultiIndex], Expr]:
    """Components of the prolonged vertical field: iterated total
    derivatives of each component, indexed by (fiber, multi-index)."""
    if s < 0:
        raise ValueError("prolongation order must be non-negative")
    bundle = eta.bundle

    def step(comps: dict[str, Expr], names: tuple[str, ...], order: int) -> list[dict[str, Expr]]:
        derived = {p: _total_derivatives(comps[p], names, bundle, order - 1, None) for p in bundle.fiber}
        return [{p: ds[j] for p, ds in derived.items()} for j in range(len(names))]

    tower = graded_tower(bundle.base, s, eta.components, step)
    return {(p, sigma): value for sigma, comps in tower.items() for p, value in comps.items()}


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
    if k < 0:
        raise ValueError("prolongation order must be non-negative")
    if phi.s is None:  # nothing to feed: both sides are the same prolongation
        return NaturalityReport(True)
    bindings = vertical_bindings(eta, phi.s + k)
    lhs = {beta: substitute_form(form, bindings) for beta, form in holonomic_prolongation(phi, k).items()}
    rhs = holonomic_prolongation(plug_vertical(phi, eta), k)
    for beta in sorted(lhs, key=lambda b: b.sort_key()):
        left, right = lhs[beta], rhs[beta]
        keys = sorted(set(left.coeffs) | set(right.coeffs))
        for key in keys:
            a, b = left.coefficient(key), right.coefficient(key)
            if a != b:
                return NaturalityReport(False, (beta, key, a, b))
    return NaturalityReport(True)


def partial_step(comps: dict[str, Expr], names: tuple[str, ...], _order: int) -> list[dict[str, Expr]]:
    """One ``graded_tower`` step of a component map: for each coordinate of
    ``names``, every component differentiated along it."""
    return [{p: diff(e, Sym(name)) for p, e in comps.items()} for name in names]


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
        for alpha, comps in graded_tower(bundle.base, max_order, component_map, partial_step).items():
            bindings.update((jet_atom(p, alpha, vertical), val) for p, val in comps.items())

    fill(sections, False, r)
    if variations is not None and s is not None:
        fill(variations, True, s)
    return bindings
