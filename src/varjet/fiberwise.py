"""Fiberwise jets of base-preserving morphisms and section-level checks.

A base-preserving morphism between two bundles over the same base is given
by target components in the source coordinates.  Its fiberwise r-jet
collects fiber-direction partials; the fiberwise (k, r)-jet adds partials
in all source directions.  Section families over a 2-fibered tower support
the jet reindexing law and the commutation of the formal exterior
differential with evaluation along prolonged sections.
"""

from dataclasses import dataclass
from fractions import Fraction

from .bundle import BundleSpec, FiberwiseCoord, jet_atom
from .expr import Expr, Sym, diff, substitute
from .forms import exterior_derivative, substitute_form
from .jetcalc import (
    Morphism, _total_derivatives, formal_exterior_differential, partial_step, section_bindings, validate_total_space
)
from .multiindex import MultiIndex, graded_tower, indices_up_to


@dataclass(frozen=True)
class BaseMorphism:
    """Base-preserving map between bundles over a common base: one component
    per target fiber name, written in source coordinates."""

    source: BundleSpec
    target_fibers: tuple[str, ...]
    components: dict[str, Expr]

    def __post_init__(self) -> None:
        if set(self.components) != set(self.target_fibers):
            raise ValueError("need exactly one component per target fiber name")
        validate_total_space(self.components, self.source, "morphism")


@dataclass(frozen=True)
class SectionFamily:
    """A section of the top level of a 2-fibered tower, depending on all
    intermediate-space coordinates."""

    bundle: BundleSpec
    components: dict[str, Expr]

    def __post_init__(self) -> None:
        if not self.bundle.second:
            raise ValueError("section families need a 2-fibered bundle")
        if set(self.components) != set(self.bundle.second):
            raise ValueError("need exactly one component per top-level fiber name")
        validate_total_space(self.components, self.bundle, "section")


def fiberwise_prolongation(f: BaseMorphism, r: int) -> dict[tuple[str, MultiIndex], Expr]:
    """Fiber-direction partials of the components up to order r."""
    if r < 0:
        raise ValueError("jet order must be non-negative")
    tower = graded_tower(f.source.fiber, r, f.components, partial_step)
    return {(a, beta): value for beta, comps in tower.items() for a, value in comps.items()}


def _partial(e: Expr, names: tuple[str, ...], _order: int) -> list[Expr]:
    return [diff(e, Sym(name)) for name in names]


def fiberwise_jet(f: BaseMorphism, k: int, r: int) -> dict[FiberwiseCoord, Expr]:
    """All partials d_gamma d_beta of the components, beta over fiber
    directions (order <= r), gamma over every source direction (order <= k)."""
    if k < 0 or r < 0:
        raise ValueError("jet orders must be non-negative")
    names = f.source.base + f.source.fiber
    return {
        FiberwiseCoord(a, beta, gamma): value
        for (a, beta), val in fiberwise_prolongation(f, r).items()
        for gamma, value in graded_tower(names, k, val, _partial).items()
    }


def associated_jet_map(f: BaseMorphism) -> dict[tuple[str, MultiIndex], Expr]:
    """First-jet image of the morphism: the components together with their
    total derivatives through the source fiber jets."""
    src = f.source
    zero = src.zero_index()
    out: dict[tuple[str, MultiIndex], Expr] = {}
    for a, comp in f.components.items():
        out[(a, zero)] = comp
        for name, derived in zip(src.base, _total_derivatives(comp, src.base, src, 0, None)):
            out[(a, zero.incremented(name))] = derived
    return out


@dataclass(frozen=True)
class OperatorOrderReport:
    """Outcome of the frozen-fiber dependency check.

    ``precondition_met`` records whether the two fiberwise (k, 1)-jets agree
    at the point; only then is ``conclusion_holds`` meaningful.
    """

    precondition_met: bool
    conclusion_holds: bool | None
    witness: tuple | None = None


def check_operator_order(
    f: BaseMorphism, g: BaseMorphism, k: int, point: dict[str, Fraction]
) -> OperatorOrderReport:
    """If two morphisms share their fiberwise (k, 1)-jet at a point, their
    first-jet images restricted to the frozen fiber share the k-jet there.

    The point assigns exact rational values to every source coordinate.  The
    conclusion freezes base and fiber values but leaves the first-jet fiber
    variables symbolic, comparing the resulting expressions exactly.
    """
    src = f.source
    if g.source != src or g.target_fibers != f.target_fibers:
        raise ValueError("morphisms must share source and target")
    point_bindings = {Sym(n): Expr.const(point[n]) for n in src.base + src.fiber}

    jf, jg = fiberwise_jet(f, k, 1), fiberwise_jet(g, k, 1)
    for coord in jf:
        if not substitute(jf[coord] - jg[coord], point_bindings).is_zero:
            return OperatorOrderReport(False, None, (coord,))

    hf, hg = associated_jet_map(f), associated_jet_map(g)
    # The frozen fiber's coordinates: order-zero and first-jet fiber atoms.
    # Mixed partials commute, so one tower entry per multi-index suffices.
    fiber_directions = tuple(jet_atom(p, alpha) for p in src.fiber for alpha in indices_up_to(src.base, 1))

    def step(pair: tuple[Expr, Expr], ds: tuple, _order: int) -> list[tuple[Expr, Expr]]:
        return [(diff(pair[0], d), diff(pair[1], d)) for d in ds]

    for slot in sorted(hf, key=lambda t: (t[0], t[1].sort_key())):
        for gamma, (ef, eg) in graded_tower(fiber_directions, k, (hf[slot], hg[slot]), step).items():
            if not substitute(ef - eg, point_bindings).is_zero:
                return OperatorOrderReport(True, False, (slot, gamma.order))
    return OperatorOrderReport(True, True)


def section_jet_reindex(s: SectionFamily, r: int) -> dict[tuple[str, MultiIndex, MultiIndex], Expr]:
    """Base-direction jets of a section family, then fiber-direction partials
    of those, truncated to combined order <= r."""
    if r < 0:
        raise ValueError("jet order must be non-negative")
    bundle = s.bundle
    return {
        (a, alpha, beta): value
        for alpha, comps in graded_tower(bundle.base, r, s.components, partial_step).items()
        for a, base_jet in comps.items()
        for beta, value in graded_tower(bundle.fiber, r - alpha.order, base_jet, _partial).items()
    }


def variation_along_section(s: SectionFamily, eta: dict[str, Expr]) -> dict[str, Expr]:
    """Reduce a variation to intermediate-space components by composing any
    top-level coordinate dependence with the section itself."""
    top = {Sym(a): s.components[a] for a in s.bundle.second}
    reduced = {a: substitute(e, top) for a, e in eta.items()}
    validate_total_space(reduced, s.bundle, "variation")
    return reduced


def check_functional_commutation(
    morphism: Morphism, s: SectionFamily, eta: dict[str, Expr]
) -> bool:
    """Evaluating the formal exterior differential along a prolonged section
    equals differentiating the evaluated form on the intermediate space.

    ``morphism`` lives over the intermediate-space view of the tower, with a
    vertical argument; ``eta`` gives the variation components (top-level
    coordinates allowed, resolved through the section).
    """
    view = morphism.bundle
    tower = s.bundle
    if view != tower.over_fiber():
        raise ValueError("morphism must live over the intermediate-space view of the tower")
    if morphism.s is None:
        raise ValueError("commutation check needs a vertical argument")
    variations = variation_along_section(s, eta)

    differential = formal_exterior_differential(morphism)
    lhs_bindings = section_bindings(view, s.components, variations, differential.r, differential.s)
    lhs = substitute_form(differential.value, lhs_bindings)

    rhs_bindings = section_bindings(view, s.components, variations, morphism.r, morphism.s)
    evaluated = substitute_form(morphism.value, rhs_bindings)
    rhs = exterior_derivative(evaluated)
    return lhs == rhs
