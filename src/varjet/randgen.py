"""Seeded random instances for the property suites.

All generators take an explicit ``random.Random`` so a run is reproducible
from its seed.  Coefficients are small integers, polynomials are sparse and
low degree: big enough to exercise every code path, small enough that the
whole randomized suite stays fast.
"""

from fractions import Fraction
from random import Random

from .bundle import BundleSpec, enumerate_jet_coordinates
from .expr import Expr, Sym
from .fiberwise import BaseMorphism, SectionFamily
from .forms import Form
from .jetcalc import Morphism, VerticalField
from .variational import Lagrangian

_BASE_NAMES = ("x", "y", "t")
_FIBER_NAMES = ("u", "v")
_TOP_NAMES = ("z", "w")


def rand_poly(rng: Random, atoms, degree: int = 3, terms: int = 4) -> Expr:
    """Sparse random polynomial over the given atoms."""
    out = Expr.const(0)
    for _ in range(rng.randint(1, terms)):
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        term = Expr.const(coeff)
        for _ in range(rng.randint(0, degree)):
            term = term * Expr.atom(rng.choice(atoms))
        out = out + term
    return out


def rand_bundle(rng: Random, max_m: int = 3, min_m: int = 1) -> BundleSpec:
    m = rng.randint(min_m, max_m)
    n = rng.randint(1, 2)
    return BundleSpec(_BASE_NAMES[:m], _FIBER_NAMES[:n])


def rand_tower(rng: Random) -> BundleSpec:
    m, n, top = (rng.randint(1, 2) for _ in range(3))
    return BundleSpec(_BASE_NAMES[:m], _FIBER_NAMES[:n], _TOP_NAMES[:top])


def rand_form(rng: Random, bundle: BundleSpec, degree: int, atoms) -> Form:
    from itertools import combinations

    coeffs = {}
    keys = list(combinations(range(1, bundle.m + 1), degree))
    rng.shuffle(keys)
    for key in keys[: max(1, len(keys) - 1)]:
        coeffs[key] = rand_poly(rng, atoms)
    return Form(degree, bundle.base, coeffs)


def rand_morphism(rng: Random, bundle: BundleSpec, r: int, s: int | None, degree: int) -> Morphism:
    atoms = [Sym(nm) for nm in bundle.base] + enumerate_jet_coordinates(bundle, r, s)
    return Morphism(bundle, r, s, rand_form(rng, bundle, degree, atoms))


def rand_vertical_field(rng: Random, bundle: BundleSpec) -> VerticalField:
    atoms = [Sym(nm) for nm in bundle.base + bundle.fiber]
    return VerticalField(bundle, {p: rand_poly(rng, atoms) for p in bundle.fiber})


def rand_lagrangian(rng: Random, bundle: BundleSpec, degree: int) -> Lagrangian:
    atoms = [Sym(nm) for nm in bundle.base] + enumerate_jet_coordinates(bundle, 1, None)
    return Lagrangian(bundle, rand_form(rng, bundle, degree, atoms))


def rand_base_morphism(rng: Random, source: BundleSpec, targets: tuple[str, ...]) -> BaseMorphism:
    atoms = [Sym(nm) for nm in source.base + source.fiber]
    return BaseMorphism(source, targets, {a: rand_poly(rng, atoms) for a in targets})


def rand_section_family(rng: Random, tower: BundleSpec) -> SectionFamily:
    atoms = [Sym(nm) for nm in tower.base + tower.fiber]
    return SectionFamily(tower, {a: rand_poly(rng, atoms, degree=2) for a in tower.second})


def rand_point(rng: Random, names: tuple[str, ...]) -> dict[str, Fraction]:
    return {n: Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for n in names}


def taylor_matched_pair(
    rng: Random, source: BundleSpec, targets: tuple[str, ...], k: int, point: dict[str, Fraction]
) -> tuple[BaseMorphism, BaseMorphism]:
    """Two morphisms whose fiberwise (k, 1)-jets agree at the point.

    The second differs by a multiple of monomials of total degree k + 2 in
    the point-shifted coordinates, so every partial of order <= k + 1
    vanishes there.
    """
    f = rand_base_morphism(rng, source, targets)
    shifted = [Expr.atom(Sym(n)) - Expr.const(point[n]) for n in source.base + source.fiber]
    atoms = [Sym(nm) for nm in source.base + source.fiber]
    perturbed = {}
    for a in targets:
        bump = Expr.const(1)
        for _ in range(k + 2):
            bump = bump * rng.choice(shifted)
        perturbed[a] = f.components[a] + bump * rand_poly(rng, atoms, degree=1, terms=2)
    return f, BaseMorphism(source, targets, perturbed)
