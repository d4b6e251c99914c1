"""The graded tower builder against the per-tower loops it replaced.

The references below are the earlier builders: the "peel the first nonzero
exponent" loop of ``holonomic_prolongation``, ``flow_prolongation`` and
``section_bindings``, the from-scratch iterated partial of the fiberwise
jets, the hand-written chain rule of ``associated_jet_map`` and the
depth-first walk of ``check_operator_order`` over every ordered sequence of
fiber directions.  The jet-calculus towers peel in the same order as before,
so they must agree term for term and in term order (numeric evaluation sums
in that order).  The fiberwise entries now take their partials in another
order, so they must agree structurally, with the same dict key order.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

import varjet.jetcalc
from varjet.bundle import BundleSpec, FiberwiseCoord, jet_atom
from varjet.expr import Expr, Sym, diff, function, sin, substitute, sum_exprs
from varjet.fiberwise import (
    BaseMorphism,
    SectionFamily,
    associated_jet_map,
    check_operator_order,
    fiberwise_jet,
    fiberwise_prolongation,
    section_jet_reindex,
)
from varjet.forms import Form
from varjet.jetcalc import (
    Morphism,
    VerticalField,
    flow_prolongation,
    holonomic_prolongation,
    section_bindings,
    total_derivative,
)
from varjet.multiindex import MultiIndex, graded_tower, indices_up_to

BUNDLE = BundleSpec(("x", "y"), ("u", "v"))
TOWER = BundleSpec(("x",), ("p", "q"), ("z", "w"))
SOURCE = BundleSpec(("x",), ("p", "q"))
PLANE = BundleSpec(("x", "y"), ("p",))
SPACE = BundleSpec(("x", "y", "t"), ("u", "v"))


# -- the earlier builders -------------------------------------------------------


def _peeled(index: MultiIndex, name: str) -> MultiIndex:
    return MultiIndex(index.names, tuple(x - (1 if n == name else 0) for n, x in zip(index.names, index.exponents)))


def ref_holonomic_prolongation(phi: Morphism, k: int) -> dict:
    bundle = phi.bundle
    family = {bundle.zero_index(): phi.value}
    for beta in indices_up_to(bundle.base, k):
        if beta.order == 0 or beta in family:
            continue
        for name, exp in zip(beta.names, beta.exponents):
            if exp > 0:
                step_r = phi.r + beta.order - 1
                step_s = None if phi.s is None else phi.s + beta.order - 1
                family[beta] = family[_peeled(beta, name)].map_coeffs(
                    lambda c: total_derivative(c, name, bundle, step_r, step_s)
                )
                break
    return family


def ref_flow_prolongation(eta: VerticalField, s: int) -> dict:
    bundle = eta.bundle
    out = {}
    for p, comp in eta.components.items():
        out[(p, bundle.zero_index())] = comp
    for sigma in indices_up_to(bundle.base, s):
        if sigma.order == 0:
            continue
        for name, exp in zip(sigma.names, sigma.exponents):
            if exp > 0:
                for p in bundle.fiber:
                    out[(p, sigma)] = total_derivative(out[(p, _peeled(sigma, name))], name, bundle, sigma.order - 1, None)
                break
    return out


def ref_section_bindings(bundle, sections, variations, r, s) -> dict:
    bindings = {}

    def fill(component_map, vertical, max_order):
        values = {}
        for p, comp in component_map.items():
            values[(p, bundle.zero_index())] = comp
        for alpha in indices_up_to(bundle.base, max_order):
            if alpha.order == 0:
                continue
            for name, exp in zip(alpha.names, alpha.exponents):
                if exp > 0:
                    for p in component_map:
                        values[(p, alpha)] = diff(values[(p, _peeled(alpha, name))], Sym(name))
                    break
        for (p, alpha), val in values.items():
            bindings[jet_atom(p, alpha, vertical)] = val

    fill(sections, False, r)
    if variations is not None and s is not None:
        fill(variations, True, s)
    return bindings


def ref_iterated_partial(e: Expr, alpha: MultiIndex) -> Expr:
    for name, exp in zip(alpha.names, alpha.exponents):
        for _ in range(exp):
            e = diff(e, Sym(name))
    return e


def ref_fiberwise_prolongation(f: BaseMorphism, r: int) -> dict:
    return {
        (a, beta): ref_iterated_partial(comp, beta)
        for beta in indices_up_to(f.source.fiber, r)
        for a, comp in f.components.items()
    }


def ref_fiberwise_jet(f: BaseMorphism, k: int, r: int) -> dict:
    names = f.source.base + f.source.fiber
    return {
        FiberwiseCoord(a, beta, gamma): ref_iterated_partial(val, gamma)
        for (a, beta), val in ref_fiberwise_prolongation(f, r).items()
        for gamma in indices_up_to(names, k)
    }


def ref_section_jet_reindex(s: SectionFamily, r: int) -> dict:
    bundle = s.bundle
    out = {}
    for alpha in indices_up_to(bundle.base, r):
        for a, comp in s.components.items():
            base_jet = ref_iterated_partial(comp, alpha)
            for beta in indices_up_to(bundle.fiber, r - alpha.order):
                out[(a, alpha, beta)] = ref_iterated_partial(base_jet, beta)
    return out


def ref_associated_jet_map(f: BaseMorphism) -> dict:
    src = f.source
    zero = src.zero_index()
    out = {}
    for a, comp in f.components.items():
        out[(a, zero)] = comp
        for name in src.base:
            val = diff(comp, Sym(name))
            for p in src.fiber:
                val = val + diff(comp, Sym(p)) * Expr.atom(jet_atom(p, MultiIndex.unit(src.base, name)))
            out[(a, zero.incremented(name))] = val
    return out


def ref_check_operator_order(f: BaseMorphism, g: BaseMorphism, k: int, point: dict) -> tuple:
    """``(precondition_met, conclusion_holds)`` of the depth-first walk."""
    src = f.source
    freeze = {Sym(n): Expr.const(point[n]) for n in src.base + src.fiber}
    jf, jg = ref_fiberwise_jet(f, k, 1), ref_fiberwise_jet(g, k, 1)
    if any(substitute(jf[coord], freeze) != substitute(jg[coord], freeze) for coord in jf):
        return False, None
    hf, hg = ref_associated_jet_map(f), ref_associated_jet_map(g)
    fiber_directions = [Sym(p) for p in src.fiber] + [
        jet_atom(p, MultiIndex.unit(src.base, name)) for p in src.fiber for name in src.base
    ]
    for slot in sorted(hf, key=lambda t: (t[0], t[1].sort_key())):
        stack = [(hf[slot], hg[slot], 0)]
        while stack:
            ef, eg, depth = stack.pop()
            if substitute(ef, freeze) != substitute(eg, freeze):
                return True, False
            if depth < k:
                for d in fiber_directions:
                    stack.append((diff(ef, d), diff(eg, d), depth + 1))
    return True, True


# -- drawn expressions with sin, inv and formal functions -------------------------


@st.composite
def exprs(draw, atoms: list) -> Expr:
    def monomial() -> Expr:
        term = Expr.const(Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 2))))
        for a in draw(st.lists(st.sampled_from(atoms), max_size=2)):
            term = term * Expr.atom(a)
        return term

    e = sum_exprs([monomial() for _ in range(draw(st.integers(1, 3)))])
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["sin", "inv", "formal"]))
        arg = monomial() + Expr.atom(draw(st.sampled_from(atoms)))
        if kind == "sin":
            f = sin(arg)
        elif kind == "inv":  # a multi-term reciprocal is an opaque atom; a^2 + 1 keeps it nonzero
            f = 1 / (arg + Expr.atom(draw(st.sampled_from(atoms))) ** 2 + 1)
        else:
            f = function(draw(st.sampled_from(["F", "G"])), arg, Expr.atom(draw(st.sampled_from(atoms))))
        e = e + monomial() * f
    return e


def same_terms(a: Expr, b: Expr) -> bool:
    """Equal term maps with equal term order."""
    return list(a._terms.items()) == list(b._terms.items())


def same_entries(new: dict, ref: dict) -> None:
    """Same keys in the same order; every value term for term, in order."""
    assert list(new) == list(ref)
    for key in ref:
        assert same_terms(new[key], ref[key]), key


def structurally_same(new: dict, ref: dict) -> None:
    assert list(new) == list(ref)
    assert all(new[key] == ref[key] for key in ref)


def base_atoms(bundle: BundleSpec) -> list:
    return [Sym(n) for n in bundle.base]


def total_space_atoms(bundle: BundleSpec) -> list:
    return [Sym(n) for n in bundle.base + bundle.fiber]


# -- properties ------------------------------------------------------------------


@given(st.integers(1, 3), st.integers(0, 3))
def test_graded_tower_order_and_steps(m, max_order):
    names = ("a", "b", "c")[:m]
    calls = []

    def step(below: MultiIndex, successor_names: tuple, order: int) -> list[MultiIndex]:
        calls.append(below)
        assert order == below.order + 1
        # the successor names are distinct, in range order
        positions = [names.index(name) for name in successor_names]
        assert positions == sorted(set(positions))
        above = [below.incremented(name) for name in successor_names]
        # each entry is stepped to from alpha minus the unit of its first nonzero exponent
        for alpha, i in zip(above, positions):
            assert next(j for j, e in enumerate(alpha.exponents) if e) == i
        return above

    zero = MultiIndex.zero(names)
    tower = graded_tower(names, max_order, zero, step)
    assert list(tower) == list(indices_up_to(names, max_order))
    assert all(alpha == entry for alpha, entry in tower.items())
    # one call per entry that has entries above it, in tower order
    assert calls == [beta for beta in tower if beta.order < max_order]


def test_holonomic_prolongation_walks_each_coefficient_once_per_entry(monkeypatch):
    u, v, x, y, t = (Expr.atom(Sym(n)) for n in ("u", "v", "x", "y", "t"))
    ux, vy, ut = (Expr.atom(jet_atom(p, MultiIndex.unit(SPACE.base, d))) for p, d in (("u", "x"), ("v", "y"), ("u", "t")))
    # no coefficient vanishes under two total derivatives in any directions
    coeffs = {(1,): u * u * ux + x * v, (2,): sin(u) * vy + y * u, (3,): v**3 * ut + t * u * v}
    phi = Morphism(SPACE, 1, None, Form(1, SPACE.base, coeffs))
    walks = []
    real = varjet.jetcalc.partials
    monkeypatch.setattr(varjet.jetcalc, "partials", lambda e, accept: walks.append(e) or real(e, accept))
    holonomic_prolongation(phi, 1)
    assert len(walks) == 3  # one per coefficient, not one per coefficient and direction
    walks.clear()
    family = holonomic_prolongation(phi, 2)
    stepped = [beta for beta in family if beta.order < 2]
    assert len(walks) == sum(len(family[beta].coeffs) for beta in stepped) == 3 * len(stepped) == 12


def test_index_lists_are_built_once():
    names = ("a", "b")
    once = indices_up_to(names, 3)
    assert isinstance(once, tuple)
    assert indices_up_to(("a", "b"), 3) is once


def test_graded_tower_below_order_zero_is_empty():
    def step(*_):
        raise AssertionError("no entry to step from")

    assert graded_tower(("a", "b"), -1, "seed", step) == {}


@given(st.integers(1, 3))
def test_graded_tower_at_order_zero_holds_the_seed(m):
    names = ("a", "b", "c")[:m]

    def step(*_):
        raise AssertionError("no entry to step to")

    assert graded_tower(names, 0, "seed", step) == {MultiIndex.zero(names): "seed"}


@given(st.data(), st.integers(0, 1), st.sampled_from([None, 0, 1]), st.integers(0, 2))
def test_holonomic_prolongation_matches_peel_loop(data, r, s, k):
    if s is not None and s > r:
        s = r
    atoms = base_atoms(BUNDLE) + [jet_atom(p, a) for a in indices_up_to(BUNDLE.base, r) for p in BUNDLE.fiber]
    if s is not None:
        atoms += [jet_atom(p, a, vertical=True) for a in indices_up_to(BUNDLE.base, s) for p in BUNDLE.fiber]
    coeffs = {(1,): data.draw(exprs(atoms)), (2,): data.draw(exprs(atoms))}
    phi = Morphism(BUNDLE, r, s, Form(1, BUNDLE.base, coeffs))
    new, ref = holonomic_prolongation(phi, k), ref_holonomic_prolongation(phi, k)
    assert list(new) == list(ref)
    for beta in ref:
        same_entries(dict(new[beta].coeffs), dict(ref[beta].coeffs))


@given(st.data(), st.integers(0, 3))
def test_flow_prolongation_matches_peel_loop(data, s):
    atoms = total_space_atoms(BUNDLE)
    # components given out of fiber order: the zero entries keep it, the rest follow the fiber
    eta = VerticalField(BUNDLE, {"v": data.draw(exprs(atoms)), "u": data.draw(exprs(atoms))})
    same_entries(flow_prolongation(eta, s), ref_flow_prolongation(eta, s))


@given(st.data(), st.integers(0, 3), st.sampled_from([None, 0, 1, 2]))
def test_section_bindings_match_peel_loop(data, r, s):
    atoms = base_atoms(BUNDLE)
    sections = {p: data.draw(exprs(atoms)) for p in BUNDLE.fiber}
    variations = {p: data.draw(exprs(atoms)) for p in BUNDLE.fiber} if data.draw(st.booleans()) else None
    same_entries(section_bindings(BUNDLE, sections, variations, r, s), ref_section_bindings(BUNDLE, sections, variations, r, s))


@given(st.data(), st.integers(0, 2))
def test_fiberwise_prolongation_matches_iterated_partials(data, r):
    f = BaseMorphism(SOURCE, ("z", "w"), {a: data.draw(exprs(total_space_atoms(SOURCE))) for a in ("z", "w")})
    structurally_same(fiberwise_prolongation(f, r), ref_fiberwise_prolongation(f, r))


@given(st.data(), st.integers(0, 2), st.integers(0, 1))
def test_fiberwise_jet_matches_iterated_partials(data, k, r):
    f = BaseMorphism(SOURCE, ("z",), {"z": data.draw(exprs(total_space_atoms(SOURCE)))})
    structurally_same(fiberwise_jet(f, k, r), ref_fiberwise_jet(f, k, r))


@given(st.data(), st.integers(0, 2))
def test_section_jet_reindex_matches_iterated_partials(data, r):
    s = SectionFamily(TOWER, {a: data.draw(exprs(total_space_atoms(TOWER))) for a in TOWER.second})
    structurally_same(section_jet_reindex(s, r), ref_section_jet_reindex(s, r))


@given(st.data(), st.sampled_from([SOURCE, PLANE, BundleSpec(("x",), ("q", "p"))]))
def test_associated_jet_map_matches_chain_rule(data, source):
    f = BaseMorphism(source, ("z", "w"), {a: data.draw(exprs(total_space_atoms(source))) for a in ("z", "w")})
    new, ref = associated_jet_map(f), ref_associated_jet_map(f)
    if list(source.fiber) == sorted(source.fiber):
        same_entries(new, ref)
    else:  # the total derivative adds the fiber partials in atom order, not declaration order
        structurally_same(new, ref)


@given(st.data(), st.sampled_from([SOURCE, PLANE]), st.integers(0, 2), st.booleans())
def test_check_operator_order_matches_depth_first_walk(data, source, k, matched):
    atoms = total_space_atoms(source)
    point = {a.name: Fraction(data.draw(st.integers(-2, 2)), data.draw(st.integers(1, 2))) for a in atoms}
    f = BaseMorphism(source, ("z",), {"z": data.draw(exprs(atoms))})
    h = data.draw(exprs(atoms))
    if matched:  # k + 2 factors vanishing at the point: the fiberwise (k, 1)-jets agree there
        for a in data.draw(st.lists(st.sampled_from(atoms), min_size=k + 2, max_size=k + 2)):
            h = h * (Expr.atom(a) - point[a.name])
    g = BaseMorphism(source, ("z",), {"z": f.components["z"] + h})
    report = check_operator_order(f, g, k, point)
    assert (report.precondition_met, report.conclusion_holds) == ref_check_operator_order(f, g, k, point)
    if matched:
        assert report.precondition_met and report.conclusion_holds
