import pickle
from random import Random

import pytest

import varjet.expr
import varjet.jetcalc
from varjet.bundle import BundleSpec, CoordinateError, JetCoord, enumerate_jet_coordinates
from varjet.expr import Expr, Sym, sym
from varjet.forms import Form
from varjet.jetcalc import (
    Morphism,
    VerticalField,
    check_naturality,
    exterior_from_jet,
    flow_prolongation,
    formal_exterior_differential,
    formal_exterior_differential_direct,
    holonomic_prolongation,
    plug_vertical,
    total_derivative,
)
from varjet.multiindex import MultiIndex
from varjet.randgen import rand_morphism, rand_poly, rand_vertical_field
from varjet.checks import fed_consistency, fed_squares_to_zero, naturality, total_derivatives_commute, chain_rule_on_sections

B1 = BundleSpec(("x",), ("u",))
x, u = sym("x"), sym("u")
ux = B1.jet("u", MultiIndex(("x",), (1,)))
uxx = B1.jet("u", MultiIndex(("x",), (2,)))
du = B1.jet("u", MultiIndex.zero(("x",)), vertical=True)
dux = B1.jet("u", MultiIndex(("x",), (1,)), vertical=True)


def scalar_morphism(e, bundle=B1, r=0, s=None):
    return Morphism(bundle, r, s, Form(0, bundle.base, {(): e}))


def test_total_derivative_examples():
    assert total_derivative(x * u, "x", B1, 0, None) == u + x * ux
    assert total_derivative(Expr.const(5), "x", B1, 0, None).is_zero
    assert total_derivative(u * du, "x", B1, 0, 0) == ux * du + u * dux


def test_total_derivative_rejects_unknown_symbols():
    with pytest.raises(CoordinateError):
        total_derivative(sym("w"), "x", B1, 0, None)
    with pytest.raises(CoordinateError):
        total_derivative(uxx, "x", B1, 1, None)
    with pytest.raises(CoordinateError):
        total_derivative(du, "x", B1, 0, None)


# -- the shift memo: one table, keyed by (atom, direction, base) --


def shifted_atoms(e, direction, bundle, r=0, s=None):
    return {a for a in total_derivative(e, direction, bundle, r, s).atoms() if isinstance(a, JetCoord)}


def test_shifts_follow_each_bundle_base():
    line, plane = BundleSpec(("x",), ("u",)), BundleSpec(("x", "y"), ("u",))
    for _ in range(2):  # alternate, so each call may find the other's entries
        for bundle in (line, plane, line):
            assert shifted_atoms(u * u, "x", bundle) == {JetCoord("u", MultiIndex.unit(bundle.base, "x"))}
    assert shifted_atoms(u, "y", plane) == {JetCoord("u", MultiIndex(("x", "y"), (0, 1)))}


def test_shifts_follow_an_over_fiber_view():
    tower = BundleSpec(("x",), ("u",), ("w",))
    plain = BundleSpec(("x",), ("w",))
    w = sym("w")
    for _ in range(2):
        for view in (tower.over_fiber(), plain, tower.over_fiber()):
            assert shifted_atoms(w * x, "x", view) == {JetCoord("w", MultiIndex.unit(view.base, "x"))}
    view = tower.over_fiber()
    assert total_derivative(w, "u", view, 0, None) == view.jet("w", MultiIndex.unit(view.base, "u"))


def test_the_shift_table_is_invisible():
    # A bundle stays a plain value after total derivatives: the memo is not on it.
    used = BundleSpec(("x", "y"), ("u",))
    total_derivative(u * x, "y", used, 0, None)
    total_derivative(u * u, "x", used, 0, None)
    fresh = BundleSpec(("x", "y"), ("u",))
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert pickle.dumps(used) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(used)) == fresh


def spy_on_jet_atom(monkeypatch):
    calls = []
    real = varjet.jetcalc.jet_atom
    monkeypatch.setattr(varjet.jetcalc, "jet_atom", lambda *args: calls.append(args) or real(*args))
    return calls


def test_a_repeated_total_derivative_builds_no_atom(monkeypatch):
    varjet.jetcalc._shifted.cache_clear()
    bundle = BundleSpec(("x", "y"), ("u", "v"))
    ux_ = bundle.jet("u", MultiIndex.unit(bundle.base, "x"))
    dv = bundle.jet("v", MultiIndex.zero(bundle.base), vertical=True)
    e = u * sym("v") ** 2 + ux_ * dv + x * u
    calls = spy_on_jet_atom(monkeypatch)
    first = total_derivative(e, "y", bundle, 1, 0)
    assert len(calls) == 4  # u, v, u_x and dv each shift once
    calls.clear()
    second = total_derivative(e, "y", bundle, 1, 0)
    assert calls == [] and list(second._terms.items()) == list(first._terms.items())


def test_an_equal_bundle_builds_no_atom(monkeypatch):
    # The memo is keyed by value, so a fresh view or an equal bundle built
    # per call finds the atoms an earlier one shifted to.
    varjet.jetcalc._shifted.cache_clear()
    tower = BundleSpec(("x",), ("u",), ("w", "z"))
    e = sym("w") * sym("z") * u
    calls = spy_on_jet_atom(monkeypatch)
    first = total_derivative(e, "u", tower.over_fiber(), 0, None)
    assert len(calls) == 2  # w and z each shift once
    calls.clear()
    assert total_derivative(e, "u", tower.over_fiber(), 0, None) == first
    assert total_derivative(e, "u", BundleSpec(("x", "u"), ("w", "z")), 0, None) == first
    assert calls == []


def test_holonomic_prolongation_identity_at_zero():
    phi = scalar_morphism(u * x)
    family = holonomic_prolongation(phi, 0)
    assert list(family.values()) == [phi.value]


def test_holonomic_prolongation_iterates():
    family = holonomic_prolongation(scalar_morphism(u), 2)
    values = {beta.order: form.coefficient(()) for beta, form in family.items()}
    assert values == {0: u, 1: ux, 2: uxx}


def test_holonomic_prolongation_with_vertical():
    family = holonomic_prolongation(scalar_morphism(u * du, s=0, r=0), 1)
    one = MultiIndex(("x",), (1,))
    assert family[one].coefficient(()) == ux * du + u * dux


def test_exterior_from_jet_classical_components():
    b2 = BundleSpec(("x", "y"), ("u",))
    a1 = rand_poly(Random(1), [Sym("x"), Sym("y"), Sym("u")])
    a2 = rand_poly(Random(2), [Sym("x"), Sym("y"), Sym("u")])
    phi = Morphism(b2, 0, None, Form(1, b2.base, {(1,): a1, (2,): a2}))
    result = formal_exterior_differential(phi)
    d1a2 = total_derivative(a2, "x", b2, 0, None)
    d2a1 = total_derivative(a1, "y", b2, 0, None)
    assert result.value == Form(2, b2.base, {(1, 2): d1a2 - d2a1})


def test_differential_of_function_zero_form():
    family = holonomic_prolongation(scalar_morphism(u * u), 1)
    form = exterior_from_jet(family)
    assert form == Form(1, ("x",), {(1,): 2 * u * ux})


def test_top_degree_differential_vanishes():
    phi = Morphism(B1, 1, None, Form(1, ("x",), {(1,): ux * u}))
    assert formal_exterior_differential(phi).value.is_zero


def test_fed_example():
    phi = scalar_morphism(u * du, r=0, s=0)
    image = formal_exterior_differential(phi)
    assert image.value == Form(1, ("x",), {(1,): ux * du + u * dux})
    assert (image.r, image.s) == (1, 1)


def test_fed_constant_is_zero():
    assert formal_exterior_differential(scalar_morphism(Expr.const(3))).value.is_zero


def test_fed_direct_matches():
    rng = Random(11)
    for _ in range(30):
        bundle = BundleSpec(("x", "y"), ("u", "v"))
        r = rng.randint(0, 2)
        s = rng.choice([None] + list(range(r + 1)))
        phi = rand_morphism(rng, bundle, r, s, rng.randint(0, 1))
        assert formal_exterior_differential(phi).value == formal_exterior_differential_direct(phi).value


def dense_first_order_morphism() -> Morphism:
    """Three coefficients at (r, s) = (1, 1) over three base and two fiber
    coordinates: 16 enumerated coordinates."""
    bundle = BundleSpec(("x", "y", "t"), ("u", "v"))
    rng = Random(3)
    atoms = enumerate_jet_coordinates(bundle, 1, 1) + [Sym(n) for n in bundle.base]
    coeffs = {(i,): rand_poly(rng, atoms, 6, 3) for i in (1, 2, 3)}
    return Morphism(bundle, 1, 1, Form(1, bundle.base, coeffs))


def test_fed_direct_takes_each_coordinate_partial_once(monkeypatch):
    phi = dense_first_order_morphism()
    assert len(phi.value.coeffs) == 3 and len(enumerate_jet_coordinates(phi.bundle, 1, 1)) == 16
    calls = []
    real = varjet.jetcalc.diff
    monkeypatch.setattr(varjet.jetcalc, "diff", lambda e, a: calls.append(a) or real(e, a))
    formal_exterior_differential_direct(phi)
    # per coefficient: 16 coordinate partials, then one base partial per direction
    assert len(calls) == 3 * (16 + 3) == 57


def test_fed_direct_shares_nothing_with_the_prolongation_route(monkeypatch):
    phi = dense_first_order_morphism()
    expected = formal_exterior_differential(phi)

    def refuse(*_):
        raise AssertionError("the direct route must not reach the prolongation route's helpers")

    monkeypatch.setattr(varjet.expr, "partials", refuse)
    for name in ("partials", "_total_derivatives", "_shifted"):
        monkeypatch.setattr(varjet.jetcalc, name, refuse)
    direct = formal_exterior_differential_direct(phi)
    assert direct.value == expected.value and (direct.r, direct.s) == (expected.r, expected.s)


def test_flow_prolongation_examples():
    eta = VerticalField(B1, {"u": u})
    flow = flow_prolongation(eta, 1)
    assert flow[("u", MultiIndex(("x",), (0,)))] == u
    assert flow[("u", MultiIndex(("x",), (1,)))] == ux

    const = VerticalField(B1, {"u": Expr.const(4)})
    flow_const = flow_prolongation(const, 2)
    assert flow_const[("u", MultiIndex(("x",), (0,)))] == Expr.const(4)
    assert flow_const[("u", MultiIndex(("x",), (1,)))].is_zero
    assert flow_const[("u", MultiIndex(("x",), (2,)))].is_zero

    linear = VerticalField(B1, {"u": x})
    assert flow_prolongation(linear, 1)[("u", MultiIndex(("x",), (1,)))] == Expr.const(1)


def test_plug_vertical_examples():
    eta = VerticalField(B1, {"u": u})
    assert plug_vertical(scalar_morphism(u * du, r=0, s=0), eta).value.coefficient(()) == u * u
    untouched = scalar_morphism(u * x, r=1, s=1)
    assert plug_vertical(untouched, eta).value == untouched.value
    phi = Morphism(B1, 1, 1, Form(0, ("x",), {(): dux}))
    assert plug_vertical(phi, eta).value.coefficient(()) == ux


def test_plug_vertical_requires_vertical_argument():
    with pytest.raises(ValueError):
        plug_vertical(scalar_morphism(u), VerticalField(B1, {"u": u}))


def test_naturality_example():
    phi = scalar_morphism(u * du, r=0, s=0)
    eta = VerticalField(B1, {"u": u})
    report = check_naturality(phi, eta, 1)
    assert report.holds
    lhs = holonomic_prolongation(plug_vertical(phi, eta), 1)
    one = MultiIndex(("x",), (1,))
    assert lhs[one].coefficient(()) == 2 * u * ux


def test_naturality_trivial_at_zero_order():
    rng = Random(5)
    phi = rand_morphism(rng, B1, 1, 1, 0)
    eta = rand_vertical_field(rng, B1)
    assert check_naturality(phi, eta, 0).holds


def test_vertical_field_validation():
    with pytest.raises(CoordinateError):
        VerticalField(B1, {"u": ux})
    with pytest.raises(ValueError):
        VerticalField(B1, {"v": u})


def test_morphism_validation():
    with pytest.raises(CoordinateError):
        Morphism(B1, 0, None, Form(0, ("x",), {(): ux}))
    with pytest.raises(ValueError):
        Morphism(B1, 0, 1, Form(0, ("x",), {(): u}))


def test_fed_preserves_vertical_linearity():
    # order-zero-linear vertical dependence stays linear in the vertical block
    rng = Random(23)
    for _ in range(20):
        bundle = BundleSpec(("x", "y"), ("u",))
        coeff = rand_poly(rng, [Sym("x"), Sym("y"), Sym("u")] + enumerate_jet_coordinates(bundle, 1, None))
        phi = Morphism(bundle, 1, 0, Form(1, bundle.base, {(1,): coeff * Expr.atom(JetCoord("u", MultiIndex.zero(bundle.base), True))}))
        image = formal_exterior_differential(phi)
        for _, c in image.value.items():
            for mono, _ in c.terms():
                vertical_degree = sum(k for a, k in mono if isinstance(a, JetCoord) and a.vertical)
                assert vertical_degree == 1


def test_randomized_suites():
    assert fed_consistency(seed=1, cases=40).passed
    assert fed_squares_to_zero(seed=1, cases=40).passed
    assert total_derivatives_commute(seed=1, cases=20).passed
    assert naturality(seed=1, cases=25).passed
    assert chain_rule_on_sections(seed=1, cases=20).passed
