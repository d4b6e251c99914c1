from fractions import Fraction
from random import Random

import pytest

from varjet.bundle import BundleSpec, CoordinateError, FiberwiseCoord
from varjet.expr import Expr, Sym, diff, sym
from varjet.fiberwise import (
    BaseMorphism,
    SectionFamily,
    associated_jet_map,
    check_functional_commutation,
    check_operator_order,
    fiberwise_jet,
    fiberwise_prolongation,
    section_jet_reindex,
    variation_along_section,
)
from varjet.forms import Form
from varjet.jetcalc import Morphism
from varjet.multiindex import MultiIndex
from varjet.checks import functional_commutation, graph_jet_identification, operator_order, section_reindex_linearity

SRC = BundleSpec(("x",), ("p",))
TOWER = BundleSpec(("x",), ("p",), ("z",))
x, p, z = sym("x"), sym("p"), sym("z")


def bm(expr):
    return BaseMorphism(SRC, ("z",), {"z": expr})


def test_fiberwise_prolongation_example():
    prolonged = fiberwise_prolongation(bm(x * p**2), 1)
    assert prolonged[("z", MultiIndex(("p",), (0,)))] == x * p**2
    assert prolonged[("z", MultiIndex(("p",), (1,)))] == 2 * x * p


def test_fiberwise_prolongation_constant():
    prolonged = fiberwise_prolongation(bm(Expr.const(5)), 3)
    assert prolonged[("z", MultiIndex(("p",), (0,)))] == Expr.const(5)
    assert all(v.is_zero for (a, beta), v in prolonged.items() if beta.order > 0)


def test_fiberwise_prolongation_r0_is_graph():
    prolonged = fiberwise_prolongation(bm(x * p), 0)
    assert list(prolonged.values()) == [x * p]


def test_fiberwise_jet_example():
    jets = fiberwise_jet(bm(x * p**2), 1, 1)
    both = ("x", "p")

    def entry(beta_exp, gamma_exps):
        return jets[FiberwiseCoord("z", MultiIndex(("p",), beta_exp), MultiIndex(both, gamma_exps))]

    assert entry((0,), (0, 0)) == x * p**2
    assert entry((1,), (0, 0)) == 2 * x * p
    assert entry((0,), (1, 0)) == p**2
    assert entry((0,), (0, 1)) == 2 * x * p
    assert entry((1,), (1, 0)) == 2 * p
    assert entry((1,), (0, 1)) == 2 * x


def test_fiberwise_jet_k0_reduces_to_prolongation():
    f = bm(x * p**3)
    jets = fiberwise_jet(f, 0, 2)
    prolonged = fiberwise_prolongation(f, 2)
    gamma0 = MultiIndex(("x", "p"), (0, 0))
    for (a, beta), value in prolonged.items():
        assert jets[FiberwiseCoord(a, beta, gamma0)] == value


def test_fiberwise_jet_linear_fiber_dependence():
    jets = fiberwise_jet(bm(x * p), 0, 2)
    for coord, value in jets.items():
        if coord.beta.order == 2:
            assert value.is_zero


def test_fiberwise_jet_mixed_partials_independent_of_order():
    f = bm(x**2 * p**3)
    jets = fiberwise_jet(f, 2, 2)
    # differentiate by hand in the opposite order
    by_hand = diff(diff(f.components["z"], Sym("p")), Sym("x"))
    coord = FiberwiseCoord("z", MultiIndex(("p",), (1,)), MultiIndex(("x", "p"), (1, 0)))
    assert jets[coord] == by_hand


def test_associated_jet_map_examples():
    zero = MultiIndex(("x",), (0,))
    one = MultiIndex(("x",), (1,))
    h = associated_jet_map(bm(p**2))
    p1 = SRC.jet("p", one)
    assert h[("z", zero)] == p**2
    assert h[("z", one)] == 2 * p * p1

    h2 = associated_jet_map(bm(x * x))
    assert h2[("z", one)] == 2 * x

    h3 = associated_jet_map(bm(x * p))
    assert h3[("z", one)] == p + x * p1


def test_operator_order_spec_example():
    # perturbation x*(x - x0)*p^3 has a vanishing fiberwise (1,1)-jet at x0 = 0
    f = bm(p**2)
    g = bm(p**2 + x * x * p**3)
    point = {"x": Fraction(0), "p": Fraction(2)}
    report = check_operator_order(f, g, 1, point)
    assert report.precondition_met and report.conclusion_holds


def test_operator_order_identical_maps():
    f = bm(x * p**2)
    report = check_operator_order(f, f, 2, {"x": Fraction(1), "p": Fraction(1, 2)})
    assert report.precondition_met and report.conclusion_holds


def test_operator_order_precondition_unmet_is_reported():
    f = bm(p**2)
    g = bm(p**2 + p)
    report = check_operator_order(f, g, 1, {"x": Fraction(0), "p": Fraction(1)})
    assert not report.precondition_met
    assert report.conclusion_holds is None
    assert not (report.precondition_met and report.conclusion_holds)


def test_section_jet_reindex_example():
    s = SectionFamily(TOWER, {"z": x + p**2})
    table = section_jet_reindex(s, 1)
    a0 = MultiIndex(("x",), (0,))
    a1 = MultiIndex(("x",), (1,))
    b0 = MultiIndex(("p",), (0,))
    b1 = MultiIndex(("p",), (1,))
    assert table[("z", a0, b0)] == x + p**2
    assert table[("z", a1, b0)] == Expr.const(1)
    assert table[("z", a0, b1)] == 2 * p
    assert ("z", a1, b1) not in table  # combined order capped


def test_section_jet_reindex_trivial_cases():
    s = SectionFamily(TOWER, {"z": x * p})
    assert list(section_jet_reindex(s, 0)) == [("z", MultiIndex(("x",), (0,)), MultiIndex(("p",), (0,)))]
    independent = SectionFamily(TOWER, {"z": x**2})
    table = section_jet_reindex(independent, 2)
    assert all(v.is_zero for (a, al, be), v in table.items() if be.order > 0)


def test_variation_resolves_top_coordinates():
    s = SectionFamily(TOWER, {"z": x + p**2})
    reduced = variation_along_section(s, {"z": z})
    assert reduced["z"] == x + p**2
    direct = variation_along_section(s, {"z": x * p})
    assert direct["z"] == x * p


def test_functional_commutation_example():
    view = TOWER.over_fiber()
    dz = view.jet("z", MultiIndex.zero(view.base), vertical=True)
    morphism = Morphism(view, 0, 0, Form(0, view.base, {(): z * dz}))
    s = SectionFamily(TOWER, {"z": x + p**2})
    assert check_functional_commutation(morphism, s, {"z": z})


def test_functional_commutation_constant():
    view = TOWER.over_fiber()
    morphism = Morphism(view, 0, 0, Form(0, view.base, {(): Expr.const(2)}))
    s = SectionFamily(TOWER, {"z": x * p})
    assert check_functional_commutation(morphism, s, {"z": p})


def test_functional_commutation_requires_vertical():
    view = TOWER.over_fiber()
    morphism = Morphism(view, 0, None, Form(0, view.base, {(): z}))
    s = SectionFamily(TOWER, {"z": x})
    with pytest.raises(ValueError):
        check_functional_commutation(morphism, s, {"z": z})


def test_section_family_validation():
    with pytest.raises(ValueError):
        SectionFamily(SRC, {"z": x})
    with pytest.raises(CoordinateError):
        SectionFamily(TOWER, {"z": z})  # top coordinate not allowed in components


def test_base_morphism_validation():
    with pytest.raises(ValueError):
        BaseMorphism(SRC, ("z",), {"w": x})
    with pytest.raises(CoordinateError):
        BaseMorphism(SRC, ("z",), {"z": z})


def test_randomized_suites():
    assert operator_order(seed=3, cases=15).passed
    assert graph_jet_identification(seed=3, cases=10).passed
    assert functional_commutation(seed=3, cases=15).passed
    assert section_reindex_linearity(seed=3, cases=10).passed
