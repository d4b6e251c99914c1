from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from varjet.expr import Expr, function, sin, sym
from varjet.fiberwise import BaseMorphism, SectionFamily
from varjet.jetcalc import Morphism, VerticalField
from varjet.parser import ParseError
from varjet.specfile import load_specfile
from varjet.variational import Lagrangian

FULL = """
# demonstration tower
[bundle]
base = x
fiber = p
second = z
functions = V/1

[define]
lagrangian L = (1/2*p_x^2 - V(p)) dx[1]
morphism B over=fiber r=0 s=0 = z*dz
vertical eta = p
section s = x + p^2
variation w = z
basemorphism f = x*p^2

[task]
el L
commute B s w
fjet f k=1 r=1
"""


def test_full_file_loads():
    spec = load_specfile(FULL)
    assert spec.bundle.base == ("x",) and spec.bundle.second == ("z",)
    assert isinstance(spec.find("lagrangian", "L").obj, Lagrangian)
    assert isinstance(spec.find("morphism", "B").obj, Morphism)
    assert isinstance(spec.find("vertical", "eta").obj, VerticalField)
    assert isinstance(spec.find("section", "s").obj, SectionFamily)
    assert isinstance(spec.find("basemorphism", "f").obj, BaseMorphism)
    assert [t.command for t in spec.tasks] == ["el", "commute", "fjet"]
    assert spec.tasks[2].options == {"k": 1, "r": 1}


def test_over_fiber_view_used():
    spec = load_specfile(FULL)
    morphism = spec.find("morphism", "B").obj
    assert morphism.bundle.base == ("x", "p")
    assert morphism.bundle.fiber == ("z",)


def test_missing_bundle_section():
    with pytest.raises(ParseError):
        load_specfile("[define]\nlagrangian L = u dx[1]\n")


def test_unknown_kind_and_command():
    with pytest.raises(ParseError):
        load_specfile("[bundle]\nbase = x\nfiber = u\n[define]\nwidget W = u\n")
    with pytest.raises(ParseError):
        load_specfile("[bundle]\nbase = x\nfiber = u\n[task]\nfrobnicate L\n")


def test_duplicate_names_rejected():
    text = "[bundle]\nbase = x\nfiber = u\n[define]\nvertical a = u\nvertical a = x\n"
    with pytest.raises(ParseError):
        load_specfile(text)


def test_component_count_mismatch():
    text = "[bundle]\nbase = x\nfiber = u v\n[define]\nvertical eta = u\n"
    with pytest.raises(ParseError):
        load_specfile(text)


def test_parse_error_carries_file_position():
    text = "[bundle]\nbase = x\nfiber = u\n\n[define]\nlagrangian L = (u_y) dx[1]\n"
    with pytest.raises(ParseError) as err:
        load_specfile(text)
    assert err.value.line == 6


def test_morphism_requires_order():
    text = "[bundle]\nbase = x\nfiber = u\n[define]\nmorphism phi = u dx[1]\n"
    with pytest.raises(ParseError):
        load_specfile(text)


def test_section_requires_tower():
    text = "[bundle]\nbase = x\nfiber = u\n[define]\nsection s = x\n"
    with pytest.raises(ParseError):
        load_specfile(text)


def test_multi_component_definitions():
    text = "[bundle]\nbase = x\nfiber = u v\n[define]\nvertical eta = u + x, v^2\n"
    spec = load_specfile(text)
    eta = spec.find("vertical", "eta").obj
    assert set(eta.components) == {"u", "v"}


# -- component lists are parsed by the expression parser -------------------------

TOWER2 = "[bundle]\nbase = x y\nfiber = u v\nsecond = z w\nfunctions = F/2\n[define]\n"
X, Y, U, V = (sym(n) for n in "xyuv")


def test_commas_inside_brackets_and_calls_stay_in_their_component():
    spec = load_specfile(TOWER2 + "vertical eta = u[0,0] * F(u, v), ((x + F((u), (y))))\n")
    assert spec.find("vertical", "eta").obj.components == {"u": U * function("F", U, V), "v": X + function("F", U, Y)}
    spec = load_specfile(TOWER2 + "section s = F(x, F(u, v)), (y)\n")
    assert spec.find("section", "s").obj.components == {"z": function("F", X, function("F", U, V)), "w": Y}
    with pytest.raises(ParseError, match=r"^7:16: jet order 2 exceeds declared order 0$"):
        load_specfile(TOWER2 + "vertical eta = u[1,1], v\n")


@st.composite
def components(draw):
    """A polynomial over the order-zero coordinates of ``TOWER2``, plus
    multiples of ``sin``, reciprocal and nested two-argument formal factors,
    so that commas and parentheses sit inside the component."""

    def poly() -> Expr:
        e = Expr.const(0)
        for _ in range(draw(st.integers(1, 3))):
            term = Expr.const(Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2]))))
            for a in draw(st.lists(st.sampled_from([X, Y, U, V]), max_size=2)):
                term = term * a
            e = e + term
        return e

    e = poly()
    for kind in draw(st.lists(st.sampled_from(["sin", "inv", "F"]), max_size=3)):
        if kind == "sin":
            factor = sin(poly())
        elif kind == "inv":
            factor = 1 / (poly() ** 2 + 1)
        else:
            factor = function("F", poly(), function("F", poly(), poly()))
        e = e + poly() * factor
    return e


@given(st.sampled_from(["vertical", "section", "basemorphism"]), components(), components())
def test_rendered_components_load_back(kind, first, second):
    spec = load_specfile(TOWER2 + f"{kind} d = {first}, {second}\n")
    assert list(spec.definitions["d"].obj.components.values()) == [first, second]


@pytest.mark.parametrize(
    "value, error",
    [
        ("u, (v +)", "7:23: unexpected token ')'"),
        ("u, q", "7:19: unknown identifier 'q'"),
        ("u, ", "7:18: unexpected token 'end of input'"),
        ("u, , v", "7:19: unexpected token ','"),
    ],
)
def test_component_errors_carry_the_component_column(value, error):
    with pytest.raises(ParseError) as err:
        load_specfile(TOWER2 + f"vertical eta = {value}\n")
    assert str(err.value) == error


@pytest.mark.parametrize("kind", ["section", "variation", "basemorphism"])
def test_tower_kinds_name_themselves_without_a_second_fiber(kind):
    with pytest.raises(ParseError) as err:
        load_specfile(f"[bundle]\nbase = x\nfiber = u\n[define]\n{kind} d = x\n")
    assert str(err.value) == f"5:1: a {kind} needs a 2-fibered bundle (declare 'second')"
