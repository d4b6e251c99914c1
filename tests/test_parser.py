from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from varjet.bundle import BundleSpec, enumerate_jet_coordinates
from varjet.expr import Expr, Sym, function, sym
from varjet.forms import Form
from varjet.multiindex import MultiIndex
from varjet.parser import MAX_NESTING, ParseContext, ParseError, parse_expression, parse_form_value

B1 = BundleSpec(("x",), ("u",))
B2 = BundleSpec(("x", "y"), ("u", "v"))
CTX1 = ParseContext(B1, r=1)
CTX2 = ParseContext(B2, r=2, s=1)


def test_harmonic_density_round_trip():
    e = parse_expression("1/2*(u_x^2 - u^2)", CTX1)
    ux = B1.jet("u", MultiIndex(("x",), (1,)))
    assert e == Fraction(1, 2) * (ux**2 - sym("u") ** 2)
    assert parse_expression(str(e), CTX1) == e


def test_explicit_multiindex():
    ctx = ParseContext(B1, r=2)
    assert parse_expression("u[2]", ctx) == B1.jet("u", MultiIndex(("x",), (2,)))
    assert parse_expression("u[1,1]", CTX2) == B2.jet("u", MultiIndex(B2.base, (1, 1)))


def test_unknown_coordinate_rejected():
    with pytest.raises(ParseError):
        parse_expression("u_t", CTX1)
    with pytest.raises(ParseError):
        parse_expression("w", CTX1)
    with pytest.raises(ParseError):
        parse_expression("q(u)", CTX1)


def test_order_limits_enforced():
    with pytest.raises(ParseError):
        parse_expression("u_xx", CTX1)
    with pytest.raises(ParseError):
        parse_expression("du", CTX1)  # no vertical argument declared
    with pytest.raises(ParseError):
        parse_expression("du_xx", CTX2)  # vertical order capped at 1


def test_vertical_coordinates():
    assert parse_expression("du_x", CTX2) == B2.jet("u", MultiIndex(B2.base, (1, 0)), vertical=True)
    assert parse_expression("dv", CTX2) == B2.jet("v", MultiIndex.zero(B2.base), vertical=True)


def test_decimal_literals_exact():
    assert parse_expression("0.25*u", CTX1) == Fraction(1, 4) * sym("u")


def test_functions():
    ctx = ParseContext(B1, r=1, functions={"V": 1, "W": 2})
    assert parse_expression("V(u)", ctx) == function("V", sym("u"))
    assert parse_expression("W(x, u)", ctx) == function("W", sym("x"), sym("u"))
    assert parse_expression("sin(u)^2", ctx) is not None
    with pytest.raises(ParseError):
        parse_expression("V(u, x)", ctx)


def test_syntax_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expression("u +* 2", CTX1)
    assert err.value.line == 1 and err.value.col == 4
    with pytest.raises(ParseError) as err2:
        parse_expression("u + $", CTX1, line=3, col=10)
    assert err2.value.line == 3


def test_form_values():
    f = parse_form_value("u_x dx[1] + u_y dx[2]", CTX2)
    assert f.degree == 1
    assert f.coefficient((2,)) == B2.jet("u", MultiIndex(B2.base, (0, 1)))
    wedge2 = parse_form_value("u dx[2,1]", CTX2)
    assert wedge2.coefficient((1, 2)) == -sym("u")
    scalar = parse_form_value("u*v", CTX2)
    assert scalar.degree == 0
    with pytest.raises(ParseError):
        parse_form_value("u dx[1] + v dx[1,2]", CTX2)
    with pytest.raises(ParseError):
        parse_form_value("u dx[3]", CTX2)


def test_trailing_junk_rejected():
    with pytest.raises(ParseError):
        parse_expression("u 2", CTX1)


def test_division_by_zero_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_expression("u/0", CTX1)
    with pytest.raises(ParseError):
        parse_expression("u/(1 - 1)", CTX1)


def test_nesting_depth_is_bounded():
    ctx = ParseContext(B1, r=1, functions={"F": 1})
    u = sym("u")
    assert parse_expression("(" * MAX_NESTING + "u" + ")" * MAX_NESTING, ctx) == u
    assert parse_expression("F(" * MAX_NESTING + "u" + ")" * MAX_NESTING, ctx).atoms() >= {Sym("u")}
    for opening in ("(", "F(", "sin(", "(F("):
        depth = MAX_NESTING + 1
        text = opening * depth + "u" + ")" * (depth * opening.count("("))
        with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING}"):
            parse_expression(text, ctx)


def test_long_sign_chains_parse_without_recursion():
    assert parse_expression("-" * 3000 + "u", CTX1) == sym("u")
    assert parse_expression("-+" * 1501 + "u", CTX1) == -sym("u")


@st.composite
def random_exprs(draw):
    atoms = [Sym("x"), Sym("y"), Sym("u"), Sym("v")] + enumerate_jet_coordinates(B2, 2, 1)
    e = Expr.const(0)
    for _ in range(draw(st.integers(1, 4))):
        coeff = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 2, 3])))
        term = Expr.const(coeff)
        for a in draw(st.lists(st.sampled_from(atoms), max_size=3)):
            term = term * Expr.atom(a)
        e = e + term
    return e


@given(random_exprs())
def test_render_parse_round_trip(e):
    assert parse_expression(str(e), CTX2) == e
