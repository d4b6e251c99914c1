import pytest
from hypothesis import given, strategies as st

from varjet.expr import Expr, Sym, sym
from varjet.forms import DegreeError, Form, RangeError, interior_product, wedge
from varjet.render import form_text

NAMES = ("x", "y", "z")
x, u = sym("x"), sym("u")


def basis(*idx):
    return Form.basis(NAMES, *idx)


@st.composite
def forms(draw, max_degree=3):
    degree = draw(st.integers(0, max_degree))
    from itertools import combinations

    keys = list(combinations(range(1, len(NAMES) + 1), degree))
    coeffs = {}
    for key in keys:
        c = draw(st.integers(-3, 3))
        if c:
            coeffs[key] = Expr.const(c) * (u if draw(st.booleans()) else Expr.const(1))
    return Form(degree, NAMES, coeffs)


def test_repeated_index_dies():
    assert wedge(basis(1), basis(1)).is_zero


def test_transposition_sign():
    assert wedge(basis(2), basis(1)) == basis(1, 2).scale(Expr.const(-1))


def test_bilinearity():
    lhs = wedge(basis(1).scale(u), basis(2).scale(x))
    assert lhs == basis(1, 2).scale(u * x)


def test_mismatched_ranges():
    with pytest.raises(RangeError):
        wedge(basis(1), Form.basis(("x", "y"), 1))


def test_interior_first_slot():
    assert interior_product(1, basis(1, 2)) == basis(2)


def test_interior_second_slot_sign():
    assert interior_product(2, basis(1, 2)) == basis(1).scale(Expr.const(-1))


def test_interior_absent_index():
    assert interior_product(3, basis(1, 2)).is_zero


def test_interior_degree_error():
    with pytest.raises(DegreeError):
        interior_product(1, Form(0, NAMES, {(): u}))


def test_degree_beyond_range_is_zero():
    f = Form(4, NAMES, {})
    assert f.is_zero
    assert wedge(basis(1, 2), basis(2, 3)).is_zero


@given(forms(), forms(), forms())
def test_wedge_associative(a, b, c):
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@given(forms(), forms())
def test_graded_anticommutativity(a, b):
    sign = (-1) ** (a.degree * b.degree)
    assert wedge(a, b) == wedge(b, a).scale(Expr.const(sign))


@given(st.integers(1, 3), forms(max_degree=2), forms(max_degree=2))
def test_interior_antiderivation(j, a, b):
    if a.degree == 0 and b.degree == 0:
        return  # both scalars: the wedge is a 0-form, nothing to contract
    lhs = interior_product(j, wedge(a, b))
    if a.degree >= 1 and b.degree >= 1:
        expected = wedge(interior_product(j, a), b) + wedge(a, interior_product(j, b)).scale(
            Expr.const((-1) ** a.degree)
        )
    elif a.degree >= 1:
        expected = wedge(interior_product(j, a), b)
    else:
        expected = wedge(a, interior_product(j, b)).scale(Expr.const((-1) ** a.degree))
    assert lhs == expected


@given(st.integers(1, 3), forms(max_degree=3))
def test_double_contraction_vanishes(j, a):
    if a.degree < 2:
        return
    assert interior_product(j, interior_product(j, a)).is_zero


@given(forms())
def test_str_is_the_cli_rendering(a):
    assert str(a) == form_text(a)


def test_str_brackets_only_sums():
    f = basis(1).scale(u) + basis(2).scale(u + x) + basis(3).scale(-u)
    assert str(f) == "u dx[1] + (u + x) dx[2] + -u dx[3]"
    assert str(Form.zero(1, NAMES)) == "0" and str(Form(0, NAMES, {(): u + x})) == "u + x"
