import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from varjet.bundle import jet_atom
from varjet.expr import (
    Expr,
    FuncAtom,
    Sym,
    cos,
    diff,
    evaluate,
    exp,
    function,
    ln,
    sin,
    substitute,
    sum_exprs,
    sym,
)
from varjet.multiindex import MultiIndex
from varjet.parser import MAX_NESTING
from varjet.render import expr_latex

x, y, u, v = sym("x"), sym("y"), sym("u"), sym("v")
X, Y, U, V = Sym("x"), Sym("y"), Sym("u"), Sym("v")
ATOMS = [X, Y, U, V]
# positional and vertical jet atoms over the base (x, y)
JET_ATOMS = [
    jet_atom("u", MultiIndex(("x", "y"), (1, 0))),
    jet_atom("u", MultiIndex(("x", "y"), (1, 1))),
    jet_atom("v", MultiIndex(("x", "y"), (0, 1)), vertical=True),
    jet_atom("u", MultiIndex(("x", "y"), (0, 0)), vertical=True),
]


@st.composite
def polys(draw, max_terms=4, max_degree=3):
    e = Expr.const(0)
    for _ in range(draw(st.integers(1, max_terms))):
        term = Expr.const(draw(st.integers(-4, 4)))
        for a in draw(st.lists(st.sampled_from(ATOMS), max_size=max_degree)):
            term = term * Expr.atom(a)
        e = e + term
    return e


@st.composite
def smooth_exprs(draw):
    """Polynomials optionally wrapping elementary functions of polynomials."""
    e = draw(polys())
    if draw(st.booleans()):
        wrapper = draw(st.sampled_from([sin, cos, exp]))
        e = e + wrapper(draw(polys(max_terms=2, max_degree=2)))
    return e


def test_power_rule():
    assert diff(u * u, U) == 2 * u


def test_chain_rule_on_atom():
    assert diff(x * sin(u), U) == x * cos(u)


def test_constant_derivative():
    assert diff(Expr.const(7), X).is_zero


def test_zero_identity():
    assert ((u + 1) ** 2 - u * u - 2 * u - 1).is_zero


def test_commutativity_merge():
    assert u * x + x * u == 2 * x * u


def test_atom_power_merge():
    e = sin(u) * sin(u)
    ((mono, coeff),) = e.terms()
    assert coeff == 1
    ((atom, power),) = mono
    assert power == 2 and isinstance(atom, FuncAtom)


def test_substitute_direct():
    big_x = sym("v")
    assert substitute(big_x * u, {Sym("v"): u}) == u * u


def test_substitute_untouched():
    e = u + v
    assert substitute(e, {Sym("w"): x}) == e


def test_substitute_simultaneous_swap():
    assert substitute(u + v, {U: v, V: u}) == u + v


def test_substitute_inside_function_arguments():
    assert substitute(sin(u), {U: x + 1}) == sin(x + 1)


def test_formal_function_derivatives():
    e = function("V", u)
    first = diff(e, U)
    second = diff(first, U)
    assert str(first) == "V'(u)"
    assert str(second) == "V''(u)"
    assert diff(e, X).is_zero


def test_formal_multi_argument_chain_rule():
    e = function("W", x, u * u)
    d = diff(e, U)
    assert d == 2 * u * Expr.atom(FuncAtom("W", (x, u * u), (0, 1)))


def test_ln_and_inverse():
    assert diff(ln(u), U) == u ** -1
    g = u + 1
    d = diff(ln(g), U)
    assert d == g.inverse()
    # reciprocals of sums are opaque atoms: sound for zero testing, but
    # g * (1/g) is deliberately not collapsed to 1
    assert g.inverse() * g.inverse() == g.inverse() ** 2
    assert not (g * g.inverse() - 1).is_zero


def test_division_semantics():
    assert (u / 2) * 2 == u
    assert (x / u) * u == x
    with pytest.raises(ZeroDivisionError):
        u / Expr.const(0)


def test_integer_powers():
    assert u**0 == Expr.const(1)
    assert (2 * u) ** 3 == 8 * u * u * u
    assert u**-2 * u**2 == Expr.const(1)
    with pytest.raises(TypeError):
        u ** Fraction(1, 2)


def test_a_power_squares_only_while_bits_remain(monkeypatch):
    # Square-and-multiply: one product per set bit of k, one squaring per
    # bit after the first, and no squaring after the last bit is read.
    calls = []
    real = Expr.__mul__
    monkeypatch.setattr(Expr, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    e = u + x
    for k in range(1, 10):
        calls.clear()
        e**k
        assert len(calls) == k.bit_count() + k.bit_length() - 1
def test_rational_coefficients_exact():
    e = Fraction(1, 3) * u + Fraction(1, 6) * u
    assert e == Fraction(1, 2) * u


@pytest.mark.parametrize(
    "build",
    [
        lambda: u * Fraction(1, 2) * 2,
        lambda: u / 2 + u / 2,
        lambda: sum_exprs([u / 3, u / 3, u / 3]),
        lambda: (u / 2 + Fraction(1, 2)) * (2 * u + 2),
        lambda: diff(u**2 / 2, U),
        lambda: diff(sin(u**2 / 2), U),
    ],
    ids=["monomial product", "sum", "sum_exprs", "product of sums", "diff", "chain rule"],
)
def test_integral_results_are_stored_as_int(build):
    assert all(type(c) is int for c in build()._terms.values())


def test_product_by_one_keeps_each_coefficient():
    e = u / 3 + v * Fraction(5, 2)
    product = e * Expr.atom(X)
    assert list(product._terms.values()) == [Fraction(1, 3), Fraction(5, 2)]
    assert all(c is d for c, d in zip(product._terms.values(), e._terms.values()))


def test_evaluate():
    val = evaluate(u**2 + 2 * x, {U: 3.0, X: 0.5})
    assert val == 10.0
    with pytest.raises(Exception):
        evaluate(function("V", u), {U: 1.0})


@given(polys())
def test_construction_is_canonical(e):
    assert Expr(dict(e._terms)) == e


@given(polys())
def test_zero_decision_on_polynomials(e):
    assert (e - e).is_zero
    assert e - e == Expr.const(0)


@st.composite
def wide_exprs(draw):
    """Polynomials over coordinate and jet atoms plus elementary, reciprocal
    and formal function factors of such polynomials, nested up to twice."""
    atoms = st.sampled_from(ATOMS + JET_ATOMS)

    def poly(max_terms: int) -> Expr:
        terms = []
        for _ in range(draw(st.integers(1, max_terms))):
            term = Expr.const(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2))))
            for a in draw(st.lists(atoms, max_size=2)):
                term = term * Expr.atom(a)
            terms.append(term)
        return sum_exprs(terms)

    def factor(depth: int) -> Expr:
        arg = poly(2) + Expr.atom(draw(atoms))
        if depth and draw(st.booleans()):
            arg = arg * factor(depth - 1)
        kind = draw(st.sampled_from(["sin", "cos", "exp", "ln", "inv", "formal"]))
        if kind == "inv":  # a^2 + 1 keeps the multi-term reciprocal nonzero
            return 1 / (arg + Expr.atom(draw(atoms)) ** 2 + 1)
        if kind == "formal":
            return function(draw(st.sampled_from(["F", "G"])), arg, Expr.atom(draw(atoms)))
        return {"sin": sin, "cos": cos, "exp": exp, "ln": ln}[kind](arg)

    e = poly(4)
    for _ in range(draw(st.integers(0, 3))):
        e = e + poly(2) * factor(1)
    return e


@given(wide_exprs(), st.sampled_from(ATOMS + JET_ATOMS), st.sampled_from(ATOMS + JET_ATOMS))
def test_mixed_partials_commute(e, a, b):
    assert diff(diff(e, a), b) == diff(diff(e, b), a)


@given(smooth_exprs(), smooth_exprs(), st.sampled_from(ATOMS))
def test_leibniz(e, f, a):
    assert diff(e * f, a) == diff(e, a) * f + e * diff(f, a)


@given(polys(), polys(max_terms=2, max_degree=2))
def test_substitution_chain_rule(e, g):
    # e in u and x only; composing u -> g(x, y) then differentiating by x
    e = substitute(e, {Y: Expr.const(1), V: Expr.const(2)})
    lhs = diff(substitute(e, {U: g}), X)
    rhs = substitute(diff(e, U), {U: g}) * diff(g, X) + substitute(diff(e, X), {U: g})
    assert lhs == rhs


@given(polys())
def test_hash_consistency(e):
    assert hash(e + 0) == hash(e)
    assert e + 0 == e


def test_term_order_deterministic():
    e = -u - Expr.atom(Sym("x")) + 3
    assert str(e) == "3 - u - x"


def test_structural_immutability():
    e = u + x
    with pytest.raises(AttributeError):
        e._terms = {}
    with pytest.raises(AttributeError):
        e.anything = 1


def test_a_function_nest_at_the_parser_limit():
    # each label is spelled once, from the labels one level down
    e = u
    for _ in range(MAX_NESTING):
        e = sin(e)
    text = "sin(" * MAX_NESTING + "u" + ")" * MAX_NESTING
    assert str(e) == repr(e) == text
    assert expr_latex(e) == r"\sin\left(" * MAX_NESTING + "u" + r"\right)" * MAX_NESTING
    rebuilt = u
    for _ in range(MAX_NESTING):
        rebuilt = sin(rebuilt)
    assert rebuilt == e and hash(rebuilt) == hash(e)
    copy = pickle.loads(pickle.dumps(e))
    assert copy == e and hash(copy) == hash(e) and str(copy) == text
