"""The one-pass kernel against the atom-by-atom formulas it replaced.

The reference implementations below work on raw term dicts with the
original arithmetic: a dict-and-sort monomial product, sums built one ``+``
at a time (dropping cancelled monomials after each step), ``diff`` calling
the per-atom derivative on every factor, and the total derivative as
``diff(e, x) + sum over atoms a, in sort order, of diff(e, a) * shift(a)``.
Results must agree term for term and in term order: numeric evaluation
sums in that order, so a reordering would change oracle floats.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from varjet.bundle import BundleSpec, JetCoord, enumerate_jet_coordinates, jet_atom
from varjet.expr import Expr, FuncAtom, Sym, cos, diff, exp, function, ln, partials, sin, substitute, sum_exprs
from varjet.fiberwise import BaseMorphism, associated_jet_map
from varjet.forms import Form, wedge_basis_left
from varjet.jetcalc import Morphism, formal_exterior_differential_direct, holonomic_prolongation, total_derivative
from varjet.multiindex import MultiIndex, indices_up_to
from varjet.render import expr_latex, form_json

BUNDLE = BundleSpec(("x", "y"), ("u", "v"))
R, S = 2, 1  # declared orders of the drawn expressions
POSITIONAL = [jet_atom(p, a) for a in indices_up_to(BUNDLE.base, R) for p in BUNDLE.fiber]
VERTICAL = [jet_atom(p, a, vertical=True) for a in indices_up_to(BUNDLE.base, S) for p in BUNDLE.fiber]
ATOMS = [Sym("x"), Sym("y")] + POSITIONAL + VERTICAL


# -- reference arithmetic on term dicts ---------------------------------------


def ref_mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    merged = {}
    for atom, e in a:
        merged[atom] = e
    for atom, e in b:
        merged[atom] = merged.get(atom, 0) + e
    items = [(atom, e) for atom, e in merged.items() if e != 0]
    items.sort(key=lambda p: p[0])
    return tuple(items)


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c != 0}


def ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = ref_mono_mul(m1, m2)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def atom_terms(a) -> dict:
    return {((a, 1),): Fraction(1)}


def ref_slot_derivative(a: FuncAtom, j: int) -> dict:
    arg = a.args[j]
    if a.func == "sin":
        return cos(arg)._terms
    if a.func == "cos":
        return {m: -c for m, c in sin(arg)._terms.items()}
    if a.func == "exp":
        return atom_terms(a)
    if a.func == "ln":
        return arg.inverse()._terms
    if a.func == "inv":
        sq = ref_mul(atom_terms(a), atom_terms(a))
        return {m: -c for m, c in sq.items()}
    derivs = list(a.derivs)
    derivs[j] += 1
    return atom_terms(FuncAtom(a.func, a.args, tuple(derivs)))


def ref_atom_derivative(a, c) -> dict:
    if a == c:
        return {(): Fraction(1)}
    if not isinstance(a, FuncAtom):
        return {}
    total = {}
    for j, arg in enumerate(a.args):
        inner = ref_diff(arg._terms, c)
        if not inner:
            continue
        total = ref_add(total, ref_mul(ref_slot_derivative(a, j), inner))
    return total


def ref_diff(terms: dict, c) -> dict:
    out = {}
    for mono, coeff in terms.items():
        for i, (a, k) in enumerate(mono):
            da = ref_atom_derivative(a, c)
            if not da:
                continue
            rest = mono[:i] + mono[i + 1 :]
            if k == 1:
                part = {rest: coeff * k}
            else:
                part = {ref_mono_mul(rest, ((a, k - 1),)): coeff * k}
            for m, q in ref_mul(part, da).items():
                out[m] = out.get(m, Fraction(0)) + q
    return {m: c for m, c in out.items() if c != 0}


def ref_total_derivative(e: Expr, direction: str) -> dict:
    zero = BUNDLE.zero_index()
    out = ref_diff(e._terms, Sym(direction))
    for a in sorted(e.atoms()):
        if isinstance(a, Sym) and a.name in BUNDLE.fiber:
            shifted = jet_atom(a.name, zero.incremented(direction))
        elif isinstance(a, JetCoord):
            shifted = jet_atom(a.fiber, a.alpha.incremented(direction), a.vertical)
        else:
            continue
        part = ref_diff(e._terms, a)
        if part:
            out = ref_add(out, ref_mul(part, atom_terms(shifted)))
    return out


# -- drawn expressions ----------------------------------------------------------


@st.composite
def monomials(draw, atoms=ATOMS) -> Expr:
    coeff = Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 3)))
    term = Expr.const(coeff)
    for a in draw(st.lists(st.sampled_from(atoms), max_size=3)):
        term = term * Expr.atom(a)
    if draw(st.booleans()):  # a Laurent factor
        term = term * Expr.atom(draw(st.sampled_from(atoms))) ** -draw(st.integers(1, 2))
    return term


@st.composite
def polys(draw, max_terms=4, atoms=ATOMS) -> Expr:
    return sum_exprs(draw(st.lists(monomials(atoms), min_size=1, max_size=max_terms)))


@st.composite
def functions_of(draw, inner, atoms=ATOMS) -> Expr:
    kind = draw(st.sampled_from(["sin", "cos", "exp", "ln", "inv", "formal"]))
    arg = draw(inner)
    if kind == "inv":  # a multi-term reciprocal stays an opaque atom
        return 1 / (arg + draw(monomials(atoms)) + Expr.atom(draw(st.sampled_from(atoms))))
    if kind == "formal":  # arguments mix jet and vertical atoms
        second = Expr.atom(draw(st.sampled_from(POSITIONAL[2:] + VERTICAL if atoms is ATOMS else atoms)))
        return function(draw(st.sampled_from(["F", "G"])), arg, second * draw(monomials(atoms)))
    return {"sin": sin, "cos": cos, "exp": exp, "ln": ln}[kind](arg)


@st.composite
def exprs(draw, atoms=ATOMS) -> Expr:
    """Polynomials whose terms may carry (nested) function atoms."""
    e = draw(polys(atoms=atoms))
    for _ in range(draw(st.integers(0, 3))):
        inner = st.one_of(polys(max_terms=3, atoms=atoms), functions_of(polys(max_terms=2, atoms=atoms), atoms))
        f = draw(functions_of(inner, atoms))
        e = e + draw(monomials(atoms)) * f ** draw(st.integers(1, 2))
    return e


def same_terms(e: Expr, ref: dict) -> bool:
    """Equal term maps with equal term order."""
    return list(e._terms.items()) == list(ref.items())


# -- properties ------------------------------------------------------------------


@given(exprs(), st.sampled_from(BUNDLE.base))
def test_total_derivative_matches_atom_by_atom_formula(e, direction):
    assert same_terms(total_derivative(e, direction, BUNDLE, R, S), ref_total_derivative(e, direction))


# -- every direction from one walk ----------------------------------------------------
#
# The towers, the associated jet map and the direct fed route take every
# direction's derivative from shared partials.  Each must agree, term order
# and coefficient types included, with the per-direction formula: the base
# partial by ``diff``, then each coordinate's partial times its shifted atom,
# summed one ``+`` at a time (present coordinates in sorted order for the
# total derivative, the enumerated ones in enumeration order for the direct
# route).

TOTAL_SPACE = [Sym(n) for n in BUNDLE.base + BUNDLE.fiber]


def shift(a, direction: str):
    if isinstance(a, Sym):
        return jet_atom(a.name, BUNDLE.zero_index().incremented(direction))
    return jet_atom(a.fiber, a.alpha.incremented(direction), a.vertical)


def per_direction_total_derivative(e: Expr, direction: str) -> Expr:
    out = diff(e, Sym(direction))
    for a in sorted(e.atoms()):
        if isinstance(a, JetCoord) or (isinstance(a, Sym) and a.name in BUNDLE.fiber):
            out = out + diff(e, a) * Expr.atom(shift(a, direction))
    return out


def typed_terms(e: Expr) -> list:
    return [(m, c, type(c)) for m, c in e._terms.items()]


def assert_same_coeffs(new: dict, ref: dict) -> None:
    assert list(new) == list(ref)
    for key in ref:
        assert typed_terms(new[key]) == typed_terms(ref[key]), key


@given(exprs(), exprs(), st.integers(0, 2))
def test_holonomic_prolongation_matches_per_direction_formula(e1, e2, k):
    phi = Morphism(BUNDLE, R, S, Form(1, BUNDLE.base, {(1,): e1, (2,): e2}))
    family = holonomic_prolongation(phi, k)
    ref = {BUNDLE.zero_index(): dict(phi.value.coeffs)}
    for beta in indices_up_to(BUNDLE.base, k)[1:]:
        i = next(i for i, x in enumerate(beta.exponents) if x)
        below = MultiIndex(beta.names, beta.exponents[:i] + (beta.exponents[i] - 1,) + beta.exponents[i + 1 :])
        derived = {key: per_direction_total_derivative(c, BUNDLE.base[i]) for key, c in ref[below].items()}
        ref[beta] = {key: c for key, c in derived.items() if not c.is_zero}
    assert list(family) == list(ref)
    for beta in ref:
        assert_same_coeffs(dict(family[beta].coeffs), ref[beta])


@given(exprs(TOTAL_SPACE), exprs(TOTAL_SPACE))
def test_associated_jet_map_matches_per_direction_formula(e1, e2):
    f = BaseMorphism(BUNDLE, ("z", "w"), {"z": e1, "w": e2})
    ref = {}
    for a, comp in f.components.items():
        ref[(a, BUNDLE.zero_index())] = comp
        for name in BUNDLE.base:
            ref[(a, MultiIndex.unit(BUNDLE.base, name))] = per_direction_total_derivative(comp, name)
    assert_same_coeffs(associated_jet_map(f), ref)


@given(exprs(), exprs())
def test_fed_direct_matches_per_direction_formula(e1, e2):
    phi = Morphism(BUNDLE, R, S, Form(1, BUNDLE.base, {(1,): e1, (2,): e2}))
    coords = enumerate_jet_coordinates(BUNDLE, R, S)
    ref = Form.zero(2, BUNDLE.base)
    for i, name in enumerate(BUNDLE.base, start=1):
        coeffs = {}
        for key, c in phi.value.coeffs.items():
            out = diff(c, Sym(name))
            for a in coords:
                out = out + diff(c, a) * Expr.atom(shift(a, name))
            coeffs[key] = out
        ref = ref + wedge_basis_left(i, Form(1, BUNDLE.base, coeffs))
    direct = formal_exterior_differential_direct(phi)
    assert (direct.r, direct.s) == (R + 1, S + 1)
    assert_same_coeffs(dict(direct.value.coeffs), dict(ref.coeffs))


@given(exprs(), st.data())
def test_diff_matches_reference(e, data):
    c = data.draw(st.sampled_from(ATOMS + sorted(e.atoms())))
    assert same_terms(diff(e, c), ref_diff(e._terms, c))


@given(exprs())
def test_partials_match_diff(e):
    wanted = {a for a in e.atoms() if not isinstance(a, FuncAtom)}
    found = partials(e, lambda a: a in wanted)
    for a in wanted:
        d = diff(e, a)
        assert found.get(a, Expr.const(0)) == d
        if a in found:
            assert list(found[a]._terms.items()) == list(d._terms.items())


@given(st.lists(exprs(), max_size=5))
def test_sum_exprs_matches_chained_addition(items):
    chained = {}
    for e in items:
        chained = ref_add(chained, e._terms)
    assert same_terms(sum_exprs(items), chained)


@given(polys(), polys())
def test_product_matches_reference(a, b):
    assert same_terms(a * b, ref_mul(a._terms, b._terms))


def test_cancelled_monomial_returns_at_the_end():
    u, v = Expr.atom(Sym("u")), Expr.atom(Sym("v"))
    total = sum_exprs([u + v, -u, u])
    assert list(total._terms) == list((v + u)._terms) == [((Sym("v"), 1),), ((Sym("u"), 1),)]


def test_multiindex_order_is_cached_sort_key():
    alpha = MultiIndex(("x", "y"), (2, 1))
    assert alpha.order == 3 and alpha.sort_key() == (3, (-2, -1))


# -- coefficient types -------------------------------------------------------------
#
# A coefficient is an ``int`` when integral and a ``Fraction`` otherwise; the
# entry points, sums, products and derivatives convert.  The two types
# compare and hash alike, so an expression built from ``Fraction`` leaves
# (through the raw constructor, which keeps them) must give the same results
# and texts as one built from ``int`` leaves.

def _inv(e: Expr) -> Expr:
    # The recipe may cancel the denominator (e = -x); like a negative power
    # of a zero base in `build`, that leaf stays the zero it is.
    d = e + Expr.atom(Sym("x"))
    return d if d.is_zero else 1 / d


FUNCS = {"sin": sin, "cos": cos, "exp": exp, "ln": ln, "inv": _inv}


def recipes():
    """Expression trees over small integer constants and bundle atoms."""
    leaves = st.one_of(
        st.tuples(st.just("const"), st.integers(-4, 4)),
        st.tuples(st.just("atom"), st.integers(0, len(ATOMS) - 1)),
    )

    def extend(inner):
        return st.one_of(
            st.tuples(st.sampled_from(["add", "mul"]), inner, inner),
            st.tuples(st.just("pow"), inner, st.integers(-2, 3)),
            st.tuples(st.just("div"), inner, st.integers(-3, 3).filter(bool)),
            st.tuples(st.just("func"), st.sampled_from(sorted(FUNCS)), inner),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def build(recipe, coeff) -> Expr:
    """The expression of ``recipe``, every leaf coefficient made by ``coeff``."""
    kind = recipe[0]
    if kind == "const":
        return Expr({(): coeff(recipe[1])})
    if kind == "atom":
        return Expr({((ATOMS[recipe[1]], 1),): coeff(1)})
    if kind == "add":
        return build(recipe[1], coeff) + build(recipe[2], coeff)
    if kind == "mul":
        return build(recipe[1], coeff) * build(recipe[2], coeff)
    if kind == "div":
        return build(recipe[1], coeff) / Expr({(): coeff(recipe[2])})
    if kind == "func":
        return FUNCS[recipe[1]](build(recipe[2], coeff))
    base = build(recipe[1], coeff)
    return base ** recipe[2] if recipe[2] >= 0 or not base.is_zero else base


def coefficients(e: Expr):
    """Every coefficient of ``e``, those inside function arguments included."""
    for mono, c in e._terms.items():
        yield c
        for a, _ in mono:
            if isinstance(a, FuncAtom):
                for arg in a.args:
                    yield from coefficients(arg)


def assert_same(a: Expr, b: Expr) -> None:
    assert a == b and hash(a) == hash(b)
    assert list(a._terms) == list(b._terms)
    assert str(a) == str(b)
    assert expr_latex(a) == expr_latex(b)
    assert form_json(Form(1, BUNDLE.base, {(1,): a})) == form_json(Form(1, BUNDLE.base, {(1,): b}))
    for e in (a, b):
        assert all(type(c) in (int, Fraction) for c in coefficients(e))


def int_and_fraction(recipe) -> tuple[Expr, Expr]:
    return build(recipe, int), build(recipe, Fraction)


@given(recipes(), recipes(), st.integers(0, 3))
def test_int_and_fraction_leaves_agree_under_arithmetic(r1, r2, k):
    (a, fa), (b, fb) = int_and_fraction(r1), int_and_fraction(r2)
    assert_same(a, fa)
    assert_same(a + b, fa + fb)
    assert_same(a * b, fa * fb)
    assert_same(a**k, fa**k)
    if not a.is_zero:
        assert_same(a.inverse(), fa.inverse())
        assert_same(a ** -k, fa ** -k)


@given(recipes(), st.sampled_from(ATOMS), st.sampled_from(BUNDLE.base))
def test_int_and_fraction_leaves_agree_under_calculus(recipe, atom, direction):
    e, fe = int_and_fraction(recipe)
    assert_same(diff(e, atom), diff(fe, atom))
    found, ffound = partials(e, lambda a: True), partials(fe, lambda a: True)
    assert list(found) == list(ffound)
    for a in found:
        assert_same(found[a], ffound[a])
    assert_same(total_derivative(e, direction, BUNDLE, R, S), total_derivative(fe, direction, BUNDLE, R, S))


@given(recipes(), recipes(), st.sampled_from(ATOMS))
def test_int_and_fraction_leaves_agree_under_substitution(recipe, bound, atom):
    (e, fe), (v, fv) = int_and_fraction(recipe), int_and_fraction(bound)
    try:
        out = substitute(e, {atom: v})
    except ZeroDivisionError:
        # A negative power of the bound atom, bound to zero (inv(0) is 1/x):
        # the Fraction-leaf copy must raise too.
        with pytest.raises(ZeroDivisionError):
            substitute(fe, {atom: fv})
        return
    assert_same(out, substitute(fe, {atom: fv}))


def test_entry_points_store_integral_values_as_int():
    assert type(Expr.const(Fraction(6, 3))._terms[()]) is int
    assert type(Expr.const(True)._terms[()]) is int
    assert type(Expr.const(2.5)._terms[()]) is Fraction
    assert list(Expr.atom(Sym("u"))._terms.values()) == [1]
    assert type(next(iter((Expr.const(Fraction(1, 3)) * Expr.atom(Sym("u"))).inverse()._terms.values()))) is int


# -- substitution ------------------------------------------------------------------


def ref_substitute(e: Expr, bindings) -> Expr:
    """The per-term product: ``const(coeff) * image(a) ** k * ...`` per term,
    the terms summed by ``sum_exprs``."""
    if not bindings:
        return e

    def image(a) -> Expr:
        if a in bindings:
            return bindings[a]
        if isinstance(a, FuncAtom):
            new_args = tuple(ref_substitute(arg, bindings) for arg in a.args)
            if new_args != a.args:
                return Expr.atom(FuncAtom(a.func, new_args, a.derivs))
        return Expr.atom(a)

    def term(mono, coeff) -> Expr:
        out = Expr.const(coeff)
        for a, k in mono:
            out = out * image(a) ** k
        return out

    return sum_exprs(term(mono, coeff) for mono, coeff in e._terms.items())


def spelled(e: Expr) -> list:
    """Every term of ``e`` in order with its coefficient's type, function
    arguments spelled the same way: equal exactly when the two expressions
    agree term for term, in term order, at every nesting level."""

    def atom(a):
        if isinstance(a, FuncAtom):
            return (a.func, a.derivs, tuple(spelled(arg) for arg in a.args))
        return a

    return [(tuple((atom(a), k) for a, k in mono), c, type(c)) for mono, c in e._terms.items()]


@st.composite
def images(draw, atoms: list) -> Expr:
    """A constant, zero, one monomial whose negative exponent may cancel an
    atom of the expression, or a sum of several terms."""
    kind = draw(st.sampled_from(["const", "zero", "monomial", "sum"]))
    if kind == "const":
        return Expr.const(Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 3))))
    if kind == "zero":
        return Expr.const(0)
    if kind == "monomial":
        return draw(monomials()) * Expr.atom(draw(st.sampled_from(atoms))) ** -draw(st.integers(1, 2))
    return draw(polys()) + draw(monomials())


@given(exprs(), st.data())
def test_substitute_matches_the_per_term_product(e, data):
    # Bind atoms the expression holds: function atoms, replaced whole, and
    # the atoms inside their arguments, so sin and formal atoms rebuild with
    # changed arguments.
    held = sorted(e.atoms()) or ATOMS
    bound = data.draw(st.lists(st.sampled_from(held), unique=True, max_size=4))
    bindings = {a: data.draw(images(held)) for a in bound}
    try:
        ref = ref_substitute(e, bindings)
    except ZeroDivisionError:  # a zero image under a negative exponent
        with pytest.raises(ZeroDivisionError):
            substitute(e, bindings)
        return
    assert spelled(substitute(e, bindings)) == spelled(ref)


U, V, X, Y, Z = (Expr.atom(Sym(n)) for n in "uvxyz")


@pytest.mark.parametrize(
    "image_u, image_v",
    [
        (X + Y, X + Z),  # two sums in one term: the order of their product shows
        (X + 1, X - 1),  # and the x terms of that product cancel
        (X + Y, 2 * Z / U),  # a sum and a monomial that cancels u
    ],
)
def test_substitute_multiplies_sums_in_factor_order(image_u, image_v):
    bindings = {Sym("u"): image_u, Sym("v"): image_v}
    e = 3 * U * V * X + V**2 * U - 2 * U * U * V + sin(U * V)
    assert spelled(substitute(e, bindings)) == spelled(ref_substitute(e, bindings))


def test_substitute_raises_on_a_zero_image_under_a_negative_exponent():
    u, x = Sym("u"), Sym("x")
    e = Expr.atom(x) + Expr.atom(x) * Expr.atom(u) ** -2
    with pytest.raises(ZeroDivisionError):
        substitute(e, {u: Expr.const(0)})
    with pytest.raises(ZeroDivisionError):  # even where another factor of the term is zero
        substitute(e, {x: Expr.const(0), u: Expr.const(0)})


def test_substitute_without_bindings_returns_its_argument():
    e = sin(Expr.atom(Sym("u"))) + 1
    assert substitute(e, {}) is e
