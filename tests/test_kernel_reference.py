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

from hypothesis import given, strategies as st

from varjet.bundle import BundleSpec, JetCoord, jet_atom
from varjet.expr import Expr, FuncAtom, Sym, cos, diff, exp, function, ln, partials, sin, sum_exprs
from varjet.jetcalc import total_derivative
from varjet.multiindex import MultiIndex, indices_up_to

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
    items.sort(key=lambda p: p[0].sort_key())
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
    for a in sorted(e.atoms(), key=lambda a: a.sort_key()):
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
def monomials(draw) -> Expr:
    coeff = Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 3)))
    term = Expr.const(coeff)
    for a in draw(st.lists(st.sampled_from(ATOMS), max_size=3)):
        term = term * Expr.atom(a)
    if draw(st.booleans()):  # a Laurent factor
        term = term * Expr.atom(draw(st.sampled_from(ATOMS))) ** -draw(st.integers(1, 2))
    return term


@st.composite
def polys(draw, max_terms=4) -> Expr:
    return sum_exprs(draw(st.lists(monomials(), min_size=1, max_size=max_terms)))


@st.composite
def functions_of(draw, inner) -> Expr:
    kind = draw(st.sampled_from(["sin", "cos", "exp", "ln", "inv", "formal"]))
    arg = draw(inner)
    if kind == "inv":  # a multi-term reciprocal stays an opaque atom
        return 1 / (arg + draw(monomials()) + Expr.atom(draw(st.sampled_from(ATOMS))))
    if kind == "formal":  # arguments mix jet and vertical atoms
        second = Expr.atom(draw(st.sampled_from(POSITIONAL[2:] + VERTICAL)))
        return function(draw(st.sampled_from(["F", "G"])), arg, second * draw(monomials()))
    return {"sin": sin, "cos": cos, "exp": exp, "ln": ln}[kind](arg)


@st.composite
def exprs(draw) -> Expr:
    """Polynomials whose terms may carry (nested) function atoms."""
    e = draw(polys())
    for _ in range(draw(st.integers(0, 3))):
        f = draw(functions_of(st.one_of(polys(max_terms=3), functions_of(polys(max_terms=2)))))
        e = e + draw(monomials()) * f ** draw(st.integers(1, 2))
    return e


def same_terms(e: Expr, ref: dict) -> bool:
    """Equal term maps with equal term order."""
    return list(e._terms.items()) == list(ref.items())


# -- properties ------------------------------------------------------------------


@given(exprs(), st.sampled_from(BUNDLE.base))
def test_total_derivative_matches_atom_by_atom_formula(e, direction):
    assert same_terms(total_derivative(e, direction, BUNDLE, R, S), ref_total_derivative(e, direction))


@given(exprs(), st.data())
def test_diff_matches_reference(e, data):
    c = data.draw(st.sampled_from(ATOMS + sorted(e.atoms(), key=lambda a: a.sort_key())))
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
