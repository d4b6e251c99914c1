"""The shared writer of ``varjet.render`` against the renderers it replaced.

Plain text and LaTeX used to be spelled by separate walks: ``Expr.__str__``
and ``render.expr_latex`` over terms, ``render.form_text`` and
``render.form_latex`` over forms, and atom spellers in three modules
(``FuncAtom._render``, ``JetCoord._render`` and ``render._atom_latex``).
Those walks are kept below as the reference.  One term walk and one form
walk now serve both notations, so every atom kind, coefficient kind and
form degree must still spell byte for byte as it did.  The spec corpus
reaches few of these branches; the golden files alone do not pin them.

The text spellers ``render._func_text`` and ``render._jet_text`` now run
once, when an atom is built; a function atom's reads only the labels its
arguments' atoms already carry.  The reference spells every nested label
again, top down.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, strategies as st

from varjet.bundle import JetCoord
from varjet.expr import Expr, FuncAtom, Sym, cos, exp, ln, sin
from varjet.forms import Form
from varjet.multiindex import MultiIndex
from varjet.render import _atom_latex, expr_latex, form_latex, form_text

# -- the reference renderers -----------------------------------------------------

LATEX_FUNCS = {"sin": r"\sin", "cos": r"\cos", "exp": r"\exp", "ln": r"\ln"}


def ref_label(a) -> str:
    if isinstance(a, Sym):
        return a.name
    if isinstance(a, JetCoord):
        return ref_jet_text(a)
    return ref_func_text(a)


def ref_jet_text(a: JetCoord) -> str:
    head = ("d" + a.fiber) if a.vertical else a.fiber
    if a.alpha.order == 0:
        return head
    if all(len(n) == 1 for n in a.alpha.names):
        return head + "_" + "".join(a.alpha.suffix_names())
    return head + "[" + ",".join(map(str, a.alpha.exponents)) + "]"


def ref_func_text(a: FuncAtom) -> str:
    inner = ", ".join(ref_str(x) for x in a.args)
    if a.func == "inv":
        return f"(1/({inner}))"
    if not any(a.derivs):
        return f"{a.func}({inner})"
    if len(a.args) == 1 and a.derivs[0] <= 3:
        return f"{a.func}{chr(39) * a.derivs[0]}({inner})"
    marks = ",".join(map(str, a.derivs))
    return f"D[{marks}]{a.func}({inner})"


def ref_str(e: Expr) -> str:
    if e.is_zero:
        return "0"
    parts: list[str] = []
    for mono, coeff in e.terms():
        factors = []
        for a, k in mono:
            base = ref_label(a)
            factors.append(base if k == 1 else f"{base}^{k}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(parts)


def ref_atom_latex(a) -> str:
    if isinstance(a, Sym):
        return a.name
    if isinstance(a, JetCoord):
        head = rf"\delta {a.fiber}" if a.vertical else a.fiber
        if a.alpha.order == 0:
            return head
        if all(len(n) == 1 for n in a.alpha.names):
            return head + "_{" + " ".join(a.alpha.suffix_names()) + "}"
        return head + "_{(" + ",".join(map(str, a.alpha.exponents)) + ")}"
    inner = ", ".join(ref_expr_latex(x) for x in a.args)
    if a.func == "inv":
        return rf"\frac{{1}}{{{inner}}}"
    if not any(a.derivs):
        name = LATEX_FUNCS.get(a.func, a.func)
        return rf"{name}\left({inner}\right)"
    if len(a.args) == 1 and a.derivs[0] <= 3:
        return rf"{a.func}{chr(39) * a.derivs[0]}\left({inner}\right)"
    marks = ",".join(map(str, a.derivs))
    return rf"{a.func}^{{({marks})}}\left({inner}\right)"


def ref_coeff_latex(q) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return rf"{sign}\tfrac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def ref_expr_latex(e: Expr) -> str:
    if e.is_zero:
        return "0"
    parts: list[str] = []
    for mono, coeff in e.terms():
        factors = []
        for a, k in mono:
            base = ref_atom_latex(a)
            factors.append(base if k == 1 else base + "^{" + str(k) + "}")
        mag = abs(coeff)
        if not factors:
            body = ref_coeff_latex(mag)
        elif mag == 1:
            body = r"\,".join(factors)
        else:
            body = r"\,".join([ref_coeff_latex(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append((" + " if coeff > 0 else " - ") + body)
    return "".join(parts)


def ref_form_text(f: Form) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for key, c in f.items():
        basis = "dx[" + ",".join(map(str, key)) + "]" if key else ""
        coeff = ref_str(c)
        if basis:
            coeff = f"({coeff}) {basis}" if (" " in coeff or "+" in coeff or "-" in coeff[1:]) else f"{coeff} {basis}"
        parts.append(coeff)
    return " + ".join(parts)


def ref_form_latex(f: Form) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for key, c in f.items():
        basis = r" \wedge ".join(rf"\mathrm{{d}}{f.names[i - 1]}" for i in key)
        body = ref_expr_latex(c)
        if basis:
            body = rf"\left({body}\right)\,{basis}"
        parts.append(body)
    return " + ".join(parts)


# -- expressions over every atom kind ----------------------------------------------

# Base ranges with single-character names (suffix spelling u_xy), with a
# multi-character name (exponent spelling u[1,2]), and of one to three names.
RANGES = [("x",), ("x", "y"), ("x1", "x2"), ("x", "t2"), ("x", "y", "t")]
FIBERS = ["u", "v", "phi"]


@st.composite
def jet_coords(draw):
    names = draw(st.sampled_from(RANGES))
    exponents = tuple(draw(st.lists(st.integers(0, 3), min_size=len(names), max_size=len(names))))
    vertical = draw(st.booleans()) or not any(exponents)
    return JetCoord(draw(st.sampled_from(FIBERS)), MultiIndex(names, exponents), vertical)


COEFFS = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6)),
)
LEAVES = st.one_of(
    st.builds(Expr.const, COEFFS),
    st.builds(Expr.atom, st.builds(Sym, st.sampled_from(["x", "u", "t2", "phi"]))),
    st.builds(Expr.atom, jet_coords()),
)


@st.composite
def formal(draw, args):
    """A formal function with prime marks (at most 3 or more), or with
    ``D[..]`` marks over several arguments."""
    arity = draw(st.integers(1, 2))
    operands = tuple(draw(args) for _ in range(arity))
    derivs = tuple(draw(st.lists(st.integers(0, 5), min_size=arity, max_size=arity)))
    return Expr.atom(FuncAtom(draw(st.sampled_from(["F", "Gx"])), operands, derivs))


def inv_power(a: Expr, k: int) -> Expr:
    s = a + Expr.atom(Sym("x")) + 1
    return s if s.is_zero else s**-k


def _extend(inner):
    small = st.integers(-3, 3)
    return st.one_of(
        st.builds(lambda a, b: a + b, inner, inner),
        st.builds(lambda a, b: a - b, inner, inner),
        st.builds(lambda a, b: a * b, inner, inner),
        st.builds(lambda a, q: a * Expr.const(q), inner, COEFFS),
        st.builds(lambda a, k: a**k if k >= 0 or not a.is_zero else a, inner, small),
        # a negative power of a sum is a power of an ``inv`` atom
        st.builds(inv_power, inner, st.integers(1, 2)),
        st.builds(lambda f, a: f(a), st.sampled_from([sin, cos, exp, ln]), inner),
        formal(inner),
    )


EXPRS = st.recursive(LEAVES, _extend, max_leaves=6)
# One term: a text form coefficient is parenthesized only for an inner sign,
# such as that of a negative power.
MONOMIALS = st.builds(lambda q, a, k: q * a**k, COEFFS, LEAVES.filter(lambda a: not a.is_zero), st.integers(-2, 2))


def atoms_of(e: Expr) -> list:
    return sorted(e.atoms())


@given(st.one_of(EXPRS, MONOMIALS))
def test_expressions_spell_as_the_reference(e):
    assert str(e) == ref_str(e)
    assert expr_latex(e) == ref_expr_latex(e)
    assert repr(e) == str(e)


@given(EXPRS)
def test_atoms_spell_as_the_reference(e):
    for a in atoms_of(e):
        assert _atom_latex(a) == ref_atom_latex(a)
        assert str(a) == a.label() == a._label == ref_label(a)  # spelled once, when the atom is built
        if isinstance(a, FuncAtom):
            assert FuncAtom(a.func, a.args, a.derivs)._label == ref_label(a)


def test_every_atom_branch_is_drawn():
    """The branches the draws above reach, named and pinned once."""
    u, x = Expr.atom(Sym("u")), Expr.atom(Sym("x"))
    cases = [
        (JetCoord("u", MultiIndex(("x", "y"), (2, 1))), "u_xxy", "u_{x x y}"),
        (JetCoord("phi", MultiIndex(("x1", "x2"), (1, 2))), "phi[1,2]", "phi_{(1,2)}"),
        (JetCoord("v", MultiIndex(("x",), (0,)), vertical=True), "dv", r"\delta v"),
        (FuncAtom("inv", (u + x,), (0,)), "(1/(u + x))", r"\frac{1}{u + x}"),
        (FuncAtom("ln", (u,), (0,)), "ln(u)", r"\ln\left(u\right)"),
        (FuncAtom("F", (u,), (3,)), "F'''(u)", r"F'''\left(u\right)"),
        (FuncAtom("F", (u,), (4,)), "D[4]F(u)", r"F^{(4)}\left(u\right)"),
        (FuncAtom("F", (u, x), (0, 1)), "D[0,1]F(u, x)", r"F^{(0,1)}\left(u, x\right)"),
    ]
    for atom, text, latex in cases:
        assert (atom.label(), _atom_latex(atom)) == (text, latex)
        assert (ref_label(atom), ref_atom_latex(atom)) == (text, latex)
    e = Fraction(-1, 2) * u**-2 + 1 - x
    assert (str(e), expr_latex(e)) == ("-1/2*u^-2 + 1 - x", r"-\tfrac{1}{2}\,u^{-2} + 1 - x")


# -- forms of every degree -------------------------------------------------------------


@st.composite
def forms(draw):
    names = draw(st.sampled_from(RANGES))
    degree = draw(st.integers(0, len(names)))
    keys = list(combinations(range(1, len(names) + 1), degree))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
    return Form(degree, names, {key: draw(st.one_of(EXPRS, MONOMIALS)) for key in chosen})


@given(forms())
def test_forms_spell_as_the_reference(f):
    assert form_text(f) == str(f) == ref_form_text(f)
    assert form_latex(f) == ref_form_latex(f)


def test_form_branches_are_pinned():
    u, x = Expr.atom(Sym("u")), Expr.atom(Sym("x"))
    names = ("x", "y")
    cases = [
        (Form.zero(1, names), "0", "0"),
        (Form(0, names, {(): -u}), "-u", "-u"),
        (
            Form(1, names, {(1,): -u, (2,): u**-2}),
            "-u dx[1] + (u^-2) dx[2]",
            r"\left(-u\right)\,\mathrm{d}x + \left(u^{-2}\right)\,\mathrm{d}y",
        ),
        (Form(2, names, {(1, 2): u + x}), "(u + x) dx[1,2]", r"\left(u + x\right)\,\mathrm{d}x \wedge \mathrm{d}y"),
    ]
    for f, text, latex in cases:
        assert form_text(f) == ref_form_text(f) == text
        assert form_latex(f) == ref_form_latex(f) == latex
