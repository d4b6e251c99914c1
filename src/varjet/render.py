"""Plain-text, LaTeX and JSON rendering of expressions, forms and results.

Plain text matches the surface grammar, so rendered output parses back to
an equal expression (on the coordinate-polynomial class; formal derivative
markers render in prime notation, which is display-only).
"""

from fractions import Fraction

from .bundle import JetCoord
from .expr import Expr, FuncAtom, Sym
from .forms import Form

_LATEX_FUNCS = {"sin": r"\sin", "cos": r"\cos", "exp": r"\exp", "ln": r"\ln"}


def _atom_latex(a) -> str:
    if isinstance(a, Sym):
        return a.name
    if isinstance(a, JetCoord):
        head = rf"\delta {a.fiber}" if a.vertical else a.fiber
        if a.alpha.order == 0:
            return head
        if all(len(n) == 1 for n in a.alpha.names):
            return head + "_{" + " ".join(a.alpha.suffix_names()) + "}"
        return head + "_{(" + ",".join(map(str, a.alpha.exponents)) + ")}"
    if isinstance(a, FuncAtom):
        inner = ", ".join(expr_latex(arg) for arg in a.args)
        if a.func == "inv":
            return rf"\frac{{1}}{{{inner}}}"
        if not any(a.derivs):
            name = _LATEX_FUNCS.get(a.func, a.func)
            return rf"{name}\left({inner}\right)"
        if len(a.args) == 1 and a.derivs[0] <= 3:
            return rf"{a.func}{chr(39) * a.derivs[0]}\left({inner}\right)"
        marks = ",".join(map(str, a.derivs))
        return rf"{a.func}^{{({marks})}}\left({inner}\right)"
    return str(a)


def _coeff_latex(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return rf"{sign}\tfrac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def expr_latex(e: Expr) -> str:
    if e.is_zero:
        return "0"
    parts: list[str] = []
    for mono, coeff in e.terms():
        factors = []
        for a, k in mono:
            base = _atom_latex(a)
            factors.append(base if k == 1 else base + "^{" + str(k) + "}")
        mag = abs(coeff)
        if not factors:
            body = _coeff_latex(mag)
        elif mag == 1:
            body = r"\,".join(factors)
        else:
            body = r"\,".join([_coeff_latex(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append((" + " if coeff > 0 else " - ") + body)
    return "".join(parts)


def basis_text(key: tuple[int, ...]) -> str:
    return "dx[" + ",".join(map(str, key)) + "]" if key else ""


def basis_latex(key: tuple[int, ...], names: tuple[str, ...]) -> str:
    return r" \wedge ".join(rf"\mathrm{{d}}{names[i - 1]}" for i in key)


def form_text(f: Form) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for key, c in f.items():
        basis = basis_text(key)
        coeff = str(c)
        if basis:
            coeff = f"({coeff}) {basis}" if (" " in coeff or "+" in coeff or "-" in coeff[1:]) else f"{coeff} {basis}"
        parts.append(coeff)
    return " + ".join(parts)


def form_latex(f: Form) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for key, c in f.items():
        basis = basis_latex(key, f.names)
        body = expr_latex(c)
        if basis:
            body = rf"\left({body}\right)\,{basis}"
        parts.append(body)
    return " + ".join(parts)


def form_json(f: Form) -> dict:
    return {
        "degree": f.degree,
        "range": list(f.names),
        "terms": [{"basis": list(key), "coeff": str(c)} for key, c in f.items()],
    }
