"""Plain-text, LaTeX and JSON rendering: the only module that spells output.

One term walk and one form walk serve both notations, which differ only in
the spellers and strings passed in.  Plain text matches the surface grammar,
so it parses back to an equal expression (formal derivative marks excepted).
"""

from .bundle import JetCoord
from .expr import Expr, FuncAtom
from .forms import Form

_LATEX_FUNCS = {"sin": r"\sin", "cos": r"\cos", "exp": r"\exp", "ln": r"\ln"}


# -- atoms: plain text (spelled once, when the atom is built) beside LaTeX; a
# Sym is its name --


def _jet_text(a: JetCoord) -> str:
    head = ("d" + a.fiber) if a.vertical else a.fiber
    if a.alpha.order == 0:
        return head
    if all(len(n) == 1 for n in a.alpha.names):
        return head + "_" + "".join(a.alpha.suffix_names())
    return head + "[" + ",".join(map(str, a.alpha.exponents)) + "]"


def _jet_latex(a: JetCoord) -> str:
    head = rf"\delta {a.fiber}" if a.vertical else a.fiber
    if a.alpha.order == 0:
        return head
    if all(len(n) == 1 for n in a.alpha.names):
        return head + "_{" + " ".join(a.alpha.suffix_names()) + "}"
    return head + "_{(" + ",".join(map(str, a.alpha.exponents)) + ")}"


def _func_text(a: FuncAtom) -> str:
    inner = ", ".join(map(str, a.args))
    if a.func == "inv":
        return f"(1/({inner}))"
    if not any(a.derivs):
        return f"{a.func}({inner})"
    if len(a.args) == 1 and a.derivs[0] <= 3:
        return f"{a.func}{chr(39) * a.derivs[0]}({inner})"
    return f"D[{','.join(map(str, a.derivs))}]{a.func}({inner})"


def _func_latex(a: FuncAtom) -> str:
    inner = ", ".join(map(expr_latex, a.args))
    if a.func == "inv":
        return rf"\frac{{1}}{{{inner}}}"
    if not any(a.derivs):
        return rf"{_LATEX_FUNCS.get(a.func, a.func)}\left({inner}\right)"
    if len(a.args) == 1 and a.derivs[0] <= 3:
        return rf"{a.func}{chr(39) * a.derivs[0]}\left({inner}\right)"
    return rf"{a.func}^{{({','.join(map(str, a.derivs))})}}\left({inner}\right)"


def _atom_latex(a) -> str:
    return _jet_latex(a) if isinstance(a, JetCoord) else _func_latex(a) if isinstance(a, FuncAtom) else a.name


class _Spelled(dict):
    """``(atom, exponent) -> factor`` for one walk; a factor is spelled on its first use."""

    def __missing__(self, pair) -> str:
        a, k = pair
        factor = self[pair] = self.atom(a) if k == 1 else self.power.format(self.atom(a), k)
        return factor


def _terms(e: Expr, atom, coeff, times: str, power: str) -> str:
    """The one term walk, in canonical order; a coefficient of magnitude 1 shows
    only on a constant.  ``atom`` and ``coeff`` spell an atom and a positive
    coefficient, ``times`` joins factors, ``power.format(atom, k)`` a power."""
    spelled = _Spelled()
    spelled.atom, spelled.power, spell = atom, power, spelled.__getitem__
    parts, signs = [], ("", "-")  # the first term's signs, then the rest's
    for mono, c in e.terms():
        sign, mag = (signs[1], -c) if c < 0 else (signs[0], c)
        body = times.join(map(spell, mono)) if mono else coeff(mag)
        if mono and mag != 1:
            body = coeff(mag) + times + body
        parts.append(sign + body)
        signs = (" + ", " - ")
    return "".join(parts) or "0"


def _expr_text(e: Expr) -> str:
    return _terms(e, str, str, "*", "{}^{}")


def expr_latex(e: Expr) -> str:
    def coeff(q) -> str:
        return str(q) if q.denominator == 1 else rf"\tfrac{{{q.numerator}}}{{{q.denominator}}}"

    return _terms(e, _atom_latex, coeff, r"\,", "{}^{{{}}}")


def _form(f: Form, expr, term) -> str:
    """``term(body, key)`` puts a spelled coefficient before its basis ``key``."""
    return " + ".join(term(expr(c), key) if key else expr(c) for key, c in f.items()) or "0"


def form_text(f: Form) -> str:
    def term(body: str, key: tuple[int, ...]) -> str:
        bare = " " not in body and "+" not in body and "-" not in body[1:]
        return (body if bare else f"({body})") + " dx[" + ",".join(map(str, key)) + "]"

    return _form(f, str, term)


def form_latex(f: Form) -> str:
    def term(body: str, key: tuple[int, ...]) -> str:
        return rf"\left({body}\right)\," + r" \wedge ".join(rf"\mathrm{{d}}{f.names[i - 1]}" for i in key)

    return _form(f, expr_latex, term)


def form_json(f: Form) -> dict:
    return {
        "degree": f.degree,
        "range": list(f.names),
        "terms": [{"basis": list(key), "coeff": str(c)} for key, c in f.items()],
    }
