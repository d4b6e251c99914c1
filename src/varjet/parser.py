"""Surface grammar for coordinate expressions and form values.

Expressions support rational and decimal literals, ``+ - * / ^`` with
integer exponents, the elementary functions and declared formal function
symbols, and coordinate references resolved against a bundle view:

* ``u`` for an order-zero coordinate, ``du`` for its vertical companion,
* ``u_xx`` jets by base-name suffix (single-character base names),
* ``u[2]`` / ``u[1,1]`` jets by explicit exponent vector, one entry per
  base axis; ``du_x`` and ``du[1]`` for vertical jets.

Form values are sums of ``<expr> dx[i,...]`` terms with 1-based basis axis
indices (strictly any order, signs resolved), or a bare expression for a
0-form.  Component lists are comma-separated expressions, one per name.  Unknown identifiers, jets beyond the declared orders and nesting
deeper than :data:`MAX_NESTING` are rejected with position-annotated
diagnostics.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .bundle import BundleSpec, jet_atom
from .expr import Expr, Sym, cos, exp, function, ln, sin
from .forms import Form
from .multiindex import MultiIndex


# Parentheses and function calls nest at most this deep.  The parser is
# recursive descent, a few frames per level, so this keeps it and the kernel
# operations on the parsed expression well inside the recursion limit.
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER IDENT OP EOF
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"(?P<number>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()\[\],])")


def tokenize(text: str, line: int = 1, col: int = 1) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t\r\n":
            line, col = _advance(ch, line, col)
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        kind = "OP" if m.lastgroup == "op" else m.lastgroup.upper()
        tokens.append(Token(kind, m.group(), line, col))
        for c in m.group():
            line, col = _advance(c, line, col)
        i = m.end()
    tokens.append(Token("EOF", "", line, col))
    return tokens


def _advance(ch: str, line: int, col: int) -> tuple[int, int]:
    return (line + 1, 1) if ch == "\n" else (line, col + 1)


@dataclass(frozen=True)
class ParseContext:
    """Resolution context: which coordinates and functions exist, and the
    admissible jet orders."""

    bundle: BundleSpec
    r: int = 0
    s: int | None = None
    functions: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.r < 0 or (self.s is not None and not 0 <= self.s <= self.r):
            raise ValueError("orders must satisfy 0 <= s <= r")


_BUILTINS = {"sin": sin, "cos": cos, "exp": exp, "ln": ln}


class _Parser:
    def __init__(self, tokens: list[Token], context: ParseContext):
        self.tokens = tokens
        self.i = 0
        self.ctx = context
        self.depth = 0  # open parentheses and calls around the current token

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.kind == "EOF" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return tok

    def fail(self, message: str, tok: Token):
        raise ParseError(message, tok.line, tok.col)

    # expression grammar ----------------------------------------------------

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.parse_term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while self.peek().text in ("*", "/"):
            tok = self.next()
            rhs = self.parse_factor()
            if tok.text == "*":
                e = e * rhs
            else:
                try:
                    e = e / rhs
                except ZeroDivisionError:
                    self.fail("division by zero", tok)
        return e

    def parse_factor(self) -> Expr:
        negate = False
        while self.peek().text in ("+", "-"):
            negate ^= self.next().text == "-"
        e = self.parse_power()
        return -e if negate else e

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek().text == "^":
            self.next()
            return base ** self.parse_int_exponent()
        return base

    def parse_int_exponent(self) -> int:
        sign = 1
        if self.peek().text == "-":
            self.next()
            sign = -1
        tok = self.next()
        if tok.kind != "NUMBER" or "." in tok.text:
            self.fail("exponents must be integers", tok)
        return sign * int(tok.text)

    def parse_atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "NUMBER":
            return Expr.const(Fraction(tok.text))
        if tok.text == "(":
            e = self.parse_nested(tok)
            self.expect(")")
            return e
        if tok.kind == "IDENT":
            return self.parse_ident(tok)
        self.fail(f"unexpected token {tok.text or 'end of input'!r}", tok)

    def parse_ident(self, tok: Token) -> Expr:
        name = tok.text
        if self.peek().text == "(":
            return self.parse_call(tok)
        if self.peek().text == "[":
            self.next()
            exps = self.parse_int_list()
            self.expect("]")
            return self.resolve_jet(tok, name, exps)
        return self.resolve_name(tok, name)

    def parse_call(self, tok: Token) -> Expr:
        name = tok.text
        paren = self.expect("(")
        args = [self.parse_nested(paren)]
        while self.peek().text == ",":
            self.next()
            args.append(self.parse_nested(paren))
        self.expect(")")
        if name in _BUILTINS:
            if len(args) != 1:
                self.fail(f"{name} takes one argument", tok)
            return _BUILTINS[name](args[0])
        arity = self.ctx.functions.get(name)
        if arity is None:
            self.fail(f"unknown function {name!r}", tok)
        if len(args) != arity:
            self.fail(f"{name} takes {arity} argument(s), got {len(args)}", tok)
        return function(name, *args)

    def parse_nested(self, paren: Token) -> Expr:
        """The expression inside the parenthesis ``paren`` opens."""
        if self.depth == MAX_NESTING:
            self.fail(f"parentheses and calls nest deeper than {MAX_NESTING} levels", paren)
        self.depth += 1
        e = self.parse_expr()
        self.depth -= 1
        return e

    def parse_int_list(self) -> list[int]:
        out = []
        while True:
            tok = self.next()
            if tok.kind != "NUMBER" or "." in tok.text:
                self.fail("expected an integer", tok)
            out.append(int(tok.text))
            if self.peek().text != ",":
                return out
            self.next()

    # identifier resolution --------------------------------------------------

    def resolve_name(self, tok: Token, name: str) -> Expr:
        bundle = self.ctx.bundle
        if "_" in name:
            head, suffix = name.split("_", 1)
            return self.resolve_suffix_jet(tok, head, suffix)
        if name in bundle.base or name in bundle.fiber:
            return Expr.atom(Sym(name))
        if name.startswith("d") and name[1:] in bundle.fiber:
            return self.vertical_atom(tok, name[1:], bundle.zero_index())
        self.fail(f"unknown identifier {name!r}", tok)

    def resolve_suffix_jet(self, tok: Token, head: str, suffix: str) -> Expr:
        bundle = self.ctx.bundle
        alpha = bundle.zero_index()
        if any(len(n) > 1 for n in bundle.base):
            self.fail("suffix jets need single-character base names; use the [..] form", tok)
        for ch in suffix:
            if ch not in bundle.base:
                self.fail(f"unknown coordinate {head + '_' + suffix!r} ({ch!r} is not a base coordinate)", tok)
            alpha = alpha.incremented(ch)
        return self.finish_jet(tok, head, alpha)

    def resolve_jet(self, tok: Token, name: str, exps: list[int]) -> Expr:
        bundle = self.ctx.bundle
        if len(exps) != bundle.m:
            self.fail(f"expected {bundle.m} exponent(s), got {len(exps)}", tok)
        alpha = MultiIndex(bundle.base, tuple(exps))
        return self.finish_jet(tok, name, alpha)

    def finish_jet(self, tok: Token, head: str, alpha: MultiIndex) -> Expr:
        bundle = self.ctx.bundle
        if head in bundle.fiber:
            if alpha.order > self.ctx.r:
                self.fail(f"jet order {alpha.order} exceeds declared order {self.ctx.r}", tok)
            return Expr.atom(jet_atom(head, alpha))
        if head.startswith("d") and head[1:] in bundle.fiber:
            return self.vertical_atom(tok, head[1:], alpha)
        self.fail(f"unknown coordinate {head!r}", tok)

    def vertical_atom(self, tok: Token, fiber: str, alpha: MultiIndex) -> Expr:
        if self.ctx.s is None:
            self.fail("no vertical coordinates in this context", tok)
        if alpha.order > self.ctx.s:
            self.fail(f"vertical order {alpha.order} exceeds declared order {self.ctx.s}", tok)
        return Expr.atom(jet_atom(fiber, alpha, vertical=True))

    # form grammar -----------------------------------------------------------

    def parse_form(self) -> Form:
        names = self.ctx.bundle.base
        terms: list[tuple[Expr, tuple[int, ...] | None]] = []
        sign = 1
        while True:
            coeff = self.parse_expr()
            basis: tuple[int, ...] | None = None
            tok = self.peek()
            if tok.kind == "IDENT" and tok.text == "dx":
                self.next()
                self.expect("[")
                ints = self.parse_int_list()
                self.expect("]")
                for i in ints:
                    if not 1 <= i <= len(names):
                        self.fail(f"basis index {i} outside 1..{len(names)}", tok)
                basis = tuple(ints)
            terms.append((coeff if sign > 0 else -coeff, basis))
            nxt = self.peek()
            if nxt.text == "+":
                self.next()
                sign = 1
                continue
            if nxt.text == "-":
                self.next()
                sign = -1
                continue
            break
        degrees = {len(b) if b is not None else 0 for _, b in terms}
        if len(degrees) != 1:
            raise ParseError("form terms have mixed degrees", self.peek().line, self.peek().col)
        degree = degrees.pop()
        total = Form.zero(degree, names)
        for coeff, basis in terms:
            total = total + Form.basis(names, *(basis or ())).scale(coeff)
        return total

    def check_done(self) -> None:
        tok = self.peek()
        if tok.kind != "EOF":
            self.fail(f"unexpected trailing input {tok.text!r}", tok)


def parse_expression(text: str, context: ParseContext, line: int = 1, col: int = 1) -> Expr:
    """Parse a scalar expression against the context; raises ParseError with
    line/column on malformed or out-of-context input."""
    p = _Parser(tokenize(text, line, col), context)
    e = p.parse_expr()
    p.check_done()
    return e


def parse_form_value(text: str, context: ParseContext, line: int = 1, col: int = 1) -> Form:
    """Parse a form value: a bare expression (0-form) or a sum of
    ``expr dx[i,...]`` terms of one common degree."""
    p = _Parser(tokenize(text, line, col), context)
    f = p.parse_form()
    p.check_done()
    return f


def parse_components(text: str, context: ParseContext, names: tuple[str, ...], line: int = 1, col: int = 1) -> dict[str, Expr]:
    """Parse one comma-separated expression per name in ``names``.  Commas
    inside calls and ``[..]`` belong to them, and every error carries the
    column of the offending token."""
    p = _Parser(tokenize(text, line, col), context)
    comps = [p.parse_expr()]
    while p.peek().text == ",":
        p.next()
        comps.append(p.parse_expr())
    p.check_done()
    if len(comps) != len(names):
        p.fail(f"expected {len(names)} component(s) for {names}, got {len(comps)}", p.tokens[0])
    return dict(zip(names, comps))
