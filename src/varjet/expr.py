"""Exact symbolic scalar expressions in canonical polynomial form.

An :class:`Expr` is an immutable Laurent polynomial with rational
coefficients over *atoms*.  Atoms are plain coordinate symbols
(:class:`Sym`), jet coordinates (defined in :mod:`varjet.bundle`) and
applications of elementary or formal function symbols (:class:`FuncAtom`).
Every arithmetic operation produces the canonical form directly: an
expanded sum of monomials with a fixed graded-lexicographic term order, so
structural equality decides zero on the polynomial class.

Distinct function applications are treated as independent atoms.  This is
sound for zero testing but incomplete: ``sin(u)**2 + cos(u)**2 - 1`` does
not reduce to zero.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping

Monomial = tuple  # tuple[tuple[atom, int], ...], sorted by atom sort key

_BUILTIN_FUNCS = ("sin", "cos", "exp", "ln", "inv")


class EvaluationError(ValueError):
    """Numeric evaluation hit an atom with no value (or a formal symbol)."""


@dataclass(frozen=True, slots=True)
class Sym:
    """A plain coordinate symbol, identified by name."""

    name: str
    # Every atom class computes its hash and sort key once, at construction,
    # and keeps both out of equality.  A pickled atom is rebuilt from its
    # public fields (``__reduce__``), so the cached string hash of one
    # process never reaches another.
    _hash: int = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name,)))
        object.__setattr__(self, "_key", (0, self.name))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Sym, (self.name,))

    def sort_key(self) -> tuple:
        return self._key

    def label(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class FuncAtom:
    """Application of an elementary or formal function symbol.

    ``derivs`` counts formal partial derivatives per argument slot; it stays
    all-zero for the built-in functions, whose derivatives have closed forms.
    """

    func: str
    args: tuple
    derivs: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.derivs) != len(self.args):
            raise ValueError("one derivative count per argument required")
        if self.func in _BUILTIN_FUNCS and any(self.derivs):
            raise ValueError(f"{self.func} has closed-form derivatives")
        object.__setattr__(self, "_hash", hash((self.func, self.args, self.derivs)))
        object.__setattr__(self, "_key", (2, self.func, self.derivs, tuple(a.sort_key() for a in self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (FuncAtom, (self.func, self.args, self.derivs))

    def sort_key(self) -> tuple:
        return self._key

    def label(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        if self.func == "inv":
            return f"(1/({inner}))"
        if not any(self.derivs):
            return f"{self.func}({inner})"
        if len(self.args) == 1 and self.derivs[0] <= 3:
            return f"{self.func}{chr(39) * self.derivs[0]}({inner})"
        marks = ",".join(map(str, self.derivs))
        return f"D[{marks}]{self.func}({inner})"

    def __repr__(self) -> str:
        return self.label()


def _mono_key(mono: Monomial) -> tuple:
    deg = sum(e for _, e in mono)
    return (deg, tuple((a.sort_key(), e) for a, e in mono))


def _lowered(mono: Monomial, i: int, k: int) -> Monomial:
    """``mono`` divided by its i-th atom, whose exponent is ``k``."""
    if k == 1:
        return mono[:i] + mono[i + 1 :]
    return mono[:i] + ((mono[i][0], k - 1),) + mono[i + 1 :]


def _add_terms(out: dict, terms: Mapping[Monomial, Fraction]) -> None:
    """Add a term map into ``out``, dropping monomials that cancel.

    A monomial that cancels and comes back later re-enters at the end, just
    as it does when the same sums are built one ``+`` at a time.
    """
    for m, c in terms.items():
        prev = out.get(m)
        if prev is None:
            out[m] = c
        else:
            c = prev + c
            if c:
                out[m] = c
            else:
                del out[m]


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of two monomials: a merge of their sorted factor lists."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    ka, kb = a[0][0].sort_key(), b[0][0].sort_key()
    while True:
        if ka < kb:
            out.append(a[i])
            i += 1
            if i == na:
                out.extend(b[j:])
                break
            ka = a[i][0].sort_key()
        elif kb < ka:
            out.append(b[j])
            j += 1
            if j == nb:
                out.extend(a[i:])
                break
            kb = b[j][0].sort_key()
        else:  # sort keys are unique per atom: the same atom on both sides
            e = a[i][1] + b[j][1]
            if e:
                out.append((a[i][0], e))
            i += 1
            j += 1
            if i == na or j == nb:
                out.extend(a[i:] if j == nb else b[j:])
                break
            ka, kb = a[i][0].sort_key(), b[j][0].sort_key()
    return tuple(out)


def _coerce(value) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Expr.const(value)
    raise TypeError(f"cannot interpret {value!r} as an expression")


class Expr:
    """Canonical-form symbolic expression; immutable and hashable."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Fraction]):
        object.__setattr__(self, "_terms", {m: c for m, c in terms.items() if c != 0})
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _frozen(cls, terms: dict) -> "Expr":
        """Adopt a term dict that has no zero coefficients, without copying."""
        e = object.__new__(cls)
        object.__setattr__(e, "_terms", terms)
        object.__setattr__(e, "_hash", None)
        return e

    def __setattr__(self, *_):
        raise AttributeError("Expr is immutable")

    def __reduce__(self):
        # Rebuilt from the term map; the cached hash is never pickled.
        return (Expr, (self._terms,))

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value) -> "Expr":
        q = Fraction(value)
        return cls._frozen({(): q} if q else {})

    @classmethod
    def atom(cls, a) -> "Expr":
        return cls._frozen({((a, 1),): Fraction(1)})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_const(self) -> bool:
        return all(m == () for m in self._terms)

    def as_fraction(self) -> Fraction:
        if not self.is_const:
            raise ValueError(f"{self} is not constant")
        return self._terms.get((), Fraction(0))

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        """Term list in the canonical graded-lexicographic order."""
        return sorted(self._terms.items(), key=lambda t: _mono_key(t[0]))

    def atoms(self) -> frozenset:
        """All atoms, including those nested in function arguments."""
        found: set = set()
        stack = [self]
        while stack:
            e = stack.pop()
            for mono in e._terms:
                for a, _ in mono:
                    if a in found:
                        continue
                    found.add(a)
                    if isinstance(a, FuncAtom):
                        stack.extend(a.args)
        return frozenset(found)

    def sort_key(self) -> tuple:
        return tuple((_mono_key(m), c.numerator, c.denominator) for m, c in self.terms())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Expr":
        other = _coerce(other)
        out = dict(self._terms)
        _add_terms(out, other._terms)
        return Expr._frozen(out)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr._frozen({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Expr":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Expr":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Expr":
        other = _coerce(other)
        if len(other._terms) == 1:
            # Multiplying by one monomial is injective: no terms collide or cancel.
            ((m2, c2),) = other._terms.items()
            return Expr._frozen({_mono_mul(m1, m2): c1 * c2 for m1, c1 in self._terms.items()})
        out: dict = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _mono_mul(m1, m2)
                prev = out.get(m)
                out[m] = c1 * c2 if prev is None else prev + c1 * c2
        return Expr(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Expr":
        if not isinstance(k, int):
            raise TypeError("exponents must be integers")
        if k < 0:
            return self.inverse() ** (-k)
        result = Expr.const(1)
        base = self
        n = k
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "Expr":
        """Exact reciprocal of a constant or single monomial; otherwise an
        opaque reciprocal atom (sound for zero testing, not simplified)."""
        if self.is_zero:
            raise ZeroDivisionError("division by the zero expression")
        if len(self._terms) == 1:
            ((mono, coeff),) = self._terms.items()
            inv_mono = tuple((a, -e) for a, e in mono)  # same atoms, still sorted
            return Expr({inv_mono: Fraction(1) / coeff})
        return Expr.atom(FuncAtom("inv", (self,), (0,)))

    def __truediv__(self, other) -> "Expr":
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other) -> "Expr":
        return _coerce(other) * self.inverse()

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Expr.const(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset((m, c) for m, c in self._terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.terms():
            factors = []
            for a, e in mono:
                base = a.label()
                factors.append(base if e == 1 else f"{base}^{e}")
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

    def __repr__(self) -> str:
        return str(self)


ZERO = Expr.const(0)
ONE = Expr.const(1)


# -- calculus ---------------------------------------------------------------


def _atom_derivative(a, c) -> Expr:
    """Derivative of a single atom with respect to coordinate atom ``c``."""
    if a == c:
        return ONE
    if not isinstance(a, FuncAtom):
        return ZERO
    total = ZERO
    for j, arg in enumerate(a.args):
        inner = diff(arg, c)
        if inner.is_zero:
            continue
        total = total + _slot_derivative(a, j) * inner
    return total


def _slot_derivative(a: FuncAtom, j: int) -> Expr:
    arg = a.args[j]
    if a.func == "sin":
        return cos(arg)
    if a.func == "cos":
        return -sin(arg)
    if a.func == "exp":
        return Expr.atom(a)
    if a.func == "ln":
        return arg.inverse()
    if a.func == "inv":
        return -(Expr.atom(a) ** 2)
    derivs = list(a.derivs)
    derivs[j] += 1
    return Expr.atom(FuncAtom(a.func, a.args, tuple(derivs)))


def diff(e: Expr, c) -> Expr:
    """Partial derivative with respect to a coordinate atom.

    All other atoms are independent; differentiating by an absent atom gives
    zero.  The chain rule applies through function-atom arguments, raising
    formal derivative markers on undeclared function symbols.
    """
    out: dict = {}
    ch = hash(c)
    chains: dict = {}  # function atom -> its derivative by c, for this call only
    for mono, coeff in e._terms.items():
        for i, (a, k) in enumerate(mono):
            if a is c or (a._hash == ch and a == c):
                m = _lowered(mono, i, k)
                q = coeff if k == 1 else coeff * k
                prev = out.get(m)
                out[m] = q if prev is None else prev + q
            elif isinstance(a, FuncAtom):
                da = chains.get(a)
                if da is None:
                    da = chains[a] = _atom_derivative(a, c)
                if da._terms:
                    _add_chain_terms(out, _lowered(mono, i, k), coeff if k == 1 else coeff * k, da)
    return Expr(out)


def _add_chain_terms(out: dict, base: Monomial, q: Fraction, da: Expr) -> None:
    """Accumulate ``q * base * da`` into ``out`` (zeros are filtered later)."""
    for m2, q2 in da._terms.items():
        m = _mono_mul(base, m2)
        prev = out.get(m)
        out[m] = q * q2 if prev is None else prev + q * q2


def partials(e: Expr, accept: Callable[[object], bool]) -> dict:
    """``{a: diff(e, a)}`` for every coordinate atom ``a`` that ``accept``
    admits and ``e`` depends on, atoms nested in function arguments included.

    One walk over the terms serves every atom: each factor's contribution
    lands in the partial of the atom it is taken by, in the order ``diff``
    would add it, so every partial equals ``diff(e, a)`` term order included.
    ``accept`` sees each distinct non-function atom once; memos live for
    this call only.
    """
    sums: dict = {}  # atom -> diff's accumulator for that atom
    admitted: dict = {}  # coordinate atom -> accept(atom)
    chains: dict = {}  # function atom -> [(admitted nested atom, derivative)]
    for mono, coeff in e._terms.items():
        for i, (a, k) in enumerate(mono):
            if isinstance(a, FuncAtom):
                pairs = chains.get(a)
                if pairs is None:
                    pairs = chains[a] = _chain_partials(a, accept, admitted)
                if pairs:
                    base, q = _lowered(mono, i, k), (coeff if k == 1 else coeff * k)
                    for b, da in pairs:
                        _add_chain_terms(sums.setdefault(b, {}), base, q, da)
                continue
            ok = admitted.get(a)
            if ok is None:
                ok = admitted[a] = bool(accept(a))
            if ok:
                out = sums.setdefault(a, {})
                m = _lowered(mono, i, k)
                q = coeff if k == 1 else coeff * k
                prev = out.get(m)
                out[m] = q if prev is None else prev + q
    result = {}
    for a, terms in sums.items():
        d = Expr(terms)
        if d._terms:
            result[a] = d
    return result


def _chain_partials(f: FuncAtom, accept, admitted: dict) -> list:
    pairs = []
    for b in Expr.atom(f).atoms():
        if isinstance(b, FuncAtom):
            continue
        ok = admitted.get(b)
        if ok is None:
            ok = admitted[b] = bool(accept(b))
        if ok:
            db = _atom_derivative(f, b)
            if db._terms:
                pairs.append((b, db))
    return pairs


def substitute(e: Expr, bindings: Mapping) -> Expr:
    """Simultaneously replace bound atoms, recursing into function arguments."""
    if not bindings:
        return e

    def term(mono: Monomial, coeff: Fraction) -> Expr:
        out = Expr.const(coeff)
        for a, k in mono:
            out = out * (_substitute_atom(a, bindings) ** k)
        return out

    return sum_exprs(term(mono, coeff) for mono, coeff in e._terms.items())


def _substitute_atom(a, bindings: Mapping) -> Expr:
    if a in bindings:
        return _coerce(bindings[a])
    if isinstance(a, FuncAtom):
        new_args = tuple(substitute(arg, bindings) for arg in a.args)
        if new_args != a.args:
            return Expr.atom(FuncAtom(a.func, new_args, a.derivs))
    return Expr.atom(a)


def normalize(e: Expr) -> Expr:
    """Return the canonical form.

    Construction already canonicalizes, so this is idempotent by design; it
    re-derives the term map to serve as an explicit entry point.
    """
    return Expr(dict(e._terms))


def evaluate(e: Expr, env: Mapping, funcs: Mapping[str, Callable] | None = None):
    """Numerically evaluate with atom values from ``env``.

    Values may be floats or numpy arrays.  Formal function symbols cannot be
    evaluated and raise :class:`EvaluationError`.
    """
    import numpy as np

    table: dict[str, Callable] = {
        "sin": np.sin,
        "cos": np.cos,
        "exp": np.exp,
        "ln": np.log,
        "inv": lambda v: 1.0 / v,
    }
    if funcs:
        table.update(funcs)

    def atom_value(a):
        if a in env:
            return env[a]
        if isinstance(a, FuncAtom):
            if any(a.derivs) or a.func not in table:
                raise EvaluationError(f"cannot evaluate formal symbol {a.label()}")
            return table[a.func](*(evaluate(arg, env, funcs) for arg in a.args))
        raise EvaluationError(f"no value for atom {a.label()}")

    total = 0.0
    for mono, coeff in e._terms.items():
        val = float(coeff)
        for a, k in mono:
            val = val * atom_value(a) ** k
        total = total + val
    return total


# -- convenience constructors ------------------------------------------------


def sym(name: str) -> Expr:
    return Expr.atom(Sym(name))


def sin(e: Expr) -> Expr:
    return Expr.atom(FuncAtom("sin", (_coerce(e),), (0,)))


def cos(e: Expr) -> Expr:
    return Expr.atom(FuncAtom("cos", (_coerce(e),), (0,)))


def exp(e: Expr) -> Expr:
    return Expr.atom(FuncAtom("exp", (_coerce(e),), (0,)))


def ln(e: Expr) -> Expr:
    return Expr.atom(FuncAtom("ln", (_coerce(e),), (0,)))


def function(name: str, *args) -> Expr:
    """A formal (undeclared) function symbol applied to expressions."""
    if name in _BUILTIN_FUNCS:
        raise ValueError(f"{name!r} is a built-in function")
    coerced = tuple(_coerce(a) for a in args)
    return Expr.atom(FuncAtom(name, coerced, (0,) * len(coerced)))


def sum_exprs(items: Iterable[Expr]) -> Expr:
    """The sum of ``items`` in one dict, frozen once.

    Equal to adding the items one ``+`` at a time, term order included, but
    linear in the terms rather than quadratic.
    """
    out: dict = {}
    for e in items:
        _add_terms(out, e._terms)
    return Expr._frozen(out)
