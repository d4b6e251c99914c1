"""Exact symbolic scalar expressions in canonical polynomial form.

An :class:`Expr` is an immutable Laurent polynomial with rational
coefficients over *atoms*.  Atoms are plain coordinate symbols
(:class:`Sym`), jet coordinates (defined in :mod:`varjet.bundle`) and
applications of elementary or formal function symbols (:class:`FuncAtom`).
Each atom is a ``str`` whose value spells its key in an order-preserving
encoding (:func:`_enc`), so one string is its identity and its place in
the term order.  A monomial is a tuple of ``(atom, exponent)`` pairs sorted
by atom.  A coefficient is an ``int`` when its value is integral and a
:class:`~fractions.Fraction` otherwise; the two compare and hash alike, so
the type never changes a result.
Every arithmetic operation produces the canonical form directly: an
expanded sum of monomials, one term per monomial and no zero coefficient,
so structural equality decides zero on the polynomial class.  Terms are
kept in the order arithmetic inserts them, which is the order
:func:`evaluate` sums in; :meth:`Expr.terms` and rendering sort them
graded-lexicographically, and equality ignores the order.

Distinct function applications are treated as independent atoms.  This is
sound for zero testing but incomplete: ``sin(u)**2 + cos(u)**2 - 1`` does
not reduce to zero.
"""

from fractions import Fraction
from typing import Callable, Iterable, Mapping

Monomial = tuple  # tuple[tuple[atom, int], ...], sorted by atom

_BUILTIN_FUNCS = ("sin", "cos", "exp", "ln", "inv")


class EvaluationError(ValueError):
    """Numeric evaluation hit an atom with no value (or a formal symbol)."""


def _exact(value) -> int | Fraction:
    """``value`` as a coefficient: an ``int`` if integral, else a ``Fraction``.
    Sums and products of ints stay ints, so arithmetic calls this only on a
    result that is not an ``int``."""
    if type(value) is int:
        return value
    q = value if type(value) is Fraction else Fraction(value)
    return q.numerator if q.denominator == 1 else q


_FLIP = str.maketrans("0123456789abcdef", "fedcba9876543210")
_RESERVED = frozenset("\x00\x02\x04")  # the marks of _enc, which no name may hold
_SYMS: dict = {}  # name -> its Sym, for the process


def _enc(key) -> str:
    """The order-preserving, prefix-free spelling of a key: two keys compare
    as their spellings do.  An int is a length mark ``chr(0x8000 ± digits)``
    (from 0x4000 digits on, ``chr(0x8000 ± 0x4000)`` and the signed length)
    and its hex digits, complemented when negative; a name ends with
    ``"\\x00"``; an atom spells as itself; a tuple puts ``"\\x04"`` before
    each element and ``"\\x02"`` at its end, so a prefix sorts first."""
    if type(key) is int:
        digits = format(key, "x") if key >= 0 else format(-key, "x").translate(_FLIP)
        size = len(digits) if key >= 0 else -len(digits)
        if -0x4000 < size < 0x4000:
            return chr(0x8000 + size) + digits
        return chr(0xC000 if size > 0 else 0x4000) + _enc(size) + digits
    if type(key) is tuple:
        return "".join(["\x04" + _enc(v) for v in key]) + "\x02"
    if isinstance(key, _Atom):
        return key
    if not _RESERVED.isdisjoint(key):
        raise ValueError(f"name {key!r} holds a reserved control character")
    return key + "\x00"


class _Atom(str):
    """The protocol every atom kind shares.

    An atom is a ``str`` whose string value is :func:`_enc` of its key, a
    tuple that opens with the kind (0 for :class:`Sym`, 1 for jet
    coordinates, 2 for :class:`FuncAtom`).  So atoms hash, compare for
    equality and sort in C, by one string: the term order of monomials is
    the order of their atoms' strings.  That value is never output:
    ``str``, ``repr``, ``format`` and :meth:`label` give the text label,
    spelled when the atom is built, and each kind's ``__reduce__`` rebuilds
    a pickled atom from its public fields.
    """

    def __setattr__(self, *_):
        raise AttributeError("atoms are immutable")

    __delattr__ = __setattr__

    def label(self) -> str:
        return self._label

    __str__ = __repr__ = label

    def __format__(self, spec: str) -> str:
        return format(self._label, spec)


class Sym(_Atom):
    """A plain coordinate symbol, identified by name: ``_enc((0, name))``.
    There is one ``Sym`` per name."""

    def __new__(cls, name: str):
        self = _SYMS.get(name)
        if self is None:
            self = _SYMS[name] = str.__new__(cls, _enc((0, name)))
            self.__dict__.update(name=name, _label=name)
        return self

    def __reduce__(self):
        return (Sym, (self.name,))


def _mono_key(mono: Monomial) -> tuple:
    return (sum(e for _, e in mono), mono)


class FuncAtom(_Atom):
    """Application of an elementary or formal function symbol.

    ``derivs`` counts formal partial derivatives per argument slot; it stays
    all-zero for the built-in functions, whose derivatives have closed forms.

    The identity is ``_enc((2, func, derivs, args))``, each argument spelled
    as its terms ``((degree, monomial), numerator, denominator)`` in sorted
    order, so equal arguments built in another term order spell alike.  It
    and the text label, both built here, read only what the argument atoms
    already carry: no call recurses per nesting level.
    """

    def __new__(cls, func: str, args: tuple, derivs: tuple[int, ...]):
        if len(derivs) != len(args):
            raise ValueError("one derivative count per argument required")
        if func in _BUILTIN_FUNCS and any(derivs):
            raise ValueError(f"{func} has closed-form derivatives")
        spelled = tuple(
            tuple(sorted([(_mono_key(m), c.numerator, c.denominator) for m, c in a._terms.items()])) for a in args
        )
        self = str.__new__(cls, _enc((2, func, derivs, spelled)))
        d = self.__dict__
        d["func"], d["args"], d["derivs"] = func, args, derivs
        from .render import _func_text  # render imports this module
        d["_label"] = _func_text(self)
        return self

    def __reduce__(self):
        return (FuncAtom, (self.func, self.args, self.derivs))


def _lowered(mono: Monomial, i: int, k: int) -> Monomial:
    """``mono`` divided by its i-th atom, whose exponent is ``k``."""
    if k == 1:
        return mono[:i] + mono[i + 1 :]
    return mono[:i] + ((mono[i][0], k - 1),) + mono[i + 1 :]


def _add_terms(out: dict, terms: Iterable[tuple[Monomial, Fraction]]) -> None:
    """Add ``(monomial, coefficient)`` pairs into ``out``, dropping monomials
    that cancel.

    A monomial that cancels and comes back later re-enters at the end, just
    as it does when the same sums are built one ``+`` at a time.
    """
    for m, c in terms:
        prev = out.get(m)
        if prev is None:
            out[m] = c
        else:
            c = prev + c
            if c:
                out[m] = c if type(c) is int else _exact(c)
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
    ka, kb = a[0][0], b[0][0]
    while True:
        if ka < kb:
            out.append(a[i])
            i += 1
            if i == na:
                out.extend(b[j:])
                break
            ka = a[i][0]
        elif kb < ka:
            out.append(b[j])
            j += 1
            if j == nb:
                out.extend(a[i:])
                break
            kb = b[j][0]
        else:  # the same atom on both sides
            e = a[i][1] + b[j][1]
            if e:
                out.append((a[i][0], e))
            i += 1
            j += 1
            if i == na or j == nb:
                out.extend(a[i:] if j == nb else b[j:])
                break
            ka, kb = a[i][0], b[j][0]
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

    @classmethod
    def _from_sums(cls, terms: dict) -> "Expr":
        """Adopt a dict of accumulated sums and products: zeros dropped,
        integral values stored as ``int``."""
        return cls._frozen({m: c if type(c) is int else _exact(c) for m, c in terms.items() if c})

    def __setattr__(self, *_):
        raise AttributeError("Expr is immutable")

    def __reduce__(self):
        # Rebuilt from the term map; the cached hash is never pickled.
        return (Expr, (self._terms,))

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value) -> "Expr":
        q = _exact(value)
        return cls._frozen({(): q} if q else {})

    @classmethod
    def atom(cls, a) -> "Expr":
        return cls._frozen({((a, 1),): 1})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

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

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Expr":
        other = _coerce(other)
        out = dict(self._terms)
        _add_terms(out, other._terms.items())
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
            if c2 == 1 and type(c2) is int:  # each coefficient as it is
                return Expr._frozen({_mono_mul(m1, m2): c1 for m1, c1 in self._terms.items()})
            terms = {}
            for m1, c1 in self._terms.items():
                c = c1 * c2
                terms[_mono_mul(m1, m2)] = c if type(c) is int else _exact(c)
            return Expr._frozen(terms)
        out: dict = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _mono_mul(m1, m2)
                prev = out.get(m)
                out[m] = c1 * c2 if prev is None else prev + c1 * c2
        return Expr._from_sums(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Expr":
        if not isinstance(k, int):
            raise TypeError("exponents must be integers")
        if k < 0:
            return self.inverse() ** (-k)
        result = Expr.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:  # a square after the last bit would never be read
                base = base * base
        return result

    def inverse(self) -> "Expr":
        """Exact reciprocal of a constant or single monomial; otherwise an
        opaque reciprocal atom (sound for zero testing, not simplified)."""
        if self.is_zero:
            raise ZeroDivisionError("division by the zero expression")
        if len(self._terms) == 1:
            ((mono, coeff),) = self._terms.items()
            inv_mono = tuple((a, -e) for a, e in mono)  # same atoms, still sorted
            return Expr({inv_mono: _exact(Fraction(1) / coeff)})
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
        from .render import _expr_text  # render imports this module
        return _expr_text(self)

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
    chains: dict = {}  # function atom -> its derivative by c, for this call only
    for mono, coeff in e._terms.items():
        for i, (a, k) in enumerate(mono):
            if a == c:
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
    return Expr._from_sums(out)


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
        d = Expr._from_sums(terms)
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
    """Simultaneously replace bound atoms, recursing into function arguments.

    The terms go straight into one dict, with the terms and term order of
    summing the products ``coeff * image(a) ** k * ...`` one term at a time.
    Each atom's image and each ``image ** k`` are built once per call.  A
    power that is one monomial folds into the term's monomial and
    coefficient: a product by one monomial maps terms one to one, in order,
    so it commutes with the other factors.  Only the powers of several terms
    are multiplied out, in the order of the term's factors.
    """
    if not bindings:
        return e
    return _substituted(e, bindings, {}, {})


def _substituted(e: Expr, bindings: Mapping, images: dict, powers: dict) -> Expr:
    """``substitute``, with its memos: ``images`` maps an atom to its image,
    or to ``None`` when the bindings leave it unchanged, and ``powers`` maps
    a factor ``(a, k)`` to ``image(a) ** k``, or to ``None``."""
    out: dict = {}
    for mono, coeff in e._terms.items():
        kept = []  # the unchanged factors, a sorted monomial
        folds = []  # the monomials of one-monomial powers
        sums = []  # the other powers
        c = coeff
        for factor in mono:
            if factor not in powers:
                a, k = factor
                if a not in images:
                    images[a] = _image(a, bindings, images, powers)
                powers[factor] = None if images[a] is None else images[a] ** k
            p = powers[factor]
            if p is None:
                kept.append(factor)
            elif len(p._terms) == 1:
                ((m2, c2),) = p._terms.items()
                folds.append(m2)
                c = c * c2
            else:
                sums.append(p)
        m = tuple(kept)
        for m2 in folds:
            m = _mono_mul(m, m2)
        term = Expr._frozen({m: c if type(c) is int else _exact(c)})
        for p in sums:
            term = term * p
        _add_terms(out, term._terms.items())
    return Expr._frozen(out)


def _image(a, bindings: Mapping, images: dict, powers: dict):
    """The image of atom ``a``, or ``None`` when the bindings leave it unchanged."""
    if a in bindings:
        return _coerce(bindings[a])
    if isinstance(a, FuncAtom):
        new_args = tuple(_substituted(arg, bindings, images, powers) for arg in a.args)
        if new_args != a.args:
            return Expr.atom(FuncAtom(a.func, new_args, a.derivs))
    return None


def evaluate(e: Expr, env: Mapping):
    """Numerically evaluate with atom values from ``env``.

    Values may be floats or numpy arrays.  Formal function symbols cannot be
    evaluated and raise :class:`EvaluationError`.

    The floats are those of the plain sum of products: each term, in
    insertion order, is ``float(coeff)`` times its factors ``value ** k``
    from left to right, added to a total that starts at ``0.0``.  Within one
    call each function atom is computed once, however many terms or nested
    arguments hold it; an array factor with ``k == 1`` is the array itself,
    which ``array ** 1`` equals bit for bit; and products and sums
    accumulate in place, in arrays this call allocated, when shape and
    dtype already match.  No ``env`` value is written to, and nothing
    outlives the call.
    """
    import numpy as np  # only numeric evaluation needs numpy

    table: dict[str, Callable] = {
        "sin": np.sin,
        "cos": np.cos,
        "exp": np.exp,
        "ln": np.log,
        "inv": lambda v: 1.0 / v,
    }
    return _sum_of_products(e, env, table, {})


# The helpers of ``evaluate`` are module functions, not closures: two nested
# functions that call each other form a reference cycle, which keeps every
# call's environment and memo arrays alive until the cycle collector runs
# (on the oracle grids, about twice the peak memory).


def _sum_of_products(e: Expr, env: Mapping, table: dict, memo: dict):
    import numpy as np

    total = 0.0
    for mono, coeff in e._terms.items():
        val = float(coeff)
        for a, k in mono:
            v = _atom_value(a, env, table, memo)
            if k != 1 or type(v) is not np.ndarray:  # a numpy scalar NaN loses its sign in ** 1
                v = v**k
            if _fits(val, v):
                val *= v
            else:
                val = val * v
        if _fits(total, val):
            total += val
        else:
            total = total + val
    return total


def _atom_value(a, env: Mapping, table: dict, memo: dict):
    if a in env:
        return env[a]
    if a in memo:
        return memo[a]
    if isinstance(a, FuncAtom):
        if any(a.derivs) or a.func not in table:
            raise EvaluationError(f"cannot evaluate formal symbol {a.label()}")
        memo[a] = value = table[a.func](*(_sum_of_products(arg, env, table, memo) for arg in a.args))
        return value
    raise EvaluationError(f"no value for atom {a.label()}")


def _fits(acc, v) -> bool:
    """Whether ``acc`` may take ``v`` in place with the floats of the
    out-of-place operator: two plain arrays of one shape and dtype.  Callers
    pass as ``acc`` only a product or sum that their call allocated."""
    import numpy as np

    return type(acc) is np.ndarray and type(v) is np.ndarray and acc.shape == v.shape and acc.dtype == v.dtype


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
        _add_terms(out, e._terms.items())
    return Expr._frozen(out)
