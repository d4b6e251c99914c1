"""Exterior forms with symbolic coefficients over a named coordinate range.

Coefficients live on strictly increasing basis-index tuples; inserting a
basis factor resolves the permutation sign immediately, so storage is always
canonical.  Signs follow the classical conventions: the new factor in a
wedge goes to the left, and contraction removes slot q with sign (-1)^(q-1).
"""

from dataclasses import dataclass
from typing import Mapping

from .expr import Expr, ZERO, Sym, diff, substitute


class DegreeError(ValueError):
    """Operation undefined at this form degree."""


class RangeError(ValueError):
    """Operands live over different coordinate ranges."""


def _insert_index(i: int, key: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Place dx^i in front of an increasing tuple; None kills a repeat."""
    if i in key:
        return None
    pos = sum(1 for j in key if j < i)
    sign = -1 if pos % 2 else 1
    return sign, key[:pos] + (i,) + key[pos:]


@dataclass(frozen=True)
class Form:
    """Degree-l exterior form with Expr coefficients.

    ``names`` orders the underlying coordinate range; basis indices are
    1-based positions into it.  Missing keys are zero coefficients; a degree
    beyond the range size collapses to the zero form.
    """

    degree: int
    names: tuple[str, ...]
    coeffs: Mapping[tuple[int, ...], Expr]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise DegreeError("form degree must be non-negative")
        clean: dict[tuple[int, ...], Expr] = {}
        if self.degree <= len(self.names):
            for key, c in self.coeffs.items():
                if len(key) != self.degree or any(a >= b for a, b in zip(key, key[1:])):
                    raise ValueError(f"basis tuple {key} is not strictly increasing of length {self.degree}")
                if any(not 1 <= i <= len(self.names) for i in key):
                    raise ValueError(f"basis index in {key} outside range of size {len(self.names)}")
                if not c.is_zero:
                    clean[key] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def zero(cls, degree: int, names: tuple[str, ...]) -> "Form":
        return cls(degree, names, {})

    @classmethod
    def basis(cls, names: tuple[str, ...], *indices: int) -> "Form":
        """The wedge monomial dx^{i1} ^ ... ^ dx^{il} (1-based, any order)."""
        form = cls(0, names, {(): Expr.const(1)})
        for i in reversed(indices):
            form = wedge_basis_left(i, form)
        return form

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, key: tuple[int, ...]) -> Expr:
        return self.coeffs.get(tuple(key), ZERO)

    def items(self) -> list[tuple[tuple[int, ...], Expr]]:
        return sorted(self.coeffs.items())

    def map_coeffs(self, fn) -> "Form":
        return Form(self.degree, self.names, {k: fn(c) for k, c in self.coeffs.items()})

    def __add__(self, other: "Form") -> "Form":
        _check_compat(self, other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, ZERO) + c
        return Form(self.degree, self.names, out)

    def __sub__(self, other: "Form") -> "Form":
        return self + other.scale(Expr.const(-1))

    def __neg__(self) -> "Form":
        return self.scale(Expr.const(-1))

    def scale(self, factor: Expr) -> "Form":
        return self.map_coeffs(lambda c: c * factor)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (self.degree, self.names, dict(self.coeffs)) == (other.degree, other.names, dict(other.coeffs))

    def __str__(self) -> str:
        from .render import form_text  # render imports this module

        return form_text(self)


def _check_compat(a: Form, b: Form) -> None:
    if a.names != b.names:
        raise RangeError(f"forms over different ranges: {a.names} vs {b.names}")
    if a.degree != b.degree:
        raise DegreeError(f"cannot combine degrees {a.degree} and {b.degree}")


def wedge_basis_left(i: int, omega: Form) -> Form:
    """dx^i wedged from the left onto a form."""
    out: dict[tuple[int, ...], Expr] = {}
    for key, c in omega.coeffs.items():
        placed = _insert_index(i, key)
        if placed is None:
            continue
        sign, new_key = placed
        out[new_key] = out.get(new_key, ZERO) + (c if sign > 0 else -c)
    return Form(omega.degree + 1, omega.names, out)


def wedge(omega: Form, theta: Form) -> Form:
    """Exterior product; degrees add, signs land on increasing tuples."""
    if omega.names != theta.names:
        raise RangeError(f"forms over different ranges: {omega.names} vs {theta.names}")
    total = omega.degree + theta.degree
    out: dict[tuple[int, ...], Expr] = {}
    for k1, c1 in omega.coeffs.items():
        for k2, c2 in theta.coeffs.items():
            sign, merged = 1, k2
            dead = False
            for i in reversed(k1):
                placed = _insert_index(i, merged)
                if placed is None:
                    dead = True
                    break
                s, merged = placed
                sign *= s
            if dead:
                continue
            c = c1 * c2
            out[merged] = out.get(merged, ZERO) + (c if sign > 0 else -c)
    return Form(total, omega.names, out)


def interior_product(j: int, omega: Form) -> Form:
    """Contraction with the coordinate vector along the j-th base direction."""
    if omega.degree < 1:
        raise DegreeError("cannot contract a 0-form")
    out: dict[tuple[int, ...], Expr] = {}
    for key, c in omega.coeffs.items():
        if j not in key:
            continue
        q = key.index(j)
        sign = -1 if q % 2 else 1
        new_key = key[:q] + key[q + 1 :]
        out[new_key] = out.get(new_key, ZERO) + (c if sign > 0 else -c)
    return Form(omega.degree - 1, omega.names, out)


def exterior_derivative(omega: Form) -> Form:
    """Classical exterior differential, differentiating coefficients by the
    coordinate symbols of the range names."""
    result = Form.zero(omega.degree + 1, omega.names)
    for i, name in enumerate(omega.names, start=1):
        result = result + wedge_basis_left(i, omega.map_coeffs(lambda c, a=Sym(name): diff(c, a)))
    return result


def substitute_form(omega: Form, bindings) -> Form:
    return omega.map_coeffs(lambda c: substitute(c, bindings))
