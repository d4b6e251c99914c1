"""Multi-indices over a named coordinate range.

A multi-index stores one non-negative exponent per coordinate name of its
range.  Symmetric jet coordinates are keyed by a single multi-index, never by
a tuple of repeated directions.
"""

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations_with_replacement
from typing import Callable, Iterator


class RangeMismatchError(ValueError):
    """A coordinate name is not part of the multi-index range."""


@dataclass(frozen=True, slots=True)
class MultiIndex:
    names: tuple[str, ...]
    exponents: tuple[int, ...]
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.names) != len(self.exponents):
            raise ValueError("one exponent per range name required")
        if any(e < 0 for e in self.exponents):
            raise ValueError("exponents must be non-negative")
        # graded order, x-before-y within a grade
        object.__setattr__(self, "_key", (sum(self.exponents), tuple(-e for e in self.exponents)))

    @classmethod
    def zero(cls, names: tuple[str, ...]) -> "MultiIndex":
        return cls(names, (0,) * len(names))

    @classmethod
    def unit(cls, names: tuple[str, ...], name: str) -> "MultiIndex":
        return cls.zero(names).incremented(name)

    @property
    def order(self) -> int:
        return self._key[0]

    def incremented(self, name: str) -> "MultiIndex":
        try:
            i = self.names.index(name)
        except ValueError:
            raise RangeMismatchError(f"{name!r} not in range {self.names}") from None
        exps = list(self.exponents)
        exps[i] += 1
        return MultiIndex(self.names, tuple(exps))

    def suffix_names(self) -> tuple[str, ...]:
        out: list[str] = []
        for name, e in zip(self.names, self.exponents):
            out.extend([name] * e)
        return tuple(out)

    def sort_key(self) -> tuple:
        return self._key

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.exponents)) + ")"


def indices_of_order(names: tuple[str, ...], order: int) -> Iterator[MultiIndex]:
    """All multi-indices of exact total order, graded-lex order within the grade."""
    m = len(names)
    for combo in combinations_with_replacement(range(m), order):
        exps = [0] * m
        for i in combo:
            exps[i] += 1
        yield MultiIndex(names, tuple(exps))


@cache
def indices_up_to(names: tuple[str, ...], max_order: int) -> tuple[MultiIndex, ...]:
    """All multi-indices with total order <= max_order, in graded-lex order,
    built once per ``(names, max_order)``."""
    return tuple(alpha for k in range(max_order + 1) for alpha in indices_of_order(names, k))


@cache
def _tower_steps(names: tuple[str, ...], max_order: int) -> tuple[tuple[int, tuple, tuple[int, ...], int], ...]:
    """``(position of beta, successor names, their positions, their order)``
    for every beta of ``indices_up_to(names, max_order)`` that has entries
    above it, in that order.  The successors of beta are the alpha with
    alpha - e_i = beta, i the first coordinate whose exponent in alpha is
    nonzero; their names are those ``names[i]``, in tower order."""
    indices = indices_up_to(names, max_order)
    position = {alpha.exponents: n for n, alpha in enumerate(indices)}
    groups: dict[int, tuple[list, list]] = {}
    for n, alpha in enumerate(indices[1:], start=1):
        e = alpha.exponents
        i = next(i for i, x in enumerate(e) if x)
        below = groups.setdefault(position[e[:i] + (e[i] - 1,) + e[i + 1 :]], ([], []))
        below[0].append(names[i])
        below[1].append(n)
    return tuple((b, tuple(ns), tuple(ps), indices[b].order + 1) for b, (ns, ps) in sorted(groups.items()))


def graded_tower(names: tuple[str, ...], max_order: int, seed, step: Callable) -> dict[MultiIndex, object]:
    """Fill the tower {alpha: entry} for |alpha| <= max_order, in
    ``indices_up_to`` order.

    The zero index holds ``seed``.  Every other alpha is one step from the
    entry below it, alpha - e_i, with i the first coordinate whose exponent
    in alpha is nonzero.  Each entry with entries above it is stepped from
    once: ``step(entry, successor_names, order)`` returns one entry per name
    of ``successor_names`` (the ``names[i]`` of its successors, in tower
    order), and ``order`` is their common order.  So a step can share work
    across directions.  The tower is empty when ``max_order < 0``.
    """
    entries = [seed] + [None] * (len(indices_up_to(names, max_order)) - 1)
    for below, successor_names, positions, order in _tower_steps(names, max_order):
        for n, entry in zip(positions, step(entries[below], successor_names, order), strict=True):
            entries[n] = entry
    return dict(zip(indices_up_to(names, max_order), entries))
