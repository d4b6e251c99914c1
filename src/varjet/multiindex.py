"""Multi-indices over a named coordinate range.

A multi-index stores one non-negative exponent per coordinate name of its
range.  Symmetric jet coordinates are keyed by a single multi-index, never by
a tuple of repeated directions.
"""

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Iterator


class RangeMismatchError(ValueError):
    """A coordinate name is not part of the multi-index range."""


@dataclass(frozen=True, slots=True)
class MultiIndex:
    names: tuple[str, ...]
    exponents: tuple[int, ...]
    # Computed once at construction and kept out of equality; pickling
    # rebuilds them (see __reduce__), since string hashes differ per process.
    _hash: int = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.names) != len(self.exponents):
            raise ValueError("one exponent per range name required")
        if any(e < 0 for e in self.exponents):
            raise ValueError("exponents must be non-negative")
        object.__setattr__(self, "_hash", hash((self.names, self.exponents)))
        # graded order, x-before-y within a grade
        object.__setattr__(self, "_key", (sum(self.exponents), tuple(-e for e in self.exponents)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (MultiIndex, (self.names, self.exponents))

    @classmethod
    def zero(cls, names: tuple[str, ...]) -> "MultiIndex":
        return cls(names, (0,) * len(names))

    @classmethod
    def unit(cls, names: tuple[str, ...], name: str) -> "MultiIndex":
        return cls.zero(names).incremented(name)

    @classmethod
    def from_positions(cls, names: tuple[str, ...], positions: tuple[int, ...]) -> "MultiIndex":
        """Build from 1-based coordinate positions, one increment each."""
        exps = [0] * len(names)
        for pos in positions:
            if not 1 <= pos <= len(names):
                raise RangeMismatchError(f"position {pos} outside range of size {len(names)}")
            exps[pos - 1] += 1
        return cls(names, tuple(exps))

    @property
    def order(self) -> int:
        return self._key[0]

    def exponent(self, name: str) -> int:
        try:
            return self.exponents[self.names.index(name)]
        except ValueError:
            raise RangeMismatchError(f"{name!r} not in range {self.names}") from None

    def incremented(self, name: str) -> "MultiIndex":
        try:
            i = self.names.index(name)
        except ValueError:
            raise RangeMismatchError(f"{name!r} not in range {self.names}") from None
        exps = list(self.exponents)
        exps[i] += 1
        return MultiIndex(self.names, tuple(exps))

    def positions(self) -> tuple[int, ...]:
        """Expanded 1-based positions, e.g. exponents (2, 1) -> (1, 1, 2)."""
        out: list[int] = []
        for i, e in enumerate(self.exponents):
            out.extend([i + 1] * e)
        return tuple(out)

    def suffix_names(self) -> tuple[str, ...]:
        out: list[str] = []
        for name, e in zip(self.names, self.exponents):
            out.extend([name] * e)
        return tuple(out)

    def sort_key(self) -> tuple:
        return self._key

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.exponents)) + ")"


def increment(alpha: MultiIndex, name: str) -> MultiIndex:
    """Raise the exponent of one range coordinate by one."""
    return alpha.incremented(name)


def indices_of_order(names: tuple[str, ...], order: int) -> Iterator[MultiIndex]:
    """All multi-indices of exact total order, graded-lex order within the grade."""
    m = len(names)
    for combo in combinations_with_replacement(range(m), order):
        exps = [0] * m
        for i in combo:
            exps[i] += 1
        yield MultiIndex(names, tuple(exps))


def indices_up_to(names: tuple[str, ...], max_order: int) -> list[MultiIndex]:
    """All multi-indices with total order <= max_order, in graded-lex order."""
    out: list[MultiIndex] = []
    for k in range(max_order + 1):
        out.extend(indices_of_order(names, k))
    return out
