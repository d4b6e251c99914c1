"""Declarative fibered-manifold models and their coordinate enumerations.

Everything is single-chart: a bundle is just its named base and fiber
coordinates.  Order-zero coordinates are plain :class:`~varjet.expr.Sym`
atoms; jet and vertical coordinates are :class:`JetCoord` atoms carrying a
multi-index over the base range of the view they belong to.
"""

import re
from dataclasses import dataclass, field
from math import comb

from .expr import Expr, Sym
from .multiindex import MultiIndex, indices_up_to


class OrderError(ValueError):
    """Requested jet orders violate the required relation (e.g. s > r)."""


class CoordinateError(ValueError):
    """An expression mentions a symbol outside the declared coordinates."""


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*$")


@dataclass(frozen=True, slots=True)
class JetCoord:
    """A jet coordinate of some fiber symbol, or its vertical companion.

    ``alpha`` ranges over the base names of the bundle view.  Positional
    coordinates with an empty multi-index are represented by plain ``Sym``
    atoms instead, so only ``alpha.order >= 1`` or vertical atoms occur.
    """

    fiber: str
    alpha: MultiIndex
    vertical: bool = False
    # Cached at construction, outside equality; see Sym in varjet.expr.
    _hash: int = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.alpha.order == 0 and not self.vertical:
            raise ValueError("order-zero positional coordinates are plain symbols")
        object.__setattr__(self, "_hash", hash((self.fiber, self.alpha, self.vertical)))
        object.__setattr__(self, "_key", (1, int(self.vertical), self.fiber, self.alpha.sort_key(), self.alpha.names))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (JetCoord, (self.fiber, self.alpha, self.vertical))

    def sort_key(self) -> tuple:
        return self._key

    def label(self) -> str:
        head = ("d" + self.fiber) if self.vertical else self.fiber
        if self.alpha.order == 0:
            return head
        if all(len(n) == 1 for n in self.alpha.names):
            return head + "_" + "".join(self.alpha.suffix_names())
        return head + "[" + ",".join(map(str, self.alpha.exponents)) + "]"

    def __repr__(self) -> str:
        return self.label()


def jet_atom(fiber: str, alpha: MultiIndex, vertical: bool = False):
    """The atom for x^fiber_alpha (or its vertical companion)."""
    if alpha.order == 0 and not vertical:
        return Sym(fiber)
    return JetCoord(fiber, alpha, vertical)


@dataclass(frozen=True, slots=True)
class BundleSpec:
    """A fibered manifold given by coordinate names.

    ``second`` holds the top-level fiber names of a 2-fibered tower
    Q -> E -> M; both derived views (Q over E, Q over M) are available.
    """

    base: tuple[str, ...]
    fiber: tuple[str, ...]
    second: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = self.base + self.fiber + self.second
        if len(self.base) < 1 or len(self.fiber) < 1:
            raise ValueError("need at least one base and one fiber coordinate")
        if len(set(names)) != len(names):
            raise ValueError("coordinate names must be distinct")
        for n in names:
            if not _NAME_RE.match(n):
                raise ValueError(f"invalid coordinate name {n!r}")
            if n.startswith("d"):
                raise ValueError(f"{n!r}: names starting with 'd' are reserved for vertical coordinates")

    @property
    def m(self) -> int:
        return len(self.base)

    @property
    def n(self) -> int:
        return len(self.fiber)

    @property
    def is_two_fibered(self) -> bool:
        return bool(self.second)

    def over_fiber(self) -> "BundleSpec":
        """Top level fibered over the intermediate space: base dim m + n."""
        if not self.second:
            raise ValueError("not a 2-fibered bundle")
        return BundleSpec(self.base + self.fiber, self.second)

    def over_base(self) -> "BundleSpec":
        """Top level fibered directly over the original base."""
        if not self.second:
            raise ValueError("not a 2-fibered bundle")
        return BundleSpec(self.base, self.fiber + self.second)

    # -- atoms ---------------------------------------------------------------

    def base_atom(self, name: str) -> Sym:
        if name not in self.base:
            raise CoordinateError(f"{name!r} is not a base coordinate")
        return Sym(name)

    def fiber_atom(self, name: str) -> Sym:
        if name not in self.fiber:
            raise CoordinateError(f"{name!r} is not a fiber coordinate")
        return Sym(name)

    def coord(self, name: str) -> Expr:
        if name not in self.base + self.fiber + self.second:
            raise CoordinateError(f"unknown coordinate {name!r}")
        return Expr.atom(Sym(name))

    def jet(self, fiber: str, alpha: MultiIndex, vertical: bool = False) -> Expr:
        if fiber not in self.fiber:
            raise CoordinateError(f"{fiber!r} is not a fiber coordinate")
        if alpha.names != self.base:
            raise CoordinateError(f"multi-index range {alpha.names} does not match base {self.base}")
        return Expr.atom(jet_atom(fiber, alpha, vertical))

    def zero_index(self) -> MultiIndex:
        return MultiIndex.zero(self.base)


def enumerate_jet_coordinates(spec: BundleSpec, r: int, s: int | None):
    """All positional jet atoms up to order r, then vertical ones up to s.

    The order is deterministic: fibers in declaration order, multi-indices
    graded-lexicographic.  ``s is None`` means no vertical factor at all,
    which differs from ``s == 0`` (a vertical argument of jet order zero).
    """
    if r < 0:
        raise OrderError("jet order must be non-negative")
    if s is not None and not 0 <= s <= r:
        raise OrderError(f"vertical order s={s} must satisfy 0 <= s <= r={r}")
    out = []
    for alpha in indices_up_to(spec.base, r):
        for p in spec.fiber:
            out.append(jet_atom(p, alpha))
    if s is not None:
        for sigma in indices_up_to(spec.base, s):
            for p in spec.fiber:
                out.append(jet_atom(p, sigma, vertical=True))
    return out


def jet_coordinate_count(spec: BundleSpec, r: int, s: int | None) -> tuple[int, int]:
    """Closed-form (positional, vertical) coordinate counts."""
    pos = spec.n * comb(spec.m + r, r)
    ver = 0 if s is None else spec.n * comb(spec.m + s, s)
    return pos, ver


@dataclass(frozen=True, slots=True)
class FiberwiseJetSpaceSpec:
    """Coordinate space of fiberwise (k, r)-jets of maps Y1 -> Y2 over M.

    Coordinates z^a_{beta, gamma} with beta over the fiber names of Y1
    (order <= r) and gamma over all coordinates of Y1 (order <= k).
    """

    source: BundleSpec
    target_fibers: tuple[str, ...]
    r: int
    k: int

    def __post_init__(self) -> None:
        if self.r < 0 or self.k < 0:
            raise OrderError("jet orders must be non-negative")
        clash = set(self.target_fibers) & set(self.source.base + self.source.fiber)
        if clash:
            raise ValueError(f"target fiber names collide with source coordinates: {sorted(clash)}")


@dataclass(frozen=True, slots=True)
class FiberwiseCoord:
    """Label of one induced coordinate z^a_{beta, gamma}."""

    target: str
    beta: MultiIndex
    gamma: MultiIndex

    def label(self) -> str:
        parts = []
        if self.beta.order:
            parts.append("".join(self.beta.suffix_names()))
        if self.gamma.order:
            parts.append("," + "".join(self.gamma.suffix_names()))
        return self.target + ("_" + "".join(parts) if parts else "")

    def __repr__(self) -> str:
        return self.label()


def enumerate_fiberwise_coordinates(spec: FiberwiseJetSpaceSpec) -> list[FiberwiseCoord]:
    """Deterministic enumeration of all z^a_{beta, gamma}.

    For k = 0 and r = 0 this reduces to the bare target fiber coordinates.
    """
    src = spec.source
    all_names = src.base + src.fiber
    out = []
    for beta in indices_up_to(src.fiber, spec.r):
        for gamma in indices_up_to(all_names, spec.k):
            for a in spec.target_fibers:
                out.append(FiberwiseCoord(a, beta, gamma))
    return out


def fiberwise_coordinate_count(spec: FiberwiseJetSpaceSpec) -> int:
    src = spec.source
    per_target = comb(src.n + spec.r, spec.r) * comb(src.m + src.n + spec.k, spec.k)
    return len(spec.target_fibers) * per_target
