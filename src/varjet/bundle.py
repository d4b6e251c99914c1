"""Declarative fibered-manifold models and their coordinate enumerations.

Everything is single-chart: a bundle is just its named base and fiber
coordinates.  Order-zero coordinates are plain :class:`~varjet.expr.Sym`
atoms; jet and vertical coordinates are :class:`JetCoord` atoms carrying a
multi-index over the base range of the view they belong to.
"""

import re
from dataclasses import dataclass
from math import comb

from .expr import Expr, Sym, _Atom, _enc
from .multiindex import MultiIndex, indices_up_to


class OrderError(ValueError):
    """Requested jet orders violate the required relation (e.g. s > r)."""


class CoordinateError(ValueError):
    """An expression mentions a symbol outside the declared coordinates."""


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*$")


_JETS: dict = {}  # (fiber, alpha.names, alpha.exponents, vertical) -> its JetCoord, for the process


class JetCoord(_Atom):
    """A jet coordinate of some fiber symbol, or its vertical companion.

    ``alpha`` ranges over the base names of the bundle view.  Positional
    coordinates with an empty multi-index are represented by plain ``Sym``
    atoms instead, so only ``alpha.order >= 1`` or vertical atoms occur.

    An atom like :class:`~varjet.expr.Sym`, whose identity is
    ``_enc((1, int(vertical), fiber, alpha.sort_key(), alpha.names))``.
    There is one ``JetCoord`` per value, spelled and labelled once.
    """

    def __new__(cls, fiber: str, alpha: MultiIndex, vertical: bool = False):
        value = (fiber, alpha.names, alpha.exponents, vertical)
        self = _JETS.get(value)
        if self is None:
            if alpha.order == 0 and not vertical:
                raise ValueError("order-zero positional coordinates are plain symbols")
            from .render import _jet_text  # render imports this module
            self = str.__new__(cls, _enc((1, int(vertical), fiber, alpha.sort_key(), alpha.names)))
            self.__dict__.update(fiber=fiber, alpha=alpha, vertical=vertical)
            self.__dict__["_label"] = _jet_text(self)
            _JETS[value] = self
        return self

    def __reduce__(self):
        return (JetCoord, (self.fiber, self.alpha, self.vertical))


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

    def over_fiber(self) -> "BundleSpec":
        """Top level fibered over the intermediate space: base dim m + n."""
        if not self.second:
            raise ValueError("not a 2-fibered bundle")
        return BundleSpec(self.base + self.fiber, self.second)

    # -- atoms ---------------------------------------------------------------

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
