"""Finite-difference validation of symbolic results on sampled sections.

Sections are sampled on uniform grids over a box of any base dimension; jet
coordinates up to order 2 evaluate through second-order central stencils,
the tensor product of three-point stencils along the axes.  The action
variation check discretizes the action with the trapezoid rule and compares
its numeric directional derivative against the Euler-Lagrange pairing, which
is an identity when the variation vanishes near the boundary.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .bundle import BundleSpec, JetCoord
from .expr import Expr, FuncAtom, Sym, evaluate
from .variational import Lagrangian, euler_lagrange

EPSILON_ACTION = 1e-4  # step for the numeric derivative of the action

# Default grid points per axis and tolerance of the oracle, by base dimension.
DEFAULTS = {1: (2000, 1e-4), 2: (200, 1e-3)}
# Oracle grids: at least MIN_GRID points per axis, at most MAX_GRID_POINTS in all.
MIN_GRID = 5
MAX_GRID_POINTS = 10**6


class StencilError(ValueError):
    """A grid point lacks the neighbors required by the stencil."""


@dataclass(frozen=True)
class GridSection:
    """Samples of a section on a uniform grid over a box.

    ``values`` holds one array per fiber coordinate, shaped like the grid;
    the section makes them read-only.  Grid evaluations are kept in a memo
    that lives and dies with the section, one read-only array per distinct
    expression in its term order (see ``eval_jet_grid``).
    """

    bundle: BundleSpec
    bounds: tuple[tuple[float, float], ...]
    values: Mapping[str, np.ndarray]
    _grid_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.bounds) != self.bundle.m:
            raise ValueError("one bounds pair per base axis required")
        if set(self.values) != set(self.bundle.fiber):
            raise ValueError("need samples for exactly the fiber coordinates")
        shape = self.shape
        for p, arr in self.values.items():
            if arr.shape != shape:
                raise ValueError(f"samples for {p!r} have shape {arr.shape}, expected {shape}")
        if any(n < MIN_GRID for n in shape):
            raise ValueError(f"need at least {MIN_GRID} points per axis for central stencils")
        for arr in self.values.values():
            arr.flags.writeable = False  # the memo's evaluations must not go stale

    @property
    def shape(self) -> tuple[int, ...]:
        return next(iter(self.values.values())).shape

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((hi - lo) / (n - 1) for (lo, hi), n in zip(self.bounds, self.shape))

    @cached_property
    def _axes(self) -> tuple[np.ndarray, ...]:
        axes = tuple(np.linspace(lo, hi, n) for (lo, hi), n in zip(self.bounds, self.shape))
        for a in axes:
            a.flags.writeable = False  # shared by every caller
        return axes

    def axis_points(self, axis: int) -> np.ndarray:
        """The grid coordinates along one axis, built once per section."""
        return self._axes[axis]

    def perturbed(self, eta: "GridSection", epsilon: float) -> "GridSection":
        vals = {p: self.values[p] + epsilon * eta.values[p] for p in self.values}
        return GridSection(self.bundle, self.bounds, vals)


def sample_section(
    bundle: BundleSpec,
    bounds: tuple[tuple[float, float], ...],
    shape: tuple[int, ...],
    funcs: Mapping[str, Callable],
) -> GridSection:
    """Sample callables of the base coordinates onto a grid."""
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(bounds, shape)]
    coords = np.meshgrid(*axes, indexing="ij")
    values = {p: np.asarray(fn(*coords), dtype=float) for p, fn in funcs.items()}
    return GridSection(bundle, bounds, values)


def bump(lo: float, hi: float) -> Callable[[np.ndarray], np.ndarray]:
    """A C^2 bump supported strictly inside [lo, hi], 15 % in from each end.

    Cubic in the support indicator, so the function and its first two
    derivatives vanish at the support boundary.
    """
    a = lo + 0.15 * (hi - lo)
    b = hi - 0.15 * (hi - lo)
    scale = ((b - a) / 2) ** 6

    def fn(t: np.ndarray) -> np.ndarray:
        w = np.maximum((t - a) * (b - t), 0.0)
        return w**3 / scale

    return fn


# Central three-point stencils along one axis, by derivative order: the
# (offset, integer weight) pairs and the factor of h**order in the divisor.
_CENTRAL = (
    (((0, 1),), 1),
    (((1, 1), (-1, -1)), 2),
    (((1, 1), (0, -2), (-1, 1)), 1),
)


def _derivative_array(arr: np.ndarray, exponents: tuple[int, ...], spacing: tuple[float, ...]) -> np.ndarray:
    """Central finite difference of grid samples for the partial derivative
    with the given exponents per axis, in any base dimension.

    The stencil is the tensor product of the axes' three-point stencils,
    summed in one pass and divided once.  The divisor is a power of two
    times powers of the spacings, so every float equals that of the closed
    forms such as ``(a[2:] - a[:-2]) / (2*h)``.  Supports total order <= 2;
    the result is NaN-padded at the boundary where the stencil does not fit.
    """
    if sum(exponents) > 2:
        raise StencilError("stencils are provided up to second order only")
    out = np.full_like(arr, np.nan)  # allocated before the sum, which measured faster than after it
    total = None
    for taps in itertools.product(*(_CENTRAL[k][0] for k in exponents)):
        index = tuple(slice(1 + o, n - 1 + o) if k else slice(None) for (o, _), k, n in zip(taps, exponents, arr.shape))
        weight = math.prod(w for _, w in taps)
        term = arr[index] if abs(weight) == 1 else abs(weight) * arr[index]
        if total is None:  # the first taps, at offsets +1 and 0, have weight 1
            total = term
        else:
            total = total + term if weight > 0 else total - term
    divisor = math.prod(_CENTRAL[k][1] * h**k for k, h in zip(exponents, spacing) if k)
    out[tuple(slice(1, -1) if k else slice(None) for k in exponents)] = total / divisor
    return out


def _jet_order(e: Expr) -> int:
    """The highest jet order among the horizontal jet coordinates of ``e``."""
    return max((a.alpha.order for a in e.atoms() if isinstance(a, JetCoord) and not a.vertical), default=0)


def jet_environment(e: Expr, s: GridSection) -> dict:
    """Numeric arrays over the grid for every coordinate atom appearing in ``e``."""
    env: dict = dict(zip(map(Sym, s.bundle.base), np.meshgrid(*s._axes, indexing="ij")))
    for p in s.bundle.fiber:
        env[Sym(p)] = s.values[p]  # evaluate never writes to its env
    for a in e.atoms():
        if isinstance(a, JetCoord):
            if a.vertical:
                raise ValueError("grid evaluation does not take vertical coordinates")
            env[a] = _derivative_array(s.values[a.fiber], a.alpha.exponents, s.spacing)
    return env


def _order_key(e: Expr) -> tuple:
    """The terms of ``e`` in insertion order, function arguments included.

    ``evaluate`` sums in this order, so two expressions with equal keys
    evaluate to the same floats; ``Expr.__eq__`` ignores the order, and
    equal expressions may not."""
    return tuple((tuple((_atom_order_key(a), k) for a, k in mono), c) for mono, c in e._terms.items())


def _atom_order_key(a):
    if isinstance(a, FuncAtom):
        return (a.func, tuple(map(_order_key, a.args)), a.derivs)
    return a


def eval_jet_grid(e: Expr, s: GridSection) -> np.ndarray:
    """Evaluate a jet expression over the whole grid (NaN at the boundary
    margin required by its stencils).

    The result is read-only and kept on ``s``: the same expression, in the
    same term order, is evaluated once per section.  numpy's floating-point
    warnings are silenced; a value outside the domain is NaN.
    """
    key = _order_key(e)
    values = s._grid_memo.get(key)
    if values is None:
        with np.errstate(all="ignore"):
            values = np.asarray(evaluate(e, jet_environment(e, s)), dtype=float)
        if values.shape != s.shape:
            values = values * np.ones(s.shape)
        values.flags.writeable = False
        s._grid_memo[key] = values
    return values


def eval_jet(e: Expr, s: GridSection, point: tuple[int, ...]) -> float:
    """Evaluate a jet expression at one grid index via central stencils.

    The value is the entry of ``eval_jet_grid(e, s)`` at ``point``: the
    first call on an expression evaluates the whole grid and keeps it on
    ``s``, and later calls at any point read it.

    A point that is not a tuple or list of one integer index per base axis
    (a ``bool`` is not an index) raises ``ValueError``; a point too close
    to the boundary raises ``StencilError``; a value that is not finite
    there, such as ``ln`` of a negative number, raises a plain
    ``ValueError``.
    """
    m = s.bundle.m
    indices = isinstance(point, (tuple, list)) and len(point) == m
    if not (indices and all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in point)):
        raise ValueError(f"a grid point has {m} integer indices, one per base axis, got {point!r}")
    order = _jet_order(e)
    margin = 1 if order else 0
    for idx, n in zip(point, s.shape):
        if not margin <= idx < n - margin:
            raise StencilError(f"point {point} lacks stencil support at order {order}")
    value = float(eval_jet_grid(e, s)[tuple(point)])
    if not math.isfinite(value):
        raise ValueError(f"the value at point {point} is not finite: {value}")
    return value


def _interior(m: int, margin: int):
    return (slice(margin, -margin),) * m


def check_total_derivative(e: Expr, s: GridSection, direction: str | None = None) -> float:
    """Largest relative gap between the evaluated total derivative and the
    finite-difference derivative of the evaluated expression.

    Normalized by the larger of 1 and the field magnitude, over interior
    points with full nested-stencil support.
    """
    from .jetcalc import total_derivative

    bundle = s.bundle
    direction = direction or bundle.base[0]
    axis = bundle.base.index(direction)
    lhs = eval_jet_grid(total_derivative(e, direction, bundle, _jet_order(e), None), s)
    unit = tuple(int(a == axis) for a in range(bundle.m))
    rhs = _derivative_array(eval_jet_grid(e, s), unit, s.spacing)
    sl = _interior(bundle.m, 2)
    gap = np.max(np.abs(lhs[sl] - rhs[sl]))
    scale = max(1.0, float(np.max(np.abs(lhs[sl]))))
    return float(gap) / scale


def _trapezoid_weights(shape: tuple[int, ...]) -> np.ndarray:
    w = np.ones(shape)
    for axis in range(len(shape)):
        edge = [slice(None)] * len(shape)
        edge[axis] = 0
        w[tuple(edge)] *= 0.5
        edge[axis] = -1
        w[tuple(edge)] *= 0.5
    return w


def _integrate(values: np.ndarray, spacing: tuple[float, ...]) -> float:
    w = _trapezoid_weights(values.shape)
    total = float(np.sum(w * values))
    for h in spacing:
        total *= h
    return total


def check_action_variation(
    lag: Lagrangian, s: GridSection, eta: GridSection, epsilon: float = EPSILON_ACTION
) -> tuple[float, float, float]:
    """Compare the numeric directional derivative of the discretized action
    against the Euler-Lagrange pairing with the variation.

    Returns (derivative, pairing, relative error).  The relative error is 0
    when the gap is within the round-off of the two actions, 4 eps times the
    larger integral of |density|, divided by ``epsilon``.  The variation must
    vanish with its first derivatives near the grid boundary, otherwise the
    identity picks up boundary terms and a warning-level mismatch.
    """
    if not lag.is_classical:
        raise ValueError("action comparison needs degree equal to the base dimension")
    bundle = lag.bundle
    margin = 2
    sl = _interior(bundle.m, margin)
    border = np.ones(s.shape, dtype=bool)
    border[_interior(bundle.m, max(2, int(0.05 * min(s.shape))))] = False
    for p in bundle.fiber:
        if np.max(np.abs(eta.values[p][border])) > 1e-12:
            import warnings

            warnings.warn("variation does not vanish near the boundary; expect boundary terms")
            break

    density = lag.value.coefficient(tuple(range(1, bundle.m + 1)))
    spacing = s.spacing

    def action(section: GridSection) -> tuple[float, float]:
        """The discretized action and the integral of |density|."""
        vals = eval_jet_grid(density, section)[sl]
        return _integrate(vals, spacing), _integrate(np.abs(vals), spacing)

    (plus, size_plus), (minus, size_minus) = action(s.perturbed(eta, epsilon)), action(s.perturbed(eta, -epsilon))
    lhs = (plus - minus) / (2 * epsilon)

    result = euler_lagrange(lag)
    pairing = np.zeros(s.shape)[sl]
    for p in bundle.fiber:
        component = result.component(p)
        pairing = pairing + eval_jet_grid(component, s)[sl] * eta.values[p][sl]
    rhs = _integrate(pairing, spacing)

    gap = abs(lhs - rhs)
    # Each action is rounded to a few eps of the integral of |density|, and
    # the difference quotient divides that by epsilon.  A gap at this noise
    # floor, as for a null Lagrangian with both sides near zero, is no error.
    if gap <= 4 * np.finfo(float).eps * max(size_plus, size_minus) / epsilon:
        return lhs, rhs, 0.0
    scale = max(abs(lhs), abs(rhs), 1e-14)
    return lhs, rhs, gap / scale


# -- the oracle driver: grid policy, default sections and the checks --------------


def settings(m: int, grid: int | None, tolerance: float | None) -> tuple[int, float]:
    """Grid points per axis and tolerance of an m-dimensional oracle: the
    given values or the defaults, checked before any array is allocated."""
    default_grid, default_tolerance = DEFAULTS[m]
    grid = default_grid if grid is None else grid
    tolerance = default_tolerance if tolerance is None else tolerance
    if grid < MIN_GRID:
        raise ValueError(f"an oracle grid needs at least {MIN_GRID} points per axis, got {grid}")
    if grid**m > MAX_GRID_POINTS:
        raise ValueError(f"an oracle grid of {grid}^{m} points exceeds the limit of {MAX_GRID_POINTS}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"the tolerance must be finite and positive, got {tolerance}")
    return grid, tolerance


def default_sections(bundle: BundleSpec, grid: int) -> tuple[GridSection, GridSection]:
    """The oracle's section and variation on [0, 1]^m, ``grid`` points per axis.

    Fiber j is ``sin((j+1) pi x_1) sin(pi x_2) ... sin(pi x_m)`` and every
    fiber varies by the bump product ``bump(x_1) ... bump(x_m)``, which
    vanishes with its first two derivatives near the boundary.  Factors
    multiply left to right.
    """
    bounds, shape = ((0.0, 1.0),) * bundle.m, (grid,) * bundle.m
    b = bump(0.0, 1.0)
    waves = {
        p: lambda x, *rest, j=j: math.prod((np.sin(np.pi * c) for c in rest), start=np.sin((j + 1) * np.pi * x))
        for j, p in enumerate(bundle.fiber)
    }
    section = sample_section(bundle, bounds, shape, waves)
    return section, sample_section(bundle, bounds, shape, {p: lambda *xs: math.prod(map(b, xs), start=1.0) for p in bundle.fiber})


def validate(lag: Lagrangian, grid: int) -> list[dict]:
    """The oracle's checks of ``lag`` on the default sections: the total
    derivative of every density, and the action variation when ``lag`` is
    classical.  One row per check, with its relative error.

    A non-finite error, such as NaN from a density evaluated outside its
    domain, is an input the oracle cannot judge: ``ValueError``.  It is
    reported that way only, so numpy's floating-point warnings are silenced.
    """
    section, eta = default_sections(lag.bundle, grid)
    with np.errstate(all="ignore"):
        rows = [
            {"check": "total_derivative", "basis": list(key), "error": check_total_derivative(density, section)}
            for key, density in lag.value.items()
        ]
        if lag.is_classical:
            lhs, rhs, err = check_action_variation(lag, section, eta)
            rows.append({"check": "action_variation", "lhs": lhs, "rhs": rhs, "error": err})
    for row in rows:
        if not math.isfinite(row["error"]):
            what = f"total derivative on dx{row['basis']}" if row["check"] == "total_derivative" else "action variation"
            raise ValueError(f"the oracle cannot judge this input: the {what} has relative error {row['error']}")
    return rows
