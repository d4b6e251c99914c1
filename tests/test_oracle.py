"""The finite-difference oracle.

The references below are the hand-coded stencils that the tensor-product
routine replaced: the branches of ``_derivative_array`` and the central
difference of ``check_total_derivative``.  The routine must reproduce their
floats bit for bit.
"""

import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varjet import oracle
from varjet.bundle import BundleSpec
from varjet.expr import Expr, cos, exp, ln, sin, sym
from varjet.forms import Form
from varjet.multiindex import MultiIndex
from varjet.oracle import (
    GridSection,
    StencilError,
    _derivative_array,
    bump,
    check_action_variation,
    check_total_derivative,
    eval_jet,
    eval_jet_grid,
    sample_section,
)
from varjet.variational import Lagrangian

B1 = BundleSpec(("x",), ("u",))
B2 = BundleSpec(("x", "y"), ("u",))
B3 = BundleSpec(("x", "y", "z"), ("u",))
u = sym("u")
ux = B1.jet("u", MultiIndex(("x",), (1,)))
uxx = B1.jet("u", MultiIndex(("x",), (2,)))


def parabola(n=1001):
    return sample_section(B1, ((0.0, 1.0),), (n,), {"u": lambda x: x**2})


def test_eval_jet_samples_directly():
    s = parabola()
    assert eval_jet(u, s, (500,)) == pytest.approx(0.25, abs=0)


def test_eval_jet_first_derivative():
    s = parabola()
    assert eval_jet(ux, s, (500,)) == pytest.approx(1.0, abs=1e-6)


def test_eval_jet_second_derivative():
    s = parabola()
    assert eval_jet(uxx, s, (500,)) == pytest.approx(2.0, abs=1e-5)


def test_eval_jet_boundary_raises():
    s = parabola()
    with pytest.raises(StencilError):
        eval_jet(ux, s, (0,))


def test_eval_jet_order_cap():
    s = parabola()
    uxxx = B1.jet("u", MultiIndex(("x",), (3,)))
    with pytest.raises(StencilError):
        eval_jet(uxxx, s, (500,))


def test_eval_jet_reports_a_domain_error():
    # ln(u - 2) is NaN at an interior point of an order-0 expression: the
    # stencil has support, the value is outside the domain.  numpy's own
    # warning must not escape; the error says what went wrong.
    s = sample_section(B1, ((0.0, 1.0),), (101,), {"u": lambda x: x})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"point \(50,\) is not finite") as info:
            eval_jet(ln(u - 2), s, (50,))
        assert not isinstance(info.value, StencilError)
        assert np.isnan(eval_jet_grid(ln(u - 2), s)).all()


def test_grid_section_validation():
    with pytest.raises(ValueError):
        GridSection(B1, ((0.0, 1.0),), {"u": np.zeros(4)})
    with pytest.raises(ValueError):
        GridSection(B1, ((0.0, 1.0),), {"v": np.zeros(10)})
    with pytest.raises(ValueError):
        GridSection(B3, ((0.0, 1.0),) * 2, {"u": np.zeros((8, 8, 8))})


def test_check_total_derivative_examples():
    s = sample_section(B1, ((0.0, 1.0),), (1000,), {"u": np.sin})
    assert check_total_derivative(u * u, s) <= 1e-4
    assert check_total_derivative(Expr.const(7), s) == 0.0
    assert check_total_derivative(sym("x"), s) <= 1e-12


def test_convergence_is_second_order():
    coarse = sample_section(B1, ((0.0, 1.0),), (400,), {"u": np.sin})
    fine = sample_section(B1, ((0.0, 1.0),), (799,), {"u": np.sin})
    ratio = check_total_derivative(u * u, coarse) / check_total_derivative(u * u, fine)
    assert 3.0 <= ratio <= 5.0


def oscillator_setup(n=2000):
    lag = Lagrangian(B1, Form(1, ("x",), {(1,): Fraction(1, 2) * (ux**2 - u**2)}))
    s = sample_section(B1, ((0.0, 1.0),), (n,), {"u": lambda x: np.sin(np.pi * x)})
    eta = sample_section(B1, ((0.0, 1.0),), (n,), {"u": bump(0.0, 1.0)})
    return lag, s, eta


def test_action_variation_oscillator():
    lag, s, eta = oscillator_setup()
    lhs, rhs, err = check_action_variation(lag, s, eta)
    assert err <= 1e-4
    assert lhs == pytest.approx(rhs, rel=1e-3)


def test_action_variation_sign_flip():
    lag, s, eta = oscillator_setup(800)
    flipped = GridSection(B1, eta.bounds, {"u": -eta.values["u"]})
    lhs1, rhs1, _ = check_action_variation(lag, s, eta)
    lhs2, rhs2, _ = check_action_variation(lag, s, flipped)
    assert lhs2 == pytest.approx(-lhs1, rel=1e-6)
    assert rhs2 == pytest.approx(-rhs1, rel=1e-6)


def test_action_variation_boundary_warning():
    lag, s, _ = oscillator_setup(800)
    eta_bad = sample_section(B1, ((0.0, 1.0),), (800,), {"u": lambda x: np.ones_like(x)})
    with pytest.warns(UserWarning):
        check_action_variation(lag, s, eta_bad)


def test_action_variation_2d():
    uxp = B2.jet("u", MultiIndex(B2.base, (1, 0)))
    uyp = B2.jet("u", MultiIndex(B2.base, (0, 1)))
    lag = Lagrangian(B2, Form(2, B2.base, {(1, 2): Fraction(1, 2) * (uxp**2 + uyp**2)}))
    bounds = ((0.0, 1.0), (0.0, 1.0))
    s = sample_section(B2, bounds, (160, 160), {"u": lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)})
    bx, by = bump(0.0, 1.0), bump(0.0, 1.0)
    eta = sample_section(B2, bounds, (160, 160), {"u": lambda x, y: bx(x) * by(y)})
    _, _, err = check_action_variation(lag, s, eta)
    assert err <= 1e-3


def test_action_variation_null_lagrangians_pass():
    # u_x dx and (u_x + x u_y + 3 u u_x) dx^dy are total divergences: both
    # sides of the identity are round-off, which is no error.
    lag, s, eta = oscillator_setup(800)
    lhs, rhs, err = check_action_variation(Lagrangian(B1, Form(1, ("x",), {(1,): ux})), s, eta)
    assert rhs == 0.0 and abs(lhs) < 1e-10 and err == 0.0
    uxp = B2.jet("u", MultiIndex(B2.base, (1, 0)))
    uyp = B2.jet("u", MultiIndex(B2.base, (0, 1)))
    density = uxp + sym("x") * uyp + 3 * u * uxp
    bounds = ((0.0, 1.0), (0.0, 1.0))
    s2 = sample_section(B2, bounds, (60, 60), {"u": lambda x, y: np.sin(np.pi * x) * np.cos(y)})
    b = bump(0.0, 1.0)
    eta2 = sample_section(B2, bounds, (60, 60), {"u": lambda x, y: b(x) * b(y)})
    assert check_action_variation(Lagrangian(B2, Form(2, B2.base, {(1, 2): density})), s2, eta2)[2] == 0.0


def test_action_variation_requires_top_degree():
    lag = Lagrangian(B2, Form(1, B2.base, {(1,): u}))
    s = sample_section(B2, ((0.0, 1.0),) * 2, (32, 32), {"u": lambda x, y: x * y})
    with pytest.raises(ValueError):
        check_action_variation(lag, s, s)


# -- the earlier hand-coded stencils ----------------------------------------------


def ref_derivative_array(arr: np.ndarray, exponents: tuple[int, ...], h: tuple[float, ...]) -> np.ndarray:
    order = sum(exponents)
    out = np.full_like(arr, np.nan)
    if order == 0:
        return arr.copy()
    if len(exponents) == 1:
        if order == 1:
            out[1:-1] = (arr[2:] - arr[:-2]) / (2 * h[0])
        else:
            out[1:-1] = (arr[2:] - 2 * arr[1:-1] + arr[:-2]) / h[0] ** 2
        return out
    ex, ey = exponents
    if (ex, ey) == (1, 0):
        out[1:-1, :] = (arr[2:, :] - arr[:-2, :]) / (2 * h[0])
    elif (ex, ey) == (0, 1):
        out[:, 1:-1] = (arr[:, 2:] - arr[:, :-2]) / (2 * h[1])
    elif (ex, ey) == (2, 0):
        out[1:-1, :] = (arr[2:, :] - 2 * arr[1:-1, :] + arr[:-2, :]) / h[0] ** 2
    elif (ex, ey) == (0, 2):
        out[:, 1:-1] = (arr[:, 2:] - 2 * arr[:, 1:-1] + arr[:, :-2]) / h[1] ** 2
    elif (ex, ey) == (1, 1):
        out[1:-1, 1:-1] = (arr[2:, 2:] - arr[2:, :-2] - arr[:-2, 2:] + arr[:-2, :-2]) / (4 * h[0] * h[1])
    return out


def ref_total_derivative_rhs(field: np.ndarray, axis: int, h: float) -> np.ndarray:
    rhs = np.full_like(field, np.nan)
    if field.ndim == 1:
        rhs[1:-1] = (field[2:] - field[:-2]) / (2 * h)
    elif axis == 0:
        rhs[1:-1, :] = (field[2:, :] - field[:-2, :]) / (2 * h)
    else:
        rhs[:, 1:-1] = (field[:, 2:] - field[:, :-2]) / (2 * h)
    return rhs


@st.composite
def sampled_grids(draw):
    m = draw(st.sampled_from((1, 2)))
    shape = tuple(draw(st.lists(st.integers(5, 40), min_size=m, max_size=m)))
    lows = draw(st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m))
    widths = draw(st.lists(st.floats(1e-3, 100.0), min_size=m, max_size=m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** rng.uniform(-5, 4, size=shape)
    values = rng.standard_normal(shape) * scales
    bounds = tuple((lo, lo + w) for lo, w in zip(lows, widths))
    return GridSection(B1 if m == 1 else B2, bounds, {"u": values})


@settings(max_examples=60, deadline=None)
@given(sampled_grids())
def test_stencils_match_hand_coded_bit_for_bit(s):
    arr, h, m = s.values["u"], s.spacing, s.bundle.m
    for exponents in itertools.product(range(3), repeat=m):
        if sum(exponents) <= 2:
            expected = ref_derivative_array(arr, exponents, h)
            assert _derivative_array(arr, exponents, h).tobytes() == expected.tobytes(), exponents
    for axis in range(m):
        unit = tuple(int(a == axis) for a in range(m))
        expected = ref_total_derivative_rhs(arr, axis, h[axis])
        assert _derivative_array(arr, unit, h).tobytes() == expected.tobytes(), axis


# -- base dimension 3 -------------------------------------------------------------


def b3_jet(*exponents):
    return B3.jet("u", MultiIndex(B3.base, exponents))


def test_eval_jet_3d_partials():
    s = sample_section(B3, ((0.0, 1.0), (-1.0, 1.0), (0.0, 2.0)), (9, 11, 13), {"u": lambda x, y, z: x**2 * y + y * z})
    point = (3, 7, 4)
    x, y, z = (s.axis_points(a)[i] for a, i in enumerate(point))
    assert eval_jet(b3_jet(1, 1, 0), s, point) == pytest.approx(2 * x, abs=1e-12)
    assert eval_jet(b3_jet(0, 1, 1), s, point) == pytest.approx(1.0, abs=1e-12)
    assert eval_jet(b3_jet(2, 0, 0), s, point) == pytest.approx(2 * y, abs=1e-12)
    assert eval_jet(b3_jet(0, 0, 2), s, point) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(StencilError):
        eval_jet(b3_jet(1, 0, 0), s, (0, 5, 5))


def test_check_total_derivative_3d_converges():
    def section(n):
        return sample_section(B3, ((0.0, 1.0),) * 3, (n,) * 3, {"u": lambda x, y, z: np.sin(x + 2 * y) * np.cos(z)})

    coarse, fine = section(21), section(41)
    for direction in B3.base:
        ratio = check_total_derivative(u * u, coarse, direction) / check_total_derivative(u * u, fine, direction)
        assert 3.0 <= ratio <= 5.0, direction


def test_action_variation_3d_converges():
    ux, uy, uz = b3_jet(1, 0, 0), b3_jet(0, 1, 0), b3_jet(0, 0, 1)
    lag = Lagrangian(B3, Form(3, B3.base, {(1, 2, 3): Fraction(1, 2) * (ux**2 + uy**2 + uz**2)}))
    b = bump(0.0, 1.0)

    def wave(x, y, z):
        return np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)

    def errors(n):
        bounds, shape = ((0.0, 1.0),) * 3, (n,) * 3
        s = sample_section(B3, bounds, shape, {"u": wave})
        eta = sample_section(B3, bounds, shape, {"u": lambda x, y, z: b(x) * b(y) * b(z)})
        return check_action_variation(lag, s, eta)[2]

    coarse, fine = errors(25), errors(49)
    assert fine <= 1e-2
    assert 3.0 <= coarse / fine <= 5.0


# -- eval_jet reads the grid evaluation -------------------------------------------


def jet_atoms(bundle: BundleSpec, order: int) -> list:
    return [
        bundle.jet("u", MultiIndex(bundle.base, alpha))
        for alpha in itertools.product(range(order + 1), repeat=bundle.m)
        if sum(alpha) == order
    ]


@pytest.mark.parametrize("bundle, shape", [(B1, (41,)), (B2, (13, 11)), (B3, (7, 8, 9))])
def test_eval_jet_reads_the_grid_bit_for_bit(bundle, shape):
    first, second = jet_atoms(bundle, 1), jet_atoms(bundle, 2)
    x = sym("x")
    exprs = [
        u * u + sin(x) * u,  # order 0: defined at every grid point
        x * u + sum(first, Expr.const(0)) + sin(u) * first[0] ** 2 + exp(first[-1]) / 3,
        sum(second, Expr.const(0)) + first[0] * second[-1] + cos(x) * second[0] ** 3 - u,
    ]
    bounds = tuple((-0.5 * a, 1.0 + a) for a in range(bundle.m))
    s = sample_section(bundle, bounds, shape, {"u": lambda *c: np.sin(1.0 + sum((a + 2) * t for a, t in enumerate(c)))})
    rng = np.random.default_rng(bundle.m)
    edges = list(itertools.product(*((1, n - 2) for n in shape)))  # the first and last points with stencil support
    inner = [tuple(int(i) for i in rng.integers(2, np.array(shape) - 2)) for _ in range(3)]
    outer = list(itertools.product(*((0, n - 1) for n in shape)))
    cases = [(e, p) for e in exprs for p in edges + inner] + [(exprs[0], p) for p in outer]
    expected = [eval_jet_grid(e, s)[p] for e, p in cases]
    for (e, p), want in zip(cases, expected):
        assert np.float64(eval_jet(e, s, p)).tobytes() == want.tobytes(), (e, p)


def count_evaluations(monkeypatch) -> list:
    """Record every ``evaluate`` call the oracle makes."""
    calls = []
    real = oracle.evaluate

    def spy(e, env):
        calls.append(e)
        return real(e, env)

    monkeypatch.setattr(oracle, "evaluate", spy)
    return calls


def test_eval_jet_reads_the_grid_memo(monkeypatch):
    e = u * u + sym("x") * ux
    checked = parabola(101)
    check_total_derivative(e, checked)
    calls = count_evaluations(monkeypatch)
    eval_jet(e, checked, (50,))
    assert len(calls) == 0
    fresh = parabola(101)
    eval_jet(e, fresh, (50,))
    assert len(calls) == 1
    eval_jet(e, fresh, (20,))
    assert len(calls) == 1


@pytest.mark.parametrize("point", [(5,), (5, 5, 5), (5.0, 5), (True, 5), 5])
def test_eval_jet_rejects_a_malformed_point(point, monkeypatch):
    s = sample_section(B2, ((0.0, 1.0),) * 2, (11, 11), {"u": lambda x, y: x * y})
    calls = count_evaluations(monkeypatch)
    with pytest.raises(ValueError, match="2 integer indices"):
        eval_jet(u, s, point)
    assert not calls


# -- the oracle driver ------------------------------------------------------------
#
# The references are the set-ups that `default_sections` and
# `classical_lagrangian` replaced: the CLI's section functions and bump
# product, the property suite's oscillator and Dirichlet set-ups, and the
# convergence script's `np.prod` forms.  The floats must match bit for bit.


def _reference_cli_sections(bundle, grid):
    bounds, shape = ((0.0, 1.0),) * bundle.m, (grid,) * bundle.m
    if bundle.m == 1:
        funcs = {p: (lambda x, j=j: np.sin((j + 1) * np.pi * x)) for j, p in enumerate(bundle.fiber)}
    else:
        funcs = {p: (lambda x, y, j=j: np.sin((j + 1) * np.pi * x) * np.sin(np.pi * y)) for j, p in enumerate(bundle.fiber)}
    bumps = [bump(0.0, 1.0) for _ in range(bundle.m)]

    def eta_fn(*coords):
        total = 1.0
        for fn, c in zip(bumps, coords):
            total = total * fn(c)
        return total

    section = sample_section(bundle, bounds, shape, funcs)
    return section, sample_section(bundle, bounds, shape, {p: eta_fn for p in bundle.fiber})


def _reference_script_sections(bundle, grid):
    bounds, shape = ((0.0, 1.0),) * bundle.m, (grid,) * bundle.m
    b = bump(0.0, 1.0)
    section = sample_section(bundle, bounds, shape, {"u": lambda *xs: np.prod([np.sin(np.pi * x) for x in xs], axis=0)})
    eta = sample_section(bundle, bounds, shape, {"u": lambda *xs: np.prod([b(x) for x in xs], axis=0)})
    return section, eta


def _reference_checks_sections(bundle, grid):
    bounds, shape = ((0.0, 1.0),) * bundle.m, (grid,) * bundle.m
    if bundle.m == 1:
        section = sample_section(bundle, bounds, shape, {"u": lambda x: np.sin(np.pi * x)})
        return section, sample_section(bundle, bounds, shape, {"u": bump(0.0, 1.0)})
    bx, by = bump(0.0, 1.0), bump(0.0, 1.0)
    section = sample_section(bundle, bounds, shape, {"u": lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)})
    return section, sample_section(bundle, bounds, shape, {"u": lambda x, y: bx(x) * by(y)})


def _same_bytes(a: GridSection, b: GridSection) -> bool:
    return a.values.keys() == b.values.keys() and all(a.values[p].tobytes() == b.values[p].tobytes() for p in a.values)


@pytest.mark.parametrize(
    "bundle, grid, reference",
    [
        (B1, 2000, _reference_cli_sections),
        (BundleSpec(("x",), ("u", "v")), 301, _reference_cli_sections),
        (B2, 200, _reference_cli_sections),
        (BundleSpec(("x", "y"), ("u", "v")), 41, _reference_cli_sections),
        (B1, 2000, _reference_checks_sections),
        (B2, 200, _reference_checks_sections),
        (B1, 249, _reference_script_sections),
        (B2, 49, _reference_script_sections),
        (B3, 25, _reference_script_sections),
    ],
)
def test_default_sections_match_the_replaced_code_bit_for_bit(bundle, grid, reference):
    section, eta = oracle.default_sections(bundle, grid)
    ref_section, ref_eta = reference(bundle, grid)
    assert _same_bytes(section, ref_section) and _same_bytes(eta, ref_eta)


def test_classical_lagrangian_is_the_hand_built_density():
    from varjet.checks import classical_lagrangian

    def terms_in_order(lag):
        return [(key, list(c._terms.items())) for key, c in lag.value.items()]

    osc = Lagrangian(B1, Form(1, B1.base, {(1,): Fraction(1, 2) * (ux**2 - u**2)}))
    ux2 = B2.jet("u", MultiIndex(B2.base, (1, 0)))
    uy2 = B2.jet("u", MultiIndex(B2.base, (0, 1)))
    dirichlet = Lagrangian(B2, Form(2, B2.base, {(1, 2): Fraction(1, 2) * (ux2**2 + uy2**2)}))
    for m, reference in ((1, osc), (2, dirichlet)):
        lag = classical_lagrangian(m)
        assert lag == reference and lag.bundle == reference.bundle
        assert terms_in_order(lag) == terms_in_order(reference)


def test_axis_points_are_built_once():
    s = sample_section(B2, ((0.0, 1.0), (-1.0, 2.0)), (7, 11), {"u": lambda x, y: x * y})
    for axis, (lo, hi) in enumerate(s.bounds):
        first = s.axis_points(axis)
        assert s.axis_points(axis) is first
        assert first.tobytes() == np.linspace(lo, hi, s.shape[axis]).tobytes()
        assert not first.flags.writeable
