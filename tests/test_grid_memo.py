"""The grid memo of ``GridSection``: ``eval_jet_grid`` against the evaluation
it replaced, kept as the reference.

``ref_eval_jet_grid`` is the grid evaluation before the memo: every call
evaluates, and the result is multiplied by ones of the grid's shape.  The
memo must return its floats bit for bit, call after call, and must tell
apart two equal expressions whose terms are summed in different orders.
"""

import functools
import gc
import itertools
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from varjet import oracle
from varjet.bundle import BundleSpec
from varjet.expr import Expr, FuncAtom, evaluate, sym
from varjet.multiindex import MultiIndex
from varjet.oracle import eval_jet_grid, jet_environment, sample_section

BUNDLES = {m: BundleSpec(("x", "y", "z")[:m], ("u",)) for m in (1, 2, 3)}
FUNCS = ("sin", "cos", "exp", "ln", "inv")


def ref_eval_jet_grid(e: Expr, s) -> np.ndarray:
    with np.errstate(all="ignore"):
        return np.asarray(evaluate(e, jet_environment(e, s)), dtype=float) * np.ones(s.shape)


def reordered(e: Expr) -> Expr:
    """An equal expression with its terms, and those of every function
    argument, in reverse insertion order."""

    def atom(a):
        return FuncAtom(a.func, tuple(map(reordered, a.args)), a.derivs) if isinstance(a, FuncAtom) else a

    return Expr({tuple((atom(a), k) for a, k in mono): c for mono, c in reversed(e._terms.items())})


coefficients = st.one_of(st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=11))


@st.composite
def terms(draw, factors: list) -> Expr:
    """A coefficient times up to three factors (a constant when none is drawn)."""
    term = Expr.const(draw(coefficients) or 1)
    for f in draw(st.lists(st.sampled_from(factors), max_size=3)):
        term = term * f ** draw(st.integers(-1, 3))
    return term


@st.composite
def grid_cases(draw):
    """A section factory on an m = 1, 2 or 3 grid, and a sum of terms over
    its base coordinates, jet coordinates up to order 2 (NaN on the
    stencil margin) and function atoms, some of them nested."""
    m = draw(st.sampled_from((1, 2, 3)))
    bundle = BUNDLES[m]
    shape = tuple(draw(st.lists(st.integers(5, {1: 30, 2: 10, 3: 6}[m]), min_size=m, max_size=m)))
    seed = draw(st.integers(0, 2**32 - 1))

    def make():
        values = np.random.default_rng(seed).uniform(-2.0, 2.0, size=shape)
        return oracle.GridSection(bundle, ((0.0, 1.0),) * m, {"u": values})

    jets = [
        bundle.jet("u", MultiIndex(bundle.base, alpha))
        for alpha in itertools.product(range(3), repeat=m)
        if 0 < sum(alpha) <= 2
    ]
    factors = [sym(c) for c in bundle.base + ("u",)] + draw(st.lists(st.sampled_from(jets), max_size=3))
    for _ in range(draw(st.integers(0, 3))):
        arg = sum((draw(terms(factors)) for _ in range(draw(st.integers(1, 3)))), Expr.const(0))
        if arg.is_zero:
            arg = sym("u")
        factors.append(Expr.atom(FuncAtom(draw(st.sampled_from(FUNCS)), (arg,), (0,))))
    e = sum((draw(terms(factors)) for _ in range(draw(st.integers(0, 6)))), Expr.const(0))
    return make, e


LINE = functools.partial(sample_section, BUNDLES[1], ((0.0, 1.0),), (101,), {"u": lambda x: x})
_u, _x = sym("u"), sym("x")
_a, _b, _c = _u / 3, 2 * _x * _u / 7, Expr.const(Fraction(5, 11)) * _x


@settings(max_examples=80, deadline=None)
@given(grid_cases())
# Equal expressions, different sums: 31 of the 101 floats differ.  A memo
# keyed by the expression hands the second one the floats of the first.
@example((LINE, (_c + _a) + _b))
# The same within a function argument.
@example((LINE, Expr.atom(FuncAtom("exp", ((_c + _a) + _b,), (0,)))))
# A constant: evaluate returns a scalar, which the grid's shape broadcasts.
@example((LINE, Expr.const(Fraction(-3, 7))))
def test_memo_matches_the_reference_bit_for_bit(case):
    make, e = case
    s = make()
    other = reordered(e)
    assert other == e
    first = eval_jet_grid(e, s)
    assert first.shape == s.shape
    assert first.tobytes() == ref_eval_jet_grid(e, s).tobytes()
    assert eval_jet_grid(e, s).tobytes() == first.tobytes()
    assert eval_jet_grid(other, s).tobytes() == ref_eval_jet_grid(other, s).tobytes()


def test_memo_pins_the_summation_order():
    # The @example above, spelled out: the two orders must differ for the
    # example to test anything.
    s, e1, e2 = LINE(), (_a + _b) + _c, (_c + _a) + _b
    assert e1 == e2
    assert ref_eval_jet_grid(e1, s).tobytes() != ref_eval_jet_grid(e2, s).tobytes()
    assert eval_jet_grid(e1, s).tobytes() == ref_eval_jet_grid(e1, s).tobytes()
    assert eval_jet_grid(e2, s).tobytes() == ref_eval_jet_grid(e2, s).tobytes()


def test_memo_dies_with_its_section():
    # No reference cycle: with the cycle collector off, dropping the last
    # reference must free the section and the arrays it evaluated.
    gc.disable()
    try:
        s = LINE()
        values = eval_jet_grid(_u * _x + _c, s)
        dead = weakref.ref(s), weakref.ref(values)
        del s, values
        assert [ref() for ref in dead] == [None, None]
    finally:
        gc.enable()


def counting(monkeypatch) -> list:
    calls = []

    def spy(e, env):
        calls.append(e)
        return evaluate(e, env)

    monkeypatch.setattr(oracle, "evaluate", spy)
    return calls


def test_memo_evaluates_each_expression_once_per_section(monkeypatch):
    calls = counting(monkeypatch)
    s, e = LINE(), (_a + _b) + _c
    assert eval_jet_grid(e, s) is eval_jet_grid(e, s)
    assert len(calls) == 1
    eval_jet_grid((_c + _a) + _b, s)
    assert len(calls) == 2
    eval_jet_grid(e, LINE())
    assert len(calls) == 3


def test_perturbed_sections_start_empty(monkeypatch):
    calls = counting(monkeypatch)
    s, e = LINE(), _u * _u
    eta = sample_section(BUNDLES[1], s.bounds, s.shape, {"u": np.sin})
    eval_jet_grid(e, s)
    moved = s.perturbed(eta, 0.0)
    assert moved.values["u"].tobytes() == s.values["u"].tobytes()
    eval_jet_grid(e, moved)
    assert len(calls) == 2


def test_samples_and_results_are_read_only():
    s = LINE()
    samples = s.values["u"]
    with pytest.raises(ValueError):
        samples[3] = 1.0
    values = eval_jet_grid(_u * _u, s)
    with pytest.raises(ValueError):
        values[3] = 1.0
    assert values[3] == samples[3] * samples[3] != 1.0
