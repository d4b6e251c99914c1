"""Numeric evaluation against the earlier ``evaluate``, kept as the reference.

``ref_evaluate`` is the plain sum of products that the one-pass ``evaluate``
replaced: every function atom recomputed wherever it occurs, ``value ** k``
for every factor, and out-of-place arithmetic throughout.  The per-call
memo, the ``k == 1`` shortcut and the in-place accumulation must reproduce
its floats bit for bit, and must never write into the environment: every
environment array here is read-only, so such a write raises.
"""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, strategies as st

from varjet.expr import Expr, FuncAtom, Sym, evaluate

SYMS = (Sym("x"), Sym("u"), Sym("v"))
FUNCS = ("sin", "cos", "exp", "ln", "inv")


def ref_evaluate(e: Expr, env, funcs=None):
    table = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log, "inv": lambda v: 1.0 / v}
    if funcs:
        table.update(funcs)

    def atom_value(a):
        if a in env:
            return env[a]
        if isinstance(a, FuncAtom):
            return table[a.func](*(ref_evaluate(arg, env, funcs) for arg in a.args))
        raise KeyError(a)

    total = 0.0
    for mono, coeff in e._terms.items():
        val = float(coeff)
        for a, k in mono:
            val = val * atom_value(a) ** k
        total = total + val
    return total


coefficients = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


@st.composite
def terms(draw, atoms: list) -> Expr:
    """A coefficient times up to three atoms, each to a power in -2..4
    (a constant term when no atom is drawn)."""
    term = Expr.const(draw(coefficients) or 1)
    for a in draw(st.lists(st.sampled_from(atoms), max_size=3)):
        term = term * Expr.atom(a) ** draw(st.integers(-2, 4))
    return term


@st.composite
def expressions(draw) -> Expr:
    """Sums over coordinate symbols and a few function atoms, some nested in
    others, so that the same atom repeats across terms and arguments."""
    atoms = list(SYMS)
    for _ in range(draw(st.integers(0, 4))):
        arg = sum((draw(terms(atoms)) for _ in range(draw(st.integers(1, 2)))), Expr.const(0))
        if arg.is_zero:
            arg = Expr.atom(SYMS[1])
        atoms.append(FuncAtom(draw(st.sampled_from(FUNCS)), (arg,), (0,)))
    return sum((draw(terms(atoms)) for _ in range(draw(st.integers(1, 6)))), Expr.const(0))


@st.composite
def environments(draw) -> dict:
    """Values of the coordinate symbols: Python floats, or read-only arrays
    on an m = 1 or m = 2 grid with a NaN margin; zeros of both signs turn up
    in either."""
    kind = draw(st.sampled_from(("float", "m1", "m2")))
    if kind == "float":
        return {a: draw(st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-3.0, 3.0))) for a in SYMS}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(3, 12)),) * (1 if kind == "m1" else 2)
    env = {}
    for a in SYMS:
        arr = rng.uniform(-3.0, 3.0, size=shape)
        arr[rng.random(shape) < 0.2] = 0.0  # signed zeros, of either sign
        arr[rng.random(shape) < 0.2] = -0.0
        border = np.ones(shape, dtype=bool)
        border[(slice(1, -1),) * len(shape)] = False
        arr[border] = np.nan
        arr.flags.writeable = False
        env[a] = arr
    return env


def outcome(fn, e: Expr, env):
    """The value's dtype, shape and bytes, or the exception type raised
    (Python floats raise where arrays give inf or NaN)."""
    try:
        with np.errstate(all="ignore"):
            value = fn(e, env)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    arr = np.asarray(value)
    return arr.dtype, arr.shape, arr.tobytes()


ZEROS = dict.fromkeys(SYMS, 0.0)


@given(expressions(), environments())
# The sum starts at +0.0, so a lone term of -0.0 gives +0.0.
@example(-Expr.atom(SYMS[1]), ZEROS)
# np.log returns a numpy scalar NaN with its sign bit set, which ** 1 clears.
@example(Expr.atom(FuncAtom("ln", (Expr.const(-1),), (0,))), ZEROS)
def test_evaluate_matches_reference_bit_for_bit(e, env):
    assert outcome(evaluate, e, env) == outcome(ref_evaluate, e, env)


def test_evaluate_leaves_environment_and_memo_apart():
    # One sin atom in three terms and nested in a fourth; sin(v) must not
    # take the value of sin(u).
    x, u, v = (Expr.atom(a) for a in SYMS)
    s_u = Expr.atom(FuncAtom("sin", (u,), (0,)))
    s_v = Expr.atom(FuncAtom("sin", (v,), (0,)))
    e = s_u + x * s_u + Fraction(1, 3) * s_u**2 + Expr.atom(FuncAtom("exp", (s_u + s_v,), (0,))) + s_v
    grid = np.linspace(0.1, 1.0, 7)
    env = {SYMS[0]: grid, SYMS[1]: 2 * grid, SYMS[2]: -grid}
    before = {a: arr.copy() for a, arr in env.items()}
    for arr in env.values():
        arr.flags.writeable = False
    assert evaluate(e, env).tobytes() == ref_evaluate(e, env).tobytes()
    for a, arr in env.items():
        assert arr.tobytes() == before[a].tobytes()
