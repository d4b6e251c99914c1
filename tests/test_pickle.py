"""Values pickle, and unpickled values hash like freshly built ones.

Atoms cache their hash at construction.  String hashes differ between
interpreters (``PYTHONHASHSEED``), so a pickled value must be rebuilt from
its public fields, never carry its cached hash along.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import varjet
from varjet.bundle import BundleSpec, JetCoord
from varjet.expr import FuncAtom, Sym, sin, sym
from varjet.forms import Form
from varjet.multiindex import MultiIndex
from varjet.variational import Lagrangian, euler_lagrange

# Builds the same values in any interpreter.
BUILD = """
from varjet.bundle import jet_atom
from varjet.expr import Expr, exp, function, sin, sym
from varjet.multiindex import MultiIndex

alpha = MultiIndex(("x", "y"), (1, 0))
u, ux, du = sym("u"), Expr.atom(jet_atom("u", alpha)), Expr.atom(jet_atom("u", alpha, vertical=True))
values = [
    next(iter(u.atoms())),
    alpha,
    jet_atom("u", alpha),
    u,
    ux * du - 3 * u**2,
    sin(u * ux) + exp(du),
    1 / (u + ux),
    function("F", u, ux * du),
]
"""


def built() -> list:
    scope: dict = {}
    exec(BUILD, scope)
    return scope["values"]


def test_values_round_trip_in_process():
    for value in built():
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value
        assert hash(copy) == hash(value)
        assert {value: 1}[copy] == 1


def test_cached_fields_are_rebuilt_not_copied():
    atom = FuncAtom("F", (sym("u"),), (0,))
    reduced = atom.__reduce__()
    assert reduced == (FuncAtom, ("F", (sym("u"),), (0,)))
    assert Sym("u").__reduce__() == (Sym, ("u",))
    assert JetCoord("u", MultiIndex(("x",), (1,))).__reduce__()[1] == ("u", MultiIndex(("x",), (1,)), False)


def test_unpickled_values_are_found_under_another_hash_seed():
    src = str(Path(varjet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    dump = BUILD + "import pickle, sys\nsys.stdout.buffer.write(pickle.dumps(values))\n"
    load = BUILD + (
        "import pickle, sys\n"
        "loaded = pickle.loads(sys.stdin.buffer.read())\n"
        "table = {v: i for i, v in enumerate(values)}\n"
        "back = {v: i for i, v in enumerate(loaded)}\n"
        "assert [table.get(v) for v in loaded] == list(range(len(values))), 'loaded key not found'\n"
        "assert [back.get(v) for v in values] == list(range(len(values))), 'fresh key not found'\n"
        "assert [hash(v) for v in loaded] == [hash(v) for v in values]\n"
        "print('ok')\n"
    )
    blob = subprocess.run(
        [sys.executable, "-c", dump], env=dict(env, PYTHONHASHSEED="1"), capture_output=True, check=True
    ).stdout
    done = subprocess.run(
        [sys.executable, "-c", load], env=dict(env, PYTHONHASHSEED="2"), input=blob, capture_output=True
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().strip() == "ok"


def test_composite_values_pickle():
    spec = BundleSpec(("x", "y"), ("u",))
    ux = spec.jet("u", MultiIndex(("x", "y"), (1, 0)))
    lag = Lagrangian(spec, Form(2, spec.base, {(1, 2): ux**2 - sin(spec.coord("u"))}))
    copy = pickle.loads(pickle.dumps(lag))
    assert copy == lag
    assert euler_lagrange(copy).components == euler_lagrange(lag).components
